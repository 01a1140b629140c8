"""Independent reference implementations used as test oracles, and a
runner for the console script in a fresh interpreter.

Everything here is deliberately written from first principles (full-matrix
DP, uniform-cost search, merge-by-merge BPE application) and must stay
independent of the package code paths it checks.
"""

from __future__ import annotations

import heapq
import os
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import product
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"


def run_apeforge(args, cwd, env=None):
    """Run `python -m apeforge.cli *args` in a fresh interpreter in `cwd`, as
    a user runs the console script; returns (exit status, stdout, stderr).

    The repository's `src` comes first on PYTHONPATH and OpenBLAS runs one
    thread; `env` is applied on top of that and of the caller's environment.
    """
    pythonpath = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    full_env = {
        **os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": pythonpath, **(env or {})
    }
    proc = subprocess.run(
        [sys.executable, "-m", "apeforge.cli", *map(str, args)],
        cwd=cwd, env=full_env, capture_output=True, encoding="utf-8", timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def lev_matrix(hyp, ref) -> int:
    """Plain full-matrix Levenshtein cost."""
    n, m = len(hyp), len(ref)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]),
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
            )
    return dp[n][m]


def lev_recursive(hyp, ref) -> int:
    """Memoized recursive Levenshtein, structurally different from the DP."""
    from functools import lru_cache

    hyp = tuple(hyp)
    ref = tuple(ref)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j - 1) + (hyp[i - 1] != ref[j - 1]),
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
        )

    return go(len(hyp), len(ref))


def exhaustive_shift_edits(hyp, ref, max_block: int = 10) -> int:
    """Optimal (#shifts + residual edit distance) over all shift sequences.

    Uniform-cost search over hypothesis arrangements. Moves are every block
    shift whose block exactly matches some reference span (the misalignment
    requirement is dropped, so the searched move set is a superset of the
    greedy scorer's). Terminal value of a state is its Levenshtein distance
    to the reference; once the popped path cost reaches the best total found
    so far, no deeper sequence can win and the search stops.
    """
    ref = tuple(ref)
    start = tuple(hyp)
    spans = {
        ref[i:j]
        for i in range(len(ref))
        for j in range(i + 1, min(i + max_block, len(ref)) + 1)
    }
    best = lev_matrix(start, ref)
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, state = heapq.heappop(heap)
        if d >= best:
            break
        if d > dist.get(state, d):
            continue
        best = min(best, d + lev_matrix(state, ref))
        n = len(state)
        for s in range(n):
            for length in range(1, min(max_block, n - s) + 1):
                block = state[s : s + length]
                if block not in spans:
                    break
                rest = state[:s] + state[s + length :]
                for dest in range(len(rest) + 1):
                    if dest == s:
                        continue
                    child = rest[:dest] + block + rest[dest:]
                    nd = d + 1
                    if nd < dist.get(child, nd + 1):
                        dist[child] = nd
                        heapq.heappush(heap, (nd, child))
    return best


def align_reference(hyp, ref) -> list[str]:
    """Full-table Levenshtein DP with traceback: the op sequence of one
    optimal path ('eq', 'sub', 'ins' adds a ref token, 'del' drops a hyp
    token). Ties prefer diagonal moves, then insertions, then deletions."""
    n, m = len(hyp), len(ref)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]),
                dp[i][j - 1] + 1,
                dp[i - 1][j] + 1,
            )
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            same = hyp[i - 1] == ref[j - 1]
            if dp[i][j] == dp[i - 1][j - 1] + (not same):
                ops.append("eq" if same else "sub")
                i -= 1
                j -= 1
                continue
        if j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            ops.append("ins")
            j -= 1
            continue
        ops.append("del")
        i -= 1
    ops.reverse()
    return ops


def edit_counts_reference(hyp, ref):
    """metrics.EditCounts of the align_reference traceback."""
    from apeforge.metrics import EditCounts

    ops = align_reference(hyp, ref)
    ins, dels, subs = (ops.count(op) for op in ("ins", "del", "sub"))
    return EditCounts(cost=ins + dels + subs, insertions=ins, deletions=dels, substitutions=subs)


def ter_greedy_reference(hyp, ref):
    """Greedy-shift TER that scores every candidate shift with a fresh
    full-matrix DP over the whole candidate and tests blocks against a set
    of reference spans; the reference for metrics.ter, which does both with
    bit-parallel columns over the reference's word masks.

    The move set and the tie-break are tercom's, as metrics.ter implements
    them: blocks are hypothesis spans that match a reference span, hold a
    word the align_reference traceback does not match exactly and are at
    most MAX_BLOCK long; the first strictly best gain wins in (start,
    length, dest) order; the search stops early when a shift leaves no
    residual edit.
    """
    from apeforge.metrics import MAX_BLOCK, TerAlignment

    hyp = list(hyp)
    ref = list(ref)
    if not ref:
        return TerAlignment(
            insertions=0,
            deletions=len(hyp),
            substitutions=0,
            shifts=0,
            ref_len=0,
            ter=100.0 * len(hyp),
            degenerate=bool(hyp),
        )
    spans = {
        tuple(ref[i:j])
        for i in range(len(ref))
        for j in range(i + 1, min(i + MAX_BLOCK, len(ref)) + 1)
    }
    cur = hyp
    cost = lev_matrix(cur, ref)
    trace = []
    while cost:
        mis = [op != "eq" for op in align_reference(cur, ref) if op != "ins"]
        n = len(cur)
        best = None  # (gain, start, length, dest, candidate)
        done = False
        for start in range(n):
            if done:
                break
            any_mis = False
            for length in range(1, min(MAX_BLOCK, n - start) + 1):
                block = tuple(cur[start : start + length])
                if block not in spans:
                    break
                any_mis = any_mis or mis[start + length - 1]
                if not any_mis:
                    continue
                rest = cur[:start] + cur[start + length :]
                for dest in range(len(rest) + 1):
                    if dest == start:
                        continue
                    cand = rest[:dest] + list(block) + rest[dest:]
                    gain = cost - lev_matrix(cand, ref)
                    if gain >= 1 and (best is None or gain > best[0]):
                        best = (gain, start, length, dest, cand)
                        if gain == cost:
                            done = True
                            break
                if done:
                    break
        if best is None:
            break
        trace.append((best[1], best[2], best[3]))
        cur = best[4]
        cost -= best[0]

    counts = edit_counts_reference(cur, ref)
    return TerAlignment(
        insertions=counts.insertions,
        deletions=counts.deletions,
        substitutions=counts.substitutions,
        shifts=len(trace),
        ref_len=len(ref),
        ter=100.0 * (counts.cost + len(trace)) / len(ref),
        shift_trace=tuple(trace),
    )


def ter_costs_reference(lists, references):
    """Per n-best list, the sentence TER of each entry against its
    reference as a fraction, every entry scored afresh."""
    import numpy as np

    from apeforge.metrics import ter

    return [
        np.array([ter(e.tokens, ref).ter / 100.0 for e in nbest.entries])
        for nbest, ref in zip(lists, references)
    ]


def search_rescoring_reference(pool_for, references, initial, cfg):
    """The tuner's outer loop with every pool entry scored again in every
    iteration; the reference for tune_on_lists and tune, which score each
    (dev sentence, hypothesis) pair once per call.

    Each iteration takes the pool for the latest weights, runs
    tuner.mira_epochs on it and keeps the averaged weights as a candidate;
    the candidate (initial weights included) with the lowest rerank corpus
    TER on the final pool wins, earliest first on ties.
    """
    import numpy as np

    from apeforge.tuner import mira_epochs, rerank_corpus_ter

    rng = np.random.default_rng(cfg.seed)
    candidates = [dict(initial)]
    for _ in range(cfg.outer_iterations):
        lists = pool_for(candidates[-1])
        costs = ter_costs_reference(lists, references)
        candidates.append(mira_epochs(lists, costs, candidates[-1], cfg, rng))
    scored = [
        (rerank_corpus_ter(lists, cand, references), i)
        for i, cand in enumerate(candidates)
    ]
    return candidates[min(scored)[1]]


def tune_rescoring_reference(dev, binding_factory, cfg):
    """tuner.tune through search_rescoring_reference: uniform initial
    weights, and per dev sentence a pool of its distinct decoded
    hypotheses, first decoded first."""
    from apeforge.decoder import NBestList, decode, feature_names, reweight

    bindings, pep = binding_factory(dev[0])
    names = feature_names((b.name for b in bindings), pep)
    initial = {n: 1.0 / len(names) for n in names}
    pool = [{} for _ in dev]

    def pool_for(weights):
        for i, triplet in enumerate(dev):
            bindings, pep = reweight(*binding_factory(triplet), weights)
            for entry in decode(bindings, pep=pep, beam=cfg.beam, sentence_id=i).entries:
                pool[i].setdefault(entry.tokens, entry)
        return [NBestList(i, tuple(entries.values())) for i, entries in enumerate(pool)]

    return search_rescoring_reference(pool_for, [t.pe for t in dev], initial, cfg)


@dataclass(frozen=True)
class _Discounts:
    d1: float
    d2: float
    d3: float

    def of(self, count: int) -> float:
        if count <= 0:
            return 0.0
        if count == 1:
            return self.d1
        if count == 2:
            return self.d2
        return self.d3


def _estimate_discounts(counts_of_counts: Counter) -> _Discounts:
    n1 = counts_of_counts.get(1, 0)
    n2 = counts_of_counts.get(2, 0)
    n3 = counts_of_counts.get(3, 0)
    n4 = counts_of_counts.get(4, 0)
    d1, d2, d3 = 0.5, 1.0, 1.5  # fallbacks for degenerate histograms
    if n1 > 0 and n2 > 0:
        y = n1 / (n1 + 2 * n2)
        d1 = 1.0 - 2.0 * y * n2 / n1
        if n3 > 0:
            d2 = 2.0 - 3.0 * y * n3 / n2
            if n4 > 0:
                d3 = 3.0 - 4.0 * y * n4 / n3
    # keep every bucket strictly discounting but never below zero mass
    d1 = min(max(d1, 0.05), 1.0)
    d2 = min(max(d2, 0.05), 2.0)
    d3 = min(max(d3, 0.05), 3.0)
    return _Discounts(d1, d2, d3)


def train_lm_reference(corpus, order=3):
    """Interpolated modified Kneser-Ney by dict counting over word tuples:
    the estimator ngram_lm.train_lm replaced, whose probabilities and
    backoff weights train_lm must reproduce to the last bit."""
    from apeforge.ngram_lm import BOS, EOS, UNK, LmError, NgramLm

    if order < 1:
        raise LmError("order must be >= 1")
    sentences = [tuple(s) for s in corpus]
    total_tokens = sum(len(s) for s in sentences)
    if total_tokens < order:
        raise LmError(
            f"corpus has {total_tokens} tokens; need at least {order} to "
            f"estimate an order-{order} model"
        )

    raw: list[Counter] = [Counter() for _ in range(order + 1)]  # raw[n], n>=1
    for s in sentences:
        padded = (BOS,) + s + (EOS,)
        for n in range(1, order + 1):
            grams = raw[n]
            for i in range(len(padded) - n + 1):
                grams[padded[i : i + n]] += 1

    # adjusted counts: raw at the top order, continuation counts below,
    # except begin-marker-initial n-grams which cannot be extended left
    adjusted: list[dict] = [None] * (order + 1)
    # the begin marker is context only at every order, the top one included
    adjusted[order] = {g: c for g, c in raw[order].items() if g != (BOS,) * order}
    for n in range(order - 1, 0, -1):
        preceders: defaultdict = defaultdict(set)
        for gram in raw[n + 1]:
            preceders[gram[1:]].add(gram[0])
        adj = {}
        for gram, count in raw[n].items():
            if gram == (BOS,) * n:
                continue  # pure-begin-marker grams are context only
            if gram[0] == BOS:
                adj[gram] = count
            else:
                adj[gram] = len(preceders[gram])
        adjusted[n] = adj

    vocab = frozenset(w for (w,) in adjusted[1]) | {UNK}
    vocab_size = len(vocab)

    probs: dict[tuple[str, ...], float] = {}
    bows: dict[tuple[str, ...], float] = {}

    # unigrams: interpolate with the uniform distribution over the vocab
    uni = adjusted[1]
    disc = _estimate_discounts(Counter(uni.values()))
    total = sum(uni.values())
    gamma = sum(disc.of(c) for c in uni.values()) / total
    for w in vocab:
        c = uni.get((w,), 0)
        probs[(w,)] = (max(c - disc.of(c), 0.0) / total) + gamma / vocab_size

    for n in range(2, order + 1):
        counts = adjusted[n]
        disc = _estimate_discounts(Counter(counts.values()))
        totals: Counter = Counter()
        disc_mass: Counter = Counter()
        for gram, c in counts.items():
            totals[gram[:-1]] += c
            disc_mass[gram[:-1]] += disc.of(c)
        for ctx in totals:
            bows[ctx] = disc_mass[ctx] / totals[ctx]
        for gram, c in counts.items():
            ctx = gram[:-1]
            lower = probs[gram[1:]]
            probs[gram] = max(c - disc.of(c), 0.0) / totals[ctx] + bows[ctx] * lower

    return NgramLm(order=order, vocab=vocab, probs=probs, bows=bows)


def write_arpa_reference(lm, path):
    """ARPA text of `lm` written line by line, each order sorted by a key
    function: the writer ngram_lm.write_arpa replaced, whose bytes
    write_arpa must reproduce."""
    import math

    from apeforge.ngram_lm import BOS, LOG10_FLOOR

    by_order: list[list[tuple[tuple[str, ...], float]]] = [
        [] for _ in range(lm.order + 1)
    ]
    for gram, p in lm.probs.items():
        by_order[len(gram)].append((gram, p))
    for grams in by_order:
        grams.sort(key=lambda gp: gp[0])

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\\data\\\n")
        counts = [len(by_order[n]) + (1 if n == 1 else 0) for n in range(lm.order + 1)]
        for n in range(1, lm.order + 1):
            fh.write(f"ngram {n}={counts[n]}\n")
        for n in range(1, lm.order + 1):
            fh.write(f"\n\\{n}-grams:\n")
            rows = by_order[n]
            if n == 1:
                rows = sorted(rows + [((BOS,), None)], key=lambda gp: gp[0])
            for gram, p in rows:
                lp = LOG10_FLOOR if p is None else math.log10(p)
                line = f"{lp!r}\t{' '.join(gram)}"
                if n < lm.order and gram in lm.bows:
                    line += f"\t{math.log10(lm.bows[gram])!r}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def bpe_apply_reference(merges, token: str, end_marker: str = "</w>") -> list[str]:
    """Apply merges strictly in learned order, one full pass per merge."""
    syms = list(token) + [end_marker]
    for left, right in merges:
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    if syms[-1] == end_marker:
        syms = syms[:-1]
    elif syms[-1].endswith(end_marker):
        syms[-1] = syms[-1][: -len(end_marker)]
    return syms


def all_sentences(alphabet, max_len):
    """Every token sequence up to max_len over the alphabet (incl. empty)."""
    for n in range(max_len + 1):
        yield from (list(p) for p in product(alphabet, repeat=n))


def beam_search_single(model, src, beam, length_norm=True):
    """Plain beam search over one sequence model; the comparison standard
    for the ensemble decoder's degenerate single-component case.

    Returns [(tokens, score)] ranked best first. Conventions: candidates
    ordered by (-raw score, token id, parent index); finished hypotheses
    pool up; stop when the pool holds `beam` and no live raw score can beat
    its worst, or at 3x the input length; final scores divided by emitted
    length (end symbol included) when length_norm.
    """
    import numpy as np

    from apeforge.corpus import Vocab
    from apeforge.nmt.model import DecodeState

    vocab = model.tgt_vocab
    live = [((), Vocab.BOS, 0.0, DecodeState.start(model, list(src)))]
    done = []
    for _ in range(3 * len(src)):
        ranked = []
        stepped = []
        for parent, (ids, last, score, state) in enumerate(live):
            logp, new_state = state.step([0], [last])
            stepped.append(new_state)
            for token in range(len(vocab)):
                ranked.append((score + float(logp[0, token]), token, parent))
        ranked.sort(key=lambda c: (-c[0], c[1], c[2]))
        live_next = []
        for score, token, parent in ranked[:beam]:
            ids = live[parent][0] + (token,)
            if token == Vocab.EOS:
                done.append((ids, score))
            else:
                live_next.append((ids, token, score, stepped[parent]))
        live = live_next
        if not live:
            break
        if len(done) >= beam:
            worst = sorted(s for _, s in done)[-beam]
            if max(s for _, _, s, _ in live) <= worst:
                break
    pool = done if done else [(ids, score) for ids, _, score, _ in live]
    out = []
    for ids, score in pool:
        final = score / len(ids) if length_norm else score
        words = vocab.words(t for t in ids if t != Vocab.EOS)
        out.append((words, final))
    out.sort(key=lambda e: (-e[1], e[0]))
    return out[:beam]


def exact_accuracy(model, pairs) -> float:
    """Fraction of (source ids, target ids) pairs whose beam-1 decode with
    `model` alone reproduces the target exactly."""
    from apeforge.decoder import NmtScorer, ScorerBinding, decode

    scorer = NmtScorer(model)
    hits = 0
    for src, tgt in pairs:
        best = decode([ScorerBinding("nmt", scorer, tuple(src), 1.0)], beam=1)
        hits += best.entries[0].tokens == model.tgt_vocab.words(tgt)
    return hits / len(pairs)


def decode_one_row(bindings, pep=None, beam=12, sentence_id=0):
    """The ensemble beam search advanced one hypothesis at a time; the
    reference for decoder.decode, which advances the whole beam per scorer
    call and picks from a score matrix.

    Each live hypothesis keeps its own one-row scorer states and steps them
    with moves [[0, last token]]. Candidates are Python tuples sorted on
    (-raw score, token id, parent index); the stop rule, the 3x-input cap,
    the truncation flag and the length-normalised final ranking are those
    decode documents.
    """
    import numpy as np

    from apeforge.corpus import Vocab
    from apeforge.decoder import PEP_NAME, NBestEntry, NBestList, assemble

    vocab = assemble(bindings)
    n_scorers = len(bindings)
    names = [b.name for b in bindings] + ([PEP_NAME] if pep is not None else [])
    weights = np.array(
        [b.weight for b in bindings] + ([pep.weight] if pep is not None else [])
    )
    pep_vec = pep.vector(len(vocab)) if pep is not None else None

    # (ids, last token, feature totals, raw score, per-scorer one-row states)
    live = [((), Vocab.BOS, np.zeros(len(names)), 0.0,
             [b.scorer.start(b.input_ids) for b in bindings])]
    completed = []
    cap = 3 * max(len(b.input_ids) for b in bindings)
    for _ in range(cap):
        increments = []
        for _, last, _, _, states in live:
            logps, new_states = [], []
            for binding, state in zip(bindings, states):
                lp, new_state = binding.scorer.step(state, np.array([[0, last]]))
                logps.append(lp[0])
                new_states.append(new_state)
            increments.append((logps, new_states))

        candidates = []
        for parent, (hyp, (logps, _)) in enumerate(zip(live, increments)):
            inc = np.zeros(len(vocab))
            for w, lp in zip(weights[:n_scorers], logps):
                inc += w * lp
            if pep_vec is not None:
                inc += pep.weight * pep_vec
            scores = hyp[3] + inc
            for token in range(len(vocab)):
                candidates.append((float(scores[token]), token, parent))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

        next_live = []
        for score, token, parent in candidates[:beam]:
            ids, _, feats, _, _ = live[parent]
            logps, states = increments[parent]
            feats = feats.copy()
            for i, lp in enumerate(logps):
                feats[i] += float(lp[token])
            if pep_vec is not None:
                feats[-1] += pep_vec[token]
            child = (ids + (token,), token, feats, score, states)
            if token == Vocab.EOS:
                completed.append(child)
            else:
                next_live.append(child)
        live = next_live
        if not live:
            break
        if len(completed) >= beam:
            worst = sorted(h[3] for h in completed)[-beam]
            if max(h[3] for h in live) <= worst:
                break

    truncated = not completed
    entries = []
    for ids, _, feats, score, _ in completed if completed else live:
        scale = 1.0 / max(len(ids), 1)
        tokens = vocab.words(t for t in ids if t != Vocab.EOS)
        named = tuple((n, float(v * scale)) for n, v in zip(names, feats))
        entries.append((score * scale, tokens, NBestEntry(tokens, named, float(score * scale))))
    entries.sort(key=lambda e: (-e[0], e[1]))
    return NBestList(
        sentence_id=sentence_id,
        entries=tuple(e[2] for e in entries[:beam]),
        truncated=truncated,
    )


def gru_step_reference(params, prefix, x, h_prev, m, dh):
    """One masked GRU step, forward and backward, over per-gate tensors: the
    reference for the fused `nmt.model._GruStep`.

    `params` holds `{prefix}_W{g}` (H, in), `{prefix}_U{g}` (H, H) and
    `{prefix}_b{g}` (H,) for each gate g in z, r, h. `m` is the (B,) row
    mask and `dh` the gradient reaching the step's output. Returns
    (h, dx, dh_prev, grads), with grads keyed like `params`.
    """
    import numpy as np

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    def w(name):
        return params[f"{prefix}_{name}"]

    z = sigmoid(x @ w("Wz").T + h_prev @ w("Uz").T + w("bz"))
    r = sigmoid(x @ w("Wr").T + h_prev @ w("Ur").T + w("br"))
    c = np.tanh(x @ w("Wh").T + (r * h_prev) @ w("Uh").T + w("bh"))
    h_new = (1.0 - z) * h_prev + z * c
    mask = m[:, None]
    h = mask * h_new + (1.0 - mask) * h_prev

    grads = {}
    dh_new = dh * mask
    dh_prev = dh * (1.0 - mask) + dh_new * (1.0 - z)
    dac = dh_new * z * (1.0 - c**2)
    grads[f"{prefix}_Wh"] = dac.T @ x
    grads[f"{prefix}_Uh"] = dac.T @ (r * h_prev)
    grads[f"{prefix}_bh"] = dac.sum(axis=0)
    dx = dac @ w("Wh")
    drh = dac @ w("Uh")
    dh_prev += drh * r
    for g, da in (
        ("z", dh_new * (c - h_prev) * z * (1.0 - z)),
        ("r", drh * h_prev * r * (1.0 - r)),
    ):
        grads[f"{prefix}_W{g}"] = da.T @ x
        grads[f"{prefix}_U{g}"] = da.T @ h_prev
        grads[f"{prefix}_b{g}"] = da.sum(axis=0)
        dx += da @ w(f"W{g}")
        dh_prev += da @ w(f"U{g}")
    return h, dx, dh_prev, grads


def loss_and_grads(model, pairs):
    """Mean per-token cross-entropy and gradients of one batch of (source
    ids, target ids) pairs."""
    from apeforge.nmt.model import backward_batch, batch_arrays, forward_batch

    loss, cache = forward_batch(model, *batch_arrays(pairs))
    return loss, backward_batch(model, cache)



def _softmax_reference(x, log=False):
    import numpy as np

    shifted = x - x.max(axis=-1, keepdims=True)
    if log:
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class _GruStepReference:
    """One masked fused-gate GRU step, forward and backward, over the
    model's `{prefix}_W`, `_b`, `_Uzr` and `_Uh` tensors."""

    def __init__(self, p, prefix, x, h_prev, m):
        import numpy as np

        hd = h_prev.shape[1]
        self.x, self.h_prev, self.m = x, h_prev, m
        a = x @ p[prefix + "_W"].T + p[prefix + "_b"]
        self.zr = 0.5 * (1.0 + np.tanh(0.5 * (a[:, : 2 * hd] + h_prev @ p[prefix + "_Uzr"].T)))
        z, r = self.zr[:, :hd], self.zr[:, hd:]
        self.c = np.tanh(a[:, 2 * hd :] + (r * h_prev) @ p[prefix + "_Uh"].T)
        h_new = (1.0 - z) * h_prev + z * self.c
        self.h = m[:, None] * h_new + (1.0 - m[:, None]) * h_prev

    def backward(self, p, prefix, dh, grads):
        """Returns (dx, dh_prev)."""
        import numpy as np

        hd = dh.shape[1]
        z, r = self.zr[:, :hd], self.zr[:, hd:]
        m = self.m[:, None]
        dh_new = dh * m
        dh_prev = dh * (1.0 - m) + dh_new * (1.0 - z)
        dac = dh_new * z * (1.0 - self.c**2)
        grads[prefix + "_Uh"] += dac.T @ (r * self.h_prev)
        drh = dac @ p[prefix + "_Uh"]
        dh_prev += drh * r
        dzr = np.concatenate([dh_new * (self.c - self.h_prev), drh * self.h_prev], axis=1)
        dazr = dzr * self.zr * (1.0 - self.zr)
        da = np.concatenate([dazr, dac], axis=1)
        grads[prefix + "_W"] += da.T @ self.x
        grads[prefix + "_b"] += da.sum(axis=0)
        grads[prefix + "_Uzr"] += dazr.T @ self.h_prev
        dh_prev += dazr @ p[prefix + "_Uzr"]
        return da @ p[prefix + "_W"], dh_prev


class _EncoderReference:
    """Bidirectional encoder, its initial decoder state `s0` and its
    attention keys `u = annotations @ att_U.T` (without `att_b`)."""

    def __init__(self, model, src_ids, src_mask):
        import numpy as np

        p = model.params
        self.src_ids, self.src_mask = src_ids, src_mask
        self.x = p["src_emb"][src_ids]
        b, ts, _ = self.x.shape
        self.directions = []
        for prefix, positions in (("enc_f", range(ts)), ("enc_b", range(ts)[::-1])):
            steps = [None] * ts
            state = np.zeros((b, model.hidden_dim))
            for j in positions:
                steps[j] = _GruStepReference(p, prefix, self.x[:, j], state, src_mask[:, j])
                state = steps[j].h
            self.directions.append((prefix, positions, steps))
        self.annotations = np.concatenate(
            [np.stack([s.h for s in steps], axis=1) for _, _, steps in self.directions], axis=2
        )
        self.lengths = src_mask.sum(axis=1)
        self.mean = (self.annotations * src_mask[:, :, None]).sum(axis=1) / self.lengths[:, None]
        self.s0 = np.tanh(self.mean @ p["init_W"].T + p["init_b"])
        self.u = self.annotations @ p["att_U"].T

    def backward(self, model, d_annotations, d_u, ds0, grads):
        import numpy as np

        p = model.params
        h = model.hidden_dim
        dpre0 = ds0 * (1.0 - self.s0**2)
        grads["init_W"] += dpre0.T @ self.mean
        grads["init_b"] += dpre0.sum(axis=0)
        d_mean = dpre0 @ p["init_W"]
        grads["att_U"] += np.einsum("bta,btd->ad", d_u, self.annotations)
        d_annotations += d_u @ p["att_U"]
        dh_all = d_annotations + (
            d_mean[:, None, :] * self.src_mask[:, :, None] / self.lengths[:, None, None]
        )
        dx = np.zeros_like(self.x)
        for k, (prefix, positions, steps) in enumerate(self.directions):
            carry = np.zeros_like(ds0)
            for j in reversed(positions):
                dxj, carry = steps[j].backward(
                    p, prefix, dh_all[:, j, k * h : (k + 1) * h] + carry, grads
                )
                dx[:, j] += dxj
        np.add.at(grads["src_emb"], self.src_ids, dx)


class _AttentionStepReference:
    """Additive attention with broadcast-multiply-reduce contractions and a
    per-step `att_b`: the reference for `nmt.model`'s attention step."""

    def __init__(self, p, s_prev, encoder):
        import numpy as np

        self.s_prev = s_prev
        self.annotations = encoder.annotations
        self.q = s_prev @ p["att_W"].T  # (B, A)
        self.g = np.tanh(self.q[:, None, :] + encoder.u + p["att_b"])  # (B,Ts,A)
        scores = self.g @ p["att_v"]  # (B, Ts)
        scores = np.where(encoder.src_mask > 0, scores, -1e30)
        self.alpha = _softmax_reference(scores)
        self.ctx = (self.alpha[:, :, None] * self.annotations).sum(axis=1)

    def backward(self, p, dctx, grads):
        """Returns (ds_prev, d_annotations, d_u)."""
        import numpy as np

        d_alpha = np.einsum("bd,btd->bt", dctx, self.annotations)
        d_annotations = self.alpha[:, :, None] * dctx[:, None, :]
        inner = (d_alpha * self.alpha).sum(axis=1, keepdims=True)
        d_scores = self.alpha * (d_alpha - inner)
        grads["att_v"] += np.einsum("bt,bta->a", d_scores, self.g)
        dg = d_scores[:, :, None] * p["att_v"]
        dpre = dg * (1.0 - self.g**2)
        grads["att_b"] += dpre.sum(axis=(0, 1))
        dq = dpre.sum(axis=1)
        grads["att_W"] += dq.T @ self.s_prev
        ds_prev = dq @ p["att_W"]
        return ds_prev, d_annotations, dpre


def decode_step_reference(model, src_ids, src_mask, s_prev, prev_ids):
    """One decoder step for the rows of `s_prev` over a (1, Ts) source that
    may be padded, read straight from `model.params` (every product by a
    `W.T` view): attention, the fused `dec` GRU with every row live, and the
    output log-softmax. The reference for `DecodeState.step`; returns the
    (B, V) log-probs and the (B, H) new state."""
    import numpy as np

    p = model.params
    att = _AttentionStepReference(p, s_prev, _EncoderReference(model, src_ids, src_mask))
    e_prev = p["tgt_emb"][prev_ids]
    x = np.concatenate([e_prev, att.ctx], axis=1)
    gru = _GruStepReference(p, "dec", x, s_prev, np.ones(len(prev_ids)))
    feat = np.concatenate([gru.h, att.ctx, e_prev], axis=1)
    return _softmax_reference(feat @ p["out_W"].T + p["out_b"], log=True), gru.h


def forward_backward_reference(model, pairs):
    """Loss, per-step (B, V) logps and gradients of one padded batch of
    (source ids, target ids) pairs, with the output layer and every
    attention contraction computed step by step: the reference for
    `nmt.model.forward_batch` and `backward_batch`."""
    import numpy as np

    from apeforge.nmt.model import batch_arrays

    p = model.params
    src_ids, src_mask, tgt_in, tgt_out, tgt_mask = batch_arrays(pairs)
    enc = _EncoderReference(model, src_ids, src_mask)
    b, tt = tgt_in.shape
    e, h = model.embedding_dim, model.hidden_dim
    ctx_dim = 2 * h
    rows = np.arange(b)
    n_tokens = tgt_mask.sum()

    state = enc.s0
    steps = []
    loss = 0.0
    for t in range(tt):
        att = _AttentionStepReference(p, state, enc)
        e_prev = p["tgt_emb"][tgt_in[:, t]]
        x = np.concatenate([e_prev, att.ctx], axis=1)
        gru = _GruStepReference(p, "dec", x, state, tgt_mask[:, t])
        feat = np.concatenate([gru.h, att.ctx, e_prev], axis=1)
        logp = _softmax_reference(feat @ p["out_W"].T + p["out_b"], log=True)
        loss -= (logp[rows, tgt_out[:, t]] * tgt_mask[:, t]).sum()
        steps.append((att, gru, feat, logp))
        state = gru.h

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    d_annotations = np.zeros_like(enc.annotations)
    d_u = np.zeros_like(enc.u)
    ds = np.zeros((b, h))
    for t in reversed(range(tt)):
        att, gru, feat, logp = steps[t]
        dlogits = np.exp(logp)
        dlogits[rows, tgt_out[:, t]] -= 1.0
        dlogits *= tgt_mask[:, t][:, None] / n_tokens

        grads["out_W"] += dlogits.T @ feat
        grads["out_b"] += dlogits.sum(axis=0)
        dfeat = dlogits @ p["out_W"]
        ds_t = ds + dfeat[:, :h]
        dctx = dfeat[:, h : h + ctx_dim]
        de_prev = dfeat[:, h + ctx_dim :]

        dx, ds_prev = gru.backward(p, "dec", ds_t, grads)
        de_prev += dx[:, :e]
        dctx += dx[:, e:]

        ds_att, d_ann_t, dpre_t = att.backward(p, dctx, grads)
        ds_prev += ds_att
        d_annotations += d_ann_t
        d_u += dpre_t

        np.add.at(grads["tgt_emb"], tgt_in[:, t], de_prev)
        ds = ds_prev

    enc.backward(model, d_annotations, d_u, ds, grads)
    return float(loss / n_tokens), [logp for _, _, _, logp in steps], grads
