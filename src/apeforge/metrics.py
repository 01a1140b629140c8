"""Translation error rate (with block shifts) and corpus BLEU.

TER here is the classic greedy-shift formulation: repeatedly apply the block
shift that most reduces the word-level edit distance, at unit cost per shift,
then combine the shift count with the residual insertion/deletion/substitution
counts. Scores are percentages of the reference length. Candidate shifts
are scored with bit-parallel Levenshtein, resumed from the DP state of the
prefix each candidate shares with the current hypothesis; the traceback DP
runs only for the decomposition of each accepted arrangement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import Sequence

# tercom convention: shifted blocks are capped at this many words.
MAX_BLOCK = 10
# BLEU-4: n-gram precisions of orders 1..BLEU_ORDER.
BLEU_ORDER = 4


@dataclass(frozen=True)
class EditCounts:
    """Word-level Levenshtein outcome, decomposed from one optimal traceback.

    insertions: reference tokens that must be added to the hypothesis
    deletions:  hypothesis tokens that must be removed
    """

    cost: int
    insertions: int
    deletions: int
    substitutions: int


@dataclass(frozen=True)
class TerAlignment:
    """Edit decomposition of a hypothesis/reference pair.

    shift_trace records each accepted block shift as (start, length, dest):
    the block cur[start:start+length] was removed and reinserted at index
    dest of the shortened sequence. Replaying the trace on the original
    hypothesis yields the reordering that the residual counts score.
    """

    insertions: int
    deletions: int
    substitutions: int
    shifts: int
    ref_len: int
    ter: float
    shift_trace: tuple[tuple[int, int, int], ...] = ()
    degenerate: bool = False

    @property
    def num_edits(self) -> int:
        return self.insertions + self.deletions + self.substitutions + self.shifts


def _align(hyp: Sequence[str], ref: Sequence[str]) -> list[str]:
    """Full DP with traceback; returns the op sequence of one optimal path.

    Ops are 'eq', 'sub', 'ins' (ref token added to hyp), 'del' (hyp token
    dropped). Ties prefer diagonal moves, then insertions, then deletions,
    which pins a single deterministic decomposition.
    """
    n, m = len(hyp), len(ref)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        row = dp[i]
        prev_row = dp[i - 1]
        h = hyp[i - 1]
        for j in range(1, m + 1):
            diag = prev_row[j - 1] + (0 if h == ref[j - 1] else 1)
            ins = row[j - 1] + 1
            dele = prev_row[j] + 1
            row[j] = min(diag, ins, dele)
    ops: list[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            diag = dp[i - 1][j - 1] + (0 if hyp[i - 1] == ref[j - 1] else 1)
            if dp[i][j] == diag:
                ops.append("eq" if hyp[i - 1] == ref[j - 1] else "sub")
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


def _counts_from_ops(ops: Sequence[str]) -> EditCounts:
    c = Counter(ops)
    return EditCounts(
        cost=c["ins"] + c["del"] + c["sub"],
        insertions=c["ins"],
        deletions=c["del"],
        substitutions=c["sub"],
    )


def edit_distance(hyp: Sequence[str], ref: Sequence[str]) -> EditCounts:
    """Word-level Levenshtein distance with decomposed edit counts."""
    return _counts_from_ops(_align(hyp, ref))


def _hyp_misalignment(ops: Sequence[str]) -> list[bool]:
    """Per-hypothesis-token flag: True unless matched exactly in the traceback."""
    flags = []
    for op in ops:
        if op == "eq":
            flags.append(False)
        elif op in ("sub", "del"):
            flags.append(True)
        # 'ins' consumes no hypothesis token
    return flags


def _ref_spans(ref: Sequence[str]) -> set[tuple[str, ...]]:
    spans = set()
    m = len(ref)
    for i in range(m):
        for j in range(i + 1, min(i + MAX_BLOCK, m) + 1):
            spans.add(tuple(ref[i:j]))
    return spans


def _advance(peq: dict, mask: int, high: int, state, tokens):
    """Bit-parallel Levenshtein (Myers 1999, global form of Hyyrö 2001).

    state = (vp, vn, cost) is one DP column over the reference: bit i of
    vp/vn is set where cell i+1 exceeds/undercuts cell i by one, and cost is
    the distance from the hypothesis tokens scanned so far to the whole
    reference. peq maps each reference word to the bitmask of its positions.
    Returns the state after scanning `tokens`.
    """
    vp, vn, cost = state
    for tok in tokens:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        if hp & high:
            cost += 1
        elif hn & high:
            cost -= 1
        # The top row is D[0][j] = j, so a +1 horizontal delta enters at bit 0.
        hp = (hp << 1) | 1
        vn = hp & d0
        vp = ((hn << 1) | ~(hp | d0)) & mask
    return vp, vn, cost


def ter(hyp: Sequence[str], ref: Sequence[str]) -> TerAlignment:
    """Greedy-shift TER of a hypothesis against one reference.

    Each round scans every movable block (contiguous hypothesis span that
    exactly matches some reference span and contains at least one currently
    misaligned token, length <= MAX_BLOCK) over every target position, applies
    the shift with the largest edit-distance reduction, and charges one edit
    for it. Ties break on (block start, block length, target position). The
    loop stops when no shift strictly reduces the residual edit distance.

    An empty reference with a non-empty hypothesis yields the degenerate score
    100 * len(hyp) with the `degenerate` flag set.
    """
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
    if hyp == ref:
        return TerAlignment(0, 0, 0, 0, len(ref), 0.0)

    cur = hyp
    ops = _align(cur, ref)
    cost = sum(1 for op in ops if op != "eq")
    shifts = 0
    trace: list[tuple[int, int, int]] = []

    if cost:
        spans = _ref_spans(ref)
        m = len(ref)
        peq: dict[str, int] = {}
        for i, word in enumerate(ref):
            peq[word] = peq.get(word, 0) | (1 << i)
        mask = (1 << m) - 1
        high = 1 << (m - 1)
        while True:
            mis = _hyp_misalignment(ops)
            n = len(cur)
            # DP state after each prefix of cur, extended as blocks need it
            prefix = [(mask, 0, m)]
            best = None  # (gain, start, length, dest)
            done = False
            for start in range(n):
                if done:
                    break
                any_mis = False
                limit = min(MAX_BLOCK, n - start)
                for length in range(1, limit + 1):
                    block = cur[start : start + length]
                    if tuple(block) not in spans:
                        # prefix closure: longer blocks from here can't match
                        break
                    any_mis = any_mis or mis[start + length - 1]
                    if not any_mis:
                        continue
                    while len(prefix) <= start:
                        p = len(prefix)
                        prefix.append(_advance(peq, mask, high, prefix[-1], cur[p - 1 : p]))
                    after = cur[start + length :]
                    # A candidate equals cur up to min(start, dest), so only
                    # its tail from there on is scanned.
                    for dest in range(n - length + 1):
                        if dest < start:
                            state, tail = prefix[dest], block + cur[dest:start] + after
                        elif dest > start:
                            k = dest - start
                            state, tail = prefix[start], after[:k] + block + after[k:]
                        else:
                            continue
                        gain = cost - _advance(peq, mask, high, state, tail)[2]
                        if gain >= 1 and (best is None or gain > best[0]):
                            best = (gain, start, length, dest)
                            if gain == cost:
                                done = True  # residual hit zero, cannot improve
                                break
                    if done:
                        break
            if best is None:
                break
            gain, start, length, dest = best
            shifts += 1
            trace.append((start, length, dest))
            rest = cur[:start] + cur[start + length :]
            cur = rest[:dest] + cur[start : start + length] + rest[dest:]
            cost -= gain
            ops = _align(cur, ref)
            if cost == 0:
                break

    counts = _counts_from_ops(ops)
    total = counts.cost + shifts
    return TerAlignment(
        insertions=counts.insertions,
        deletions=counts.deletions,
        substitutions=counts.substitutions,
        shifts=shifts,
        ref_len=len(ref),
        ter=100.0 * total / len(ref),
        shift_trace=tuple(trace),
    )


def corpus_ter(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus-level TER: summed edits over summed reference lengths."""
    edits = 0
    ref_len = 0
    for hyp, ref in pairs:
        a = ter(hyp, ref)
        edits += a.num_edits
        ref_len += a.ref_len
    if ref_len == 0:
        return 0.0 if edits == 0 else float("inf")
    return 100.0 * edits / ref_len


def _ngrams(sent: Sequence[str], n: int) -> Counter:
    return Counter(tuple(sent[i : i + n]) for i in range(len(sent) - n + 1))


def bleu(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU-4 with clipped n-gram precisions and brevity penalty.

    No smoothing: a zero precision at any order gives a score of 0. Orders
    for which the whole corpus admits no n-grams at all (every hypothesis
    shorter than n) are excluded from the geometric mean rather than scored
    as 0/0, so identity corpora score 100 regardless of sentence length.
    """
    if not hyps:
        raise ValueError("empty hypothesis set")
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    matches = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_ORDER + 1):
            hyp_grams = _ngrams(hyp, n)
            ref_grams = _ngrams(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(
                min(count, ref_grams[g]) for g, count in hyp_grams.items()
            )
    if hyp_len == 0:
        return 0.0
    orders = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not orders or any(m == 0 for m, _ in orders):
        return 0.0
    log_precision = sum(log(m / t) for m, t in orders) / len(orders)
    brevity = min(0.0, 1.0 - ref_len / hyp_len)
    return 100.0 * exp(brevity + log_precision)
