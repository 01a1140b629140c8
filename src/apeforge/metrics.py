"""Translation error rate (with block shifts) and corpus BLEU.

TER here is the classic greedy-shift formulation: repeatedly apply the block
shift that most reduces the word-level edit distance, at unit cost per shift,
then combine the shift count with the residual insertion/deletion/substitution
counts. Scores are percentages of the reference length. One bit-parallel
Levenshtein DP over the reference's word masks does all of it: its column
after each prefix of an arrangement gives the traceback, and each candidate
shift resumes from the column of the prefix it shares with the arrangement.
Candidates that move one block to later positions share a growing prefix,
whose column is extended one word per position. A candidate's words after
the moved span are the arrangement's, so when its column there equals the
arrangement's its residual cost is unchanged and the scan stops.
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


def _match_masks(ref: Sequence[str]) -> dict[str, int]:
    """Each reference word mapped to the bitmask of its positions."""
    peq: dict[str, int] = {}
    for j, word in enumerate(ref):
        peq[word] = peq.get(word, 0) | (1 << j)
    return peq


def _advance(peq: dict, mask: int, state, tokens):
    """Bit-parallel Levenshtein (Myers 1999, global form of Hyyrö 2001).

    state = (vp, vn) is the DP column over the reference after some
    hypothesis prefix: bit j of vp/vn is set where D[i][j+1] exceeds/undercuts
    D[i][j] by one (bits at and above len(ref) in vn are ignored). Returns
    the column after further scanning `tokens`.
    """
    vp, vn = state
    for tok in tokens:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        # The top row is D[i][0] = i, so a +1 horizontal delta enters at bit 0.
        hp = (hp << 1) | 1
        vn = hp & d0
        vp = ((hn << 1) | ~(hp | d0)) & mask
    return vp, vn


def _dist(cols, i: int, j: int) -> int:
    """D[i][j]: distance from the first i hypothesis words to ref[:j]."""
    vp, vn = cols[i]
    low = (1 << j) - 1
    return i + (vp & low).bit_count() - (vn & low).bit_count()


def _align(hyp: Sequence[str], ref: Sequence[str], peq: dict[str, int]):
    """Op sequence of one optimal path, and the DP column after each prefix
    of hyp (cols[i] after hyp[:i]).

    Ops are 'eq', 'sub', 'ins' (ref token added to hyp), 'del' (hyp token
    dropped). Ties prefer diagonal moves, then insertions, then deletions,
    which pins a single deterministic decomposition.
    """
    mask = (1 << len(ref)) - 1
    cols = [(mask, 0)]
    for tok in hyp:
        cols.append(_advance(peq, mask, cols[-1], (tok,)))
    ops: list[str] = []
    i, j = len(hyp), len(ref)
    while i > 0 or j > 0:
        d = _dist(cols, i, j)
        if i > 0 and j > 0:
            same = hyp[i - 1] == ref[j - 1]
            if d == _dist(cols, i - 1, j - 1) + (not same):
                ops.append("eq" if same else "sub")
                i -= 1
                j -= 1
                continue
        if j > 0 and d == _dist(cols, i, j - 1) + 1:
            ops.append("ins")
            j -= 1
            continue
        ops.append("del")
        i -= 1
    ops.reverse()
    return ops, cols


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
    return _counts_from_ops(_align(hyp, ref, _match_masks(ref))[0])


def _best_shift(cur, ref, peq, ops, cols):
    """The shift (start, length, dest) with the largest residual-cost gain,
    first in (start, length, dest) order on ties; None if none gains.

    A candidate equals cur before min(start, dest) and from the end of the
    moved span on (end = start+length for dest < start, dest+length for
    dest > start), so only the words between are scanned from cols:
    - for dest > start the words before the block are cur[:start] plus
      cur[start+length:end-length], one word more per dest, so their column
      is extended by that word instead of rescanned;
    - if the column at end equals cols[end], the rest of the scan repeats
      cur's and the gain is 0, so cur[end:] is not scanned.
    """
    n, mask = len(cur), (1 << len(ref)) - 1
    cost = _dist(cols, n, len(ref))
    # True per hypothesis word unless matched exactly ('ins' consumes none)
    mis = [op != "eq" for op in ops if op != "ins"]
    best, best_gain = None, 0
    for start in range(n):
        starts = mask  # reference positions where the block so far begins
        any_mis = False
        for length in range(1, min(MAX_BLOCK, n - start) + 1):
            starts &= peq.get(cur[start + length - 1], 0) >> (length - 1)
            if not starts:
                break  # no reference span holds the block, nor any extension
            any_mis = any_mis or mis[start + length - 1]
            if not any_mis:
                continue
            block = cur[start : start + length]
            shared = cols[start]  # column before the block when dest > start
            for dest in range(n - length + 1):
                if dest < start:
                    end = start + length
                    col = _advance(peq, mask, cols[dest], block + cur[dest:start])
                elif dest > start:
                    end = dest + length
                    shared = _advance(peq, mask, shared, (cur[end - 1],))
                    col = _advance(peq, mask, shared, block)
                else:
                    continue
                vp, vn = col
                evp, evn = cols[end]
                if vp == evp and not (vn ^ evn) & mask:
                    continue  # the rest repeats cur's scan: gain 0
                vp, vn = _advance(peq, mask, col, cur[end:])
                gain = cost - (n + vp.bit_count() - (vn & mask).bit_count())
                if gain > best_gain:
                    best, best_gain = (start, length, dest), gain
                    if gain == cost:
                        return best  # residual hit zero, cannot improve
    return best


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
    cur = list(hyp)
    ref = list(ref)
    if not ref:
        return TerAlignment(
            insertions=0,
            deletions=len(cur),
            substitutions=0,
            shifts=0,
            ref_len=0,
            ter=100.0 * len(cur),
            degenerate=bool(cur),
        )
    peq = _match_masks(ref)
    ops, cols = _align(cur, ref, peq)
    trace: list[tuple[int, int, int]] = []
    while (shift := _best_shift(cur, ref, peq, ops, cols)) is not None:
        trace.append(shift)
        start, length, dest = shift
        rest = cur[:start] + cur[start + length :]
        cur = rest[:dest] + cur[start : start + length] + rest[dest:]
        ops, cols = _align(cur, ref, peq)

    counts = _counts_from_ops(ops)
    return TerAlignment(
        insertions=counts.insertions,
        deletions=counts.deletions,
        substitutions=counts.substitutions,
        shifts=len(trace),
        ref_len=len(ref),
        ter=100.0 * (counts.cost + len(trace)) / len(ref),
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
