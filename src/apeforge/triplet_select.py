"""Filter an artificial triplet pool to match a reference set's TER profile.

Each triplet is summarized as a vector of elementary TER statistics; the
pool first loses outliers that fall outside the reference's per-component
range (with a relative margin), then a nearest-neighbor sweep picks the n
most similar pool entries per reference triplet, never reusing a candidate
and giving up on a reference triplet once its candidate walk has examined
traversal_cap entries.

A triplet's statistics are computed once and kept while the triplet lives,
so the filter, the nearest-neighbor sweep and the report of one run score
each triplet (and every value-equal copy of it) through `ter` only once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .corpus import Triplet
from .metrics import corpus_ter, ter

STAT_COMPONENTS = (
    "num_words_pe",
    "num_words_mt",
    "insertions",
    "deletions",
    "substitutions",
    "shifts",
    "ter",
)


@dataclass(frozen=True)
class SelectionConfig:
    n: int = 1
    traversal_cap: int = 100

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.traversal_cap < self.n:
            raise ValueError("traversal_cap must be >= n")


@dataclass(frozen=True)
class StatReport:
    count: int
    means: tuple[float, ...]  # one per STAT_COMPONENTS entry
    corpus_ter: float

    def lines(self) -> list[str]:
        out = [f"count {self.count}"]
        out += [
            f"mean_{name} {value:.2f}"
            for name, value in zip(STAT_COMPONENTS, self.means)
        ]
        out.append(f"corpus_ter {self.corpus_ter:.2f}")
        return out


# stat row per live triplet; an entry goes when its triplet does
_STATS: weakref.WeakKeyDictionary[Triplet, np.ndarray] = weakref.WeakKeyDictionary()


def stat_vector(t: Triplet) -> np.ndarray:
    """[pe length, mt length, ins, del, sub, shifts, ter] as float64.

    The row is shared by every call for the triplet, so it is read-only.
    """
    row = _STATS.get(t)
    if row is not None:
        return row
    a = ter(t.mt, t.pe)
    row = np.array(
        [
            len(t.pe),
            len(t.mt),
            a.insertions,
            a.deletions,
            a.substitutions,
            a.shifts,
            a.ter,
        ],
        dtype=np.float64,
    )
    row.flags.writeable = False
    _STATS[t] = row
    return row


def stat_matrix(triplets) -> np.ndarray:
    if not triplets:
        return np.zeros((0, len(STAT_COMPONENTS)))
    return np.stack([stat_vector(t) for t in triplets])


def zscore_params(ref_stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference-set mean and stddev, constant components floored to sd 1."""
    mu = ref_stats.mean(axis=0)
    sd = ref_stats.std(axis=0)
    sd[sd == 0.0] = 1.0
    return mu, sd


def outlier_filter(pool, reference, margin: float = 0.10):
    """Drop pool triplets outside the reference component ranges.

    Bounds are min*(1-margin) and max*(1+margin) per component; components
    whose reference minimum is 0 keep a lower bound of 0. An infinite
    margin keeps the whole pool.
    """
    if not reference:
        raise ValueError("reference set is empty")
    if math.isnan(margin):
        raise ValueError("margin is nan")
    if math.isinf(margin):
        return list(pool)
    pool = list(pool)
    pool_mat = stat_matrix(pool)
    ref_stats = stat_matrix(reference)
    lower = ref_stats.min(axis=0) * (1.0 - margin)
    upper = ref_stats.max(axis=0) * (1.0 + margin)
    ok = ((pool_mat >= lower) & (pool_mat <= upper)).all(axis=1)
    return [t for t, keep in zip(pool, ok) if keep]


def knn_select_indices(
    pool, reference, cfg: SelectionConfig = SelectionConfig()
) -> list[int]:
    """Pool indices chosen by the per-reference nearest-neighbor walk.

    Distances are Euclidean between statistic vectors z-scored by the
    reference set's `zscore_params`. References are visited in corpus
    order. Each walks its pool candidates by decreasing similarity (ties on
    smaller pool index), skipping entries already selected, until n are
    collected or traversal_cap candidates have been examined. Indices are
    returned in selection order.
    """
    pool = list(pool)
    reference = list(reference)
    if not pool or not reference:
        raise ValueError("pool and reference must be non-empty")
    pool_mat = stat_matrix(pool)
    ref_stats = stat_matrix(reference)
    mu, sd = zscore_params(ref_stats)
    pool_mat = (pool_mat - mu) / sd
    ref_stats = (ref_stats - mu) / sd

    cap = min(cfg.traversal_cap, len(pool))
    taken: set[int] = set()
    selected: list[int] = []
    for ref_vec in ref_stats:
        dists = np.sqrt(((pool_mat - ref_vec) ** 2).sum(axis=1))
        # every candidate tied with the cap-th nearest survives the cut
        nearest = np.flatnonzero(dists <= np.partition(dists, cap - 1)[cap - 1])
        walk = nearest[np.lexsort((nearest, dists[nearest]))][:cap]
        collected = 0
        for idx in walk:
            idx = int(idx)
            if idx in taken:
                continue
            taken.add(idx)
            selected.append(idx)
            collected += 1
            if collected == cfg.n:
                break
    return selected


def knn_select(pool, reference, cfg: SelectionConfig = SelectionConfig()):
    pool = list(pool)
    return [pool[i] for i in knn_select_indices(pool, reference, cfg)]


def report_stats(triplets) -> StatReport:
    """Component means plus pooled corpus TER of the mt/pe pairs."""
    triplets = list(triplets)
    if not triplets:
        raise ValueError("empty triplet set")
    stats = stat_matrix(triplets)
    pooled = corpus_ter([(t.mt, t.pe) for t in triplets])
    return StatReport(
        count=len(triplets),
        means=tuple(float(x) for x in stats.mean(axis=0)),
        corpus_ter=pooled,
    )
