"""Feature-weight optimization toward lower corpus TER.

Outer loop: decode the dev set with the current weights (length-normalized
scores), add the fresh hypotheses to each sentence's accumulated pool
(one entry per distinct hypothesis, first decoded first), then run
margin-based online updates over the pool. Sentence-level TER
against the post-edited reference, as a fraction, is the loss; it is
computed once per (dev sentence, hypothesis) pair per call, and later
iterations reuse it for the entries the pool already held. The returned
weights are whichever candidate (initial weights included) reranks the
accumulated pool to the lowest corpus TER, so tuning can never end worse
than it started on that pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import ParseError, Sentence, Triplet, finite_float, text_lines
from .decoder import (
    NBestEntry, NBestList, PepFeature, ScorerBinding, decode, feature_names, reweight,
)
from .metrics import corpus_ter, ter

FeatureWeights = dict[str, float]


class TunerConfigError(Exception):
    """Feature names disagree between n-best lists and the weight vector."""


@dataclass
class TuneConfig:
    outer_iterations: int = 2
    mira_c: float = 0.01
    inner_epochs: int = 15
    seed: int = 0
    beam: int = 12

    def __post_init__(self):
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be >= 1")
        if self.inner_epochs < 1:
            raise ValueError("inner_epochs must be >= 1")
        if not self.mira_c > 0:  # also catches nan
            raise ValueError("mira_c must be positive")


def _feature_matrix(nbest: NBestList, names: Sequence[str]) -> np.ndarray:
    """One row per entry: its feature values in `names` order."""
    if not nbest.entries:
        raise ValueError(f"sentence {nbest.sentence_id} has no entries")
    rows = []
    for entry in nbest.entries:
        table = dict(entry.features)
        if set(table) != set(names):
            raise TunerConfigError(
                f"entry features {sorted(table)} do not match weights {sorted(names)}"
            )
        rows.append([table[n] for n in names])
    return np.array(rows)


def rerank(lists: Sequence[NBestList], weights: FeatureWeights) -> list[Sentence]:
    """Per sentence, the hypothesis maximizing the weighted feature sum;
    ties keep the earliest (original-rank) entry."""
    names = sorted(weights)
    w = np.array([weights[n] for n in names])
    out = []
    for nbest in lists:
        best = int(np.argmax(_feature_matrix(nbest, names) @ w))
        out.append(nbest.entries[best].tokens)
    return out


def rerank_corpus_ter(
    lists: Sequence[NBestList],
    weights: FeatureWeights,
    references: Sequence[Sentence],
) -> float:
    hyps = rerank(lists, weights)
    return corpus_ter(list(zip(hyps, references)))


def mira_epochs(
    lists: Sequence[NBestList],
    costs: Sequence[np.ndarray],
    initial: FeatureWeights,
    cfg: TuneConfig,
    rng: np.random.Generator,
) -> FeatureWeights:
    """Online hope/fear updates; costs[i][k] is the loss of entry k of
    lists[i]. Returns the average of per-epoch weights."""
    names = sorted(initial)
    w = np.array([initial[n] for n in names])
    prepared = [
        (_feature_matrix(nbest, names), cost)
        for nbest, cost in zip(lists, costs)
    ]

    snapshots = []
    for _ in range(cfg.inner_epochs):
        for si in rng.permutation(len(prepared)):
            rows, costs = prepared[si]
            scores = rows @ w
            hope = int(np.argmax(scores - costs))
            fear = int(np.argmax(scores + costs))
            hinge = (scores[fear] + costs[fear]) - (scores[hope] + costs[hope])
            delta = rows[hope] - rows[fear]
            norm_sq = float(delta @ delta)
            if hinge > 0 and norm_sq > 0:
                eta = min(cfg.mira_c, hinge / norm_sq)
                w = w + eta * delta
        snapshots.append(w.copy())
    averaged = np.mean(snapshots, axis=0)
    return {n: float(v) for n, v in zip(names, averaged)}


def _search(
    pool_for: Callable[[FeatureWeights], Sequence[NBestList]],
    references: Sequence[Sentence],
    initial: FeatureWeights,
    cfg: TuneConfig,
) -> FeatureWeights:
    """The outer loop shared by tune and tune_on_lists.

    Each iteration takes the n-best pool for the latest weights, runs MIRA
    over it and keeps the averaged weights as a candidate. Candidates are the
    initial weights plus one per iteration; the one with the lowest rerank
    corpus TER on the final pool wins, earliest first on ties. MIRA's losses
    are kept per dev sentence for the length of the call, so each
    hypothesis is scored with `ter` once however many iterations hold it.
    """
    rng = np.random.default_rng(cfg.seed)
    losses: list[dict[Sentence, float]] = [{} for _ in references]
    candidates = [dict(initial)]
    for _ in range(cfg.outer_iterations):
        lists = pool_for(candidates[-1])
        costs = []
        for nbest, ref, loss in zip(lists, references, losses):
            for entry in nbest.entries:
                if entry.tokens not in loss:
                    loss[entry.tokens] = ter(entry.tokens, ref).ter / 100.0
            costs.append(np.array([loss[e.tokens] for e in nbest.entries]))
        candidates.append(mira_epochs(lists, costs, candidates[-1], cfg, rng))
    scored = [
        (rerank_corpus_ter(lists, cand, references), i)
        for i, cand in enumerate(candidates)
    ]
    return candidates[min(scored)[1]]


def tune_on_lists(
    lists: Sequence[NBestList],
    references: Sequence[Sentence],
    cfg: TuneConfig,
    initial: FeatureWeights | None = None,
) -> FeatureWeights:
    """Weight search over fixed n-best lists (no re-decoding); initial
    weights default to uniform over features."""
    if len(lists) != len(references):
        raise ValueError("lists and references must align")
    if not lists:
        raise ValueError("no n-best lists to tune on")
    if initial is None:
        names = sorted(n for n, _ in lists[0].entries[0].features)
        initial = {n: 1.0 / len(names) for n in names}
    return _search(lambda _weights: lists, references, initial, cfg)


BindingFactory = Callable[
    [Triplet], tuple[list[ScorerBinding], PepFeature | None]
]


def tune(
    dev: Sequence[Triplet],
    binding_factory: BindingFactory,
    cfg: TuneConfig,
) -> FeatureWeights:
    """Iterative decode-and-optimize over a development set of triplets.

    binding_factory maps a triplet to its scorer bindings (and optional copy
    bias) for decoding; binding weights are overridden by the tuner. Initial
    weights are uniform over features.
    """
    if not dev:
        raise ValueError("dev set is empty")
    bindings, pep = binding_factory(dev[0])
    names = feature_names((b.name for b in bindings), pep)
    initial = {n: 1.0 / len(names) for n in names}
    # per dev sentence, its distinct hypotheses in first-decoded order
    pool: list[dict[Sentence, NBestEntry]] = [{} for _ in dev]

    def pool_for(weights: FeatureWeights) -> list[NBestList]:
        for i, triplet in enumerate(dev):
            bindings, pep = reweight(*binding_factory(triplet), weights)
            for entry in decode(bindings, pep=pep, beam=cfg.beam, sentence_id=i).entries:
                pool[i].setdefault(entry.tokens, entry)
        return [
            NBestList(sentence_id=i, entries=tuple(entries.values()))
            for i, entries in enumerate(pool)
        ]

    return _search(pool_for, [t.pe for t in dev], initial, cfg)


def write_weights(path: str | Path, weights: Mapping[str, float]) -> None:
    """One `name<TAB>weight` line per feature, sorted by name, weights at
    six decimals; `decode --weights` reads the file back."""
    lines = [f"{name}\t{weights[name]:.6f}" for name in sorted(weights)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_weights(path: str | Path) -> FeatureWeights:
    """Inverse of write_weights. Blank lines are skipped; the format has no
    comments; every weight is a finite number, and no feature is named twice."""
    weights = {}
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"{path}: line {lineno}: expected 'name<TAB>value'")
        name, value = fields
        if name in weights:
            raise ParseError(f"{path}: line {lineno}: feature {name!r} given twice")
        try:
            weights[name] = finite_float(value)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: bad weight {value!r} for {name!r}"
            ) from None
    return weights
