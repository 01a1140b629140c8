"""Interpolated modified Kneser-Ney trigram language model.

Estimation follows Chen & Goodman: raw counts at the top order, continuation
counts below (n-grams starting with the sentence-begin marker keep raw
counts, since nothing can precede them), three-bucket discounts from
count-of-counts, and interpolation all the way down to a uniform 1/|V|
floor that reserves mass for the unknown token. Probabilities are stored
fully interpolated, so the ARPA backoff weight of a context is exactly its
interpolation gamma and file queries reproduce in-memory queries.

Cross-entropy is bits per token including the end-of-sentence prediction.
Moore-Lewis selection sorts by in-domain minus out-of-domain cross-entropy.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import CorpusError, Sentence, Vocab, text_lines

BOS = Vocab.RESERVED[Vocab.BOS]
EOS = Vocab.RESERVED[Vocab.EOS]
UNK = Vocab.RESERVED[Vocab.UNK]

LOG10_FLOOR = -99.0  # conventional stand-in for "never predicted"


class LmError(CorpusError):
    pass


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


class NgramLm:
    """Backoff-form n-gram model: fully interpolated probs + context gammas."""

    def __init__(
        self,
        order: int,
        vocab: frozenset[str],
        probs: dict[tuple[str, ...], float],
        bows: dict[tuple[str, ...], float],
    ):
        self.order = order
        self.vocab = vocab
        self.probs = probs
        self.bows = bows

    def prob(self, word: str, context: Sequence[str] = ()) -> float:
        """p(word | context), using at most order-1 context tokens."""
        if word not in self.vocab:
            word = UNK
        ctx = tuple(context)[-(self.order - 1) :] if self.order > 1 else ()
        return self._p(word, ctx)

    def _p(self, word: str, ctx: tuple[str, ...]) -> float:
        p = self.probs.get(ctx + (word,))
        if p is not None:
            return p
        if not ctx:
            # every vocab word has a stored unigram; <unk> covers the rest
            return self.probs[(UNK,)]
        return self.bows.get(ctx, 1.0) * self._p(word, ctx[1:])


def train_lm(corpus: Iterable[Sentence], order: int = 3) -> NgramLm:
    """Estimate an interpolated modified Kneser-Ney model.

    Sentences are padded with one begin marker and one end marker; the end
    marker is a predicted event, the begin marker is context only.
    """
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
    adjusted[order] = dict(raw[order])
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


def cross_entropy(lm: NgramLm, s: Sequence[str]) -> float:
    """Bits per token, end-of-sentence marker included (N = |s| + 1)."""
    bits = 0.0
    ctx: tuple[str, ...] = (BOS,)
    for token in tuple(s) + (EOS,):
        bits -= math.log2(lm.prob(token, ctx))
        ctx = (ctx + (token,))[-(lm.order - 1) :] if lm.order > 1 else ()
    return bits / (len(s) + 1)


def corpus_cross_entropy(lm: NgramLm, corpus: Iterable[Sentence]) -> float:
    bits = 0.0
    events = 0
    for s in corpus:
        n = len(s) + 1
        bits += cross_entropy(lm, s) * n
        events += n
    if events == 0:
        raise LmError("empty corpus")
    return bits / events


def xent_scores(
    in_lm: NgramLm,
    out_lm: NgramLm,
    corpus: Sequence[Sentence],
) -> list[float]:
    """Moore-Lewis score of each line: in-domain minus out-of-domain
    cross-entropy, bits per token."""
    return [cross_entropy(in_lm, s) - cross_entropy(out_lm, s) for s in corpus]


def select_by_xent(
    in_lm: NgramLm,
    out_lm: NgramLm,
    corpus: Sequence[Sentence],
    keep: int | float,
) -> list[int]:
    """Indices of the `keep` lowest-scoring lines, score-ascending.

    `keep` may be an absolute count or a fraction in (0, 1] that keeps at
    least one line. Ties keep the original line order (stable sort on the
    score alone).
    """
    n = len(corpus)
    if isinstance(keep, float):
        if not 0.0 < keep <= 1.0:
            raise LmError(f"keep={keep} is not a fraction in (0, 1]")
        k = round(n * keep)
        if k < 1:
            raise LmError(f"keep={keep} of {n} lines keeps no line")
    else:
        k = keep
    if not 0 <= k <= n:
        raise LmError(f"keep={keep} out of range for corpus of {n} lines")
    scores = xent_scores(in_lm, out_lm, corpus)
    return sorted(range(n), key=scores.__getitem__)[:k]


def write_arpa(lm: NgramLm, path: str | Path) -> None:
    """Serialize in ARPA text form, full float precision.

    Stored probabilities are the interpolated values and each context's
    backoff weight is its interpolation gamma, so the written model answers
    every query identically to the in-memory one (up to log/exp rounding).
    """
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


def _arpa_number(kind, text, path, lineno):
    try:
        return kind(text)
    except ValueError:
        raise LmError(f"{path}: line {lineno}: not a number: {text!r}") from None


def read_arpa(path: str | Path) -> NgramLm:
    """Inverse of write_arpa. Each n-gram is listed once, and every section
    holds as many n-grams as the `\\data\\` section's `ngram N=count` line
    declares."""
    probs: dict[tuple[str, ...], float] = {}
    bows: dict[tuple[str, ...], float] = {}
    listed: set[tuple[str, ...]] = set()
    declared: dict[int, tuple[int, int]] = {}  # order -> (count, line number)
    order = 0
    section = 0
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line or line == "\\data\\":
            continue
        if line == "\\end\\":
            break
        if line.startswith("ngram "):
            n, _, count = line[len("ngram ") :].partition("=")
            n = _arpa_number(int, n, path, lineno)
            if n in declared:
                raise LmError(f"{path}: line {lineno}: count of {n}-grams given twice")
            declared[n] = (_arpa_number(int, count, path, lineno), lineno)
            continue
        if line.endswith("-grams:") and line.startswith("\\"):
            section = _arpa_number(int, line[1:].split("-")[0], path, lineno)
            if section not in declared:
                raise LmError(f"{path}: line {lineno}: no 'ngram {section}=' count in \\data\\")
            order = max(order, section)
            continue
        if section == 0:
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise LmError(f"{path}: line {lineno}: malformed n-gram {line!r}")
        lp = _arpa_number(float, fields[0], path, lineno)
        gram = tuple(fields[1].split(" "))
        if len(gram) != section:
            raise LmError(
                f"{path}: line {lineno}: {len(gram)}-gram in {section}-gram section"
            )
        if gram in listed:
            raise LmError(f"{path}: line {lineno}: n-gram {fields[1]!r} given twice")
        listed.add(gram)
        if len(fields) == 3:
            bows[gram] = 10.0 ** _arpa_number(float, fields[2], path, lineno)
        if gram == (BOS,) and lp <= LOG10_FLOOR + 1.0:
            continue  # begin marker is context only, not an event
        probs[gram] = 10.0 ** lp
    if order == 0:
        raise LmError(f"{path}: no n-gram sections found")
    found = Counter(map(len, listed))
    for n, (count, lineno) in declared.items():
        if count != found[n]:
            raise LmError(
                f"{path}: line {lineno}: declares {count} {n}-grams, {found[n]} listed"
            )
    vocab = frozenset(gram[0] for gram in probs if len(gram) == 1) | {UNK}
    return NgramLm(order=order, vocab=vocab, probs=probs, bows=bows)
