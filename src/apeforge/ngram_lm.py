"""Interpolated modified Kneser-Ney trigram language model.

Estimation follows Chen & Goodman: raw counts at the top order, continuation
counts below (n-grams starting with the sentence-begin marker keep raw
counts, since nothing can precede them), three-bucket discounts from
count-of-counts, and interpolation all the way down to a uniform 1/|V|
floor that reserves mass for the unknown token. Probabilities are stored
fully interpolated, so the ARPA backoff weight of a context is exactly its
interpolation gamma and file queries reproduce in-memory queries.

`train_lm` estimates on integer ids in array passes. A word's id is its
rank in sorted order, and the corpus becomes one flat id stream of
`<s> w... </s>` per sentence. Each order's n-grams are the windows that do
not cross a sentence, keyed by the rank of their (n-1)-gram prefix times
the id range plus their last id; `np.unique` over the keys ranks them in
sorted order and gives their counts and first positions. Context totals and
discount masses are `np.bincount` sums over the n-grams in first-seen
order, the order in which a `Counter` over the text would add them, so
every probability and backoff weight is the same double that dict counting
gives. The word-tuple dicts are built once at the end, in sorted order.

Cross-entropy is bits per token including the end-of-sentence prediction.
Moore-Lewis selection sorts by in-domain minus out-of-domain cross-entropy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusError, Sentence, Vocab, text_lines

BOS = Vocab.RESERVED[Vocab.BOS]
EOS = Vocab.RESERVED[Vocab.EOS]
UNK = Vocab.RESERVED[Vocab.UNK]

LOG10_FLOOR = -99.0  # conventional stand-in for "never predicted"
# 10 ** x is a positive finite double for x in [_LOG10_TINY, _LOG10_HUGE]
_LOG10_TINY, _LOG10_HUGE = -323.0, 308.0
# write_arpa's lines per write: each order of a model of a few thousand
# sentences is one write
_ARPA_LINES_PER_WRITE = 1 << 15


class LmError(CorpusError):
    pass


def _estimate_discounts(counts_of_counts: Mapping[int, int]) -> tuple[float, float, float]:
    """Chen & Goodman's D1, D2, D3+ from the counts of counts 1 to 4."""
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
    return d1, d2, d3


def _discount_table(counts: np.ndarray) -> np.ndarray:
    """Each count's discount is `table[min(count, 3)]`; counts are >= 1."""
    counts_of_counts = dict(enumerate(np.bincount(counts, minlength=5)[:5].tolist()))
    return np.array([0.0, *_estimate_discounts(counts_of_counts)])


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


def _id_stream(sentences: list[Sentence]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sorted words (the markers included), and one flat id stream of
    `<s> w... </s>` per sentence with each sentence's padded length.

    A word's id is its rank in sorted order, so the n-grams that
    `_ngram_tables` ranks come out in the order sorted() puts their tuples in.
    """
    flat = list(chain.from_iterable(sentences))
    words = sorted({*flat, BOS, EOS})
    index = {w: i for i, w in enumerate(words)}
    tokens = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    bos, eos = index[BOS], index[EOS]
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    markers = np.flatnonzero((tokens == bos) | (tokens == eos))
    if markers.size:
        at = int(markers[0])
        number = int(np.searchsorted(np.cumsum(lengths), at, side="right")) + 1
        word, role = (BOS, "begin") if tokens[at] == bos else (EOS, "end")
        raise LmError(f"sentence {number}: {word!r} is the sentence-{role} marker, not a word")
    padded = lengths + 2
    ends = np.cumsum(padded)
    stream = np.full(int(ends[-1]), eos, dtype=np.int64)
    stream[ends - padded] = bos
    stream[np.arange(tokens.size) + np.repeat(2 * np.arange(lengths.size) + 1, lengths)] = tokens
    return words, stream, padded


def _ngram_tables(stream: np.ndarray, padded: np.ndarray, order: int, id_range: int):
    """The distinct n-grams of each order n, ranked in sorted order, as five
    lists indexed by n: `first` holds each one's first position in the
    stream, `raw` its count, `ctx` and `suffix` the ranks of its (n-1)-gram
    prefix and suffix, and `seen` the ranks in the order a Counter over the
    stream would insert them. N-grams do not cross a sentence."""
    ends = np.cumsum(padded)
    room = np.repeat(ends, padded) - np.arange(stream.size)  # positions left in the sentence
    first, raw, ctx, suffix, seen = ([None] * (order + 1) for _ in range(5))
    rank = None  # rank of the (n-1)-gram at each position
    for n in range(1, order + 1):
        pos = np.flatnonzero(room >= n)
        # the rank of the n-gram's prefix times the id range, plus its last id
        keys = stream[pos] if n == 1 else rank[pos] * id_range + stream[pos + n - 1]
        _, at, inverse, raw[n] = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        first[n], seen[n] = pos[at], np.argsort(at)
        if n > 1:
            ctx[n], suffix[n] = rank[first[n]], rank[first[n] + 1]
        rank = np.empty_like(stream)
        rank[pos] = inverse
    return first, raw, ctx, suffix, seen


def train_lm(corpus: Iterable[Sentence], order: int = 3) -> NgramLm:
    """Estimate an interpolated modified Kneser-Ney model.

    Sentences are padded with one begin marker and one end marker; the end
    marker is a predicted event, the begin marker is context only, and
    neither may appear as a word.
    """
    if order < 1:
        raise LmError("order must be >= 1")
    sentences = [tuple(s) for s in corpus]
    total_tokens = sum(map(len, sentences))
    if total_tokens < order:
        raise LmError(
            f"corpus has {total_tokens} tokens; need at least {order} to "
            f"estimate an order-{order} model"
        )
    words, stream, padded = _id_stream(sentences)
    first, raw, ctx, suffix, seen = _ngram_tables(stream, padded, order, len(words))
    bos = words.index(BOS)

    # adjusted counts: raw at the top order, continuation counts below,
    # except begin-marker-initial n-grams which cannot be extended left
    adjusted = raw[:]
    for n in range(order - 1, 0, -1):
        extensions = np.bincount(suffix[n + 1], minlength=raw[n].size)
        adjusted[n] = np.where(stream[first[n]] == bos, raw[n], extensions)

    word_of = np.array(words, dtype=object)
    grams = [None] + [
        list(zip(*(word_of[stream[first[n] + k]].tolist() for k in range(n))))
        for n in range(1, order + 1)
    ]
    probs: dict[tuple[str, ...], float] = {}
    bows: dict[tuple[str, ...], float] = {}

    # unigrams, ranked by word id: interpolate with the uniform distribution
    # over the vocab; the begin marker is context only
    kept = seen[1][seen[1] != bos]
    events = np.sort(kept)
    vocab = frozenset(words[i] for i in events.tolist()) | {UNK}
    vocab_size = len(vocab)
    c = adjusted[1]
    d = _discount_table(c[kept])[np.minimum(c, 3)]
    total = int(c[kept].sum())
    gamma = sum(d[kept].tolist()) / total
    lower = np.maximum(c - d, 0.0) / total + gamma / vocab_size
    probs.update(zip([grams[1][i] for i in events.tolist()], lower[events].tolist()))
    if (UNK,) not in probs:
        probs[(UNK,)] = gamma / vocab_size  # count 0 leaves no discounted mass

    for n in range(2, order + 1):
        c = adjusted[n]
        d = _discount_table(c)[np.minimum(c, 3)]
        # bincount adds in the order it is given: the order of `Counter +=`
        context = ctx[n][seen[n]]
        totals = np.bincount(context, weights=c[seen[n]], minlength=raw[n - 1].size)
        mass = np.bincount(context, weights=d[seen[n]], minlength=raw[n - 1].size)
        used = np.flatnonzero(totals)
        bow = np.zeros_like(totals)
        bow[used] = mass[used] / totals[used]
        bows.update(zip([grams[n - 1][i] for i in used.tolist()], bow[used].tolist()))
        lower = np.maximum(c - d, 0.0) / totals[ctx[n]] + bow[ctx[n]] * lower[suffix[n]]
        probs.update(zip(grams[n], lower.tolist()))

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
    by_order: list[list[tuple[tuple[str, ...], float]]] = [[] for _ in range(lm.order + 1)]
    for item in lm.probs.items():
        by_order[len(item[0])].append(item)
    bows = lm.bows
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\\data\\\n")
        for n in range(1, lm.order + 1):
            fh.write(f"ngram {n}={len(by_order[n]) + (n == 1)}\n")
        for n in range(1, lm.order + 1):
            # one linear pass when the n-grams come in sorted order, as
            # train_lm and read_arpa insert them
            rows = sorted(by_order[n], key=itemgetter(0))
            if n < lm.order:
                lines = (
                    f"{math.log10(p)!r}\t{' '.join(gram)}\t{math.log10(bows[gram])!r}"
                    if gram in bows
                    else f"{math.log10(p)!r}\t{' '.join(gram)}"
                    for gram, p in rows
                )
            else:
                lines = (f"{math.log10(p)!r}\t{' '.join(gram)}" for gram, p in rows)
            if n == 1:
                # the begin marker is context only: listed at the floor, after an equal gram
                bos = f"{LOG10_FLOOR!r}\t{BOS}"
                if (BOS,) in bows:
                    bos += f"\t{math.log10(bows[(BOS,)])!r}"
                at = bisect_right(rows, (BOS,), key=itemgetter(0))
                lines = chain(islice(lines, at), [bos], lines)
            fh.write(f"\n\\{n}-grams:\n")
            # a bounded number of lines in memory at once
            while chunk := list(islice(lines, _ARPA_LINES_PER_WRITE)):
                chunk.append("")
                fh.write("\n".join(chunk))
        fh.write("\n\\end\\\n")


def _arpa_number(kind, text, path, lineno):
    try:
        return kind(text)
    except ValueError:
        raise LmError(f"{path}: line {lineno}: not a number: {text!r}") from None


def read_arpa(path: str | Path) -> NgramLm:
    """Inverse of write_arpa. Each n-gram is listed once, and every section
    holds as many n-grams as the `\\data\\` section's `ngram N=count` line
    declares. A log10 probability lies in [-323, 0] and a log10 backoff
    weight in [-323, 308], where a power of ten is a positive finite double."""
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
        if not _LOG10_TINY <= lp <= 0.0:  # nan fails too
            raise LmError(
                f"{path}: line {lineno}: log10 probability {fields[0]!r} is not in "
                f"[{_LOG10_TINY:g}, 0]"
            )
        gram = tuple(fields[1].split(" "))
        if len(gram) != section:
            raise LmError(
                f"{path}: line {lineno}: {len(gram)}-gram in {section}-gram section"
            )
        if gram in listed:
            raise LmError(f"{path}: line {lineno}: n-gram {fields[1]!r} given twice")
        listed.add(gram)
        if len(fields) == 3:
            lb = _arpa_number(float, fields[2], path, lineno)
            if not _LOG10_TINY <= lb <= _LOG10_HUGE:
                raise LmError(
                    f"{path}: line {lineno}: log10 backoff weight {fields[2]!r} is not in "
                    f"[{_LOG10_TINY:g}, {_LOG10_HUGE:g}]"
                )
            bows[gram] = 10.0 ** lb
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
