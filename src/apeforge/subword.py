"""Byte-pair-encoding subword segmentation with a closed vocabulary.

Merges are learned greedily on word types weighted by corpus frequency. A
word is represented as its characters plus a final end-of-word symbol; every
merge fuses the currently most frequent adjacent symbol pair. Applying a
model splits tokens into subword units where every unit other than the last
of a word carries the continuation marker `@@`.

Characters outside the learned base inventory can never merge, so they pass
through as single-character units; callers can count them via the optional
unknown channel of apply_bpe. The continuation marker itself is assumed not
to occur as a unit inside token text (escape upstream if it can).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import CorpusError, Sentence, read_text

END_MARKER = "</w>"
CONTINUATION = "@@"

MODEL_HEADER = "#version: apeforge-bpe 1"
_BASE_PREFIX = "#base: "


class SubwordError(CorpusError):
    pass


class MalformedSegmentationError(SubwordError):
    """A unit stream that cannot have come from apply_bpe."""


@dataclass(frozen=True)
class BpeModel:
    merges: tuple[tuple[str, str], ...]
    base_symbols: frozenset[str]

    def vocabulary(self) -> set[str]:
        """All symbols the model can produce: base inventory plus one per merge."""
        vocab = set(self.base_symbols)
        for left, right in self.merges:
            vocab.add(left + right)
        return vocab

    @cached_property
    def _ranks(self) -> dict[tuple[str, str], int]:
        return {pair: i for i, pair in enumerate(self.merges)}

    @cached_property
    def _segments(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """Per distinct token, its units and its unknown characters; built
        once per model and shared by every apply_bpe call on it."""
        return {}


def _word_symbols(token: str) -> tuple[str, ...]:
    return tuple(token) + (END_MARKER,)


def _count_pairs(
    words: list[tuple[str, ...]], freqs: list[int]
) -> tuple[Counter, defaultdict]:
    pairs: Counter = Counter()
    where: defaultdict = defaultdict(set)
    for idx, (syms, freq) in enumerate(zip(words, freqs)):
        for a, b in zip(syms, syms[1:]):
            pairs[(a, b)] += freq
            where[(a, b)].add(idx)
    return pairs, where


def _merge_word(syms: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    a, b = pair
    merged = a + b
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i < n - 1 and syms[i] == a and syms[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def learn_bpe(corpus: Iterable[Sentence], merge_count: int) -> BpeModel:
    """Learn a merge list of at most merge_count operations.

    The most frequent adjacent pair (weighted by word-type frequency) is
    merged each round; equal counts break lexicographically on the
    (left, right) strings. Learning stops early once no pair occurs at
    least twice.
    """
    if merge_count < 0:
        raise ValueError("merge_count must be >= 0")
    word_freqs: Counter = Counter()
    for sent in corpus:
        word_freqs.update(sent)
    if not word_freqs:
        raise ValueError("empty corpus")

    words = [_word_symbols(w) for w in word_freqs]
    freqs = list(word_freqs.values())
    base = frozenset(s for w in words for s in w)

    pairs, where = _count_pairs(words, freqs)
    merges: list[tuple[str, str]] = []
    for _ in range(merge_count):
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pairs[best] < 2:
            break
        merges.append(best)
        # re-segment only the words that contain the pair, updating counts
        for idx in list(where[best]):
            old = words[idx]
            new = _merge_word(old, best)
            freq = freqs[idx]
            for a, b in zip(old, old[1:]):
                pairs[(a, b)] -= freq
                if pairs[(a, b)] <= 0:
                    del pairs[(a, b)]
                where[(a, b)].discard(idx)
            for a, b in zip(new, new[1:]):
                pairs[(a, b)] += freq
                where[(a, b)].add(idx)
            words[idx] = new

    return BpeModel(merges=tuple(merges), base_symbols=base)


def _segment(model: BpeModel, token: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One token's continuation-marked units and its unknown characters."""
    syms = _word_symbols(token)
    while True:
        ranks = [model._ranks[p] for p in zip(syms, syms[1:]) if p in model._ranks]
        if not ranks:
            break
        syms = _merge_word(syms, model.merges[min(ranks)])
    # the last symbol ends with the end marker; a bare marker is no unit
    units = [*syms[:-1], syms[-1][: -len(END_MARKER)]]
    if not units[-1]:
        units.pop()
    marked = tuple(u + CONTINUATION for u in units[:-1]) + tuple(units[-1:])
    return marked, tuple(ch for ch in token if ch not in model.base_symbols)


def apply_bpe(
    model: BpeModel, sent: Sequence[str], unknown_counts: Counter | None = None
) -> Sentence:
    """Segment a sentence into subword units.

    Characters missing from the model's base inventory stay single-character
    units; when `unknown_counts` is given, each such character increments it.
    """
    segments = model._segments
    out: list[str] = []
    for token in sent:
        if token.endswith(CONTINUATION):
            raise SubwordError(
                f"token {token!r} already carries a continuation marker; "
                "refusing to segment twice"
            )
        cached = segments.get(token)
        if cached is None:
            cached = segments[token] = _segment(model, token)
        units, unknown = cached
        if unknown and unknown_counts is not None:
            unknown_counts.update(unknown)
        out.extend(units)
    return tuple(out)


def revert_bpe(sent: Sequence[str]) -> Sentence:
    """Join continuation-marked units back into full tokens."""
    out: list[str] = []
    buffer = ""
    for unit in sent:
        if unit.endswith(CONTINUATION):
            buffer += unit[: -len(CONTINUATION)]
        else:
            out.append(buffer + unit)
            buffer = ""
    if buffer:
        raise MalformedSegmentationError(
            "unit stream ends with a continuation marker"
        )
    return tuple(out)


def save_model(model: BpeModel, path: str | Path) -> None:
    """Write the merge file: version header, base inventory, one merge per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(MODEL_HEADER + "\n")
        fh.write(_BASE_PREFIX + " ".join(sorted(model.base_symbols)) + "\n")
        for left, right in model.merges:
            fh.write(f"{left} {right}\n")


def load_model(path: str | Path) -> BpeModel:
    lines = read_text(path).split("\n")
    if not lines or lines[0] != MODEL_HEADER:
        raise SubwordError(f"{path}: missing header {MODEL_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith(_BASE_PREFIX):
        raise SubwordError(f"{path}: line 2: missing inventory line {_BASE_PREFIX!r}")
    base = frozenset(lines[1][len(_BASE_PREFIX) :].split(" "))
    merges: dict[tuple[str, str], None] = {}  # insertion-ordered set
    for lineno, line in enumerate(lines[2:], 3):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise SubwordError(f"{path}: line {lineno}: bad merge {line!r}")
        pair = (parts[0], parts[1])
        if pair in merges:
            raise SubwordError(f"{path}: line {lineno}: merge {line!r} given twice")
        merges[pair] = None
    return BpeModel(merges=tuple(merges), base_symbols=base)
