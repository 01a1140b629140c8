"""Corpus data model and I/O: sentences, post-editing triplets, filters, mixing.

Sentences are tuples of whitespace-free unicode tokens; everything downstream
(metrics, subword models, neural models) operates on these token sequences.
Input text is assumed pre-tokenized; this module only splits on whitespace.
"""

from __future__ import annotations

import math
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

Sentence = tuple[str, ...]

# Parallel triplet files share a prefix and carry these suffixes.
TRIPLET_SUFFIXES = (".src", ".mt", ".pe")

# Moses-style escaping of characters that are meaningful in downstream file
# formats (n-best separators, bracket markup). Order matters: '&' first on
# escape, last on unescape, so entity ampersands never get double-processed.
_ESCAPES = [
    ("&", "&amp;"),
    ("|", "&#124;"),
    ("<", "&lt;"),
    (">", "&gt;"),
    ("'", "&apos;"),
    ('"', "&quot;"),
    ("[", "&#91;"),
    ("]", "&#93;"),
]

_EOS_PUNCTUATION = {".", "!", "?"}


class CorpusError(Exception):
    """An input the toolkit cannot use; the message names the file where
    there is one."""


class ParseError(CorpusError):
    """A line of an input file could not be parsed."""


class AlignmentError(CorpusError):
    """Parallel files disagree on line counts."""


@dataclass(frozen=True)
class Triplet:
    """One post-editing training example.

    src: source-language sentence
    mt:  raw machine-translation output (target language)
    pe:  post-edited reference (target language)
    """

    src: Sentence
    mt: Sentence
    pe: Sentence

    def __post_init__(self):
        for field in ("src", "mt", "pe"):
            if not getattr(self, field):
                raise ValueError(f"triplet field {field!r} is empty")


class Vocab:
    """Closed token inventory with reserved ids for pad/begin/end/unknown."""

    PAD = 0
    BOS = 1
    EOS = 2
    UNK = 3

    RESERVED = ("<pad>", "<s>", "</s>", "<unk>")

    def __init__(self, units: Iterable[str]):
        self.tokens: list[str] = list(self.RESERVED)
        seen = set(self.tokens)
        for u in units:
            if u not in seen:
                seen.add(u)
                self.tokens.append(u)
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def id(self, token: str) -> int:
        return self.index.get(token, self.UNK)

    def ids(self, sentence: Sequence[str]) -> list[int]:
        return [self.id(t) for t in sentence]

    def words(self, ids: Iterable[int]) -> Sentence:
        return tuple(self.tokens[i] for i in ids)

    @classmethod
    def from_corpus(cls, corpus: Iterable[Sequence[str]]) -> "Vocab":
        return cls(tok for sent in corpus for tok in sent)


def sentence(line: str) -> Sentence:
    """Split a pre-tokenized line on whitespace runs.

    Words are interned, so a word that recurs across a corpus is held once
    in memory however many lines and files it appears in (a corpus of 23.9k
    tokens over 894 distinct words holds 0.3 MiB instead of 1.5 MiB).
    """
    return tuple(map(sys.intern, line.split()))


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file, each with its newline, as text
    mode reads them. The one way the toolkit opens text input: a byte that
    is not UTF-8 is a ParseError naming the file and its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: line {_undecodable_line(path)}: not UTF-8") from None


def _undecodable_line(path: str | Path) -> int:
    """Line number of the first byte in the file that is not UTF-8, counting
    line ends as text mode does."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raw = raw[: exc.start]
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 text file (see text_lines)."""
    return "".join(line for _, line in text_lines(path))


def config_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered non-blank lines of a config file (train, decoder, pipeline),
    each stripped, with `#` starting a comment anywhere in the line. Lines
    are numbered as text_lines numbers them: only a line feed ends one, not
    a form feed, vertical tab, NEL or Unicode line separator inside it."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def finite_float(text: str) -> float:
    """float(text) for a config or weights value; nan and infinities are a
    ValueError too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def read_sentences(path: str | Path) -> list[Sentence]:
    """Read one sentence per line; an empty line or file is a parse error."""
    out = []
    for lineno, line in text_lines(path):
        toks = sentence(line)
        if not toks:
            raise ParseError(f"{path}: empty line {lineno}")
        out.append(toks)
    if not out:
        raise ParseError(f"{path}: no sentences")
    return out


def read_parallel(*paths: str | Path) -> list[list[Sentence]]:
    """Read line-aligned files, one sentence list per path.

    Raises CorpusError naming the first missing file before reading any,
    AlignmentError naming the first file whose line count differs from the
    longest, and ParseError on an empty line or file.
    """
    for path in paths:
        if not Path(path).exists():
            raise CorpusError(f"{path}: no such file")
    sides = [read_sentences(p) for p in paths]
    longest = max(map(len, sides))
    for path, side in zip(paths, sides):
        if len(side) != longest:
            raise AlignmentError(
                f"{path}: {len(side)} lines, expected {longest} to match parallel files"
            )
    return sides


def write_sentences(path: str | Path, corpus: Iterable[Sentence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sent in corpus:
            fh.write(" ".join(sent) + "\n")


def triplet_paths(prefix: str | Path) -> tuple[Path, Path, Path]:
    prefix = Path(prefix)
    return tuple(prefix.with_name(prefix.name + s) for s in TRIPLET_SUFFIXES)


def read_triplets(prefix: str | Path) -> list[Triplet]:
    """Load line-aligned .src/.mt/.pe files into triplets (see read_parallel)."""
    return [Triplet(*row) for row in zip(*read_parallel(*triplet_paths(prefix)))]


def write_triplets(prefix: str | Path, triplets: Iterable[Triplet]) -> None:
    triplets = list(triplets)
    for path, field in zip(triplet_paths(prefix), ("src", "mt", "pe")):
        write_sentences(path, (getattr(t, field) for t in triplets))


def letter_count(sent: Sequence[str]) -> int:
    return sum(
        1 for tok in sent for ch in tok if unicodedata.category(ch).startswith("L")
    )


def is_wellformed(sent: Sequence[str]) -> bool:
    """Well-formedness filter for monolingual lines.

    Keeps a sentence iff it starts with an uppercase letter, ends in one of
    . ! ? and contains at least 30 unicode letters in total.
    """
    if not sent:
        return False
    first = sent[0][0]
    if unicodedata.category(first) not in ("Lu", "Lt"):
        return False
    if sent[-1][-1] not in _EOS_PUNCTUATION:
        return False
    return letter_count(sent) >= 30


def wellformed_filter(corpus: Iterable[Sentence]) -> list[Sentence]:
    return [s for s in corpus if is_wellformed(s)]


def mix(
    parts: Sequence[tuple[str, int]], corpora: dict[str, Sequence[Triplet]]
) -> list[Triplet]:
    """Concatenate corpora with integer oversampling factors.

    Output is deterministic: parts in declared order, each corpus repeated
    factor times back to back. Epoch-level shuffling is the trainer's job.
    """
    out: list[Triplet] = []
    for name, factor in parts:
        if name not in corpora:
            raise KeyError(f"unknown corpus id {name!r}")
        if factor < 1:
            raise ValueError(f"oversample factor for {name!r} must be >= 1")
        for _ in range(factor):
            out.extend(corpora[name])
    return out


def read_mix_spec(path: str | Path) -> list[tuple[str, int]]:
    """Parse a mix file: one `<corpus-prefix> <factor>` pair per line, each
    factor an integer >= 1 and each prefix named once, and at least one such
    line."""
    parts = []
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"{path}: line {lineno}: expected '<prefix> <factor>'")
        try:
            factor = int(fields[1])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad factor {fields[1]!r}")
        if factor < 1:
            raise ParseError(f"{path}: line {lineno}: factor {factor} must be >= 1")
        if any(prefix == fields[0] for prefix, _ in parts):
            raise ParseError(f"{path}: line {lineno}: corpus {fields[0]!r} given twice")
        parts.append((fields[0], factor))
    if not parts:
        raise ParseError(f"{path}: no corpora")
    return parts


def escape_token(token: str) -> str:
    for raw, entity in _ESCAPES:
        token = token.replace(raw, entity)
    return token


def unescape_token(token: str) -> str:
    for raw, entity in reversed(_ESCAPES):
        token = token.replace(entity, raw)
    return token


def escape(sent: Sequence[str]) -> Sentence:
    """Escape reserved characters (Moses convention) in every token."""
    return tuple(escape_token(t) for t in sent)


def unescape(sent: Sequence[str]) -> Sentence:
    """Exact inverse of escape."""
    return tuple(unescape_token(t) for t in sent)
