"""Beam search over a weighted ensemble of step-scoring components.

Each scorer conditions on its own input sentence; all scorers must share one
target vocabulary. Hypothesis scores are log-linear: the combined score is
the weighted sum of per-component log-score totals, optionally including the
copy-bias feature that penalizes tokens absent from a designated input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .corpus import (
    CorpusError, Sentence, Vocab, config_lines, escape, finite_float, read_text, text_lines,
    unescape,
)
from .nmt import checkpoint as ckpt
from .nmt.model import DecodeState, Seq2SeqModel

BOS = Vocab.BOS
EOS = Vocab.EOS

PEP_NAME = "pep"


class AssemblyError(CorpusError):
    """Ensemble components that cannot be combined."""


class NBestParseError(CorpusError):
    """Malformed n-best file line."""


class Scorer(Protocol):
    """Step scoring by rows: a state holds one row per live hypothesis.

    `start` returns a one-row state. `step` takes `moves`, an int array of
    shape (B, 2) whose row i is (row of `state` it continues, token that
    row just emitted); it returns (B, V) next-token log-probs and the B-row
    state. The first round passes [[0, BOS]].
    """

    tgt_vocab: Vocab

    def start(self, input_ids: Sequence[int]): ...

    def step(self, state, moves: np.ndarray) -> tuple[np.ndarray, object]: ...


class NmtScorer:
    """Step adapter over a sequence-to-sequence model."""

    def __init__(self, model: Seq2SeqModel):
        self.model = model
        self.tgt_vocab = model.tgt_vocab

    def start(self, input_ids: Sequence[int]) -> DecodeState:
        return DecodeState.start(self.model, list(input_ids))

    def step(self, state: DecodeState, moves: np.ndarray):
        return state.step(moves[:, 0], moves[:, 1])


@dataclass(frozen=True)
class ScorerBinding:
    name: str
    scorer: Scorer
    input_ids: tuple[int, ...]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "input_ids", tuple(self.input_ids))


@dataclass(frozen=True)
class PepFeature:
    """Post-editing penalty: 0 for allowed target ids, -1 for every other id.

    Allowed are the end symbol and the target ids of the input units; units
    outside the target vocabulary allow nothing (not `<unk>`).
    """

    allowed: frozenset[int]
    weight: float

    @classmethod
    def from_units(cls, input_units: Sequence[str], vocab: Vocab, weight: float):
        allowed = frozenset({vocab.id(u) for u in input_units if u in vocab} | {EOS})
        return cls(allowed=allowed, weight=weight)

    def vector(self, vocab_size: int) -> np.ndarray:
        vec = np.full(vocab_size, -1.0)
        vec[sorted(i for i in self.allowed if i < vocab_size)] = 0.0
        return vec


@dataclass(frozen=True)
class NBestEntry:
    tokens: Sentence
    features: tuple[tuple[str, float], ...]
    combined: float


@dataclass(frozen=True)
class NBestList:
    sentence_id: int
    entries: tuple[NBestEntry, ...]
    truncated: bool = False


def assemble(bindings: Sequence[ScorerBinding]) -> Vocab:
    """Validate the ensemble and return its shared target vocabulary."""
    if not bindings:
        raise AssemblyError("at least one scorer binding is required")
    vocab = bindings[0].scorer.tgt_vocab
    for b in bindings[1:]:
        if b.scorer.tgt_vocab != vocab:
            raise AssemblyError(
                f"binding {b.name!r} uses a different target vocabulary"
            )
    names = [b.name for b in bindings]
    if len(set(names)) != len(names):
        raise AssemblyError("binding names must be unique")
    if PEP_NAME in names:
        raise AssemblyError(f"binding name {PEP_NAME!r} is reserved")
    return vocab


def feature_names(scorer_names: Iterable[str], pep: object | None) -> list[str]:
    """The ensemble's feature names: one per scorer, then `pep` if present."""
    return list(scorer_names) + ([PEP_NAME] if pep is not None else [])


def decode(
    bindings: Sequence[ScorerBinding],
    pep: PepFeature | None = None,
    beam: int = 12,
    sentence_id: int = 0,
) -> NBestList:
    """Beam search; returns up to `beam` ranked hypotheses.

    Each round scores every (live hypothesis, token) pair in one (B, V)
    matrix and keeps the `beam` best, ties broken by lower token id, then
    by lower parent row. Pruning uses raw combined scores. The final
    ranking, reported per-feature scores, and combined scores are divided
    by the emitted token count (end symbol included), so the log-linear
    recombination identity still holds on the reported numbers.

    Finished hypotheses accumulate in a completed pool; the search stops
    once the pool holds `beam` entries and the best live raw score cannot
    beat the pool's worst, or at the hard cap of 3x the longest input. If
    nothing finished by the cap, the best unfinished hypotheses are returned
    with the truncation flag set.
    """
    vocab = assemble(bindings)
    if beam < 1:
        raise ValueError("beam must be >= 1")
    names = feature_names((b.name for b in bindings), pep)
    pep_vec = pep.vector(len(vocab)) if pep is not None else None
    pep_inc = pep.weight * pep_vec if pep is not None else None

    # live hypotheses, one row each: emitted ids, feature totals, raw score
    ids: list[tuple[int, ...]] = [()]
    feats = np.zeros((1, len(names)))
    combined = np.zeros(1)
    moves = np.array([[0, BOS]])
    states = [b.scorer.start(b.input_ids) for b in bindings]
    completed: list[tuple[tuple[int, ...], np.ndarray, float]] = []
    cap = 3 * max(len(b.input_ids) for b in bindings)

    for _ in range(cap):
        logps = []
        for i, binding in enumerate(bindings):
            lp, states[i] = binding.scorer.step(states[i], moves)
            logps.append(lp)
        # one (B, V) buffer: the weighted scorer terms, pep, then the totals
        inc = bindings[0].weight * logps[0]
        for binding, lp in zip(bindings[1:], logps[1:]):
            inc += binding.weight * lp
        if pep_inc is not None:
            inc += pep_inc
        inc += combined[:, None]
        scores = inc.ravel()

        # every entry tied with the beam-th best survives the cut
        k = min(beam, scores.size)
        kept = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
        parent, token = np.divmod(kept, len(vocab))
        order = np.lexsort((parent, token, -scores[kept]))[:beam]
        parent, token, combined = parent[order], token[order], scores[kept[order]]

        feats = feats[parent]
        for i, lp in enumerate(logps):
            feats[:, i] += lp[parent, token]
        if pep_vec is not None:
            feats[:, -1] += pep_vec[token]
        ids = [ids[p] + (t,) for p, t in zip(parent.tolist(), token.tolist())]

        done = token == EOS
        completed.extend(
            (ids[i], feats[i], float(combined[i])) for i in np.flatnonzero(done)
        )
        live = ~done
        ids = [h for h, d in zip(ids, done) if not d]
        feats, combined = feats[live], combined[live]
        moves = np.stack([parent[live], token[live]], axis=1)
        if not ids:
            break
        if len(completed) >= beam:
            worst = sorted(c for _, _, c in completed)[-beam]
            if combined.max() <= worst:
                break

    truncated = not completed
    pool = completed if completed else list(zip(ids, feats, combined.tolist()))
    entries = []
    for hyp_ids, hyp_feats, raw in pool:
        scale = 1.0 / max(len(hyp_ids), 1)
        final = raw * scale
        tokens = vocab.words(t for t in hyp_ids if t != EOS)
        named = tuple(
            (name, float(val * scale)) for name, val in zip(names, hyp_feats)
        )
        entries.append((final, tokens, NBestEntry(tokens, named, float(final))))
    entries.sort(key=lambda e: (-e[0], e[1]))
    return NBestList(
        sentence_id=sentence_id,
        entries=tuple(e[2] for e in entries[:beam]),
        truncated=truncated,
    )


def write_nbest(lists: Iterable[NBestList], path: str | Path) -> None:
    """One `id ||| tokens ||| name= score ... ||| combined` line per entry.

    Tokens are written Moses-escaped (corpus.escape), so a token holding
    `|`, `&`, `<`, `>`, quotes or brackets cannot break the line format.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for nbest in lists:
            for entry in nbest.entries:
                feats = " ".join(f"{name}= {val:.6f}" for name, val in entry.features)
                fh.write(
                    f"{nbest.sentence_id} ||| {' '.join(escape(entry.tokens))} ||| "
                    f"{feats} ||| {entry.combined:.6f}\n"
                )


def read_nbest(path: str | Path) -> list[NBestList]:
    """Inverse of write_nbest (tokens unescaped); entries grouped by sentence id."""
    grouped: dict[int, list[NBestEntry]] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        parts = line.split(" ||| ")
        if len(parts) != 4:
            raise NBestParseError(f"{path}: line {lineno}: expected 4 fields")
        sid_text, tokens_text, feats_text, combined_text = parts
        try:
            sid = int(sid_text)
            combined = float(combined_text)
            feats = []
            chunks = feats_text.split()
            if len(chunks) % 2 != 0:
                raise ValueError("odd feature field count")
            for i in range(0, len(chunks), 2):
                name = chunks[i]
                if not name.endswith("="):
                    raise ValueError(f"feature name {name!r} missing '='")
                feats.append((name[:-1], float(chunks[i + 1])))
        except ValueError as exc:
            raise NBestParseError(f"{path}: line {lineno}: {exc}") from exc
        entry = NBestEntry(
            tokens=unescape(tokens_text.split()),
            features=tuple(feats),
            combined=combined,
        )
        grouped.setdefault(sid, []).append(entry)
    return [
        NBestList(sentence_id=sid, entries=tuple(entries))
        for sid, entries in grouped.items()
    ]


@dataclass(frozen=True)
class DecoderConfig:
    """Parsed decoder configuration: scorer declarations plus the optional
    copy-bias feature."""

    scorers: tuple[tuple[str, str, str, float], ...]  # (name, model path, input, weight)
    pep: tuple[str, float] | None = None  # (input selector, weight)


def _key_values(fields: list[str], keys: Sequence[str]) -> dict[str, str]:
    """A config line's `key=value` fields as a dict; each of `keys` must be
    given exactly once, and no other key."""
    kv = {}
    for f in fields:
        key, eq, value = f.partition("=")
        if not eq:
            raise ValueError(f"field {f!r} is not key=value")
        if key not in keys:
            raise ValueError(f"unknown field {key!r} (expected {', '.join(keys)})")
        if key in kv:
            raise ValueError(f"field {key!r} given twice")
        kv[key] = value
    missing = [k for k in keys if k not in kv]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return kv


def parse_decoder_config(text: str, source: str = "<config>") -> DecoderConfig:
    """Line format: `scorer <name> model=<path> input=mt|src weight=<w>` or
    `feature pep input=mt|union weight=<w>`; '#' starts a comment. Every
    field is required and given once; scorer names are unique and not
    `pep`. Error messages start with `source`."""
    scorers = []
    pep = None
    for lineno, line in config_lines(text):
        directive, *fields = line.split()
        try:
            if directive not in ("scorer", "feature"):
                raise ValueError(f"unknown directive {directive!r}")
            if not fields:
                raise ValueError(f"{directive} line has no name")
            name, *fields = fields
            if directive == "scorer":
                kv = _key_values(fields, ("model", "input", "weight"))
                if name == PEP_NAME:
                    raise ValueError(f"scorer name {PEP_NAME!r} is reserved")
                if name in (s[0] for s in scorers):
                    raise ValueError(f"scorer {name!r} declared twice")
                if kv["input"] not in ("mt", "src"):
                    raise ValueError(f"bad scorer input {kv['input']!r}")
                scorers.append((name, kv["model"], kv["input"], finite_float(kv["weight"])))
            else:
                if name != PEP_NAME:
                    raise ValueError(f"unknown feature {name!r}")
                kv = _key_values(fields, ("input", "weight"))
                if kv["input"] not in ("mt", "union"):
                    raise ValueError(f"bad feature input {kv['input']!r}")
                if pep is not None:
                    raise ValueError("duplicate pep feature")
                pep = (kv["input"], finite_float(kv["weight"]))
        except ValueError as exc:
            raise AssemblyError(f"{source}: line {lineno}: {exc}") from exc
    if not scorers:
        raise AssemblyError(f"{source}: config declares no scorers")
    return DecoderConfig(scorers=tuple(scorers), pep=pep)


class Ensemble:
    """A decoder config file resolved against its model files, whose
    scorers share one target vocabulary."""

    def __init__(self, config_path: str | Path):
        self.config = config = parse_decoder_config(
            read_text(config_path), source=str(config_path)
        )
        self.feature_names = feature_names((s[0] for s in config.scorers), config.pep)
        self.models = {}
        for name, model_path, _sel, _w in config.scorers:
            model = ckpt.load(model_path)
            if not self.models:
                first, self.tgt_vocab = name, model.tgt_vocab
            elif model.tgt_vocab != self.tgt_vocab:
                raise AssemblyError(
                    f"{config_path}: scorer {name!r} (model {model_path}) has a "
                    f"different target vocabulary from scorer {first!r}"
                )
            self.models[name] = (model, NmtScorer(model))

    def needs_src(self) -> bool:
        if any(sel == "src" for _, _, sel, _ in self.config.scorers):
            return True
        return self.config.pep is not None and self.config.pep[0] == "union"

    def bindings_for(self, mt, src):
        bindings = []
        for name, _path, sel, weight in self.config.scorers:
            sent = mt if sel == "mt" else src
            model, scorer = self.models[name]
            bindings.append(
                ScorerBinding(name, scorer, tuple(model.src_vocab.ids(sent)), weight)
            )
        pep = None
        if self.config.pep is not None:
            sel, weight = self.config.pep
            units = tuple(mt)
            if sel == "union":
                units = units + tuple(src)
            pep = PepFeature.from_units(units, self.tgt_vocab, weight)
        return bindings, pep


def reweight(
    bindings: Sequence[ScorerBinding],
    pep: PepFeature | None,
    weights: Mapping[str, float],
) -> tuple[list[ScorerBinding], PepFeature | None]:
    """The bindings and copy-bias feature with weights looked up by feature
    name (`pep` for the feature); a name `weights` omits keeps its weight."""
    bindings = [replace(b, weight=weights.get(b.name, b.weight)) for b in bindings]
    if pep is not None:
        pep = replace(pep, weight=weights.get(PEP_NAME, pep.weight))
    return bindings, pep
