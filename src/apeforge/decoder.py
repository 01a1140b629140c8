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

from .corpus import Sentence, Vocab, config_lines, escape, unescape
from .nmt import checkpoint as ckpt
from .nmt.model import DecodeState, Seq2SeqModel

BOS = Vocab.BOS
EOS = Vocab.EOS

PEP_NAME = "pep"


class AssemblyError(Exception):
    """Ensemble components that cannot be combined."""


class NBestParseError(Exception):
    """Malformed n-best file line."""


class Scorer(Protocol):
    tgt_vocab: Vocab

    def start(self, input_ids: Sequence[int]): ...

    def step(self, state, token: int) -> tuple[np.ndarray, object]: ...


class NmtScorer:
    """Step adapter over a sequence-to-sequence model."""

    def __init__(self, model: Seq2SeqModel):
        self.model = model
        self.tgt_vocab = model.tgt_vocab

    def start(self, input_ids: Sequence[int]) -> DecodeState:
        return DecodeState.start(self.model, list(input_ids))

    def step(self, state: DecodeState, token: int):
        return state.step(self.model, token)


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

    def feature(self, name: str) -> float:
        for key, value in self.features:
            if key == name:
                return value
        raise KeyError(name)


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


@dataclass
class _Hyp:
    ids: tuple[int, ...]
    last: int
    feats: np.ndarray
    combined: float
    states: list


def decode(
    bindings: Sequence[ScorerBinding],
    pep: PepFeature | None = None,
    beam: int = 12,
    sentence_id: int = 0,
) -> NBestList:
    """Beam search; returns up to `beam` ranked hypotheses.

    Pruning uses raw combined scores. The final ranking, reported per-feature
    scores, and combined scores are divided by the emitted token count (end
    symbol included), so the log-linear recombination identity still holds
    on the reported numbers.

    Finished hypotheses accumulate in a completed pool; the search stops
    once the pool holds `beam` entries and the best live raw score cannot
    beat the pool's worst, or at the hard cap of 3x the longest input. If
    nothing finished by the cap, the best unfinished hypotheses are returned
    with the truncation flag set.
    """
    vocab = assemble(bindings)
    if beam < 1:
        raise ValueError("beam must be >= 1")
    n_scorers = len(bindings)
    names = [b.name for b in bindings] + ([PEP_NAME] if pep is not None else [])
    weights = np.array(
        [b.weight for b in bindings] + ([pep.weight] if pep is not None else [])
    )
    pep_vec = pep.vector(len(vocab)) if pep is not None else None

    start = _Hyp(
        ids=(),
        last=BOS,
        feats=np.zeros(len(names)),
        combined=0.0,
        states=[b.scorer.start(b.input_ids) for b in bindings],
    )
    live = [start]
    completed: list[_Hyp] = []
    cap = 3 * max(len(b.input_ids) for b in bindings)

    for _ in range(cap):
        increments = []  # per live hyp: (per-scorer logps, new states)
        for hyp in live:
            logps = []
            states = []
            for binding, state in zip(bindings, hyp.states):
                lp, new_state = binding.scorer.step(state, hyp.last)
                logps.append(lp)
                states.append(new_state)
            increments.append((logps, states))

        candidates = []  # (raw score, token, parent index)
        for parent, (hyp, (logps, _)) in enumerate(zip(live, increments)):
            inc = np.zeros(len(vocab))
            for w, lp in zip(weights[:n_scorers], logps):
                inc += w * lp
            if pep_vec is not None:
                inc += pep.weight * pep_vec
            scores = hyp.combined + inc
            for token in range(len(vocab)):
                candidates.append((float(scores[token]), token, parent))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

        next_live = []
        for score, token, parent in candidates[:beam]:
            hyp = live[parent]
            logps, states = increments[parent]
            feats = hyp.feats.copy()
            for i, lp in enumerate(logps):
                feats[i] += float(lp[token])
            if pep_vec is not None:
                feats[-1] += pep_vec[token]
            child = _Hyp(
                ids=hyp.ids + (token,),
                last=token,
                feats=feats,
                combined=score,
                states=states,
            )
            if token == EOS:
                completed.append(child)
            else:
                next_live.append(child)
        live = next_live
        if not live:
            break
        if len(completed) >= beam:
            worst = sorted(h.combined for h in completed)[-beam]
            if max(h.combined for h in live) <= worst:
                break

    truncated = not completed
    pool = completed if completed else live
    entries = []
    for hyp in pool:
        scale = 1.0 / max(len(hyp.ids), 1)
        final = hyp.combined * scale
        tokens = vocab.words(t for t in hyp.ids if t != EOS)
        feats = tuple(
            (name, float(val * scale)) for name, val in zip(names, hyp.feats)
        )
        entries.append((final, tokens, NBestEntry(tokens, feats, float(final))))
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
    order: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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
            if sid not in grouped:
                grouped[sid] = []
                order.append(sid)
            grouped[sid].append(entry)
    return [
        NBestList(sentence_id=sid, entries=tuple(grouped[sid])) for sid in order
    ]


@dataclass(frozen=True)
class DecoderConfig:
    """Parsed decoder configuration: scorer declarations plus the optional
    copy-bias feature."""

    scorers: tuple[tuple[str, str, str, float], ...]  # (name, model path, input, weight)
    pep: tuple[str, float] | None = None  # (input selector, weight)


def parse_decoder_config(text: str, source: str = "<config>") -> DecoderConfig:
    """Line format: `scorer <name> model=<path> input=mt|src weight=<w>` or
    `feature pep input=mt|union weight=<w>`; '#' starts a comment. Error
    messages start with `source`."""
    scorers = []
    pep = None
    for lineno, line in config_lines(text):
        fields = line.split()
        try:
            if fields[0] == "scorer":
                name = fields[1]
                kv = dict(f.split("=", 1) for f in fields[2:])
                if kv["input"] not in ("mt", "src"):
                    raise ValueError(f"bad scorer input {kv['input']!r}")
                scorers.append((name, kv["model"], kv["input"], float(kv["weight"])))
            elif fields[0] == "feature":
                if fields[1] != PEP_NAME:
                    raise ValueError(f"unknown feature {fields[1]!r}")
                kv = dict(f.split("=", 1) for f in fields[2:])
                if kv["input"] not in ("mt", "union"):
                    raise ValueError(f"bad feature input {kv['input']!r}")
                if pep is not None:
                    raise ValueError("duplicate pep feature")
                pep = (kv["input"], float(kv["weight"]))
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise AssemblyError(f"{source}: line {lineno}: {exc}") from exc
    if not scorers:
        raise AssemblyError(f"{source}: config declares no scorers")
    return DecoderConfig(scorers=tuple(scorers), pep=pep)


class Ensemble:
    """Decoder config resolved against its model files."""

    def __init__(self, config: DecoderConfig):
        self.config = config
        self.models = {}
        for name, model_path, _sel, _w in config.scorers:
            model = ckpt.load(model_path)
            self.models[name] = (model, NmtScorer(model))
        self.tgt_vocab = next(iter(self.models.values()))[0].tgt_vocab

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
