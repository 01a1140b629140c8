"""Workflow orchestration and synthetic data generation.

Stages form a DAG over workspace-relative files. Every stage records the
checksums of its inputs and outputs in a manifest; a rerun whose checksums
all match is skipped. Stage wall times go to the log, not the manifest, so
repeated runs produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shlex
import time
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import CorpusError, ParseError, Sentence, Triplet, config_lines, text_lines
from .decoder import NmtScorer, ScorerBinding, decode
from .nmt.model import Seq2SeqModel

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


class PipelineError(CorpusError):
    """Stage execution failure; message names the stage."""


class PipelineConfigError(CorpusError):
    """Invalid stage graph (cycles, duplicate names or outputs) or a
    workspace manifest that is not a JSON object of stage records."""


def cipher_token(token: str) -> str:
    """Deterministic stand-in source language: characters reversed.

    Bijective per token; single-character tokens map to themselves.
    """
    return token[::-1]


def cipher(sent: Sequence[str]) -> Sentence:
    return tuple(cipher_token(t) for t in sent)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-token corruption probabilities with their material: substitutes
    come from the confusion table, insertions from the filler inventory."""

    substitution: float = 0.0
    deletion: float = 0.0
    insertion: float = 0.0
    swap: float = 0.0
    confusion: Mapping[str, tuple[str, ...]] | None = None
    fillers: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("substitution", "deletion", "insertion", "swap"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p} outside [0, 1]")
        if self.substitution > 0 and not self.confusion:
            raise ValueError("substitution noise requires a confusion table")
        if self.insertion > 0 and not self.fillers:
            raise ValueError("insertion noise requires filler tokens")


def read_confusion(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Confusion table: one `token alternative...` line per token, each
    token on one line only; a line starting with '#' is a comment."""
    table = {}
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"{path}: line {lineno}: expected 'token alternative...'")
        if fields[0] in table:
            raise ParseError(f"{path}: line {lineno}: token {fields[0]!r} given twice")
        table[fields[0]] = tuple(fields[1:])
    return table


def corrupt(sent: Sequence[str], spec: NoiseSpec, rng: np.random.Generator) -> Sentence:
    """One corrupted copy of the sentence; never returns an empty result."""
    out: list[str] = []
    remaining = len(sent)
    for tok in sent:
        remaining -= 1
        if spec.insertion > 0 and rng.random() < spec.insertion:
            out.append(spec.fillers[int(rng.integers(len(spec.fillers)))])
        if spec.deletion > 0 and rng.random() < spec.deletion:
            # deleting the last surviving token would empty the sentence
            if out or remaining > 0:
                continue
        if (
            spec.substitution > 0
            and tok in (spec.confusion or {})
            and rng.random() < spec.substitution
        ):
            choices = spec.confusion[tok]
            out.append(choices[int(rng.integers(len(choices)))])
        else:
            out.append(tok)
    if spec.swap > 0:
        i = 0
        while i + 1 < len(out):
            if rng.random() < spec.swap:
                out[i], out[i + 1] = out[i + 1], out[i]
                i += 2
            else:
                i += 1
    return tuple(out)


def synth_corrupt(
    pe_corpus: Sequence[Sequence[str]], spec: NoiseSpec, seed: int
) -> list[Triplet]:
    """Synthetic triplets: src is the ciphered reference, mt a noisy copy."""
    rng = np.random.default_rng(seed)
    out = []
    for pe in pe_corpus:
        pe = tuple(pe)
        out.append(Triplet(src=cipher(pe), mt=corrupt(pe, spec, rng), pe=pe))
    return out


class RoundtripError(CorpusError):
    """A round trip that keeps no sentence."""


@dataclass
class RoundtripResult:
    triplets: list[Triplet]
    dropped: int


def roundtrip_generate(
    mono_pe: Sequence[Sequence[str]],
    reverse_model: Seq2SeqModel,
    forward_model: Seq2SeqModel,
) -> RoundtripResult:
    """Two-hop translation of monolingual text into full triplets.

    Each sentence p is decoded greedily (beam 1) to a pseudo-source s', s'
    is decoded the same way to m', and (s', m', p) is emitted. Sentences
    whose decodes truncate or come back empty are dropped and counted.
    """
    reverse = NmtScorer(reverse_model)
    forward = NmtScorer(forward_model)
    triplets = []
    dropped = 0
    for pe in mono_pe:
        pe = tuple(pe)
        rev_ids = tuple(reverse_model.src_vocab.ids(pe))
        rev = decode([ScorerBinding("reverse", reverse, rev_ids, 1.0)], beam=1)
        src = rev.entries[0].tokens
        if rev.truncated or not src:
            dropped += 1
            continue
        fwd_ids = tuple(forward_model.src_vocab.ids(src))
        fwd = decode([ScorerBinding("forward", forward, fwd_ids, 1.0)], beam=1)
        mt = fwd.entries[0].tokens
        if fwd.truncated or not mt:
            dropped += 1
            continue
        triplets.append(Triplet(src=src, mt=mt, pe=pe))
    return RoundtripResult(triplets=triplets, dropped=dropped)


@dataclass(frozen=True)
class Stage:
    """A named unit of work over workspace-relative files."""

    name: str
    action: Callable[[Path], None]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()


def parse_config(
    text: str,
    source: str,
    action_for: Callable[[list[str]], Callable[[Path], None]],
) -> list[Stage]:
    """Line-oriented stage declarations, a sequence of blocks

        stage <name>
          in <file> ...
          out <file> ...
          cmd <subcommand and arguments>
        end

    with `in` and `out` optional and repeatable; `cmd` is required. A stage
    runs after the stages that produce its `in` files. '#' starts a comment.
    A stage's action is `action_for(args)`, where args are the shell-split
    `cmd` words without a leading `apeforge`. Errors start with `source`.
    """
    stages: list[Stage] = []
    current = None

    def fail(lineno, message):
        raise ParseError(f"{source}: line {lineno}: {message}")

    for lineno, line in config_lines(text):
        fields = line.split()
        directive = fields[0]
        if current is None:
            if directive != "stage":
                fail(lineno, f"unknown directive {directive!r}")
            if len(fields) != 2:
                fail(lineno, "stage takes one name")
            current = {"name": fields[1], "in": [], "out": [], "cmd": None}
            continue
        if directive in ("in", "out"):
            if len(fields) < 2:
                fail(lineno, f"{directive} needs at least one value")
            current[directive].extend(fields[1:])
        elif directive == "cmd":
            if current["cmd"] is not None:
                fail(lineno, f"stage {current['name']!r} has two cmd lines")
            rest = line.split(None, 1)
            if len(rest) < 2:
                fail(lineno, "cmd needs a command line")
            try:
                current["cmd"] = shlex.split(rest[1])
            except ValueError as exc:
                fail(lineno, f"cmd: {exc}")
        elif directive == "end":
            if current["cmd"] is None:
                fail(lineno, f"stage {current['name']!r} has no cmd")
            args = current["cmd"]
            if args and args[0] == "apeforge":
                args = args[1:]
            stages.append(
                Stage(
                    name=current["name"],
                    action=action_for(args),
                    inputs=tuple(current["in"]),
                    outputs=tuple(current["out"]),
                )
            )
            current = None
        else:
            fail(lineno, f"unknown stage directive {directive!r}")
    if current is not None:
        raise ParseError(f"{source}: stage {current['name']!r} not closed with 'end'")
    return stages


@dataclass
class RunReport:
    manifest: dict
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _checksums(workspace: Path, rel_paths: Sequence[str]) -> dict[str, str]:
    return {rel: _sha256(workspace / rel) for rel in sorted(rel_paths)}


def _record(workspace: Path, stage: Stage) -> dict:
    """A stage's manifest record: the checksums of its inputs and outputs."""
    return {
        "inputs": _checksums(workspace, stage.inputs),
        "outputs": _checksums(workspace, stage.outputs),
    }


def _topological_order(stages: Sequence[Stage]) -> list[Stage]:
    names: set[str] = set()
    for stage in stages:
        if stage.name in names:
            raise PipelineConfigError(f"duplicate stage name {stage.name!r}")
        names.add(stage.name)
    producer: dict[str, str] = {}
    for stage in stages:
        for out in stage.outputs:
            if out in producer:
                raise PipelineConfigError(
                    f"output {out!r} produced by both "
                    f"{producer[out]!r} and {stage.name!r}"
                )
            producer[out] = stage.name

    graph: TopologicalSorter[str] = TopologicalSorter()
    for stage in stages:
        made_by = (producer[rel] for rel in stage.inputs if rel in producer)
        graph.add(stage.name, *(p for p in made_by if p != stage.name))
    try:
        graph.prepare()
    except CycleError as exc:
        cycle = ", ".join(sorted(set(exc.args[1])))
        raise PipelineConfigError(f"stage cycle among: {cycle}") from None

    # each wave of ready stages is taken in declaration order
    ordered: list[Stage] = []
    while graph.is_active():
        ready = graph.get_ready()
        ordered.extend(s for s in stages if s.name in ready)
        graph.done(*ready)
    return ordered


def _write_manifest(workspace: Path, manifest: dict) -> None:
    path = workspace / MANIFEST_NAME
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _stage_unchanged(workspace: Path, stage: Stage, record: dict | None) -> bool:
    if record is None:
        return False
    for rel in (*stage.inputs, *stage.outputs):
        if not (workspace / rel).exists():
            return False
    return record == _record(workspace, stage)


def run(workspace: str | Path, stages: Sequence[Stage]) -> RunReport:
    """Execute stages in dependency order, skipping checksum-clean ones."""
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    ordered = _topological_order(stages)

    manifest_path = workspace / MANIFEST_NAME
    manifest = {"stages": {}}
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise PipelineConfigError(f"{manifest_path}: not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(
            manifest.setdefault("stages", {}), dict
        ):
            raise PipelineConfigError(
                f"{manifest_path}: expected an object with a 'stages' object"
            )
    report = RunReport(manifest=manifest)

    for stage in ordered:
        record = manifest["stages"].get(stage.name)
        if _stage_unchanged(workspace, stage, record):
            log.info("stage %s: unchanged, skipped", stage.name)
            report.skipped.append(stage.name)
            continue
        for rel in stage.inputs:
            if not (workspace / rel).exists():
                raise PipelineError(f"stage {stage.name!r}: missing input {rel!r}")
        started = time.monotonic()
        try:
            stage.action(workspace)
        except Exception as exc:
            raise PipelineError(f"stage {stage.name!r} failed: {exc}") from exc
        wall = time.monotonic() - started
        for rel in stage.outputs:
            if not (workspace / rel).exists():
                raise PipelineError(
                    f"stage {stage.name!r} did not produce output {rel!r}"
                )
        manifest["stages"][stage.name] = _record(workspace, stage)
        _write_manifest(workspace, manifest)
        log.info(
            "stage %s: inputs=%s outputs=%s wall=%.3fs",
            stage.name,
            list(stage.inputs),
            list(stage.outputs),
            wall,
        )
        report.executed.append(stage.name)

    _write_manifest(workspace, manifest)
    return report
