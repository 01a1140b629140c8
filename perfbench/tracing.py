"""Span tracing of the library's public functions, from the benchmark's side.

The traced process replaces each public function by a wrapper at the name
its caller looks it up under (`tuner.decode`, `triplet_select.ter`,
`training.forward_batch`, ...). Between `decoder` and `nmt` the boundary is
the `Scorer` protocol, so the benchmark hands the decoder a `TracedScorer`.
Spans (name, start, end, parent, run id) and counters stay in memory and are
written out when the run ends. Nothing in the library is modified on disk.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than twenty
    samples no percentile qualifies and the maximum is returned with 0
    samples beyond it.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = n - math.ceil(n * pct / 100.0)
        if beyond >= 10:
            return float(np.percentile(samples, pct)), pct, beyond
    return float(max(samples)), 100.0, 0


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scratch: dict[str, float] = {}
        self.ter_pairs: set = set()
        self.triplets: set = set()

    def _open(self, name: str) -> int | None:
        # A call nested directly in a span of its own name (read_triplets
        # calling read_sentences) is folded into the outer span.
        if self._stack and self.spans[self._stack[-1]][0] == name:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int | None) -> None:
        if idx is not None:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        `name` is a span name or a function of the call arguments returning
        one. `before(args)` runs just before the span opens and
        `after(args, result, duration_s)` just after it closes, for counters.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if idx is not None and after is not None:
                start, end = self.spans[idx][1:3]
                after(args, result, end - start)
            return result

        setattr(owner, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, incl, self_s


class _Tracked:
    """A scorer state tagged with the search round that produced it."""

    __slots__ = ("state", "depth")

    def __init__(self, state, depth: int):
        self.state = state
        self.depth = depth


class TracedScorer:
    """Scorer protocol wrapper: spans `nmt.encode` for start and `nmt.step`
    for step, and counts search rounds and hypotheses advanced."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.tgt_vocab = inner.tgt_vocab

    def start(self, input_ids):
        with self.tracer.span("nmt.encode"):
            state = self.inner.start(input_ids)
        return _Tracked(state, 0)

    def step(self, state: _Tracked, token: int):
        with self.tracer.span("nmt.step"):
            logp, new = self.inner.step(state.state, token)
        s = getattr(new, "s", None)
        rows = s.shape[0] if getattr(s, "ndim", 0) == 2 else 1
        scratch = self.tracer.scratch
        scratch["rows"] = scratch.get("rows", 0) + rows
        scratch["depth"] = max(scratch.get("depth", 0), state.depth + 1)
        self.tracer.counts["nmt.step.rows"] += rows
        return logp, _Tracked(new, state.depth + 1)


def maybe_span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every public boundary the workloads cross. Call once, in the
    traced process only."""
    from apeforge import (
        corpus,
        decoder,
        metrics,
        ngram_lm,
        pipeline,
        report,
        subword,
        triplet_select,
        tuner,
    )
    import apeforge.nmt as nmt
    from apeforge.nmt import checkpoint, training

    counts, samples = tracer.counts, tracer.samples

    def add_bytes(key, paths):
        counts[key] += sum(_size(p) for p in paths)

    # corpus
    for attr in ("read_sentences", "write_sentences"):
        kind = "read" if attr.startswith("read") else "write"
        tracer.wrap(corpus, attr, f"corpus.{kind}",
                    after=lambda a, r, d: add_bytes("corpus.bytes", [a[0]]))
    for attr in ("read_triplets", "write_triplets"):
        kind = "read" if attr.startswith("read") else "write"
        tracer.wrap(corpus, attr, f"corpus.{kind}",
                    after=lambda a, r, d: add_bytes("corpus.bytes", corpus.triplet_paths(a[0])))

    # metrics: ter as each caller sees it
    def on_ter(args, result, dur):
        key = (tuple(args[0]), tuple(args[1]))
        if key in tracer.ter_pairs:
            counts["metrics.ter.repeats"] += 1
        tracer.ter_pairs.add(key)
        counts["metrics.ter.shifts"] += result.shifts
        samples["metrics.ter.us"].append(dur * 1e6)

    for owner in (metrics, triplet_select, tuner):
        tracer.wrap(owner, "ter", "metrics.ter", after=on_ter)
    for owner in (metrics, triplet_select, tuner, report):
        tracer.wrap(owner, "corpus_ter", "metrics.corpus_ter")
    tracer.wrap(report, "bleu", "metrics.bleu")

    # triplet_select
    def on_stats(args, result, dur):
        counts["triplet_select.stat_matrix.rows"] += len(args[0])
        tracer.triplets.update(args[0])

    tracer.wrap(triplet_select, "stat_matrix", "triplet_select.stat_matrix", after=on_stats)
    tracer.wrap(triplet_select, "outlier_filter", "triplet_select.outlier_filter")
    tracer.wrap(triplet_select, "knn_select", "triplet_select.knn")
    tracer.wrap(triplet_select, "report_stats", "triplet_select.report")

    # ngram_lm
    tracer.wrap(ngram_lm, "train_lm", "ngram_lm.train")
    tracer.wrap(ngram_lm, "select_by_xent", "ngram_lm.xent",
                after=lambda a, r, d: counts.update({"ngram_lm.xent.sentences": len(a[2])}))
    tracer.wrap(ngram_lm, "write_arpa", "ngram_lm.arpa_io")
    tracer.wrap(ngram_lm, "read_arpa", "ngram_lm.arpa_io")

    # subword
    tracer.wrap(subword, "learn_bpe", "subword.learn")
    tracer.wrap(subword, "apply_bpe", "subword.apply",
                after=lambda a, r, d: counts.update({"subword.apply.tokens": len(r)}))
    tracer.wrap(subword, "save_model", "subword.io")
    tracer.wrap(subword, "load_model", "subword.io")

    # nmt: training kernels as training.train sees them, checkpoints, train
    def on_forward(args, result, dur):
        counts["nmt.train.batches"] += 1
        counts["nmt.train.tokens"] += int(args[5].sum())

    tracer.wrap(training, "forward_batch", "nmt.forward", after=on_forward)
    tracer.wrap(training, "backward_batch", "nmt.backward")
    tracer.wrap(training, "clip_gradients", "nmt.clip")
    tracer.wrap(training.Adadelta, "step", "nmt.adadelta")
    tracer.wrap(nmt, "train", "nmt.train")
    tracer.wrap(nmt, "init_model", "nmt.init")
    tracer.wrap(checkpoint, "save", "nmt.checkpoint.save",
                after=lambda a, r, d: add_bytes("nmt.checkpoint.save.bytes", [a[1]]))
    tracer.wrap(checkpoint, "load", "nmt.checkpoint.load")

    # decoder: search-shape counters come from the TracedScorer's scratch
    def before_decode(args):
        tracer.scratch.clear()

    def on_decode(args, result, dur):
        bindings = args[0]
        rounds = int(tracer.scratch.get("depth", 0))
        cap = 3 * max(len(b.input_ids) for b in bindings)
        vocab_size = len(bindings[0].scorer.tgt_vocab)
        live = tracer.scratch.get("rows", 0) / len(bindings)
        counts["decoder.beam_steps"] += rounds
        counts["decoder.capped"] += rounds >= cap
        counts["decoder.truncated"] += bool(result.truncated)
        counts["decoder.candidates"] += int(live * vocab_size)

    for owner in (decoder, tuner):
        tracer.wrap(owner, "decode", "decoder.decode", before=before_decode, after=on_decode)
    for attr in ("write_nbest", "read_nbest"):
        tracer.wrap(decoder, attr, "decoder.nbest_io",
                    after=lambda a, r, d: add_bytes("decoder.nbest.bytes", [a[-1]]))

    # tuner
    def on_mira(args, result, dur):
        lists, cfg = args[0], args[3]
        counts["tuner.mira.updates"] += cfg.inner_epochs * len(lists)
        counts["tuner.pool_entries"] = sum(len(nb.entries) for nb in lists)  # last call

    tracer.wrap(tuner, "tune", "tuner.tune")
    tracer.wrap(tuner, "mira_epochs", "tuner.mira", after=on_mira)
    tracer.wrap(tuner, "rerank_corpus_ter", "tuner.rerank")

    # pipeline: a run over a workspace that already has a manifest is a rerun.
    # Bytes hashed follow from the stage declarations: every stage that ran
    # or was skipped checksums each of its inputs and outputs once.
    def run_name(args):
        manifest = os.path.join(args[0], pipeline.MANIFEST_NAME)
        return "pipeline.rerun" if os.path.exists(manifest) else "pipeline.run"

    def on_run(args, result, dur):
        workspace, stages = args[0], args[1]
        counts["pipeline.stages_skipped"] += len(result.skipped)
        for stage in stages:
            add_bytes("pipeline.bytes_hashed",
                      [os.path.join(workspace, rel) for rel in (*stage.inputs, *stage.outputs)])

    tracer.wrap(pipeline, "run", run_name, after=on_run)

    tracer.wrap(report, "evaluate_systems", "report.evaluate")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, 0 where the layer was idle."""
    calls, incl, self_s = tracer.totals()
    counts = tracer.counts

    def ms(name):
        return incl[name] * 1e3

    def self_ms(name):
        return self_s[name] * 1e3

    ter_us = tracer.samples["metrics.ter.us"]
    step_calls = calls["nmt.step"]
    decodes = calls["decoder.decode"]
    rows = counts["triplet_select.stat_matrix.rows"]
    m = {
        "nmt.encode.calls": calls["nmt.encode"],
        "nmt.encode.ms": ms("nmt.encode"),
        "nmt.step.calls": step_calls,
        "nmt.step.ms": ms("nmt.step"),
        "nmt.step.us_per_call": ms("nmt.step") * 1e3 / step_calls if step_calls else 0.0,
        "nmt.step.rows_per_call": counts["nmt.step.rows"] / step_calls if step_calls else 0.0,
        "nmt.forward.ms": ms("nmt.forward"),
        "nmt.backward.ms": ms("nmt.backward"),
        "nmt.adadelta.ms": ms("nmt.adadelta"),
        "nmt.clip.ms": ms("nmt.clip"),
        "nmt.train.batches": counts["nmt.train.batches"],
        "nmt.train.tokens": counts["nmt.train.tokens"],
        "nmt.checkpoint.save.ms": ms("nmt.checkpoint.save"),
        "nmt.checkpoint.save.bytes": counts["nmt.checkpoint.save.bytes"],
        "nmt.checkpoint.load.ms": ms("nmt.checkpoint.load"),
        "decoder.decode.calls": decodes,
        "decoder.decode.self_ms": self_ms("decoder.decode"),
        "decoder.beam_steps": counts["decoder.beam_steps"],
        "decoder.capped_share": counts["decoder.capped"] / decodes if decodes else 0.0,
        "decoder.truncated": counts["decoder.truncated"],
        "decoder.candidates": counts["decoder.candidates"],
        "decoder.nbest_io.ms": ms("decoder.nbest_io"),
        "decoder.nbest.bytes": counts["decoder.nbest.bytes"],
        "metrics.ter.calls": calls["metrics.ter"],
        "metrics.ter.ms": ms("metrics.ter"),
        "metrics.ter.us_p50": float(np.median(ter_us)) if ter_us else 0.0,
        "metrics.ter.us_tail": tail(ter_us)[0],
        "metrics.ter.shifts": counts["metrics.ter.shifts"],
        "metrics.ter.repeat_share": (
            counts["metrics.ter.repeats"] / calls["metrics.ter"] if calls["metrics.ter"] else 0.0
        ),
        "metrics.corpus_ter.ms": ms("metrics.corpus_ter"),
        "triplet_select.stat_matrix.rows": rows,
        "triplet_select.rescore_ratio": rows / len(tracer.triplets) if tracer.triplets else 0.0,
        "triplet_select.outlier_filter.self_ms": self_ms("triplet_select.outlier_filter"),
        "triplet_select.knn.self_ms": self_ms("triplet_select.knn"),
        "triplet_select.report.self_ms": self_ms("triplet_select.report"),
        "ngram_lm.train.ms": ms("ngram_lm.train"),
        "ngram_lm.xent.ms": ms("ngram_lm.xent"),
        "ngram_lm.xent.sentences": counts["ngram_lm.xent.sentences"],
        "subword.learn.ms": ms("subword.learn"),
        "subword.apply.ms": ms("subword.apply"),
        "subword.apply.tokens": counts["subword.apply.tokens"],
        "corpus.read.ms": ms("corpus.read"),
        "corpus.write.ms": ms("corpus.write"),
        "corpus.bytes": counts["corpus.bytes"],
        "tuner.tune.self_ms": self_ms("tuner.tune"),
        "tuner.mira.self_ms": self_ms("tuner.mira"),
        "tuner.mira.updates": counts["tuner.mira.updates"],
        "tuner.pool_entries": counts["tuner.pool_entries"],
        "tuner.rerank.ms": ms("tuner.rerank"),
        "pipeline.run.self_ms": self_ms("pipeline.run"),
        "pipeline.rerun.ms": ms("pipeline.rerun"),
        "pipeline.bytes_hashed": counts["pipeline.bytes_hashed"],
        "pipeline.stages_skipped": counts["pipeline.stages_skipped"],
        "report.evaluate.ms": ms("report.evaluate"),
        "bench.self_ms": sum(v for k, v in self_s.items() if k.startswith("bench.")) * 1e3,
    }
    return {k: float(v) for k, v in m.items()}
