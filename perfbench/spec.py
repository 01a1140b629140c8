"""What the benchmark measures: workloads, metrics, bounds and expected spans.

This table is the single source of `BENCHMARK.json` (`run.py --write-spec`
regenerates it) and of the names that README.md and later changes cite.
"""

from __future__ import annotations

RUN_SECONDS = 30
SETUP_REPEATS = 13
MIN_PASSES = 2

WORKLOADS = (
    ("decode", "ensemble beam decoding of held-out triplets: nmt step and decoder do the work, metrics and triplet_select stay idle"),
    ("tune", "tuner.tune on a dev set: the only workload that runs the tuner and re-scores TER on pairs it already scored"),
    ("select", "Moore-Lewis and TER-statistics selection: metrics and triplet_select do the work, nmt and decoder stay idle"),
    ("train", "BPE plus mt-to-pe training through pipeline.run, then a rerun that must skip: the batched training path does the work"),
)

# Gated in BENCHMARK.json: every workload reports each of these and none of
# them is ever 0. `items_per_s` counts the workload's own item (see
# ITEMS), so a ratio between two commits is always taken on one workload.
END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

ITEMS = {
    "decode": "held-out sentence decoded",
    "tune": "dev sentence per tune call",
    "select": "pool triplet through TER-statistics selection",
    "train": "target token (end symbol included) through nmt.train",
}

# Metrics that exist on one workload only, or that are 0 when all is well.
# They are printed, written to the result files and compared by
# `--compare`, but BENCHMARK.json cannot gate them.
WORKLOAD_METRICS = (
    # name, unit, better, bound, workloads
    ("failed_share", "ratio", "lower", 0.0, ("decode", "tune", "select", "train")),
    ("decode_sent_per_s", "1/s", "higher", 0.10, ("decode",)),
    ("decode_sent_ms_p50", "ms", "lower", 0.10, ("decode",)),
    ("decode_sent_ms_tail", "ms", "lower", 0.15, ("decode",)),
    ("decode_ter", "%", "lower", 0.0, ("decode",)),
    ("tune_ter", "%", "lower", 0.0, ("tune",)),
    ("train_tok_per_s", "tok/s", "higher", 0.10, ("train",)),
    ("train_loss", "nats", "lower", 0.01, ("train",)),
    ("select_triplets_per_s", "1/s", "higher", 0.10, ("select",)),
    ("select_fidelity", "L2", "lower", 0.01, ("select",)),
)

PER_LAYER = (
    # name, unit, better
    ("nmt.encode.calls", "count", "lower"),
    ("nmt.encode.ms", "ms", "lower"),
    ("nmt.step.calls", "count", "lower"),
    ("nmt.step.ms", "ms", "lower"),
    ("nmt.step.us_per_call", "us", "lower"),
    ("nmt.step.rows_per_call", "rows", "higher"),
    ("nmt.forward.ms", "ms", "lower"),
    ("nmt.backward.ms", "ms", "lower"),
    ("nmt.adadelta.ms", "ms", "lower"),
    ("nmt.clip.ms", "ms", "lower"),
    ("nmt.train.batches", "count", "lower"),
    ("nmt.train.tokens", "count", "lower"),
    ("nmt.checkpoint.save.ms", "ms", "lower"),
    ("nmt.checkpoint.save.bytes", "bytes", "lower"),
    ("nmt.checkpoint.load.ms", "ms", "lower"),
    ("decoder.decode.calls", "count", "lower"),
    ("decoder.decode.self_ms", "ms", "lower"),
    ("decoder.beam_steps", "count", "lower"),
    ("decoder.capped_share", "ratio", "lower"),
    ("decoder.truncated", "count", "lower"),
    ("decoder.candidates", "count", "lower"),
    ("decoder.nbest_io.ms", "ms", "lower"),
    ("decoder.nbest.bytes", "bytes", "lower"),
    ("metrics.ter.calls", "count", "lower"),
    ("metrics.ter.ms", "ms", "lower"),
    ("metrics.ter.us_p50", "us", "lower"),
    ("metrics.ter.us_tail", "us", "lower"),
    ("metrics.ter.shifts", "count", "lower"),
    ("metrics.ter.repeat_share", "ratio", "lower"),
    ("metrics.corpus_ter.ms", "ms", "lower"),
    ("triplet_select.stat_matrix.rows", "count", "lower"),
    ("triplet_select.rescore_ratio", "ratio", "lower"),
    ("triplet_select.outlier_filter.self_ms", "ms", "lower"),
    ("triplet_select.knn.self_ms", "ms", "lower"),
    ("triplet_select.report.self_ms", "ms", "lower"),
    ("ngram_lm.train.ms", "ms", "lower"),
    ("ngram_lm.xent.ms", "ms", "lower"),
    ("ngram_lm.xent.sentences", "count", "lower"),
    ("subword.learn.ms", "ms", "lower"),
    ("subword.apply.ms", "ms", "lower"),
    ("subword.apply.tokens", "count", "lower"),
    ("corpus.read.ms", "ms", "lower"),
    ("corpus.write.ms", "ms", "lower"),
    ("corpus.bytes", "bytes", "lower"),
    ("tuner.tune.self_ms", "ms", "lower"),
    ("tuner.mira.self_ms", "ms", "lower"),
    ("tuner.mira.updates", "count", "lower"),
    ("tuner.pool_entries", "count", "lower"),
    ("tuner.rerank.ms", "ms", "lower"),
    ("pipeline.run.self_ms", "ms", "lower"),
    ("pipeline.rerun.ms", "ms", "lower"),
    ("pipeline.bytes_hashed", "bytes", "lower"),
    ("pipeline.stages_skipped", "count", "higher"),
    ("report.evaluate.ms", "ms", "lower"),
    ("bench.self_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Spans that must record at least one call in the traced run of a workload;
# a refactor that routes around a wrapped public function fails the run.
EXPECTED_SPANS = {
    "decode": (
        "nmt.encode", "nmt.step", "nmt.checkpoint.save", "nmt.checkpoint.load",
        "decoder.decode", "decoder.nbest_io", "metrics.ter", "metrics.corpus_ter",
        "report.evaluate", "corpus.read", "corpus.write",
    ),
    "tune": (
        "nmt.encode", "nmt.step", "nmt.checkpoint.save", "nmt.checkpoint.load",
        "decoder.decode", "metrics.ter", "metrics.corpus_ter", "tuner.tune",
        "tuner.mira", "tuner.rerank", "corpus.read",
    ),
    "select": (
        "metrics.ter", "metrics.corpus_ter", "triplet_select.stat_matrix",
        "triplet_select.outlier_filter", "triplet_select.knn",
        "triplet_select.report", "ngram_lm.train", "ngram_lm.xent",
        "corpus.read", "corpus.write",
    ),
    "train": (
        "nmt.forward", "nmt.backward", "nmt.adadelta", "nmt.clip", "nmt.train",
        "nmt.checkpoint.save", "subword.learn", "subword.apply", "corpus.read",
        "corpus.write", "pipeline.run", "pipeline.rerun",
    ),
}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
