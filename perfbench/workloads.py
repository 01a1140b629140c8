"""The four workloads: seeded set-up, one measured pass, and output checks.

Each workload calls the library's public functions the way the matching CLI
command does, through module attributes, so the traced process can wrap
them. Set-up builds what every pass shares and the inputs of pass 0; pass k
draws its own inputs from (seed, k), so a longer run measures more distinct
inputs rather than the same ones again. `tune` alone cycles over a fixed
number of dev sets (see `Tune.prepare`).
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import apeforge.nmt as nmt
from apeforge import (
    corpus,
    decoder,
    ngram_lm,
    pipeline,
    report,
    subword,
    triplet_select,
    tuner,
)
from apeforge.nmt import checkpoint

from synth import Language
from tracing import TracedScorer, maybe_span

BENCH_DIR = Path(__file__).resolve().parent

# Decode and tune share two fixture models trained once per checkout on a
# fixed seed, as a compiled program is built once: training both takes
# about 45 s on one 2.1 GHz Xeon core, which repeated set-up could not
# afford. The workload seed draws every sentence the program is asked to
# process. Training speed itself is the `train` workload.
FIXTURE_SEED = 1605048
FIXTURE = dict(sentences=2000, lo=6, hi=20, dim=32, batch=40, iterations=300)

# Every workload speaks one toy language, so that seeds draw sentences from
# a fixed distribution instead of changing the vocabulary's shape.
LANGUAGE = Language(FIXTURE_SEED)
TUNE_SEED = FIXTURE_SEED + 2
SELECT_SEED = FIXTURE_SEED + 3

BEAM = 12
ENSEMBLE_WEIGHTS = {"mt": 1 / 3, "src": 1 / 3, "pep": 1 / 3}


@dataclass
class PassResult:
    wall_s: float
    ops: int  # operations attempted: sentences, tune calls, triplets, batches
    items: int  # what items_per_s counts, see spec.ITEMS
    item_s: float  # the time items_per_s divides by
    outputs: dict[str, Path]  # compared byte for byte against the traced pass
    samples_ms: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Checks:
    """Named pass/fail output checks; each counts as one attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def fresh_dir(path: Path) -> Path:
    """An empty directory at `path`, replacing whatever was there."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- fixture


@functools.cache
def _fixture_key() -> str:
    """Source of the library plus fixture settings: a changed program or
    recipe never reuses a stale build."""
    import apeforge

    h = hashlib.sha256(repr(sorted(FIXTURE.items())).encode())
    h.update(str(FIXTURE_SEED).encode())
    src = Path(apeforge.__file__).parent
    for path in [BENCH_DIR / "synth.py", *sorted(src.rglob("*.py"))]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fixture_dir(work: Path) -> Path:
    return work / "fixture" / _fixture_key()


def ensure_fixture(work: Path) -> Path:
    """Build the fixture models in a child process unless already built."""
    final = fixture_dir(work)
    if not (final / "src" / "model.bin").exists():
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--build-fixture", str(work)],
            check=True,
            timeout=900,
        )
    return final


def build_fixture(work: Path) -> None:
    """Train the mt->pe and src->pe fixture models as `nmt train` does."""
    final = fixture_dir(work)
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    rng = np.random.default_rng(FIXTURE_SEED)
    corpus.write_triplets(
        tmp / "train", LANGUAGE.triplets(rng, FIXTURE["sentences"], FIXTURE["lo"], FIXTURE["hi"])
    )
    tgt_corpus = corpus.read_sentences(tmp / "train.pe")
    for side in ("mt", "src"):
        src_corpus = corpus.read_sentences(tmp / f"train.{side}")
        src_vocab = corpus.Vocab.from_corpus(src_corpus)
        tgt_vocab = corpus.Vocab.from_corpus(tgt_corpus)
        model = nmt.init_model(
            src_vocab, tgt_vocab, embedding_dim=FIXTURE["dim"], hidden_dim=FIXTURE["dim"], seed=0
        )
        pairs = [(src_vocab.ids(s), tgt_vocab.ids(t)) for s, t in zip(src_corpus, tgt_corpus)]
        cfg = nmt.TrainConfig(
            batch_size=FIXTURE["batch"], max_iterations=FIXTURE["iterations"], epochs=1000
        )
        nmt.train(model, pairs, cfg, out_dir=tmp / side)
    try:
        os.replace(tmp, final)
    except OSError:  # another process finished the same build first
        shutil.rmtree(tmp)


class Ensemble:
    """Two scorers plus `pep input=union`, bound per sentence as the CLI's
    decode and tune commands bind them."""

    def __init__(self, models: dict, tracer=None):
        self.models = {}
        for name, model in models.items():
            scorer = decoder.NmtScorer(model)
            if tracer is not None:
                scorer = TracedScorer(scorer, tracer)
            self.models[name] = (model, scorer)
        self.tgt_vocab = models["mt"].tgt_vocab

    def bindings_for(self, mt, src):
        bindings = []
        for name, sent in (("mt", mt), ("src", src)):
            model, scorer = self.models[name]
            bindings.append(
                decoder.ScorerBinding(
                    name, scorer, tuple(model.src_vocab.ids(sent)), ENSEMBLE_WEIGHTS[name]
                )
            )
        pep = decoder.PepFeature.from_units(
            tuple(mt) + tuple(src), self.tgt_vocab, ENSEMBLE_WEIGHTS["pep"]
        )
        return bindings, pep


def _ensemble_setup(workload, seed: int, work: Path, root: Path, tracer) -> dict:
    models, identical = _load_models(work, root)
    state = {"seed": seed, "root": root, "ckpt_identical": identical,
             "ensemble": Ensemble(models, tracer)}
    state["first"] = workload.prepare(state, 0)
    return state


def _load_models(work: Path, root: Path) -> tuple[dict, bool]:
    """Fixture checkpoints saved into the run directory and read back, as a
    user's decode run reads its model files. Also reports whether every
    tensor survived the round trip unchanged."""
    fixture = ensure_fixture(work)
    models = {}
    identical = True
    for side in ("mt", "src"):
        original = checkpoint.load(fixture / side / "model.bin")
        path = root / f"{side}.bin"
        checkpoint.save(original, path)
        loaded = checkpoint.load(path)
        identical &= _same_model(original, loaded)
        models[side] = loaded
    return models, identical


def _same_model(a, b) -> bool:
    return (
        a.src_vocab == b.src_vocab
        and a.tgt_vocab == b.tgt_vocab
        and sorted(a.params) == sorted(b.params)
        and all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    )


def _check_nbest(checks: Checks, lists, weights_of, label: str) -> None:
    """Sorted entries whose combined score is the weighted feature sum."""
    sorted_ok = all(
        all(x.combined >= y.combined for x, y in zip(nb.entries, nb.entries[1:]))
        for nb in lists
    )
    checks.add(f"{label}_sorted", sorted_ok)
    worst = 0.0
    for i, nb in enumerate(lists):
        weights = weights_of(i)
        for e in nb.entries:
            total = sum(weights[name] * value for name, value in e.features)
            worst = max(worst, abs(total - e.combined) / max(1.0, abs(e.combined)))
    checks.add(f"{label}_combined_is_weighted_sum", worst <= 1e-9, f"max rel err {worst:.2e}")


# ----------------------------------------------------------------- decode


class Decode:
    name = "decode"
    sentences = 24

    def setup(self, seed: int, work: Path, root: Path, tracer=None):
        return _ensemble_setup(self, seed, work, root, tracer)

    def prepare(self, state, k: int) -> Path:
        """Held-out triplets of pass k: 6-20 tokens, drawn from (seed, k)."""
        rng = np.random.default_rng([state["seed"], 1, k])
        indir = fresh_dir(state["root"] / f"in{k}")
        corpus.write_triplets(indir / "test", LANGUAGE.triplets(rng, self.sentences, 6, 20))
        return indir

    def run_pass(self, state, indir: Path, out: Path, tracer=None) -> PassResult:
        ens = state["ensemble"]
        started = time.perf_counter()
        mt = corpus.read_sentences(indir / "test.mt")
        src = corpus.read_sentences(indir / "test.src")
        pe = corpus.read_sentences(indir / "test.pe")
        lists, samples = [], []
        for i, (m, s) in enumerate(zip(mt, src)):
            bindings, pep = ens.bindings_for(m, s)
            t0 = time.perf_counter()
            lists.append(decoder.decode(bindings, pep=pep, beam=BEAM, sentence_id=i))
            samples.append((time.perf_counter() - t0) * 1e3)
        decoder.write_nbest(lists, out / "test.nbest")
        best = [nb.entries[0].tokens for nb in lists]
        corpus.write_sentences(out / "test.out", best)
        rows = report.evaluate_systems({"ensemble": best}, mt, pe)
        wall = time.perf_counter() - started
        ter = next(r.ter for r in rows if r.name == "ensemble")
        return PassResult(
            wall_s=wall,
            ops=len(lists),
            items=len(lists),
            item_s=sum(samples) / 1e3,
            outputs={"nbest": out / "test.nbest", "best": out / "test.out"},
            samples_ms=samples,
            extra={"lists": lists, "ter": ter},
        )

    def check(self, state, first: PassResult, checks: Checks) -> None:
        lists = first.extra["lists"]
        _check_nbest(checks, lists, lambda i: ENSEMBLE_WEIGHTS, "nbest")
        back = decoder.read_nbest(first.outputs["nbest"])
        checks.add("nbest_roundtrip", _roundtrips(lists, back))
        checks.add("checkpoint_roundtrip", state["ckpt_identical"])

    def metrics(self, state, passes) -> dict:
        samples = [s for p in passes for s in p.samples_ms]
        return {
            "decode_sent_per_s": sum(p.items for p in passes) / sum(p.item_s for p in passes),
            "decode_sent_ms_p50": float(np.median(samples)),
            "decode_ter": passes[0].extra["ter"],
        }


def _roundtrips(lists, back) -> bool:
    """read_nbest gives back every list at the written precision."""
    if [nb.sentence_id for nb in lists] != [nb.sentence_id for nb in back]:
        return False
    for a, b in zip(lists, back):
        if len(a.entries) != len(b.entries):
            return False
        for x, y in zip(a.entries, b.entries):
            if x.tokens != y.tokens or [n for n, _ in x.features] != [n for n, _ in y.features]:
                return False
            values = [(v, w) for (_, v), (_, w) in zip(x.features, y.features)]
            values.append((x.combined, y.combined))
            if any(abs(v - w) > 5e-7 for v, w in values):
                return False
    return True


# ------------------------------------------------------------------- tune


class Tune:
    name = "tune"
    sentences = 10
    # Passes cycle over this many dev sets, cut from one fixed bank.
    cycle = 4

    def setup(self, seed: int, work: Path, root: Path, tracer=None):
        return _ensemble_setup(self, seed, work, root, tracer)

    def prepare(self, state, k: int) -> Path:
        """Dev triplets of pass k: 5-11 tokens. TER then takes a visible
        share next to decoding; longer sentences let TER's heavy tail
        dominate the run-to-run spread.

        Tune cost depends strongly on the dev sentences: with dev sets drawn
        afresh, passes within one run varied by a coefficient of about 0.25
        (decode: 0.07). The sentences
        therefore come from a bank of `cycle` x `sentences` triplets drawn
        once from a fixed seed; the workload seed shuffles the bank and cuts
        it into `cycle` dev sets, which pass k tunes in turn (set k mod
        cycle). Every seed does the same total work on different dev sets.
        """
        order = np.random.default_rng([state["seed"], 2]).permutation(len(TUNE_BANK))
        group = order[(k % self.cycle) * self.sentences:][: self.sentences]
        indir = fresh_dir(state["root"] / f"in{k}")
        corpus.write_triplets(indir / "dev", [TUNE_BANK[int(i)] for i in group])
        return indir

    def run_pass(self, state, indir: Path, out: Path, tracer=None) -> PassResult:
        ens = state["ensemble"]
        recorded = []
        inner = tuner.decode

        # Keeps what the tuner decoded, so the checks can rebuild its pool.
        def recording_decode(bindings, pep=None, **kwargs):
            nb = inner(bindings, pep=pep, **kwargs)
            weights = {b.name: b.weight for b in bindings}
            weights[decoder.PEP_NAME] = pep.weight
            recorded.append((weights, nb))
            return nb

        started = time.perf_counter()
        tuner.decode = recording_decode
        try:
            dev = corpus.read_triplets(indir / "dev")
            cfg = tuner.TuneConfig(outer_iterations=2, beam=BEAM)
            weights = tuner.tune(dev, lambda t: ens.bindings_for(t.mt, t.src), cfg)
        finally:
            tuner.decode = inner
        lines = [f"{name}\t{weights[name]:.6f}" for name in sorted(weights)]
        (out / "weights.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        wall = time.perf_counter() - started
        return PassResult(
            wall_s=wall,
            ops=1,
            items=len(dev),
            item_s=wall,
            outputs={"weights": out / "weights.txt"},
            extra={"recorded": recorded, "weights": weights, "dev": dev},
        )

    def check(self, state, first: PassResult, checks: Checks) -> None:
        recorded, dev = first.extra["recorded"], first.extra["dev"]
        _check_nbest(checks, [nb for _, nb in recorded], lambda i: recorded[i][0], "pool")
        pool = _merged_pool(nb for _, nb in recorded)
        refs = [t.pe for t in dev]
        uniform = {n: 1.0 / len(ENSEMBLE_WEIGHTS) for n in ENSEMBLE_WEIGHTS}
        tuned_ter = tuner.rerank_corpus_ter(pool, first.extra["weights"], refs)
        uniform_ter = tuner.rerank_corpus_ter(pool, uniform, refs)
        first.extra["tune_ter"] = tuned_ter
        checks.add("tuned_not_worse_than_uniform", tuned_ter <= uniform_ter + 1e-9,
                   f"{tuned_ter:.4f} vs {uniform_ter:.4f}")
        text = first.outputs["weights"].read_text(encoding="utf-8").split("\n")
        parsed = dict(line.split("\t") for line in text if line)
        checks.add("weights_file", sorted(parsed) == sorted(ENSEMBLE_WEIGHTS)
                   and all(math.isfinite(float(v)) for v in parsed.values()))
        checks.add("checkpoint_roundtrip", state["ckpt_identical"])

    def metrics(self, state, passes) -> dict:
        return {"tune_ter": passes[0].extra["tune_ter"]}


TUNE_BANK = LANGUAGE.triplets(
    np.random.default_rng(TUNE_SEED), Tune.cycle * Tune.sentences, 5, 11
)


def _merged_pool(lists):
    """Per sentence, every distinct hypothesis in first-seen order."""
    pool: dict[int, list] = {}
    for nb in lists:
        entries = pool.setdefault(nb.sentence_id, [])
        seen = {e.tokens for e in entries}
        entries.extend(e for e in nb.entries if e.tokens not in seen)
    return [decoder.NBestList(sentence_id=i, entries=tuple(pool[i])) for i in sorted(pool)]


# ----------------------------------------------------------------- select


class Select:
    name = "select"
    lm_sentences = 400  # each of in-domain, out-of-domain and mixed
    keep = 0.25
    pool, reference = 150, 30

    def setup(self, seed: int, work: Path, root: Path, tracer=None):
        # TER cost per triplet is heavy-tailed (coefficient of variation
        # about 2.3; the five dearest of 150 triplets take 35-40% of the
        # time), so a pool drawn afresh per seed moves a pass by ~20%. The
        # pool's edit structure is therefore drawn once from a fixed seed;
        # the workload seed renames every word, which leaves the TER work
        # unchanged and the inputs different.
        rng = np.random.default_rng(SELECT_SEED)
        pool = []
        for level in (0.05, 0.15, 0.30):  # light to heavy noise, swaps included
            spec = LANGUAGE.noise(substitution=level, deletion=level / 2,
                                  insertion=level / 2, swap=level / 2)
            pool += LANGUAGE.triplets(rng, self.pool // 3, 3, 30, spec)
        reference = LANGUAGE.triplets(rng, self.reference, 3, 30)
        state = {"seed": seed, "root": root, "pool": pool, "reference": reference}
        state["first"] = self.prepare(state, 0)
        return state

    def prepare(self, state, k: int) -> dict:
        rng = np.random.default_rng([state["seed"], 3, k])
        indir = fresh_dir(state["root"] / f"in{k}")
        other = LANGUAGE.shuffled_probs(int(rng.integers(2**31)))
        corpus.write_sentences(indir / "in.txt", LANGUAGE.sentences(rng, self.lm_sentences, 5, 20))
        corpus.write_sentences(indir / "out.txt",
                               LANGUAGE.sentences(rng, self.lm_sentences, 5, 20, other))
        half = self.lm_sentences // 2
        lines = LANGUAGE.sentences(rng, half, 5, 20) + LANGUAGE.sentences(rng, half, 5, 20, other)
        order = rng.permutation(len(lines))
        corpus.write_sentences(indir / "mixed.txt", [lines[i] for i in order])
        rename = dict(zip(LANGUAGE.words, rng.permutation(LANGUAGE.words)))

        def renamed(triplets):
            out = []
            for t in triplets:
                pe = tuple(rename[w] for w in t.pe)
                out.append(corpus.Triplet(src=pipeline.cipher(pe),
                                          mt=tuple(rename[w] for w in t.mt), pe=pe))
            return out

        corpus.write_triplets(indir / "pool", renamed(state["pool"]))
        corpus.write_triplets(indir / "reference", renamed(state["reference"]))
        return {"dir": indir, "in_domain": [bool(i < half) for i in order]}

    def run_pass(self, state, inputs: dict, out: Path, tracer=None) -> PassResult:
        indir = inputs["dir"]
        started = time.perf_counter()
        # lm train (twice), then select xent
        for name in ("in", "out"):
            lm = ngram_lm.train_lm(corpus.read_sentences(indir / f"{name}.txt"), order=3)
            ngram_lm.write_arpa(lm, out / f"{name}.arpa")
        in_lm = ngram_lm.read_arpa(out / "in.arpa")
        out_lm = ngram_lm.read_arpa(out / "out.arpa")
        mixed = corpus.read_sentences(indir / "mixed.txt")
        indices = ngram_lm.select_by_xent(in_lm, out_lm, mixed, self.keep)
        corpus.write_sentences(out / "xent.txt", [mixed[i] for i in indices])
        # select ter
        ter_started = time.perf_counter()
        pool = corpus.read_triplets(indir / "pool")
        reference = corpus.read_triplets(indir / "reference")
        filtered = triplet_select.outlier_filter(pool, reference, margin=0.10)
        cfg = triplet_select.SelectionConfig(n=2, traversal_cap=100)
        selected = triplet_select.knn_select(filtered, reference, cfg)
        corpus.write_triplets(out / "picks", selected)
        stats = triplet_select.report_stats(selected)
        (out / "report.txt").write_text("\n".join(stats.lines()) + "\n", encoding="utf-8")
        end = time.perf_counter()
        outputs = {"xent": out / "xent.txt", "report": out / "report.txt"}
        outputs.update(zip(("picks.src", "picks.mt", "picks.pe"), corpus.triplet_paths(out / "picks")))
        return PassResult(
            wall_s=end - started,
            ops=len(pool),
            items=len(pool),
            item_s=end - ter_started,
            outputs=outputs,
            extra={"indices": indices, "mixed": len(mixed), "in_domain": inputs["in_domain"],
                   "filtered": filtered, "selected": selected, "reference": reference,
                   "stats": stats},
        )

    def check(self, state, first: PassResult, checks: Checks) -> None:
        x = first.extra
        rng = np.random.default_rng([state["seed"], 30])
        idx, in_domain = x["indices"], x["in_domain"]
        checks.add("xent_indices_unique_in_range",
                   len(set(idx)) == len(idx) == round(self.keep * x["mixed"])
                   and all(0 <= i < x["mixed"] for i in idx))
        chosen = sum(in_domain[i] for i in idx) / len(idx)
        sample = rng.choice(x["mixed"], len(idx), replace=False)
        baseline = sum(in_domain[int(i)] for i in sample) / len(idx)
        checks.add("xent_beats_random", chosen > baseline, f"{chosen:.3f} vs {baseline:.3f} in-domain")

        filtered, selected, reference = x["filtered"], x["selected"], x["reference"]
        position = {id(t): i for i, t in enumerate(filtered)}
        picked = [position.get(id(t), -1) for t in selected]
        checks.add("ter_indices_unique_in_range",
                   len(set(picked)) == len(picked) and min(picked, default=0) >= 0
                   and 0 < len(picked) <= 2 * len(reference))
        ref_stats = triplet_select.stat_matrix(reference)
        mu, sd = triplet_select.zscore_params(ref_stats)
        target = (ref_stats.mean(axis=0) - mu) / sd

        def distance(means):
            return float(np.linalg.norm((np.asarray(means) - mu) / sd - target))

        fidelity = distance(x["stats"].means)
        sample = [filtered[int(i)] for i in rng.choice(len(filtered), len(selected), replace=False)]
        random_fidelity = distance(triplet_select.stat_matrix(sample).mean(axis=0))
        first.extra["fidelity"] = fidelity
        checks.add("ter_beats_random", fidelity < random_fidelity,
                   f"{fidelity:.4f} vs {random_fidelity:.4f}")
        report_lines = first.outputs["report"].read_text(encoding="utf-8").splitlines()
        checks.add("report_written", report_lines == x["stats"].lines())

    def metrics(self, state, passes) -> dict:
        return {
            "select_triplets_per_s": sum(p.items for p in passes) / sum(p.item_s for p in passes),
            "select_fidelity": passes[0].extra["fidelity"],
        }


# ------------------------------------------------------------------ train


class Train:
    name = "train"
    sentences = 400
    merges = 300
    epochs = 2
    batch = 40

    def setup(self, seed: int, work: Path, root: Path, tracer=None):
        state = {"seed": seed, "root": root}
        state["first"] = self.prepare(state, 0)
        return state

    def prepare(self, state, k: int):
        """Training triplets of pass k, which the pipeline's first stage writes."""
        rng = np.random.default_rng([state["seed"], 4, k])
        return LANGUAGE.triplets(rng, self.sentences, 6, 20)

    def _stages(self, triplets, box, tracer):
        def write(ws):
            corpus.write_triplets(ws / "train", triplets)

        def learn(ws):
            model = subword.learn_bpe(corpus.read_sentences(ws / "train.pe"), self.merges)
            subword.save_model(model, ws / "bpe.model")

        def apply(side):
            def action(ws):
                model = subword.load_model(ws / "bpe.model")
                unknown = Counter()
                segmented = [subword.apply_bpe(model, s, unknown)
                             for s in corpus.read_sentences(ws / f"train.{side}")]
                corpus.write_sentences(ws / f"train.bpe.{side}", segmented)
            return action

        def train(ws):
            src = corpus.read_sentences(ws / "train.bpe.mt")
            tgt = corpus.read_sentences(ws / "train.bpe.pe")
            src_vocab = corpus.Vocab.from_corpus(src)
            tgt_vocab = corpus.Vocab.from_corpus(tgt)
            model = nmt.init_model(src_vocab, tgt_vocab, embedding_dim=32, hidden_dim=32, seed=0)
            pairs = [(src_vocab.ids(s), tgt_vocab.ids(t)) for s, t in zip(src, tgt)]
            cfg = nmt.TrainConfig(
                batch_size=self.batch, epochs=self.epochs, max_sentence_length=200,
                checkpoint_every=10, log_every=10,
            )
            started = time.perf_counter()
            box["result"] = nmt.train(model, pairs, cfg, out_dir=ws / "mt2pe")
            box["train_s"] = time.perf_counter() - started
            box["tokens"] = self.epochs * sum(len(t) + 1 for t in tgt)

        def staged(fn):
            def action(ws):
                with maybe_span(tracer, "bench.stage"):
                    fn(ws)
            return action

        return [
            pipeline.Stage("triplets", staged(write),
                           outputs=("train.src", "train.mt", "train.pe")),
            pipeline.Stage("bpe_learn", staged(learn), inputs=("train.pe",),
                           outputs=("bpe.model",)),
            pipeline.Stage("bpe_mt", staged(apply("mt")), inputs=("bpe.model", "train.mt"),
                           outputs=("train.bpe.mt",)),
            pipeline.Stage("bpe_pe", staged(apply("pe")), inputs=("bpe.model", "train.pe"),
                           outputs=("train.bpe.pe",)),
            pipeline.Stage("train", staged(train), inputs=("train.bpe.mt", "train.bpe.pe"),
                           outputs=("mt2pe/model.bin",)),
        ]

    def run_pass(self, state, triplets, out: Path, tracer=None) -> PassResult:
        box: dict = {}
        stages = self._stages(triplets, box, tracer)
        ws = out / "ws"
        started = time.perf_counter()
        first = pipeline.run(ws, stages)
        rerun = pipeline.run(ws, stages)
        wall = time.perf_counter() - started
        return PassResult(
            wall_s=wall,
            ops=box["result"].iterations,
            items=box["tokens"],
            item_s=box["train_s"],
            outputs={"model": ws / "mt2pe" / "model.bin", "manifest": ws / pipeline.MANIFEST_NAME},
            extra={"box": box, "first": first, "rerun": rerun,
                   "names": [s.name for s in stages]},
        )

    def check(self, state, first: PassResult, checks: Checks) -> None:
        x = first.extra
        result = x["box"]["result"]
        checks.add("loss_finite", all(math.isfinite(v) for v in result.losses))
        checks.add("loss_falls", result.log[0].train_loss > result.log[-1].train_loss,
                   f"{result.log[0].train_loss:.4f} -> {result.log[-1].train_loss:.4f}")
        checks.add("no_pairs_skipped", result.skipped_pairs == 0)
        loaded = checkpoint.load(first.outputs["model"])
        checks.add("checkpoint_roundtrip", _same_model(result.model, loaded))
        checks.add("first_run_ran_all", x["first"].executed == x["names"])
        checks.add("rerun_skips_all", x["rerun"].skipped == x["names"] and not x["rerun"].executed)

    def metrics(self, state, passes) -> dict:
        return {
            "train_tok_per_s": sum(p.items for p in passes) / sum(p.item_s for p in passes),
            "train_loss": passes[0].extra["box"]["result"].log[-1].train_loss,
        }


WORKLOADS = {w.name: w for w in (Decode(), Tune(), Select(), Train())}
