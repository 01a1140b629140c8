"""Acceptance gate: the toolkit's primary behavioral criteria.

Each test covers one numbered criterion and prints a single [PASS]/[FAIL]
line to the real terminal, bypassing capture, so the gate's outcome is
visible in any test run.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import copy_task_pairs
from helpers import beam_search_single, exact_accuracy, exhaustive_shift_edits

from apeforge.cli import cli
from apeforge.corpus import Triplet, Vocab
from apeforge.decoder import (
    NBestEntry,
    NBestList,
    NmtScorer,
    PepFeature,
    ScorerBinding,
    decode,
)
from apeforge.metrics import bleu, corpus_ter, ter
from apeforge.ngram_lm import select_by_xent, train_lm
from apeforge.nmt import (
    TrainConfig,
    gradient_check,
    init_model,
    train,
)
from apeforge.pipeline import NoiseSpec, corrupt, synth_corrupt
from apeforge.subword import apply_bpe, learn_bpe, revert_bpe
from apeforge.triplet_select import (
    SelectionConfig,
    knn_select_indices,
    outlier_filter,
    stat_matrix,
)
from apeforge.tuner import TuneConfig, rerank, rerank_corpus_ter, tune, tune_on_lists


@pytest.fixture
def announce(capsys):
    """Emit one uncaptured result line per criterion, then enforce it."""

    def _announce(label: str, passed: bool, detail: str):
        line = f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert passed, line

    return _announce


def _undertrained_copy_model(iterations=150):
    """A copy-task model stopped early, so free decodes still wander."""
    rng = np.random.default_rng(7)
    alphabet = [f"t{i}" for i in range(12)]
    vocab = Vocab(alphabet)
    pairs = []
    for _ in range(30):
        n = int(rng.integers(2, 6))
        seq = [vocab.id(alphabet[int(rng.integers(0, 12))]) for _ in range(n)]
        pairs.append((seq, list(seq)))
    model = init_model(vocab, vocab, embedding_dim=16, hidden_dim=16, seed=3)
    cfg = TrainConfig(
        batch_size=6,
        epochs=60,
        shuffle_seed=2,
        checkpoint_every=10**9,
        max_iterations=iterations,
    )
    return vocab, alphabet, train(model, pairs, cfg).model


def test_a01_ter_oracle_equivalence(announce):
    """Greedy-shift TER vs exhaustive optimal over seeded random pairs."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    alphabet = ["a", "b", "c", "d"]
    below = 0
    equal = 0
    trials = 500
    for _ in range(trials):
        hyp = tuple(alphabet[int(rng.integers(4))] for _ in range(int(rng.integers(1, 7))))
        ref = tuple(alphabet[int(rng.integers(4))] for _ in range(int(rng.integers(1, 7))))
        greedy = ter(hyp, ref).num_edits
        optimal = exhaustive_shift_edits(hyp, ref)
        below += greedy < optimal
        equal += greedy == optimal
    elapsed = time.monotonic() - started
    ok = below == 0 and equal >= 0.95 * trials and elapsed < 10
    announce(
        "A1 TER oracle equivalence",
        ok,
        f"{equal}/{trials} optimal, {below} below-optimal, {elapsed:.1f}s (< 10s)",
    )


def test_a02_ter_unit_cases(announce):
    identical = ter(("a", "b", "c", "d"), ("a", "b", "c", "d"))
    one_sub = ter(("a", "x", "c", "d"), ("a", "b", "c", "d"))
    one_shift = ter(("a", "c", "b", "d"), ("a", "b", "c", "d"))
    ok = (
        identical.ter == 0.0
        and one_sub.ter == 25.0
        and one_shift.ter == 25.0
        and one_shift.shifts == 1
    )
    announce(
        "A2 TER unit cases",
        ok,
        f"identical {identical.ter}, substitution {one_sub.ter}, "
        f"shift {one_shift.ter} with {one_shift.shifts} shift",
    )


def test_a03_bleu_hand_case(announce):
    score = bleu([("a", "b", "c", "d", "e")], [("a", "b", "c", "d", "f")])
    ok = abs(score - 66.87) <= 0.01
    announce("A3 BLEU hand case", ok, f"{score:.4f} (want 66.87 +/- 0.01)")


def test_a04_bpe_laws(announce):
    started = time.monotonic()
    rng = np.random.default_rng(11)
    letters = list("abcdefgh")
    corpus = []
    for _ in range(300):
        sent = tuple(
            "".join(rng.choice(letters, size=rng.integers(1, 7)))
            for _ in range(int(rng.integers(1, 8)))
        )
        corpus.append(sent)
    full = learn_bpe(corpus, 60)
    small = learn_bpe(corpus, 25)

    size_law = len(full.vocabulary()) == len(full.base_symbols) + len(full.merges)
    prefix_law = full.merges[:25] == small.merges
    pick = np.random.default_rng(5)
    identity = True
    for _ in range(1000):
        sent = corpus[int(pick.integers(len(corpus)))]
        if revert_bpe(apply_bpe(full, sent)) != sent:
            identity = False
            break
    elapsed = time.monotonic() - started
    ok = size_law and prefix_law and identity and elapsed < 5
    announce(
        "A4 BPE laws",
        ok,
        f"vocab {len(full.vocabulary())} = {len(full.base_symbols)} base + "
        f"{len(full.merges)} merges: {size_law}; prefix: {prefix_law}; "
        f"revert-apply identity x1000: {identity}; {elapsed:.1f}s (< 5s)",
    )


def test_a05_gradient_check(announce):
    started = time.monotonic()
    rng = np.random.default_rng(0)
    src_vocab = Vocab([f"s{i}" for i in range(5)])
    tgt_vocab = Vocab([f"t{i}" for i in range(4)])
    model = init_model(src_vocab, tgt_vocab, embedding_dim=8, hidden_dim=6, seed=0)
    src = [int(rng.integers(4, len(src_vocab))) for _ in range(4)]
    tgt = [int(rng.integers(4, len(tgt_vocab))) for _ in range(3)]
    report = gradient_check(model, src, tgt, tolerance=1e-3, seed=0)
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 60
    announce(
        "A5 gradient check",
        ok,
        f"max relative error {report.max_rel_error:.2e} over "
        f"{len(report.entries)} probed coordinates (< 1e-3), {elapsed:.1f}s (< 60s)",
    )


def test_a06_copy_task_convergence(announce, copy_task):
    vocab, pairs, result, elapsed = copy_task
    accuracy = exact_accuracy(result.model, pairs)
    ok = accuracy >= 0.99 and elapsed < 300
    announce(
        "A6 copy-task convergence",
        ok,
        f"{accuracy:.1%} exact matches after {result.iterations} iterations, "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_a07_decoder_degeneracy(announce, copy_task):
    vocab, pairs, result, _ = copy_task
    scorer = NmtScorer(result.model)
    rng = np.random.default_rng(99)
    single_ok = True
    ensemble_ok = True
    for i in range(20):
        n = int(rng.integers(1, 7))
        src = [int(rng.integers(4, len(vocab))) for _ in range(n)]
        reference = beam_search_single(result.model, src, beam=4)
        one = decode(
            [ScorerBinding("m", scorer, tuple(src), 1.0)], beam=4, sentence_id=i
        )
        got = [(e.tokens, e.combined) for e in one.entries]
        if [t for t, _ in got] != [t for t, _ in reference] or any(
            abs(a - b) > 1e-9 for (_, a), (_, b) in zip(got, reference)
        ):
            single_ok = False
        two = decode(
            [
                ScorerBinding("m1", scorer, tuple(src), 0.5),
                ScorerBinding("m2", scorer, tuple(src), 0.5),
            ],
            beam=4,
            sentence_id=i,
        )
        if [e.tokens for e in two.entries] != [e.tokens for e in one.entries] or any(
            abs(a.combined - b.combined) > 1e-9
            for a, b in zip(two.entries, one.entries)
        ):
            ensemble_ok = False
    ok = single_ok and ensemble_ok
    announce(
        "A7 decoder degeneracy",
        ok,
        f"single binding matches reference beam: {single_ok}; "
        f"0.5/0.5 duplicate ensemble reproduces ranking: {ensemble_ok}",
    )


def test_a08_pep_hard_constraint(announce):
    vocab, alphabet, model = _undertrained_copy_model()
    scorer = NmtScorer(model)
    rng = np.random.default_rng(123)
    top_clean = 0
    ordered = True
    trials = 100
    for i in range(trials):
        n = int(rng.integers(1, 7))
        units = tuple(alphabet[int(rng.integers(12))] for _ in range(n))
        allowed = set(units)
        bindings = [ScorerBinding("m", scorer, tuple(vocab.ids(units)), 1.0)]
        pep = PepFeature.from_units(units, vocab, 1e6)
        nb = decode(bindings, pep=pep, beam=4, sentence_id=i)
        if not set(nb.entries[0].tokens) - allowed:
            top_clean += 1
        # clean entries must outrank every entry that used a forbidden unit
        seen_dirty = False
        for entry in nb.entries:
            dirty = bool(set(entry.tokens) - allowed)
            if seen_dirty and not dirty:
                ordered = False
            seen_dirty = seen_dirty or dirty
    ok = top_clean == trials and ordered
    announce(
        "A8 PEP hard constraint",
        ok,
        f"{top_clean}/{trials} decoded outputs inside input units + eos; "
        f"forbidden-unit entries always ranked below clean ones: {ordered}",
    )


def _noisy_triplets(rng, vocab, confusion, count, rate_lo, rate_hi, length=(3, 7)):
    out = []
    for _ in range(count):
        n = int(rng.integers(length[0], length[1] + 1))
        pe = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(n))
        rate = float(rng.uniform(rate_lo, rate_hi))
        spec = NoiseSpec(
            substitution=0.6 * rate, deletion=0.4 * rate, confusion=confusion
        )
        out.append(Triplet(src=pe, mt=corrupt(pe, spec, rng), pe=pe))
    return out


def test_a09_triplet_filter_fidelity(announce):
    started = time.monotonic()
    vocab = [f"w{i}" for i in range(12)]
    confusion = {w: (f"x{i}",) for i, w in enumerate(vocab)}
    rng = np.random.default_rng(42)
    pool = _noisy_triplets(rng, vocab, confusion, 100_000, 0.0, 0.5, length=(3, 6))
    reference = _noisy_triplets(rng, vocab, confusion, 1_000, 0.1, 0.2, length=(3, 6))

    pool_stats = stat_matrix(pool)
    ref_stats = stat_matrix(reference)
    selected = knn_select_indices(pool, reference, SelectionConfig(n=1))
    ref_mean = ref_stats.mean(axis=0)
    d_selected = float(np.linalg.norm(pool_stats[selected].mean(axis=0) - ref_mean))
    wins = 0
    for seed in range(20):
        sub = np.random.default_rng(seed).choice(
            len(pool), size=len(selected), replace=False
        )
        d_random = float(np.linalg.norm(pool_stats[sub].mean(axis=0) - ref_mean))
        wins += d_selected < d_random

    # anchors pin the reference component ranges to the pool's analytic
    # support, so only the planted monsters fall outside the margin
    anchors = [
        Triplet(src=("s",), mt=tuple(vocab[:6]), pe=tuple(vocab[:6])),
        Triplet(src=("s",), mt=(vocab[0],), pe=tuple(vocab[:6])),
        Triplet(src=("s",), mt=tuple(f"x{i}" for i in range(6)), pe=tuple(vocab[:6])),
    ]
    monster_pe = tuple(f"w{i % 12}" for i in range(20))
    planted = [
        Triplet(src=("s",), mt=monster_pe + monster_pe, pe=monster_pe)
        for _ in range(25)
    ]
    salted = list(pool)
    positions = np.random.default_rng(7).choice(len(salted), size=25, replace=False)
    for pos, monster in zip(sorted(int(p) for p in positions), planted):
        salted.insert(pos, monster)
    kept = outlier_filter(salted, reference + anchors, margin=0.10)
    dropped_exactly = len(salted) - len(kept) == 25 and not any(
        t.pe == monster_pe for t in kept
    )

    elapsed = time.monotonic() - started
    ok = wins >= 19 and dropped_exactly and elapsed < 120
    announce(
        "A9 triplet-filter fidelity",
        ok,
        f"selected mean beats {wins}/20 random subsets (need 19); outlier rule "
        f"dropped exactly the 25 planted triplets: {dropped_exactly}; "
        f"{elapsed:.0f}s (< 120s)",
    )


def test_a10_tuner_oracle(announce):
    rng = np.random.default_rng(8)
    vocab = [f"w{i}" for i in range(10)]
    lists = []
    references = []
    for i in range(100):
        n = int(rng.integers(3, 7))
        ref = tuple(vocab[int(rng.integers(10))] for _ in range(n))
        entries = []
        for k in range(5):
            if k == 0:
                hyp = ref
            else:
                hyp = list(ref)
                for _ in range(k):
                    hyp[int(rng.integers(n))] = "junk"
                hyp = tuple(hyp)
            frac = ter(hyp, ref).num_edits / len(ref)
            entries.append(
                NBestEntry(
                    tokens=hyp,
                    features=(
                        ("neg_ter", -frac),
                        ("noise", float(rng.normal())),
                    ),
                    combined=0.0,
                )
            )
        lists.append(NBestList(sentence_id=i, entries=tuple(entries)))
        references.append(ref)

    initial = {"neg_ter": 0.5, "noise": 0.5}
    cfg = TuneConfig(outer_iterations=3, inner_epochs=20, mira_c=0.05, beam=5)
    tuned = tune_on_lists(lists, references, cfg, initial=initial)
    picked = rerank(lists, tuned)
    first_is_zero_ter = sum(
        tuple(hyp) == ref for hyp, ref in zip(picked, references)
    )
    tuned_ter = rerank_corpus_ter(lists, tuned, references)
    initial_ter = rerank_corpus_ter(lists, initial, references)
    ok = first_is_zero_ter >= 99 and tuned_ter <= initial_ter
    announce(
        "A10 tuner oracle",
        ok,
        f"zero-TER hypothesis ranked first on {first_is_zero_ter}/100 sentences; "
        f"tuned corpus TER {tuned_ter:.2f} <= initial {initial_ter:.2f}",
    )


def test_a11_end_to_end_desk_scale(announce):
    started = time.monotonic()
    rng = np.random.default_rng(29)
    vocab_words = [f"w{i}" for i in range(20)]
    confusion = {w: (f"x{i}",) for i, w in enumerate(vocab_words)}
    corpus = [
        tuple(vocab_words[int(rng.integers(20))] for _ in range(int(rng.integers(3, 8))))
        for _ in range(340)
    ]
    spec = NoiseSpec(substitution=0.10, deletion=0.05, confusion=confusion)
    triplets = synth_corrupt(corpus, spec, seed=17)
    train_set, dev_set, test_set = triplets[:300], triplets[300:320], triplets[320:]
    baseline = corpus_ter([(t.mt, t.pe) for t in test_set])

    tgt_vocab = Vocab.from_corpus([t.pe for t in train_set])

    def fit(side, seed):
        src_vocab = Vocab.from_corpus([getattr(t, side) for t in train_set])
        model = init_model(
            src_vocab, tgt_vocab, embedding_dim=32, hidden_dim=32, seed=seed
        )
        pairs = [
            (src_vocab.ids(getattr(t, side)), tgt_vocab.ids(t.pe))
            for t in train_set
        ]
        cfg = TrainConfig(
            batch_size=20,
            epochs=400,
            shuffle_seed=3,
            checkpoint_every=10**9,
            log_every=200,
            max_iterations=2500,
        )
        return train(model, pairs, cfg).model

    mt_model = fit("mt", seed=5)
    src_model = fit("src", seed=6)
    mt_scorer = NmtScorer(mt_model)
    src_scorer = NmtScorer(src_model)

    mt_only = [
        decode(
            [ScorerBinding("mt", mt_scorer, tuple(mt_model.src_vocab.ids(t.mt)), 1.0)],
            beam=4,
            sentence_id=i,
        ).entries[0].tokens
        for i, t in enumerate(test_set)
    ]
    mt_only_ter = corpus_ter(list(zip(mt_only, [t.pe for t in test_set])))

    def bindings_for(triplet):
        bindings = [
            ScorerBinding(
                "mt", mt_scorer, tuple(mt_model.src_vocab.ids(triplet.mt)), 1.0
            ),
            ScorerBinding(
                "src", src_scorer, tuple(src_model.src_vocab.ids(triplet.src)), 1.0
            ),
        ]
        pep = PepFeature.from_units(
            tuple(triplet.mt) + tuple(triplet.src), tgt_vocab, 1.0
        )
        return bindings, pep

    weights = tune(dev_set, bindings_for, TuneConfig(outer_iterations=2, beam=8))
    ensemble = []
    for i, t in enumerate(test_set):
        bindings, pep = bindings_for(t)
        bindings = [
            ScorerBinding(b.name, b.scorer, b.input_ids, weights[b.name])
            for b in bindings
        ]
        pep = PepFeature(allowed=pep.allowed, weight=weights["pep"])
        ensemble.append(
            decode(bindings, pep=pep, beam=8, sentence_id=i).entries[0].tokens
        )
    ensemble_ter = corpus_ter(list(zip(ensemble, [t.pe for t in test_set])))

    elapsed = time.monotonic() - started
    ok = mt_only_ter < baseline and ensemble_ter <= mt_only_ter and elapsed < 1800
    announce(
        "A11 end-to-end desk scale",
        ok,
        f"TER baseline {baseline:.2f} -> mt-only {mt_only_ter:.2f} -> "
        f"tuned ensemble {ensemble_ter:.2f}; {elapsed:.0f}s (< 1800s)",
    )


def test_a12_moore_lewis_selection(announce):
    rng = np.random.default_rng(31)
    in_words = ["der", "hund", "bellt", "laut", "die", "katze", "schläft", "tief"]
    out_words = ["börse", "aktie", "kurs", "bank", "zins", "markt", "handel", "preis"]

    def sample(words, count):
        return [
            tuple(words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(3, 7))))
            for _ in range(count)
        ]

    in_lm = train_lm(sample(in_words, 300))
    out_lm = train_lm(sample(out_words, 300))
    mixed = sample(in_words, 200) + sample(out_words, 200)
    origin = [1] * 200 + [0] * 200
    perm = rng.permutation(len(mixed))
    mixed = [mixed[i] for i in perm]
    origin = [origin[i] for i in perm]

    kept = select_by_xent(in_lm, out_lm, mixed, 200)
    fraction = sum(origin[i] for i in kept) / len(kept)
    ok = fraction >= 0.90
    announce(
        "A12 Moore-Lewis selection",
        ok,
        f"{fraction:.1%} of kept lines are in-domain-origin (need >= 90%)",
    )


_DET_PE = [
    "w0 w1 w2 w3 w4",
    "w5 w6 w7",
    "w8 w9 w0 w1",
    "w2 w3 w4 w5 w6 w7",
    "w8 w9 w1 w3",
    "w0 w2 w4 w6",
    "w1 w5 w9",
    "w3 w7 w8 w0 w2",
    "w4 w8 w1 w5",
    "w6 w0 w3 w9 w7",
    "w2 w5 w8",
    "w9 w4 w0 w6 w1",
]

_DET_TRAIN_CFG = """\
embedding_dim 12
hidden_dim 12
init_seed 1
batch_size 4
epochs 60
shuffle_seed 3
checkpoint_every 1000000
log_every 10
max_iterations 120
"""

_DET_DECODER_CFG = """\
scorer mt model=model/model.bin input=mt weight=1.0
feature pep input=mt weight=1.0
"""

_DET_PIPELINE_CFG = """\
stage corrupt
in pe.txt confusion.txt
out noisy.src noisy.mt noisy.pe
cmd synth corrupt --pe pe.txt --out noisy --seed 5 --substitution 0.15 --confusion confusion.txt
end

stage bpe-learn
in noisy.pe
out bpe.model
cmd bpe learn --in noisy.pe --merges 15 --out bpe.model
end

stage bpe-apply
in bpe.model noisy.pe
out pe.bpe
cmd bpe apply --model bpe.model --in noisy.pe --out pe.bpe
end

stage lm-train
in noisy.pe
out lm.arpa
cmd lm train --in noisy.pe --out lm.arpa
end

stage train
in noisy.mt noisy.pe train.cfg
out model/model.bin
cmd nmt train --src noisy.mt --tgt noisy.pe --config train.cfg --out model
end

stage tune
in noisy.src noisy.mt noisy.pe model/model.bin decoder.cfg
out weights.txt
cmd tune --dev noisy --config decoder.cfg --iterations 1 --inner-epochs 3 --beam 2 --out weights.txt
end

stage decode
in noisy.mt model/model.bin decoder.cfg weights.txt
out nbest.txt best.txt
cmd decode --config decoder.cfg --mt noisy.mt --nbest 2 --beam 4 --weights weights.txt --out nbest.txt --best-out best.txt
end

stage select
in noisy.src noisy.mt noisy.pe
out picked.src picked.mt picked.pe stats.txt
cmd select ter --pool noisy --reference noisy --n 1 --out picked --report stats.txt
end

stage report
in noisy.mt noisy.pe best.txt
out table.tsv
cmd report --ref noisy.pe --mt noisy.mt --system decoded=best.txt --tsv --out table.tsv
end
"""


def _seed_det_workspace(ws: Path):
    ws.mkdir(parents=True, exist_ok=True)
    (ws / "pe.txt").write_text("\n".join(_DET_PE) + "\n", encoding="utf-8")
    confusion = "\n".join(f"w{i} x{i}" for i in range(10)) + "\n"
    (ws / "confusion.txt").write_text(confusion, encoding="utf-8")
    (ws / "train.cfg").write_text(_DET_TRAIN_CFG, encoding="utf-8")
    (ws / "decoder.cfg").write_text(_DET_DECODER_CFG, encoding="utf-8")


def test_a13_pipeline_determinism(announce, tmp_path):
    runner = CliRunner()
    config = tmp_path / "pipeline.cfg"
    config.write_text(_DET_PIPELINE_CFG, encoding="utf-8")

    trees = []
    for name in ("one", "two"):
        ws = tmp_path / name
        _seed_det_workspace(ws)
        result = runner.invoke(
            cli,
            ["run", "--config", str(config)],
            env={"APEFORGE_WORKSPACE": str(ws)},
        )
        assert result.exit_code == 0, result.output
        trees.append(
            {
                p.relative_to(ws).as_posix(): p.read_bytes()
                for p in sorted(ws.rglob("*"))
                if p.is_file()
            }
        )

    same_files = set(trees[0]) == set(trees[1])
    differing = [k for k in trees[0] if trees[0][k] != trees[1].get(k)]
    stage_count = _DET_PIPELINE_CFG.count("stage ")
    ok = same_files and not differing
    announce(
        "A13 pipeline determinism",
        ok,
        f"{stage_count} stages rerun in a fresh workspace: {len(trees[0])} files, "
        + ("all byte-identical" if ok else f"differs: {differing}"),
    )
