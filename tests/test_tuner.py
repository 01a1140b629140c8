"""Weight optimization: hope/fear updates, reranking, grid-search oracles."""

from collections import Counter

import numpy as np
import pytest

from apeforge import tuner
from apeforge.corpus import ParseError, Triplet, Vocab
from apeforge.decoder import NBestEntry, NBestList, ScorerBinding
from apeforge.metrics import ter
from apeforge.tuner import (
    TuneConfig,
    TunerConfigError,
    mira_epochs,
    read_weights,
    rerank,
    rerank_corpus_ter,
    tune,
    tune_on_lists,
    write_weights,
)
from helpers import search_rescoring_reference, ter_costs_reference, tune_rescoring_reference


def count_ter_calls(monkeypatch) -> Counter:
    """Counts the (hypothesis, reference) pairs the tuner scores with ter."""
    calls = Counter()
    inner = tuner.ter

    def counting(hyp, ref):
        calls[tuple(hyp), tuple(ref)] += 1
        return inner(hyp, ref)

    monkeypatch.setattr(tuner, "ter", counting)
    return calls


def entry(tokens, **feats):
    return NBestEntry(
        tokens=tuple(tokens),
        features=tuple(feats.items()),
        combined=0.0,
    )


def synthetic_problem(n_sentences=20, seed=5):
    """Per sentence: four hypotheses at TER 0/.25/.5/.75 of a 4-word
    reference; feature `neg_ter` is exact negative sentence TER, feature
    `noise` is seeded junk that often prefers worse hypotheses."""
    rng = np.random.default_rng(seed)
    lists, refs = [], []
    for i in range(n_sentences):
        ref = tuple(f"w{i}_{j}" for j in range(4))
        hyps = [
            ref,
            ref[:3] + (f"x{i}_a",),
            ref[:2] + (f"x{i}_a", f"x{i}_b"),
            ref[:1] + (f"x{i}_a", f"x{i}_b", f"x{i}_c"),
        ]
        entries = []
        for k, hyp in enumerate(hyps):
            frac = ter(hyp, ref).ter / 100.0
            noise = float(rng.uniform(-0.5, 0.5)) + 0.4 * k
            entries.append(entry(hyp, neg_ter=-frac, noise=noise))
        lists.append(NBestList(sentence_id=i, entries=tuple(entries)))
        refs.append(ref)
    return lists, refs


def grid_best_ter(lists, refs, names, lo=-2.0, hi=2.0, steps=41):
    grid = np.linspace(lo, hi, steps)
    best = np.inf
    for w0 in grid:
        for w1 in grid:
            weights = {names[0]: float(w0), names[1]: float(w1)}
            best = min(best, rerank_corpus_ter(lists, weights, refs))
    return best


class TestRerank:
    def test_decoding_weights_reproduce_original_1best(self):
        lists = [
            NBestList(
                sentence_id=0,
                entries=(
                    entry(("a",), m=-1.0),
                    entry(("b",), m=-2.0),
                ),
            )
        ]
        assert rerank(lists, {"m": 1.0}) == [("a",)]

    def test_negated_weights_pick_the_former_worst(self):
        lists = [
            NBestList(
                sentence_id=0,
                entries=(
                    entry(("a",), m=-1.0, p=0.5),
                    entry(("b",), m=-2.0, p=0.25),
                    entry(("c",), m=-4.0, p=0.125),
                ),
            )
        ]
        w = {"m": 1.0, "p": 2.0}
        assert rerank(lists, w) == [("a",)]
        assert rerank(lists, {k: -v for k, v in w.items()}) == [("c",)]

    def test_ties_keep_original_rank(self):
        lists = [
            NBestList(
                sentence_id=0,
                entries=(entry(("a",), m=-1.0), entry(("b",), m=-1.0)),
            )
        ]
        assert rerank(lists, {"m": 1.0}) == [("a",)]

    def test_ranks_with_the_matrix_product(self):
        """Near-tie lists (rows a few ulps apart), where one `w @ row` per
        entry and one `rows @ w` per list can round a score differently;
        rerank must pick the first argmax of the matrix product, the scores
        MIRA trains on."""
        rng = np.random.default_rng(14)
        for _ in range(200):
            k, n = (int(v) for v in rng.integers(2, 4, size=2))
            names = [f"f{j}" for j in range(k)]
            base = rng.normal(size=k)
            rows = base + rng.integers(-2, 3, size=(n, k)) * np.spacing(np.abs(base))
            w = rng.normal(size=k)
            nbest = NBestList(
                sentence_id=0,
                entries=tuple(
                    entry((f"h{i}",), **dict(zip(names, map(float, row))))
                    for i, row in enumerate(rows)
                ),
            )
            expected = int(np.argmax(rows @ w))
            assert rerank([nbest], dict(zip(names, map(float, w)))) == [(f"h{expected}",)]

    def test_list_without_entries_is_named(self):
        lists = [NBestList(0, (entry(("a",), m=-1.0),)), NBestList(1, ())]
        with pytest.raises(ValueError, match="^sentence 1 has no entries$"):
            rerank(lists, {"m": 1.0})
        with pytest.raises(ValueError, match="^sentence 1 has no entries$"):
            tune_on_lists(lists, [("a",), ("b",)], TuneConfig(), {"m": 1.0})

    def test_positive_scaling_invariant(self):
        lists, refs = synthetic_problem(6)
        w = {"neg_ter": 0.3, "noise": 0.7}
        base = rerank(lists, w)
        for scale in (0.01, 5.0, 1234.0):
            assert rerank(lists, {k: v * scale for k, v in w.items()}) == base

    def test_grid_oracle_equivalence(self):
        # every grid point: rerank must agree with a direct argmax
        lists, refs = synthetic_problem(4)
        grid = np.linspace(-1.5, 1.5, 7)
        for w0 in grid:
            for w1 in grid:
                weights = {"neg_ter": float(w0), "noise": float(w1)}
                got = rerank(lists, weights)
                for nbest, pick in zip(lists, got):
                    feats = [dict(e.features) for e in nbest.entries]
                    scores = [w0 * f["neg_ter"] + w1 * f["noise"] for f in feats]
                    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
                    assert pick == nbest.entries[best].tokens

    def test_feature_mismatch_raises(self):
        lists = [NBestList(sentence_id=0, entries=(entry(("a",), m=-1.0),))]
        with pytest.raises(TunerConfigError):
            rerank(lists, {"m": 1.0, "ghost": 0.5})
        with pytest.raises(TunerConfigError):
            rerank(lists, {"other": 1.0})


class TestTuneOnLists:
    def test_informative_feature_wins(self):
        lists, refs = synthetic_problem(20)
        cfg = TuneConfig(outer_iterations=2, inner_epochs=15, seed=0)
        weights = tune_on_lists(lists, refs, cfg)
        picks = rerank(lists, weights)
        zero_ter = sum(1 for pick, ref in zip(picks, refs) if pick == ref)
        assert zero_ter == len(refs)
        assert rerank_corpus_ter(lists, weights, refs) == 0.0

    def test_matches_grid_search_oracle(self):
        lists, refs = synthetic_problem(12, seed=9)
        cfg = TuneConfig(outer_iterations=2, inner_epochs=15, seed=1)
        weights = tune_on_lists(lists, refs, cfg)
        tuned = rerank_corpus_ter(lists, weights, refs)
        oracle = grid_best_ter(lists, refs, ["neg_ter", "noise"])
        assert tuned <= oracle + 1e-9

    def test_never_worse_than_initial(self):
        for seed in range(5):
            lists, refs = synthetic_problem(10, seed=seed)
            initial = {"neg_ter": 0.5, "noise": 0.5}
            cfg = TuneConfig(outer_iterations=1, inner_epochs=3, seed=seed)
            weights = tune_on_lists(lists, refs, cfg, initial=initial)
            assert rerank_corpus_ter(lists, weights, refs) <= rerank_corpus_ter(
                lists, initial, refs
            )

    def test_single_feature_keeps_original_ranking(self):
        refs = [("a", "b"), ("c",)]
        lists = [
            NBestList(
                sentence_id=0,
                entries=(entry(("a", "b"), m=-1.0), entry(("a", "x"), m=-2.0)),
            ),
            NBestList(
                sentence_id=1,
                entries=(entry(("c",), m=-0.5), entry(("d",), m=-0.9)),
            ),
        ]
        cfg = TuneConfig(outer_iterations=1, inner_epochs=2, seed=0)
        weights = tune_on_lists(lists, refs, cfg)
        assert weights["m"] > 0
        assert rerank(lists, weights) == [("a", "b"), ("c",)]

    def test_deterministic(self):
        lists, refs = synthetic_problem(8, seed=2)
        cfg = TuneConfig(outer_iterations=2, inner_epochs=5, seed=42)
        a = tune_on_lists(lists, refs, cfg)
        b = tune_on_lists(lists, refs, cfg)
        assert a == b

    def test_scores_each_pair_once_with_the_rescoring_weights(self, monkeypatch):
        lists, refs = synthetic_problem(8, seed=4)
        cfg = TuneConfig(outer_iterations=3, inner_epochs=5, seed=3)
        calls = count_ter_calls(monkeypatch)
        weights = tune_on_lists(lists, refs, cfg)
        pairs = {(e.tokens, ref) for nbest, ref in zip(lists, refs) for e in nbest.entries}
        assert calls == Counter(pairs)
        initial = {"neg_ter": 0.5, "noise": 0.5}
        assert weights == search_rescoring_reference(lambda _w: lists, refs, initial, cfg)

    def test_validation(self):
        lists, refs = synthetic_problem(2)
        with pytest.raises(ValueError):
            tune_on_lists([], [], TuneConfig())
        with pytest.raises(ValueError):
            tune_on_lists(lists, refs[:1], TuneConfig())
        with pytest.raises(ValueError):
            TuneConfig(outer_iterations=0)
        with pytest.raises(ValueError):
            TuneConfig(mira_c=0.0)
        with pytest.raises(ValueError):
            TuneConfig(mira_c=float("nan"))


class TestMiraEpochs:
    def test_update_moves_toward_informative_feature(self):
        lists, refs = synthetic_problem(20, seed=3)
        initial = {"neg_ter": 0.5, "noise": 0.5}
        cfg = TuneConfig(inner_epochs=10, mira_c=0.05)
        rng = np.random.default_rng(0)
        out = mira_epochs(lists, ter_costs_reference(lists, refs), initial, cfg, rng)
        # relative mass must shift toward the feature aligned with low TER
        assert out["neg_ter"] - out["noise"] > initial["neg_ter"] - initial["noise"]

    def test_no_update_when_hope_equals_fear(self):
        # a single hypothesis per sentence: hope == fear, weights unchanged
        lists = [NBestList(sentence_id=0, entries=(entry(("a",), m=-1.0),))]
        cfg = TuneConfig(inner_epochs=4)
        costs = [np.array([0.0])]
        out = mira_epochs(lists, costs, {"m": 0.25}, cfg, np.random.default_rng(0))
        assert out == {"m": 0.25}


class TestTuneEndToEnd:
    class _Ctx:
        """Stub whose row depends on the token just consumed, so hypotheses
        terminate naturally instead of rewarding repetition under
        length-normalized scores."""

        def __init__(self, vocab, rows, default):
            self.tgt_vocab = vocab
            self.rows = {k: np.asarray(v, dtype=float) for k, v in rows.items()}
            self.default = np.asarray(default, dtype=float)

        def start(self, input_ids):
            return None

        def step(self, state, moves):
            return np.stack([self.rows.get(t, self.default) for t in moves[:, 1]]), None

    def _scenario(self):
        vocab = Vocab(["good", "bad"])
        g, b, e = vocab.id("good"), vocab.id("bad"), Vocab.EOS

        def row(**scores):
            r = np.full(len(vocab), -6.0)
            for key, val in scores.items():
                r[{"g": g, "b": b, "e": e}[key]] = val
            return r

        helpful = self._Ctx(
            vocab,
            {Vocab.BOS: row(g=-0.3, b=-1.0, e=-2.0), g: row(e=-0.1), b: row(e=-0.1)},
            row(),
        )
        harmful = self._Ctx(
            vocab,
            {Vocab.BOS: row(b=-0.2, g=-1.3, e=-2.0), g: row(e=-0.1), b: row(e=-0.1)},
            row(),
        )
        dev = [
            Triplet(src=("s",), mt=("good", "bad"), pe=("good",)),
            Triplet(src=("s",), mt=("bad", "good"), pe=("good",)),
        ]

        def factory(triplet):
            ids = tuple(vocab.ids(triplet.mt))
            return (
                [
                    ScorerBinding("helpful", helpful, ids, 0.5),
                    ScorerBinding("harmful", harmful, ids, 0.5),
                ],
                None,
            )

        return dev, factory

    def test_decode_merge_optimize(self):
        from apeforge.decoder import decode

        dev, factory = self._scenario()
        refs = [t.pe for t in dev]
        uniform = {"helpful": 0.5, "harmful": 0.5}
        lists = [
            decode(factory(t)[0], beam=4, sentence_id=i) for i, t in enumerate(dev)
        ]
        # at uniform weights the wrong hypothesis wins outright
        assert [nb.entries[0].tokens for nb in lists] == [("bad",), ("bad",)]
        assert rerank_corpus_ter(lists, uniform, refs) == 100.0

        cfg = TuneConfig(
            outer_iterations=2, inner_epochs=15, seed=0, beam=4, mira_c=0.05
        )
        weights = tune(dev, factory, cfg)
        assert set(weights) == {"helpful", "harmful"}
        assert weights["helpful"] > weights["harmful"]
        assert rerank_corpus_ter(lists, weights, refs) == 0.0

    def test_scores_each_pair_once_with_the_rescoring_weights(self, monkeypatch):
        dev, factory = self._scenario()
        cfg = TuneConfig(outer_iterations=3, inner_epochs=15, seed=0, beam=4, mira_c=0.05)
        decoded = []
        inner = tuner.decode

        def recording_decode(bindings, **kwargs):
            nbest = inner(bindings, **kwargs)
            decoded.extend((nbest.sentence_id, e.tokens) for e in nbest.entries)
            return nbest

        monkeypatch.setattr(tuner, "decode", recording_decode)
        calls = count_ter_calls(monkeypatch)
        weights = tune(dev, factory, cfg)
        # later iterations decode hypotheses the pool already holds
        assert len(decoded) > len(set(decoded))
        # one call per dev sentence and distinct hypothesis: both references
        # here are ("good",), so a hypothesis both pools hold counts twice
        assert calls == Counter((tokens, dev[i].pe) for i, tokens in set(decoded))
        monkeypatch.undo()
        assert weights == tune_rescoring_reference(dev, factory, cfg)

    def test_empty_dev_rejected(self):
        with pytest.raises(ValueError):
            tune([], lambda t: ([], None), TuneConfig())


class TestWeightsFile:
    def test_round_trip_at_six_decimals(self, tmp_path):
        path = tmp_path / "weights.txt"
        write_weights(path, {"src2pe": 0.1234567, "mt2pe": -2.5, "pep": 1e-7})
        assert path.read_text() == (
            "mt2pe\t-2.500000\npep\t0.000000\nsrc2pe\t0.123457\n"
        )
        assert read_weights(path) == {"mt2pe": -2.5, "pep": 0.0, "src2pe": 0.123457}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mt 0.5\n", "line 1: expected 'name<TAB>value'"),
            ("mt\t0.5\n\npep\tabc\n", "line 3: bad weight 'abc' for 'pep'"),
            ("mt\t0.5\npep\t1\nmt\t2\n", "line 3: feature 'mt' given twice"),
        ],
    )
    def test_malformed_line_rejected(self, tmp_path, text, message):
        path = tmp_path / "weights.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_weights(path)
