"""Ensemble beam search, copy-bias feature, and n-best file handling."""

import re

import numpy as np
import pytest

from apeforge.corpus import Vocab
from apeforge.decoder import (
    AssemblyError,
    Ensemble,
    NBestEntry,
    NBestList,
    NBestParseError,
    NmtScorer,
    PepFeature,
    ScorerBinding,
    assemble,
    decode,
    parse_decoder_config,
    read_nbest,
    reweight,
    write_nbest,
)
from apeforge.nmt import checkpoint as ckpt
from apeforge.nmt import init_model

from conftest import copy_task_pairs
from helpers import beam_search_single, decode_one_row

EOS = Vocab.EOS


class TableScorer:
    """Stateless stub returning the same log-score row at every step."""

    def __init__(self, vocab, row):
        self.tgt_vocab = vocab
        self.row = np.asarray(row, dtype=float)

    def start(self, input_ids):
        return None

    def step(self, state, moves):
        return np.tile(self.row, (len(moves), 1)), None


class ContextScorer:
    """Stub whose row depends on the token just consumed."""

    def __init__(self, vocab, rows, default):
        self.tgt_vocab = vocab
        self.rows = {k: np.asarray(v, dtype=float) for k, v in rows.items()}
        self.default = np.asarray(default, dtype=float)

    def start(self, input_ids):
        return None

    def step(self, state, moves):
        return np.stack([self.rows.get(t, self.default) for t in moves[:, 1]]), None


def stub_vocab():
    return Vocab(["u", "v"])


def stub_row(vocab, eos=-3.0, u=-1.0, v=-2.0, other=-10.0):
    row = np.full(len(vocab), other)
    row[EOS] = eos
    row[vocab.id("u")] = u
    row[vocab.id("v")] = v
    return row


def pep_row(input_units, vocab):
    return PepFeature.from_units(input_units, vocab, weight=1.0).vector(len(vocab))


class TestPepVector:
    def test_direct_rule(self):
        vocab = Vocab(["der", "das", "Haus", "ist"])
        vec = pep_row(("der", "Haus"), vocab)
        assert vec[vocab.id("der")] == 0.0
        assert vec[vocab.id("Haus")] == 0.0
        assert vec[EOS] == 0.0
        assert vec[vocab.id("das")] == -1.0
        assert vec[vocab.id("ist")] == -1.0
        assert vec[Vocab.PAD] == -1.0

    def test_empty_input_all_minus_one_except_eos(self):
        vocab = Vocab(["a", "b"])
        vec = pep_row((), vocab)
        expected = np.full(len(vocab), -1.0)
        expected[EOS] = 0.0
        np.testing.assert_array_equal(vec, expected)

    def test_full_vocab_input_all_zero(self):
        vocab = Vocab(["a", "b", "c"])
        vec = pep_row(tuple(vocab.tokens), vocab)
        np.testing.assert_array_equal(vec, np.zeros(len(vocab)))

    def test_entries_binary(self):
        vocab = Vocab(["a", "b", "c", "d"])
        vec = pep_row(("b", "d"), vocab)
        assert set(vec.tolist()) <= {0.0, -1.0}

    def test_feature_vector_matches_function(self):
        vocab = Vocab(["a", "b", "c"])
        feat = PepFeature.from_units(("a", "c"), vocab, weight=2.0)
        expected = np.full(len(vocab), -1.0)
        expected[[EOS, vocab.id("a"), vocab.id("c")]] = 0.0
        np.testing.assert_array_equal(feat.vector(len(vocab)), expected)

    def test_oov_input_unit_does_not_allow_unk(self):
        vocab = Vocab(["a", "b"])
        feat = PepFeature.from_units(("a", "zzz"), vocab, weight=1.0)
        assert feat.allowed == frozenset({EOS, vocab.id("a")})
        vec = feat.vector(len(vocab))
        assert vec[Vocab.UNK] == -1.0
        assert vec[vocab.id("a")] == 0.0


class TestAssembly:
    def test_requires_bindings(self):
        with pytest.raises(AssemblyError):
            assemble([])

    def test_vocab_mismatch(self):
        a = TableScorer(Vocab(["u"]), [0.0] * 5)
        b = TableScorer(Vocab(["w"]), [0.0] * 5)
        with pytest.raises(AssemblyError, match="vocabulary"):
            assemble(
                [
                    ScorerBinding("one", a, (4,), 1.0),
                    ScorerBinding("two", b, (4,), 1.0),
                ]
            )

    def test_ensemble_config_with_mismatched_vocab_names_the_scorer(self, tmp_path):
        """`Ensemble` rejects the config before any input is decoded."""
        src_vocab = Vocab(["a", "b"])
        for name, tgt in (("mt", ["x", "y"]), ("src", ["y", "x"])):
            model = init_model(src_vocab, Vocab(tgt), embedding_dim=2, hidden_dim=2)
            ckpt.save(model, tmp_path / f"{name}.bin")
        cfg = tmp_path / "decoder.cfg"
        cfg.write_text(
            f"scorer mt model={tmp_path / 'mt.bin'} input=mt weight=1\n"
            f"scorer src model={tmp_path / 'src.bin'} input=src weight=1\n",
            encoding="utf-8",
        )
        message = (
            f"{cfg}: scorer 'src' (model {tmp_path / 'src.bin'}) has a different "
            "target vocabulary from scorer 'mt'"
        )
        with pytest.raises(AssemblyError) as exc:
            Ensemble(cfg)
        assert str(exc.value) == message

    def test_duplicate_names(self):
        vocab = stub_vocab()
        s = TableScorer(vocab, stub_row(vocab))
        with pytest.raises(AssemblyError, match="unique"):
            assemble(
                [
                    ScorerBinding("x", s, (4,), 1.0),
                    ScorerBinding("x", s, (4,), 1.0),
                ]
            )

    def test_reserved_name(self):
        vocab = stub_vocab()
        s = TableScorer(vocab, stub_row(vocab))
        with pytest.raises(AssemblyError, match="reserved"):
            assemble([ScorerBinding("pep", s, (4,), 1.0)])


class TestBeamSearch:
    def test_hand_traced_truncation(self):
        # eos is never competitive within the 3x-input cap, so the search
        # ends with unfinished hypotheses and the truncation flag
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab, eos=-100.0))
        binding = ScorerBinding("m", scorer, (vocab.id("u"),), 1.0)
        nbest = decode([binding], beam=2)
        assert nbest.truncated
        texts = [e.tokens for e in nbest.entries]
        assert texts == [("u", "u", "u"), ("v", "u", "u")]
        assert nbest.entries[0].combined == pytest.approx(-1.0)
        assert nbest.entries[1].combined == pytest.approx(-4.0 / 3.0)

    def test_length_norm_changes_ranking(self):
        # on raw scores eos-only (-1.5) would beat every extension; per-token
        # averaging rewards appending "u" (-1.0 < running mean), so the
        # longest completed hypothesis within the cap wins
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab, eos=-1.5, u=-1.0, v=-5.0))
        binding = ScorerBinding("m", scorer, (vocab.id("u"),), 1.0)
        normed = decode([binding], beam=2)
        assert not normed.truncated
        assert normed.entries[0].tokens == ("u", "u")
        assert normed.entries[0].combined == pytest.approx(-3.5 / 3.0)
        assert normed.entries[1].tokens == ("u",)
        assert normed.entries[1].combined == pytest.approx(-1.25)

    def test_ensemble_degeneracy_halved_weights(self):
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab))
        one = decode([ScorerBinding("m", scorer, (4,), 1.0)], beam=3)
        two = decode(
            [
                ScorerBinding("m1", scorer, (4,), 0.5),
                ScorerBinding("m2", scorer, (4,), 0.5),
            ],
            beam=3,
        )
        assert [e.tokens for e in one.entries] == [e.tokens for e in two.entries]
        for a, b in zip(one.entries, two.entries):
            assert b.combined == pytest.approx(a.combined, abs=1e-9)
            # each duplicated feature carries the full single-model score
            single, doubled = dict(a.features), dict(b.features)
            assert doubled["m1"] == pytest.approx(single["m"], abs=1e-9)
            assert doubled["m2"] == pytest.approx(single["m"], abs=1e-9)

    def test_positive_weight_scaling_preserves_ranking(self):
        vocab = stub_vocab()
        rows = {
            Vocab.BOS: stub_row(vocab, eos=-9.0, u=-1.0, v=-1.6),
            vocab.id("u"): stub_row(vocab, eos=-0.3, u=-2.0, v=-0.9),
            vocab.id("v"): stub_row(vocab, eos=-0.5, u=-0.8, v=-2.2),
        }
        scorer = ContextScorer(vocab, rows, stub_row(vocab))
        for scale in (0.25, 1.0, 3.7):
            nbest = decode(
                [ScorerBinding("m", scorer, (4, 4, 4), scale)],
                beam=4,
            )
            if scale == 0.25:
                baseline = [e.tokens for e in nbest.entries]
            else:
                assert [e.tokens for e in nbest.entries] == baseline

    def test_pep_high_weight_restricts_output(self):
        vocab = Vocab(["a", "b", "c", "d"])
        row = np.full(len(vocab), -8.0)
        row[vocab.id("c")] = -0.1  # strongly prefers a forbidden token
        row[vocab.id("a")] = -2.0
        row[EOS] = -3.0
        scorer = TableScorer(vocab, row)
        binding = ScorerBinding("m", scorer, (vocab.id("a"),), 1.0)
        pep = PepFeature.from_units(("a",), vocab, weight=1e6)
        nbest = decode([binding], pep=pep, beam=3)
        allowed = {"a"}
        for entry in nbest.entries:
            assert set(entry.tokens) <= allowed
        # without the feature, greedy decoding happily emits the forbidden token
        free = decode([binding], beam=1)
        assert "c" in free.entries[0].tokens

    def test_features_recombine_to_combined(self):
        vocab = stub_vocab()
        s1 = TableScorer(vocab, stub_row(vocab, eos=-2.0, u=-1.0, v=-1.2))
        s2 = TableScorer(vocab, stub_row(vocab, eos=-1.0, u=-2.5, v=-0.7))
        bindings = [
            ScorerBinding("p", s1, (4,), 0.7),
            ScorerBinding("q", s2, (4, 5), 0.4),
        ]
        pep = PepFeature.from_units(("u",), vocab, weight=0.3)
        nbest = decode(bindings, pep=pep, beam=4)
        weights = {"p": 0.7, "q": 0.4, "pep": 0.3}
        for entry in nbest.entries:
            recombined = sum(weights[n] * v for n, v in entry.features)
            assert recombined == pytest.approx(entry.combined, abs=1e-4)

    def test_entries_sorted_descending(self):
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab))
        nbest = decode([ScorerBinding("m", scorer, (4, 4), 1.0)], beam=5)
        scores = [e.combined for e in nbest.entries]
        assert scores == sorted(scores, reverse=True)
        assert len(nbest.entries) <= 5

    def test_deterministic(self):
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab))
        binding = ScorerBinding("m", scorer, (4, 5), 1.0)
        a = decode([binding], beam=4)
        b = decode([binding], beam=4)
        assert a == b

    def test_beam_validation(self):
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab))
        with pytest.raises(ValueError):
            decode([ScorerBinding("m", scorer, (4,), 1.0)], beam=0)


class TestAgainstReferenceBeam:
    def test_single_binding_matches_reference(self, copy_task):
        vocab, pairs, result, _ = copy_task
        scorer = NmtScorer(result.model)
        for src, _ in pairs[:6]:
            expected = beam_search_single(result.model, src, beam=4)
            nbest = decode([ScorerBinding("nmt", scorer, tuple(src), 1.0)], beam=4)
            got = [(e.tokens, e.combined) for e in nbest.entries]
            assert [t for t, _ in got] == [t for t, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-9)

    def test_trained_model_copies_via_beam(self, copy_task):
        vocab, pairs, result, _ = copy_task
        scorer = NmtScorer(result.model)
        src = pairs[0][0]
        nbest = decode([ScorerBinding("nmt", scorer, tuple(src), 1.0)], beam=4)
        assert nbest.entries[0].tokens == vocab.words(src)


class HistoryScorer:
    """Stub whose state is each row's full token history; the row it
    scores is a seeded draw keyed by that history, so a hypothesis stepped
    from the wrong parent row gets another row. Records every `moves`."""

    def __init__(self, vocab, seed):
        self.tgt_vocab = vocab
        self.seed = seed
        self.moves = []

    def start(self, input_ids):
        return [()]

    def step(self, state, moves):
        self.moves.append(moves.copy())
        history = [state[p] + (t,) for p, t in moves.tolist()]
        rows = [
            np.log(np.random.default_rng([self.seed, *h]).dirichlet(np.ones(len(self.tgt_vocab))))
            for h in history
        ]
        return np.stack(rows), history


def assert_same_search(got, want):
    assert got.truncated == want.truncated
    assert [e.tokens for e in got.entries] == [e.tokens for e in want.entries]
    for a, b in zip(got.entries, want.entries):
        assert a.combined == pytest.approx(b.combined, abs=1e-12)
        assert [n for n, _ in a.features] == [n for n, _ in b.features]
        for (_, x), (_, y) in zip(a.features, b.features):
            assert x == pytest.approx(y, abs=1e-12)


class TestAgainstOneRowSearch:
    """decode advances the whole beam per scorer call; decode_one_row, the
    search it replaced, advances one hypothesis at a time."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("beam", [1, 4, 12])
    def test_two_model_pep_ensemble(self, seed, beam):
        # Batched rows may differ from one-row steps in the last bits, so a
        # near-tie (two raw scores within 1e-9) could order differently. No
        # such tie occurs on these seeds: every sequence must match.
        rng = np.random.default_rng(seed)
        src_vocab = Vocab([f"s{i}" for i in range(9)])
        tgt_vocab = Vocab([f"t{i}" for i in range(9)])
        mt2pe = init_model(src_vocab, tgt_vocab, embedding_dim=6, hidden_dim=5, seed=seed)
        src2pe = init_model(src_vocab, tgt_vocab, embedding_dim=6, hidden_dim=5, seed=seed + 50)
        mt = tuple(int(i) for i in rng.integers(4, len(src_vocab), size=5))
        src = tuple(int(i) for i in rng.integers(4, len(src_vocab), size=4))
        bindings = [
            ScorerBinding("mt2pe", NmtScorer(mt2pe), mt, 0.6),
            ScorerBinding("src2pe", NmtScorer(src2pe), src, 0.3),
        ]
        units = src_vocab.words(mt) + src_vocab.words(src)
        pep = PepFeature.from_units(units, tgt_vocab, weight=0.1)
        got = decode(bindings, pep=pep, beam=beam)
        assert_same_search(got, decode_one_row(bindings, pep=pep, beam=beam))

    @pytest.mark.parametrize("beam", [1, 3, 8])
    def test_rows_follow_their_parents(self, beam):
        vocab = Vocab(["u", "v", "w"])
        scorers = [HistoryScorer(vocab, seed=5), HistoryScorer(vocab, seed=6)]
        bindings = [
            ScorerBinding("a", scorers[0], (4, 4, 5), 1.0),
            ScorerBinding("b", scorers[1], (5, 6), 0.5),
        ]
        pep = PepFeature.from_units(("u",), vocab, weight=0.2)
        got = decode(bindings, pep=pep, beam=beam)
        if beam > 1:
            # the search did reorder: some round continued rows out of order
            assert any(
                not np.array_equal(m[:, 0], np.arange(len(m))) for m in scorers[0].moves
            )
        assert_same_search(got, decode_one_row(bindings, pep=pep, beam=beam))

    @pytest.mark.parametrize("beam", [2, 5])
    def test_ties_at_the_cut(self, beam):
        # every candidate ties, so only the (token, parent) order picks the beam
        vocab = Vocab(["u", "v", "w"])
        scorer = TableScorer(vocab, np.full(len(vocab), -1.0))
        bindings = [ScorerBinding("m", scorer, (4, 5), 1.0)]
        got = decode(bindings, beam=beam)
        assert_same_search(got, decode_one_row(bindings, beam=beam))


class TestNBestFiles:
    def sample(self):
        return [
            NBestList(
                sentence_id=0,
                entries=(
                    NBestEntry(("der", "Haus"), (("m", -1.25), ("pep", 0.0)), -1.25),
                    NBestEntry((), (("m", -2.0), ("pep", -1.0)), -2.3),
                ),
            ),
            NBestList(
                sentence_id=1,
                entries=(
                    NBestEntry(("ok",), (("m", -0.5), ("pep", 0.0)), -0.5),
                ),
            ),
        ]

    def test_single_entry_format(self, tmp_path):
        path = tmp_path / "n.best"
        write_nbest(
            [
                NBestList(
                    sentence_id=3,
                    entries=(
                        NBestEntry(("a", "b"), (("m", -1.5), ("pep", 0.0)), -1.5),
                    ),
                )
            ],
            path,
        )
        assert (
            path.read_text()
            == "3 ||| a b ||| m= -1.500000 pep= 0.000000 ||| -1.500000\n"
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "n.best"
        write_nbest(self.sample(), path)
        lists = read_nbest(path)
        assert [l.sentence_id for l in lists] == [0, 1]
        assert lists[0].entries == self.sample()[0].entries
        assert lists[1].entries == self.sample()[1].entries

    def test_interleaved_ids_group_in_first_seen_order(self, tmp_path):
        path = tmp_path / "n.best"
        path.write_text(
            "1 ||| a ||| m= -1.000000 ||| -1.000000\n"
            "0 ||| b ||| m= -2.000000 ||| -2.000000\n"
            "1 ||| c ||| m= -3.000000 ||| -3.000000\n"
        )
        lists = read_nbest(path)
        assert [l.sentence_id for l in lists] == [1, 0]
        assert [e.tokens for e in lists[0].entries] == [("a",), ("c",)]
        assert [e.tokens for e in lists[1].entries] == [("b",)]

    def test_reserved_characters_round_trip(self, tmp_path):
        path = tmp_path / "n.best"
        tokens = ("|||", "&", "[", "a|b", "&amp;")
        lists = [
            NBestList(
                sentence_id=0,
                entries=(NBestEntry(tokens, (("m", -1.0),), -1.0),),
            )
        ]
        write_nbest(lists, path)
        assert path.read_text() == (
            "0 ||| &#124;&#124;&#124; &amp; &#91; a&#124;b &amp;amp; "
            "||| m= -1.000000 ||| -1.000000\n"
        )
        assert read_nbest(path)[0].entries == lists[0].entries

    def test_write_read_write_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_nbest(self.sample(), a)
        write_nbest(read_nbest(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_separator(self, tmp_path):
        path = tmp_path / "bad.best"
        path.write_text("0 ||| a b ||| m= -1.0\n")
        with pytest.raises(NBestParseError, match="line 1"):
            read_nbest(path)

    def test_bad_score(self, tmp_path):
        path = tmp_path / "bad.best"
        path.write_text("0 ||| a ||| m= -1.0 ||| eek\n")
        with pytest.raises(NBestParseError, match="line 1"):
            read_nbest(path)

    def test_error_names_later_line(self, tmp_path):
        path = tmp_path / "bad.best"
        path.write_text(
            "0 ||| a ||| m= -1.000000 ||| -1.000000\nnot a record\n"
        )
        with pytest.raises(NBestParseError, match="line 2"):
            read_nbest(path)


class TestReweight:
    def _ensemble(self):
        vocab = stub_vocab()
        scorer = TableScorer(vocab, stub_row(vocab))
        bindings = [
            ScorerBinding("mt", scorer, (4,), 0.5),
            ScorerBinding("src", scorer, (5,), 0.25),
        ]
        return bindings, PepFeature.from_units(["u"], vocab, 1.0)

    def test_named_weights_override(self):
        bindings, pep = self._ensemble()
        new, new_pep = reweight(bindings, pep, {"mt": 2.0, "src": 3.0, "pep": 4.0})
        assert [b.weight for b in new] == [2.0, 3.0]
        assert new_pep.weight == 4.0
        assert new_pep.allowed == pep.allowed
        assert [b.input_ids for b in new] == [(4,), (5,)]

    def test_omitted_name_keeps_its_weight(self):
        # a tuned weights file holding only `pep` leaves the scorers as declared
        bindings, pep = self._ensemble()
        new, new_pep = reweight(bindings, pep, {"pep": 2.0})
        assert [b.weight for b in new] == [0.5, 0.25]
        assert new_pep.weight == 2.0

    def test_no_pep_stays_none(self):
        bindings, _ = self._ensemble()
        new, new_pep = reweight(bindings, None, {"pep": 2.0, "mt": 1.0})
        assert new_pep is None
        assert [b.weight for b in new] == [1.0, 0.25]


class TestConfigParsing:
    def test_full_config(self):
        cfg = parse_decoder_config(
            "# ensemble\n"
            "scorer mt2pe model=/m/a.bin input=mt weight=0.8\n"
            "scorer src2pe model=/m/b.bin input=src weight=0.2\n"
            "feature pep input=mt weight=0.25\n"
        )
        assert cfg.scorers == (
            ("mt2pe", "/m/a.bin", "mt", 0.8),
            ("src2pe", "/m/b.bin", "src", 0.2),
        )
        assert cfg.pep == ("mt", 0.25)

    def test_union_pep(self):
        cfg = parse_decoder_config(
            "scorer m model=x input=mt weight=1\nfeature pep input=union weight=1\n"
        )
        assert cfg.pep == ("union", 1.0)

    def test_no_scorers(self):
        with pytest.raises(AssemblyError, match="no scorers"):
            parse_decoder_config("feature pep input=mt weight=1\n")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="line 1"):
            parse_decoder_config("model foo\n")

    def test_bad_input_selector(self):
        with pytest.raises(AssemblyError):
            parse_decoder_config("scorer m model=x input=ref weight=1\n")

    def test_duplicate_pep(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            parse_decoder_config(
                "scorer m model=x input=mt weight=1\n"
                "feature pep input=mt weight=1\n"
                "feature pep input=mt weight=2\n"
            )

    def test_missing_field(self):
        with pytest.raises(AssemblyError, match="line 1"):
            parse_decoder_config("scorer m model=x weight=1\n")

    @pytest.mark.parametrize(
        "line", ["scorer m model=x input=mt weight", "feature pep input=mt weight"]
    )
    def test_field_without_equals(self, line):
        text = "scorer m model=x input=mt weight=1\n" + line + "\n"
        with pytest.raises(AssemblyError, match="line 2: field 'weight' is not key=value$"):
            parse_decoder_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "scorer m model=x input=mt weight=1 weight=2",
                "line 1: field 'weight' given twice", id="repeated-weight",
            ),
            pytest.param(
                "feature pep input=mt input=union weight=1",
                "line 1: field 'input' given twice", id="repeated-input",
            ),
            pytest.param(
                "scorer m model=x weight=1", "line 1: missing field 'input'", id="missing-input"
            ),
            pytest.param(
                "feature pep input=mt", "line 1: missing field 'weight'", id="missing-weight"
            ),
            pytest.param("scorer", "line 1: scorer line has no name", id="bare-scorer"),
            pytest.param("feature", "line 1: feature line has no name", id="bare-feature"),
            pytest.param(
                "scorer m model=x input=mt weight=1 beam=5",
                "line 1: unknown field 'beam' (expected model, input, weight)",
                id="unknown-scorer-field",
            ),
            pytest.param(
                "feature pep input=mt weight=1 model=x",
                "line 1: unknown field 'model' (expected input, weight)",
                id="unknown-feature-field",
            ),
            pytest.param(
                "scorer m model=x input=mt weight=1\nscorer m model=y input=src weight=1",
                "line 2: scorer 'm' declared twice", id="repeated-scorer-name",
            ),
            pytest.param(
                "scorer pep model=x input=mt weight=1",
                "line 1: scorer name 'pep' is reserved", id="scorer-named-pep",
            ),
        ],
    )
    def test_malformed_line_names_config_and_line(self, text, message):
        with pytest.raises(AssemblyError, match=f"^{re.escape('<config>: ' + message)}$"):
            parse_decoder_config(text + "\n")
