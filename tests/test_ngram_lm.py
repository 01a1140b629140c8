"""Tests for the Kneser-Ney trigram LM, ARPA I/O, and data selection."""

import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import train_lm_reference, write_arpa_reference

from apeforge import ngram_lm
from apeforge.ngram_lm import (
    BOS,
    EOS,
    UNK,
    LmError,
    NgramLm,
    corpus_cross_entropy,
    cross_entropy,
    read_arpa,
    select_by_xent,
    train_lm,
    write_arpa,
    xent_scores,
)

TOKENS = st.sampled_from(["a", "b", "c", "d"])
SENT = st.lists(TOKENS, min_size=1, max_size=6).map(tuple)
CORPUS = st.lists(SENT, min_size=1, max_size=10).filter(
    lambda c: sum(len(s) for s in c) >= 3
)


def _rng_corpus(rng, vocab, n_sents, max_len=8):
    out = []
    for _ in range(n_sents):
        n = int(rng.integers(1, max_len + 1))
        out.append(tuple(vocab[i] for i in rng.integers(0, len(vocab), n)))
    return out


def _uniform_lm(vocab_words):
    """Hand-built unigram-only model: every word gets 1/|V|."""
    vocab = frozenset(vocab_words) | {UNK}
    p = 1.0 / len(vocab)
    return NgramLm(
        order=3, vocab=vocab, probs={(w,): p for w in vocab}, bows={}
    )


class TestTraining:
    def test_count_dominance(self):
        lm = train_lm([("a", "b")] * 10)
        assert lm.prob("b", (BOS, "a")) > lm.prob("a", (BOS, "a"))

    def test_too_small_corpus_rejected(self):
        with pytest.raises(LmError):
            train_lm([("a", "b")])
        train_lm([("a", "b"), ("c",)])  # 3 tokens: just enough

    def test_probabilities_in_unit_interval(self):
        lm = train_lm([("a", "b", "a"), ("b", "a", "b"), ("a", "a", "b")])
        for p in lm.probs.values():
            assert 0.0 < p <= 1.0

    @given(CORPUS)
    @settings(max_examples=40, deadline=None)
    def test_normalization_over_observed_contexts(self, corpus):
        lm = train_lm(corpus)
        contexts = {()} | {g[:-1] for g in lm.probs} | {(BOS,), (BOS, "a")}
        contexts |= {("zz",), ("a", "zz"), ("zz", "a"), ("zz", "qq")}
        for ctx in contexts:
            total = sum(lm.prob(w, ctx) for w in lm.vocab)
            assert total == pytest.approx(1.0, abs=1e-6), ctx

    def test_self_perplexity_beats_all_permutations(self):
        sent = ("a", "b", "a", "b", "c")
        lm = train_lm([sent])
        own = cross_entropy(lm, sent)
        for perm in itertools.permutations(sent):
            assert own <= cross_entropy(lm, perm) + 1e-12

    def test_training_text_beats_disjoint_text(self):
        rng = np.random.default_rng(11)
        own = _rng_corpus(rng, ["a", "b", "c", "d", "e"], 40)
        other = _rng_corpus(rng, ["v", "w", "x", "y", "z"], 40)
        lm = train_lm(own)
        other_lm = train_lm(other)
        assert corpus_cross_entropy(lm, own) < corpus_cross_entropy(other_lm, own)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        corpus = _rng_corpus(rng, ["a", "b", "c"], 30)
        lm1, lm2 = train_lm(corpus), train_lm(corpus)
        assert lm1.probs == lm2.probs
        assert lm1.bows == lm2.bows

    @pytest.mark.parametrize("marker, role", [(BOS, "begin"), (EOS, "end")])
    def test_sentence_marker_as_word_rejected(self, marker, role):
        with pytest.raises(
            LmError,
            match=rf"^sentence 2: {re.escape(repr(marker))} is the sentence-{role} marker, not a word$",
        ):
            train_lm([("x", "y"), ("a", marker, "b"), (marker,)])

    def test_order_1_begin_marker_is_context_only(self):
        lm = train_lm([("a", "b"), ("c",)], order=1)
        assert BOS not in lm.vocab and (BOS,) not in lm.probs
        assert sum(lm.probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_unk_has_positive_probability(self):
        lm = train_lm([("a", "b", "c")])
        assert lm.prob(UNK) > 0.0
        assert lm.prob("never-seen") == lm.prob(UNK)


@st.composite
def _seeded_corpus(draw):
    """A seeded corpus with repeated sentences, one-word sentences and words
    that are prefixes of one another, and an order from 1 to 5."""
    order = draw(st.integers(1, 5), label="order")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    words = sorted({
        "".join(rng.choice(list("ab'-Äz"), int(rng.integers(1, 4))))
        for _ in range(int(rng.integers(1, 40)))
    })
    if rng.random() < 0.2:
        words.append(UNK)
    corpus = []
    for _ in range(int(rng.integers(1, 25))):
        roll = rng.random()
        if corpus and roll < 0.25:
            corpus.append(corpus[int(rng.integers(len(corpus)))])
        else:
            n = 1 if roll < 0.5 else int(rng.integers(1, 12))
            corpus.append(tuple(words[i] for i in rng.integers(0, len(words), n)))
    assume(sum(map(len, corpus)) >= order)
    return corpus, order


def _arpa_bytes(write, lm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.arpa"
        write(lm, path)
        return path.read_bytes()


class TestMatchesDictCounting:
    """train_lm and write_arpa give the dict-counting estimator's model and
    file to the last bit."""

    @staticmethod
    def _assert_same(corpus, order):
        lm, ref = train_lm(corpus, order=order), train_lm_reference(corpus, order=order)
        assert lm.order == ref.order
        assert lm.vocab == ref.vocab
        assert lm.probs == ref.probs
        assert lm.bows == ref.bows
        assert _arpa_bytes(write_arpa, lm) == _arpa_bytes(write_arpa_reference, ref)

    @given(_seeded_corpus())
    @settings(max_examples=150, deadline=None)
    def test_seeded_corpora(self, case):
        self._assert_same(*case)

    def test_order_7_beyond_int64_key_packing(self):
        # packing a 7-gram as sum(id * V**k) would overflow int64 here
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(700)]
        corpus = _rng_corpus(rng, words, 400, max_len=15)
        distinct = {w for s in corpus for w in s}
        assert len(distinct) > 600 and (len(distinct) + 2) ** 7 > 2**63
        self._assert_same(corpus, 7)


class TestCrossEntropy:
    def test_uniform_model_is_log2_vocab(self):
        lm = _uniform_lm(["a", "b", "c", EOS])
        expected = math.log2(len(lm.vocab))
        assert cross_entropy(lm, ("a", "b")) == pytest.approx(expected)
        assert cross_entropy(lm, ("c",) * 7) == pytest.approx(expected)

    def test_matches_manual_chain_rule(self):
        lm = train_lm([("a", "b", "c"), ("a", "b", "a")])
        sent = ("a", "b", "c")
        bits = -(
            math.log2(lm.prob("a", (BOS,)))
            + math.log2(lm.prob("b", (BOS, "a")))
            + math.log2(lm.prob("c", ("a", "b")))
            + math.log2(lm.prob(EOS, ("b", "c")))
        )
        assert cross_entropy(lm, sent) == pytest.approx(bits / 4)

    def test_training_order_preferred_to_reversal(self):
        corpus = [("a", "a", "b")] * 20
        lm = train_lm(corpus)
        assert cross_entropy(lm, ("a", "a", "b")) < cross_entropy(lm, ("b", "a", "a"))

    def test_finite_on_fully_unseen_sentence(self):
        lm = train_lm([("a", "b", "c")] * 5)
        assert math.isfinite(cross_entropy(lm, ("x", "y", "z")))

    def test_corpus_xent_is_event_weighted(self):
        lm = train_lm([("a", "b", "c")] * 3)
        corpus = [("a",), ("a", "b", "c")]
        events = [2, 4]
        expected = sum(
            cross_entropy(lm, s) * n for s, n in zip(corpus, events)
        ) / sum(events)
        assert corpus_cross_entropy(lm, corpus) == pytest.approx(expected)

    def test_per_sentence_independence(self):
        lm = train_lm([("a", "b", "c")] * 3)
        s = ("a", "b")
        assert cross_entropy(lm, s) == cross_entropy(lm, s)


class TestArpa:
    def _model(self):
        rng = np.random.default_rng(5)
        return train_lm(_rng_corpus(rng, ["a", "b", "c", "d"], 50))

    def test_round_trip_probs(self, tmp_path):
        lm = self._model()
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        back = read_arpa(path)
        assert back.order == lm.order
        assert back.vocab == lm.vocab
        assert set(back.probs) == set(lm.probs)
        for gram, p in lm.probs.items():
            assert back.probs[gram] == pytest.approx(p, rel=1e-12)
        for ctx, b in lm.bows.items():
            assert back.bows[ctx] == pytest.approx(b, rel=1e-12)

    def test_round_trip_queries(self, tmp_path):
        lm = self._model()
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        back = read_arpa(path)
        rng = np.random.default_rng(6)
        words = sorted(lm.vocab) + ["zz"]
        for _ in range(300):
            w = words[rng.integers(0, len(words))]
            ctx = tuple(
                words[i] for i in rng.integers(0, len(words), rng.integers(0, 3))
            )
            assert back.prob(w, ctx) == pytest.approx(lm.prob(w, ctx), rel=1e-9)

    def test_deterministic_bytes(self, tmp_path):
        lm = self._model()
        p1, p2 = tmp_path / "a.arpa", tmp_path / "b.arpa"
        write_arpa(lm, p1)
        write_arpa(lm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("lines_per_write", [1, 2, 3, 5])
    def test_bytes_do_not_depend_on_lines_per_write(self, tmp_path, monkeypatch, lines_per_write):
        lm = self._model()
        write_arpa_reference(lm, tmp_path / "reference.arpa")
        monkeypatch.setattr(ngram_lm, "_ARPA_LINES_PER_WRITE", lines_per_write)
        write_arpa(lm, tmp_path / "chunked.arpa")
        assert (tmp_path / "chunked.arpa").read_bytes() == (tmp_path / "reference.arpa").read_bytes()

    def test_format_shape(self, tmp_path):
        lm = train_lm([("a", "b", "c")] * 4)
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        text = path.read_text()
        assert text.startswith("\\data\\\n")
        assert "\\1-grams:" in text and "\\3-grams:" in text
        assert text.rstrip("\n").endswith("\\end\\")
        bos_lines = [
            ln for ln in text.splitlines() if ln.split("\t")[1:2] == [BOS]
        ]
        assert len(bos_lines) == 1 and bos_lines[0].startswith("-99.0")
        # declared section sizes match actual line counts
        header = {}
        for ln in text.splitlines():
            if ln.startswith("ngram "):
                n, cnt = ln[6:].split("=")
                header[int(n)] = int(cnt)
        for n in (1, 2, 3):
            section = text.split(f"\\{n}-grams:\n")[1].split("\n\\")[0]
            assert header[n] == len(section.strip("\n").split("\n"))

    def test_missing_sections_error(self, tmp_path):
        path = tmp_path / "empty.arpa"
        path.write_text("\\data\\\n\\end\\\n")
        with pytest.raises(LmError):
            read_arpa(path)

    def _arpa(self, tmp_path, counts, *sections):
        path = tmp_path / "m.arpa"
        lines = ["\\data\\", *counts]
        for n, entries in enumerate(sections, 1):
            lines += ["", f"\\{n}-grams:", *entries]
        path.write_text("\n".join(lines + ["", "\\end\\", ""]), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "sections, message",
        [
            ([["-1.0\thaus", "-0.5\thaus", "-1.0\t</s>"]], "line 6: n-gram 'haus' given twice"),
            (
                [["-1.0\thaus\t-0.3", "-1.0\t</s>"], ["-0.2\thaus </s>", "-0.1\thaus </s>"]],
                "line 11: n-gram 'haus </s>' given twice",
            ),
        ],
        ids=["unigram", "bigram"],
    )
    def test_repeated_ngram_rejected(self, tmp_path, sections, message):
        counts = [f"ngram {n}={len(s)}" for n, s in enumerate(sections, 1)]
        with pytest.raises(LmError, match=message):
            read_arpa(self._arpa(tmp_path, counts, *sections))

    @pytest.mark.parametrize("declared", [1, 3])
    def test_count_that_disagrees_with_entries_rejected(self, tmp_path, declared):
        path = self._arpa(tmp_path, [f"ngram 1={declared}"], ["-1.0\thaus", "-1.0\t</s>"])
        with pytest.raises(
            LmError, match=rf"^{path}: line 2: declares {declared} 1-grams, 2 listed$"
        ):
            read_arpa(path)

    def test_section_without_count_rejected(self, tmp_path):
        path = self._arpa(
            tmp_path, ["ngram 1=2"], ["-1.0\thaus", "-1.0\t</s>"], ["-0.2\thaus </s>"]
        )
        with pytest.raises(LmError, match=r"line 8: no 'ngram 2=' count"):
            read_arpa(path)

    def test_count_given_twice_rejected(self, tmp_path):
        path = self._arpa(tmp_path, ["ngram 1=2", "ngram 1=2"], ["-1.0\thaus", "-1.0\t</s>"])
        with pytest.raises(LmError, match=r"line 3: count of 1-grams given twice"):
            read_arpa(path)

    @pytest.mark.parametrize("logprob", ["-inf", "nan", "2.5", "1e-9", "-400"])
    def test_log10_probability_outside_range_rejected(self, tmp_path, logprob):
        path = self._arpa(tmp_path, ["ngram 1=2"], [f"{logprob}\thaus", "-1.0\t</s>"])
        message = f"{path}: line 5: log10 probability '{logprob}' is not in [-323, 0]"
        with pytest.raises(LmError, match=f"^{re.escape(message)}$"):
            read_arpa(path)

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "400", "-400"])
    def test_log10_backoff_weight_outside_range_rejected(self, tmp_path, weight):
        path = self._arpa(tmp_path, ["ngram 1=2"], ["-1.0\thaus", f"-1.0\t</s>\t{weight}"])
        message = f"{path}: line 6: log10 backoff weight '{weight}' is not in [-323, 308]"
        with pytest.raises(LmError, match=f"^{re.escape(message)}$"):
            read_arpa(path)

    def test_range_ends_load(self, tmp_path):
        path = self._arpa(tmp_path, ["ngram 1=2"], ["0\thaus\t308", "-323\t</s>\t-323"])
        lm = read_arpa(path)
        assert lm.probs == {("haus",): 1.0, ("</s>",): 10.0**-323}
        assert lm.bows == {("haus",): 1e308, ("</s>",): 10.0**-323}

    def test_consistent_hand_written_file_loads(self, tmp_path):
        path = self._arpa(tmp_path, ["ngram 1=2"], ["-1.0\thaus", "-0.5\t</s>"])
        lm = read_arpa(path)
        assert lm.probs == {("haus",): 0.1, ("</s>",): 10**-0.5}


class TestSelection:
    def test_equal_models_keep_first_k(self):
        corpus = [("a", "b")] * 6
        lm = train_lm(corpus)
        assert select_by_xent(lm, lm, corpus, keep=3) == [0, 1, 2]

    def test_keep_all_is_identity_as_set(self):
        rng = np.random.default_rng(9)
        corpus = _rng_corpus(rng, ["a", "b", "c"], 12)
        in_lm = train_lm(corpus[:6])
        out_lm = train_lm(corpus[6:])
        kept = select_by_xent(in_lm, out_lm, corpus, keep=len(corpus))
        assert sorted(kept) == list(range(len(corpus)))

    def test_fractional_keep(self):
        corpus = [("a", "b")] * 10
        lm = train_lm(corpus)
        assert len(select_by_xent(lm, lm, corpus, keep=0.5)) == 5

    def test_topk_nested(self):
        rng = np.random.default_rng(13)
        corpus = _rng_corpus(rng, ["a", "b", "c", "d"], 20)
        in_lm = train_lm(corpus[:10])
        out_lm = train_lm(corpus[10:])
        prev: set = set()
        for k in range(len(corpus) + 1):
            kept = set(select_by_xent(in_lm, out_lm, corpus, keep=k))
            assert prev <= kept
            prev = kept

    def test_keep_out_of_range(self):
        corpus = [("a", "b", "c")]
        lm = train_lm(corpus)
        with pytest.raises(LmError):
            select_by_xent(lm, lm, corpus, keep=5)

    @pytest.mark.parametrize("keep", [0.0, 1.5, -0.5])
    def test_fraction_outside_unit_interval_rejected(self, keep):
        corpus = [("a", "b")] * 4
        lm = train_lm(corpus)
        with pytest.raises(LmError, match=f"keep={keep} is not a fraction"):
            select_by_xent(lm, lm, corpus, keep=keep)

    def test_fraction_keeping_no_line_rejected(self):
        corpus = [("a", "b")] * 4
        lm = train_lm(corpus)
        with pytest.raises(LmError, match="keeps no line"):
            select_by_xent(lm, lm, corpus, keep=0.1)

    def test_scores_are_finite_and_indexed(self):
        corpus = [("a", "b"), ("x", "y")]
        lm = train_lm([("a", "b")] * 5)
        scores = xent_scores(lm, lm, corpus)
        assert len(scores) == len(corpus)
        assert all(math.isfinite(s) for s in scores)
        assert all(s == pytest.approx(0.0) for s in scores)

    def test_separates_structured_from_shuffled(self):
        # in-domain: strongly ordered cyclic runs; out-domain: iid shuffles
        # of the same token inventory. Selection should recover the origin.
        rng = np.random.default_rng(21)
        inventory = [f"t{i}" for i in range(8)]

        def cyclic(n):
            start = int(rng.integers(0, 8))
            return tuple(inventory[(start + i) % 8] for i in range(n))

        def iid(n):
            return tuple(inventory[i] for i in rng.integers(0, 8, n))

        in_train = [cyclic(int(rng.integers(4, 10))) for _ in range(300)]
        out_train = [iid(int(rng.integers(4, 10))) for _ in range(300)]
        pool = [cyclic(int(rng.integers(4, 10))) for _ in range(100)] + [
            iid(int(rng.integers(4, 10))) for _ in range(100)
        ]
        kept = select_by_xent(
            train_lm(in_train), train_lm(out_train), pool, keep=100
        )
        in_domain_kept = sum(1 for i in kept if i < 100)
        assert in_domain_kept >= 90

    def test_difference_flag(self):
        corpus = [("a", "b"), ("c", "d")]
        in_lm = train_lm([("a", "b")] * 5)
        out_lm = train_lm([("c", "d")] * 5)
        diff = xent_scores(in_lm, out_lm, corpus)
        assert diff[0] == pytest.approx(
            cross_entropy(in_lm, corpus[0]) - cross_entropy(out_lm, corpus[0])
        )
