"""Tests for BPE learning, application, reversal, and model files."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeforge.subword import (
    CONTINUATION,
    END_MARKER,
    MODEL_HEADER,
    BpeModel,
    MalformedSegmentationError,
    SubwordError,
    apply_bpe,
    learn_bpe,
    load_model,
    revert_bpe,
    save_model,
)
from helpers import bpe_apply_reference

TOKEN = st.text(alphabet="abc", min_size=1, max_size=6)
SENT = st.lists(TOKEN, min_size=1, max_size=5).map(tuple)
CORPUS = st.lists(SENT, min_size=1, max_size=8)


def _mark(units):
    return tuple(
        u + CONTINUATION if i < len(units) - 1 else u for i, u in enumerate(units)
    )


class TestLearn:
    def test_first_merge_on_abab(self):
        corpus = [("abab",)] * 5
        # brute-force pair counting over word types weighted by frequency
        pairs = Counter()
        syms = tuple("abab") + (END_MARKER,)
        for a, b in zip(syms, syms[1:]):
            pairs[(a, b)] += 5
        assert pairs[("a", "b")] == 10
        assert pairs[("b", "a")] == 5
        model = learn_bpe(corpus, merge_count=1)
        assert model.merges == (("a", "b"),)

    def test_zero_merges(self):
        model = learn_bpe([("ab",)], merge_count=0)
        assert model.merges == ()
        assert apply_bpe(model, ["ab"]) == ("a" + CONTINUATION, "b")

    def test_base_symbols_cover_corpus(self):
        model = learn_bpe([("abc", "cd")], merge_count=0)
        assert model.base_symbols >= {"a", "b", "c", "d", END_MARKER}

    def test_early_stop_when_no_pair_repeats(self):
        # every adjacent pair occurs exactly once
        model = learn_bpe([("abc",)], merge_count=5)
        assert model.merges == ()

    def test_lexicographic_tie_break(self):
        # words "ba" and "ab", each x3: all four pairs tie at count 3;
        # ("a","</w>") is the lexicographic minimum ("<" sorts before "b")
        model = learn_bpe([("ba", "ab")] * 3, merge_count=1)
        assert model.merges[0] == ("a", END_MARKER)
        # with the end-of-word pairs out of contention, (a,b) beats (b,a)
        model = learn_bpe([("abx", "bay")] * 3, merge_count=1)
        assert model.merges[0] == ("a", "b")

    def test_merge_count_respected(self):
        corpus = [("abab", "abab", "baba")] * 4
        model = learn_bpe(corpus, merge_count=3)
        assert len(model.merges) <= 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            learn_bpe([], merge_count=1)

    def test_vocabulary_size_law(self):
        corpus = [("abab", "cdcd", "abcd")] * 3
        model = learn_bpe(corpus, merge_count=6)
        assert len(model.vocabulary()) == len(model.base_symbols) + len(model.merges)

    @given(CORPUS, st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_prefix_monotonicity(self, corpus, j, k):
        # learning j merges equals learning k >= j merges truncated to j
        j, k = min(j, k), max(j, k)
        big = learn_bpe(corpus, merge_count=k)
        small = learn_bpe(corpus, merge_count=j)
        assert big.merges[:j] == small.merges

    @given(CORPUS, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_no_merge_references_later_symbol(self, corpus, k):
        model = learn_bpe(corpus, merge_count=k)
        available = set(model.base_symbols)
        for left, right in model.merges:
            assert left in available and right in available
            available.add(left + right)


class TestApply:
    def test_single_merge_example(self):
        model = BpeModel(
            merges=(("a", "b"),),
            base_symbols=frozenset({"a", "b", "c", END_MARKER}),
        )
        assert apply_bpe(model, ["abc"]) == ("ab" + CONTINUATION, "c")

    def test_unknown_characters_stay_single_units(self):
        model = learn_bpe([("abab",)] * 3, merge_count=2)
        counts = Counter()
        out = apply_bpe(model, ["axb"], unknown_counts=counts)
        assert counts == Counter({"x": 1})
        assert revert_bpe(out) == ("axb",)

    def test_no_unknowns_within_base(self):
        model = learn_bpe([("abab", "ba")] * 2, merge_count=1)
        counts = Counter()
        apply_bpe(model, ["ba", "ab", "aabb"], unknown_counts=counts)
        assert counts == Counter()

    def test_token_cache_lasts_across_calls(self):
        model = learn_bpe([("abab",)] * 3, merge_count=2)
        counts = Counter()
        first = apply_bpe(model, ["axb"], unknown_counts=counts)
        again = apply_bpe(model, ["axb", "axb"], unknown_counts=counts)
        assert again == first + first
        assert counts == Counter({"x": 3})
        assert model._segments is model._segments
        assert "axb" in model._segments

    def test_double_application_guard(self):
        model = learn_bpe([("abab",)] * 3, merge_count=1)
        once = apply_bpe(model, ["abab"])
        with pytest.raises(SubwordError):
            apply_bpe(model, once)

    @given(CORPUS, st.integers(0, 10), SENT)
    @settings(max_examples=80, deadline=None)
    def test_matches_in_order_reference(self, corpus, k, sent):
        model = learn_bpe(corpus, merge_count=k)
        got = apply_bpe(model, sent)
        expect = []
        for token in sent:
            expect.extend(_mark(bpe_apply_reference(model.merges, token)))
        assert got == tuple(expect)

    @given(CORPUS, st.integers(0, 10), SENT)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, corpus, k, sent):
        model = learn_bpe(corpus, merge_count=k)
        assert revert_bpe(apply_bpe(model, sent)) == sent

    def test_determinism(self):
        corpus = [("abab", "baba", "aabb")] * 5
        m1 = learn_bpe(corpus, merge_count=4)
        m2 = learn_bpe(corpus, merge_count=4)
        assert m1 == m2
        assert apply_bpe(m1, ["abba"]) == apply_bpe(m2, ["abba"])


class TestRevert:
    def test_plain_token(self):
        assert revert_bpe(["x"]) == ("x",)

    def test_join(self):
        assert revert_bpe(["ab" + CONTINUATION, "c", "d"]) == ("abc", "d")

    def test_trailing_marker_is_error(self):
        with pytest.raises(MalformedSegmentationError):
            revert_bpe(["ab" + CONTINUATION])

    def test_empty(self):
        assert revert_bpe([]) == ()


class TestModelFile:
    def test_round_trip(self, tmp_path):
        full = learn_bpe([("abab", "cdcd")] * 3, merge_count=4)
        # learning stops at 5 merges: no pair then occurs twice
        early = learn_bpe([("abc", "abd")] * 2, merge_count=50)
        assert len(early.merges) == 5
        for model in (full, early):
            path = tmp_path / "bpe.model"
            save_model(model, path)
            assert load_model(path) == model

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("a b\n")
        with pytest.raises(SubwordError):
            load_model(path)

    def test_header_line_format(self, tmp_path):
        model = learn_bpe([("abab",)] * 3, merge_count=1)
        path = tmp_path / "bpe.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == MODEL_HEADER
        assert lines[-1] == "a b"

    def test_file_without_inventory_line(self, tmp_path):
        path = tmp_path / "legacy.model"
        path.write_text(MODEL_HEADER + "\na b\n")
        with pytest.raises(SubwordError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: line 2: missing inventory line '#base: '"

    def test_bad_merge_line(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(MODEL_HEADER + "\n#base: a b c </w>\na b c\n")
        with pytest.raises(SubwordError, match="line 3: bad merge"):
            load_model(path)

    def test_repeated_merge_line(self, tmp_path):
        # a later rank would win: `abc` would segment as a@@ bc, not ab@@ c
        path = tmp_path / "bpe.model"
        path.write_text(MODEL_HEADER + "\n#base: a b c </w>\na b\nb c\na b\n")
        with pytest.raises(SubwordError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: line 5: merge 'a b' given twice"
