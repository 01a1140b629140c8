"""Tests for TER, edit-distance decomposition, and corpus BLEU."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeforge.corpus import Triplet
from apeforge.metrics import (
    MAX_BLOCK,
    EditCounts,
    TerAlignment,
    bleu,
    corpus_ter,
    edit_distance,
    ter,
)
from apeforge.pipeline import NoiseSpec, synth_corrupt
from apeforge.triplet_select import STAT_COMPONENTS, stat_vector
from helpers import (
    edit_counts_reference,
    exhaustive_shift_edits,
    lev_matrix,
    lev_recursive,
    ter_greedy_reference,
)

TOKENS = st.sampled_from(["a", "b", "c", "d"])
SENT = st.lists(TOKENS, min_size=0, max_size=6)
NONEMPTY = st.lists(TOKENS, min_size=1, max_size=6)


class TestEditDistance:
    def test_identical(self):
        c = edit_distance("a b c".split(), "a b c".split())
        assert c == EditCounts(0, 0, 0, 0)

    def test_missing_ref_token_is_insertion(self):
        c = edit_distance("a b".split(), "a b c".split())
        assert c == EditCounts(1, 1, 0, 0)

    def test_extra_hyp_token_is_deletion(self):
        c = edit_distance("a b c".split(), "a b".split())
        assert c == EditCounts(1, 0, 1, 0)

    def test_substitution(self):
        c = edit_distance("a x c".split(), "a b c".split())
        assert c == EditCounts(1, 0, 0, 1)

    def test_empty_sides(self):
        assert edit_distance([], list("abc")) == EditCounts(3, 3, 0, 0)
        assert edit_distance(list("abc"), []) == EditCounts(3, 0, 3, 0)
        assert edit_distance([], []) == EditCounts(0, 0, 0, 0)

    @given(SENT, SENT)
    def test_cost_matches_reference_dp(self, hyp, ref):
        c = edit_distance(hyp, ref)
        assert c.cost == lev_matrix(hyp, ref) == lev_recursive(hyp, ref)

    @given(SENT, SENT)
    def test_counts_sum_to_cost_and_balance_lengths(self, hyp, ref):
        c = edit_distance(hyp, ref)
        assert c.insertions + c.deletions + c.substitutions == c.cost
        # Insertions add reference tokens, deletions drop hypothesis ones.
        assert len(hyp) + c.insertions - c.deletions == len(ref)

    @given(SENT, SENT)
    def test_cost_symmetry(self, hyp, ref):
        assert edit_distance(hyp, ref).cost == edit_distance(ref, hyp).cost

    @given(SENT, SENT)
    @settings(max_examples=300)
    def test_counts_match_table_traceback(self, hyp, ref):
        # the ins/del/sub split, not just the cost, follows the table DP's
        # diagonal -> insertion -> deletion tie order
        assert edit_distance(hyp, ref) == edit_counts_reference(hyp, ref)


class TestTer:
    def test_identical_is_zero(self):
        a = ter("a b c d".split(), "a b c d".split())
        assert a.ter == 0.0
        assert (a.insertions, a.deletions, a.substitutions, a.shifts) == (0, 0, 0, 0)

    def test_single_substitution(self):
        a = ter("a x c d".split(), "a b c d".split())
        assert a.substitutions == 1 and a.shifts == 0
        assert a.ter == 25.0

    def test_single_shift(self):
        a = ter("a b c d".split(), "a c b d".split())
        assert a.shifts == 1
        assert a.num_edits == 1
        assert a.ter == 25.0

    def test_shift_trace_reconstructs(self):
        hyp = "a b c d".split()
        a = ter(hyp, "a c b d".split())
        work = list(hyp)
        for start, length, dest in a.shift_trace:
            block = work[start : start + length]
            del work[start : start + length]
            work[dest:dest] = block
        assert work == "a c b d".split()

    def test_empty_reference_degenerate(self):
        a = ter("a b".split(), [])
        assert a.degenerate
        assert a.deletions == 2
        assert a.ter == 200.0

    def test_empty_hypothesis(self):
        a = ter([], "a b".split())
        assert a.insertions == 2
        assert a.ter == 100.0

    def test_both_empty(self):
        a = ter([], [])
        assert a.ter == 0.0 and not a.degenerate

    @given(NONEMPTY, NONEMPTY)
    def test_bounds(self, hyp, ref):
        a = ter(hyp, ref)
        assert 0.0 <= a.ter <= 100.0 * max(len(hyp), len(ref)) / len(ref)

    @given(NONEMPTY, NONEMPTY)
    def test_zero_iff_equal(self, hyp, ref):
        assert (ter(hyp, ref).ter == 0.0) == (hyp == ref)

    @given(NONEMPTY, NONEMPTY)
    def test_shifts_never_hurt(self, hyp, ref):
        assert ter(hyp, ref).num_edits <= edit_distance(hyp, ref).cost

    @given(NONEMPTY, NONEMPTY)
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_beats_exhaustive_oracle(self, hyp, ref):
        greedy = ter(hyp, ref).num_edits
        assert greedy >= exhaustive_shift_edits(hyp, ref)

    def test_greedy_matches_oracle_on_most_random_pairs(self):
        rng = np.random.default_rng(7)
        alphabet = ["a", "b", "c", "d"]
        agree = total = 0
        for _ in range(200):
            hyp = [alphabet[i] for i in rng.integers(0, 4, rng.integers(1, 7))]
            ref = [alphabet[i] for i in rng.integers(0, 4, rng.integers(1, 7))]
            g = ter(hyp, ref).num_edits
            o = exhaustive_shift_edits(hyp, ref)
            assert g >= o
            agree += g == o
            total += 1
        assert agree / total >= 0.95

    @given(NONEMPTY, NONEMPTY)
    @settings(max_examples=80, deadline=None)
    def test_every_traced_block_matches_a_reference_span(self, hyp, ref):
        a = ter(hyp, ref)
        work = list(hyp)
        for start, length, dest in a.shift_trace:
            block = work[start : start + length]
            assert any(
                ref[i : i + length] == block for i in range(len(ref) - length + 1)
            )
            del work[start : start + length]
            work[dest:dest] = block
        # the residual counts score the post-shift arrangement
        residual = edit_distance(work, ref)
        assert residual.cost == a.insertions + a.deletions + a.substitutions

    def test_long_block_shift_within_limit(self):
        ref = [f"t{i}" for i in range(12)]
        hyp = ref[6:] + ref[:6]  # one 6-word block moved
        a = ter(hyp, ref)
        assert a.num_edits <= 2  # at most a couple of shifts fixes it

    def test_block_longer_than_limit_not_shifted(self):
        ref = [f"t{i}" for i in range(24)]
        hyp = ref[12:] + ref[:12]
        a = ter(hyp, ref)
        for _start, length, _dest in a.shift_trace:
            assert length <= 10


# Pairs over a 3- or 4-word alphabet: repeats make many blocks movable.
SMALL_ALPHABET_PAIR = st.integers(3, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.sampled_from("abcd"[:k]), max_size=14),
        st.lists(st.sampled_from("abcd"[:k]), max_size=14),
    )
)


class TestTerMatchesGreedyReference:
    """ter tests blocks, scores shifts and traces back with one bit-parallel
    DP; the result, shift trace included, must equal the plain greedy
    search's, which uses span sets and full-table DPs."""

    @given(SMALL_ALPHABET_PAIR)
    @settings(max_examples=300, deadline=None)
    def test_small_alphabet_pairs(self, pair):
        hyp, ref = pair
        assert ter(hyp, ref) == ter_greedy_reference(hyp, ref)

    def test_synth_corrupt_pairs_with_swaps(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(12)]
        spec = NoiseSpec(
            substitution=0.2,
            deletion=0.1,
            insertion=0.1,
            swap=0.2,
            confusion={w: (words[(i + 1) % 12],) for i, w in enumerate(words)},
            fillers=("x", "y"),
        )
        pe = [
            tuple(words[j] for j in rng.integers(0, 12, rng.integers(3, 31)))
            for _ in range(30)
        ]
        pairs = [(t.mt, t.pe) for t in synth_corrupt(pe, spec, seed=5)]
        assert any(a.shifts for a in (ter(h, r) for h, r in pairs))
        for hyp, ref in pairs:
            assert ter(hyp, ref) == ter_greedy_reference(hyp, ref)

    def test_shift_heavy_pairs(self):
        # The reference with 1-4 blocks moved and the odd word substituted,
        # over a 1-6-word alphabet: repeats make many blocks movable, and
        # many candidates tie or reach the column of the unshifted words.
        rng = np.random.default_rng(19)
        shifted = 0
        for _ in range(250):
            words = "abcdef"[: rng.integers(1, 7)]
            ref = [str(w) for w in rng.choice(list(words), rng.integers(1, 12))]
            hyp = list(ref)
            for _ in range(rng.integers(1, 5)):
                start = int(rng.integers(len(hyp)))
                block = hyp[start : start + int(rng.integers(1, 5))]
                del hyp[start : start + len(block)]
                dest = int(rng.integers(len(hyp) + 1))
                hyp[dest:dest] = block
            for i in np.flatnonzero(rng.random(len(hyp)) < 0.1):
                hyp[i] = str(rng.choice(list(words + "x")))
            a = ter(hyp, ref)
            assert a == ter_greedy_reference(hyp, ref)
            shifted += a.shifts > 0
        assert shifted >= 50

    def test_hypotheses_up_to_three_times_the_reference(self):
        # The shape of tune's long tail: a short reference and a hypothesis
        # that repeats or pads it, up to 3x its length.
        rng = np.random.default_rng(23)
        shifted = 0
        for _ in range(40):
            words = "abcdef"[: rng.integers(1, 7)]
            ref = [str(w) for w in rng.choice(list(words), rng.integers(1, 12))]
            pieces = [ref[i : i + 3] for i in range(0, len(ref), 3)]
            size = rng.integers(len(ref), 3 * len(ref) + 1)
            hyp = []
            while len(hyp) < size:
                piece = pieces[rng.integers(len(pieces))]
                hyp += piece if rng.random() < 0.7 else [str(rng.choice(list(words + "y")))]
            hyp = hyp[:size]
            a = ter(hyp, ref)
            assert a == ter_greedy_reference(hyp, ref)
            shifted += a.shifts > 0
        assert shifted >= 10

    def test_empty_hypothesis(self):
        assert ter([], ["a", "b"]) == ter_greedy_reference([], ["a", "b"])

    @pytest.mark.parametrize("m", [1, 63, 64, 65])
    def test_reference_lengths_around_the_word_size(self, m):
        # A short hypothesis keeps the reference search cheap while the
        # bit vectors span the whole reference.
        ref = [f"t{i}" for i in range(m)]
        hyp = ref[-3:] + ["x"] + ref[:4]
        a = ter(hyp, ref)
        assert a == ter_greedy_reference(hyp, ref)
        assert a.shifts == (m > 1)

    def test_block_of_max_block_words(self):
        ref = [f"a{i}" for i in range(MAX_BLOCK)] + [f"b{i}" for i in range(MAX_BLOCK)]
        hyp = ref[MAX_BLOCK:] + ref[:MAX_BLOCK]
        a = ter(hyp, ref)
        assert a == ter_greedy_reference(hyp, ref)
        assert a.shift_trace == ((0, MAX_BLOCK, MAX_BLOCK),)


def test_oracles_use_no_private_package_names():
    """tests/helpers.py checks the package from first principles, so it may
    import only public apeforge names."""
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text(encoding="utf-8"))
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("apeforge"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            modules |= {
                (a.asname or a.name).split(".")[0]
                for a in node.names
                if a.name.startswith("apeforge")
            }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                private.append(node.attr)
    assert private == []


class TestTripletStats:
    @staticmethod
    def _stats(mt, pe):
        """stat_vector of a triplet, by component name, plus num_errors."""
        t = Triplet(src=("s",), mt=tuple(mt), pe=tuple(pe))
        s = dict(zip(STAT_COMPONENTS, stat_vector(t)))
        s["num_errors"] = s["insertions"] + s["deletions"] + s["substitutions"] + s["shifts"]
        return s

    def test_identical_sides(self):
        s = self._stats("a b c d e".split(), "a b c d e".split())
        assert (s["num_words_pe"], s["num_words_mt"]) == (5, 5)
        assert (s["shifts"], s["num_errors"], s["ter"]) == (0, 0, 0.0)

    def test_single_substitution_pair(self):
        s = self._stats("a x c d".split(), "a b c d".split())
        assert s["num_words_pe"] == 4
        assert s["num_words_mt"] == 4
        assert s["shifts"] == 0
        assert s["num_errors"] == 1
        assert s["ter"] == 25.0

    def test_shift_pair(self):
        s = self._stats("a b c d".split(), "a c b d".split())
        assert s["shifts"] == 1
        assert s["ter"] == 25.0

    def test_corpus_ter_pools_edits(self):
        pairs = [
            ("a x".split(), "a b".split()),   # 1 edit / 2
            ("a b c".split(), "a b c".split()),  # 0 / 3
        ]
        assert corpus_ter(pairs) == pytest.approx(100.0 * 1 / 5)


class TestBleu:
    def test_hand_case(self):
        score = bleu(["a b c d e".split()], ["a b c d f".split()])
        expected = 100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert score == pytest.approx(expected, abs=1e-9)
        assert score == pytest.approx(66.87, abs=0.01)

    def test_identity_is_100(self):
        hyps = ["a b c d e".split(), "b c".split()]
        assert bleu(hyps, hyps) == pytest.approx(100.0)

    def test_short_identity_is_100(self):
        # 0/0 higher orders are excluded, not treated as failures
        assert bleu(["a b".split()], ["a b".split()]) == pytest.approx(100.0)

    def test_zero_overlap_is_zero(self):
        assert bleu(["x y z w v".split()], ["a b c d e".split()]) == 0.0

    def test_zero_fourgram_matches_is_zero(self):
        # unigrams overlap but no higher-order n-gram does; totals are nonzero
        assert bleu(["a x b y c".split()], ["a b c d e".split()]) == 0.0
        # one shared 4-gram keeps the score positive
        assert bleu(["a b c d x".split()], ["a b c d e".split()]) > 0.0

    def test_brevity_penalty(self):
        # hyp shorter than ref: BP = exp(1 - ref/hyp)
        score = bleu(["a b c d".split()], ["a b c d e f g h".split()])
        p1, p2, p3, p4 = 4 / 4, 3 / 3, 2 / 2, 1 / 1
        bp = math.exp(1 - 8 / 4)
        assert score == pytest.approx(100.0 * bp * (p1 * p2 * p3 * p4) ** 0.25)

    def test_no_brevity_penalty_when_longer(self):
        hyp = "a b c d e x".split()
        ref = "a b c d e".split()
        score = bleu([hyp], [ref])
        p1, p2, p3, p4 = 5 / 6, 4 / 5, 3 / 4, 2 / 3
        assert score == pytest.approx(100.0 * (p1 * p2 * p3 * p4) ** 0.25)

    def test_clipping(self):
        # "the" appears 7 times in hyp but only twice in ref
        hyp = "the the the the the the the".split()
        ref = "the cat the".split()
        score = bleu([hyp], [ref])
        # unigram precision clipped to 2/7; no bigram "the the" in ref → 0
        assert score == 0.0

    def test_permutation_invariance(self):
        hyps = ["a b c d e".split(), "b c d".split(), "x y z q r".split()]
        refs = ["a b c d f".split(), "b c e".split(), "x y z q s".split()]
        fwd = bleu(hyps, refs)
        rev = bleu(hyps[::-1], refs[::-1])
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a".split()], [])

    @given(st.lists(st.tuples(NONEMPTY, NONEMPTY), min_size=1, max_size=5))
    def test_range(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        assert 0.0 <= bleu(hyps, refs) <= 100.0


class TestTerAlignmentShape:
    def test_num_edits_property(self):
        a = TerAlignment(
            insertions=1, deletions=2, substitutions=3, shifts=4,
            ref_len=10, ter=100.0,
        )
        assert a.num_edits == 10
