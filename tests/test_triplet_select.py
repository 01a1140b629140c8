"""Tests for TER-statistics pool filtering and nearest-neighbor selection."""

import gc
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeforge import metrics, triplet_select
from apeforge.corpus import Triplet
from apeforge.triplet_select import (
    STAT_COMPONENTS,
    SelectionConfig,
    knn_select,
    knn_select_indices,
    outlier_filter,
    report_stats,
    stat_matrix,
    stat_vector,
    zscore_params,
)


def _pair(mt, pe):
    return Triplet(src=("s",), mt=tuple(mt), pe=tuple(pe))


def _ident(length, token="w"):
    pe = tuple(f"{token}{i}" for i in range(length))
    return _pair(pe, pe)


def _subbed(length, subs):
    """Identical pair of `length` tokens with `subs` substitutions in mt."""
    pe = tuple(f"w{i}" for i in range(length))
    mt = tuple(f"X{i}" if i < subs else f"w{i}" for i in range(length))
    return _pair(mt, pe)


class TestStatVector:
    def test_identical_pair(self):
        v = stat_vector(_ident(7))
        assert v.tolist() == [7, 7, 0, 0, 0, 0, 0.0]

    def test_single_substitution(self):
        v = stat_vector(_subbed(4, 1))
        assert v.tolist() == [4, 4, 0, 0, 1, 0, 25.0]

    def test_shift_only(self):
        t = _pair("a b c d".split(), "a c b d".split())
        assert stat_vector(t).tolist() == [4, 4, 0, 0, 0, 1, 25.0]

    def test_component_order(self):
        assert STAT_COMPONENTS == (
            "num_words_pe",
            "num_words_mt",
            "insertions",
            "deletions",
            "substitutions",
            "shifts",
            "ter",
        )

    def test_matrix_shape(self):
        m = stat_matrix([_ident(3), _ident(5)])
        assert m.shape == (2, 7)
        assert m[:, 0].tolist() == [3, 5]


class TestOutlierFilter:
    def test_length_margin(self):
        reference = [_ident(n) for n in (5, 10, 20)]
        kept = outlier_filter([_ident(22), _ident(23)], reference, margin=0.10)
        # bound is 20 * 1.1 = 22: length 22 passes, 23 does not
        assert [len(t.pe) for t in kept] == [22]

    def test_reference_member_always_kept(self):
        reference = [_ident(5), _subbed(8, 2)]
        pool = [_subbed(8, 2), _ident(40)]
        kept = outlier_filter(pool, reference)
        assert kept == [pool[0]]

    def test_zero_component_upper_bound(self):
        # reference has no edits at all, so any pool edit is out of range
        reference = [_ident(n) for n in (5, 6, 7)]
        assert outlier_filter([_subbed(6, 1)], reference) == []

    def test_infinite_margin_keeps_all(self):
        reference = [_ident(5)]
        pool = [_ident(100), _subbed(50, 25)]
        assert outlier_filter(pool, reference, margin=math.inf) == pool

    def test_idempotent(self):
        reference = [_ident(n) for n in (4, 8)]
        pool = [_ident(n) for n in (3, 5, 9, 20)]
        once = outlier_filter(pool, reference)
        assert outlier_filter(once, reference) == once

    def test_monotone_in_margin(self):
        reference = [_ident(n) for n in (6, 10)]
        pool = [_ident(n) for n in range(1, 30)]
        small = outlier_filter(pool, reference, margin=0.05)
        large = outlier_filter(pool, reference, margin=0.5)
        assert set(id(t) for t in small) <= set(id(t) for t in large)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            outlier_filter([_ident(3)], [])

    def test_nan_margin_rejected(self):
        # nan fails every bound test, so it would silently drop the pool
        with pytest.raises(ValueError, match="nan"):
            outlier_filter([_ident(3)], [_ident(3)], margin=math.nan)


class TestKnnSelect:
    def test_pool_copy_of_reference(self):
        reference = [_ident(n) for n in (3, 5, 9)]
        pool = [_ident(n) for n in (9, 3, 5)]
        picked = knn_select(pool, reference, SelectionConfig(n=1))
        assert len(picked) == len(reference)
        assert {len(t.pe) for t in picked} == {3, 5, 9}

    def test_exclusion_forces_next_nearest(self):
        reference = [_ident(5), _ident(5)]
        pool = [_ident(5), _ident(6)]
        idx = knn_select_indices(pool, reference, SelectionConfig(n=1))
        assert idx == [0, 1]

    def test_tie_broken_by_pool_index(self):
        reference = [_ident(5)]
        # all three candidates are exactly sqrt(2) away in length space
        pool = [_ident(6, "a"), _ident(6, "b"), _ident(4)]
        idx = knn_select_indices(pool, reference, SelectionConfig(n=2))
        assert idx == [0, 1]

    def test_traversal_cap_exhausts(self):
        reference = [_ident(5)] * 3
        pool = [_ident(5), _ident(6), _ident(7)]
        cfg = SelectionConfig(n=1, traversal_cap=2)
        idx = knn_select_indices(pool, reference, cfg)
        # third reference examines the two nearest (both taken) and gives up
        assert idx == [0, 1]

    def test_ties_at_the_cap_go_to_smaller_pool_index(self):
        # eight candidates tie at the cap; the walk keeps the first by index
        reference = [_ident(5)]
        pool = [_ident(6, f"t{k}") for k in range(8)] + [_ident(5)]
        cfg = SelectionConfig(n=3, traversal_cap=3)
        assert knn_select_indices(pool, reference, cfg) == [8, 0, 1]

    def test_size_bounds_and_uniqueness(self):
        rng = np.random.default_rng(17)
        pool = [_subbed(int(rng.integers(3, 15)), int(rng.integers(0, 3)))
                for _ in range(60)]
        reference = [_subbed(int(rng.integers(3, 15)), int(rng.integers(0, 3)))
                     for _ in range(10)]
        for n in (1, 2, 5):
            idx = knn_select_indices(pool, reference, SelectionConfig(n=n))
            assert len(idx) == len(set(idx))
            assert len(idx) <= n * len(reference)
            assert len(idx) <= len(pool)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        pool = [_subbed(int(rng.integers(3, 12)), int(rng.integers(0, 4)))
                for _ in range(40)]
        reference = pool[:8]
        a = knn_select_indices(pool, reference, SelectionConfig(n=3))
        b = knn_select_indices(pool, reference, SelectionConfig(n=3))
        assert a == b

    def test_normalization_changes_nearest(self):
        # reference ter varies a lot, length not at all: z-scoring shrinks
        # ter differences and blows up length ones, so the pick for
        # reference[1] is y (same length), where raw distances pick x
        # (length 4 away, ter closer)
        reference = [_subbed(10, 0), _subbed(10, 5), _subbed(10, 10)]
        x = _subbed(14, 7)
        y = _subbed(10, 0)
        pool = [x, y]
        picked = knn_select_indices(pool, [reference[1]] + reference, SelectionConfig(n=1))
        assert picked[0] == 1

    def test_zscore_params_floor_constant_components(self):
        stats = stat_matrix([_ident(5), _ident(5)])
        mu, sd = zscore_params(stats)
        assert mu[0] == 5.0
        assert (sd == 1.0).all()

    def test_fidelity_beats_random_subset(self):
        # selected set's mean stats should sit nearer the reference mean
        # than a random subset of the same size, for nearly every seed
        wins = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            reference = [
                _subbed(int(rng.integers(8, 13)), int(rng.integers(0, 3)))
                for _ in range(15)
            ]
            pool = [
                _subbed(int(rng.integers(3, 30)), int(rng.integers(0, 8)))
                for _ in range(300)
            ]
            idx = knn_select_indices(pool, reference, SelectionConfig(n=3))
            ref_mean = stat_matrix(reference).mean(axis=0)
            sel_mean = stat_matrix([pool[i] for i in idx]).mean(axis=0)
            rand = rng.choice(len(pool), size=len(idx), replace=False)
            rand_mean = stat_matrix([pool[i] for i in rand]).mean(axis=0)
            d_sel = np.linalg.norm(sel_mean - ref_mean)
            d_rand = np.linalg.norm(rand_mean - ref_mean)
            wins += d_sel <= d_rand
        assert wins >= 0.95 * trials

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            knn_select_indices([], [_ident(3)])
        with pytest.raises(ValueError):
            knn_select_indices([_ident(3)], [])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig(n=0)
        with pytest.raises(ValueError):
            SelectionConfig(n=5, traversal_cap=3)


class TestReportStats:
    def test_singleton_is_own_vector(self):
        t = _subbed(4, 1)
        report = report_stats([t])
        assert report.count == 1
        assert np.allclose(report.means, stat_vector(t))
        assert report.corpus_ter == pytest.approx(25.0)

    def test_corpus_ter_pools_not_averages(self):
        # 1 edit over 2 tokens plus 0 edits over 3 tokens: pooled 20, mean 25
        t1 = _pair(("a", "x"), ("a", "b"))
        t2 = _ident(3)
        report = report_stats([t1, t2])
        assert report.corpus_ter == pytest.approx(20.0)
        assert report.means[-1] == pytest.approx(25.0)

    def test_lines_format(self):
        report = report_stats([_ident(4)])
        lines = report.lines()
        assert lines[0] == "count 1"
        assert "mean_num_words_pe 4.00" in lines
        assert lines[-1] == "corpus_ter 0.00"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_stats([])


def _row_from_ter(t):
    a = metrics.ter(t.mt, t.pe)
    return [len(t.pe), len(t.mt), a.insertions, a.deletions, a.substitutions,
            a.shifts, a.ter]


_words = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6)
_triplets = st.builds(_pair, _words, _words)


class TestStatMemo:
    """Each triplet's stat row is computed once while the triplet lives."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_triplets, min_size=1, max_size=8), st.data())
    def test_matrix_equals_rows_from_ter(self, triplets, data):
        # repeats of one object and value-equal copies of it, in any order
        extra = data.draw(st.lists(st.sampled_from(triplets), max_size=8))
        copies = [Triplet(src=t.src, mt=t.mt, pe=t.pe) for t in extra]
        mixed = triplets + extra + copies
        expected = np.array([_row_from_ter(t) for t in mixed], dtype=np.float64)
        assert np.array_equal(stat_matrix(mixed), expected)
        assert np.array_equal(stat_matrix(mixed), expected)

    def test_select_chain_scores_each_distinct_triplet_once(self, monkeypatch):
        calls = Counter()
        inner = triplet_select.ter

        def counting(hyp, ref):
            calls[tuple(hyp), tuple(ref)] += 1
            return inner(hyp, ref)

        monkeypatch.setattr(triplet_select, "ter", counting)
        rng = np.random.default_rng(31)

        def draw(count):
            out = []
            for _ in range(count):
                pe = tuple(f"chain{int(k)}" for k in rng.integers(0, 9, rng.integers(3, 9)))
                mt = tuple(w if rng.random() > 0.3 else "chainX" for w in pe)
                out.append(_pair(mt, pe))
            return out

        reference = draw(6)
        pool = draw(40) + [_pair(t.mt, t.pe) for t in reference]
        filtered = outlier_filter(pool, reference)
        selected = knn_select(filtered, reference, SelectionConfig(n=2))
        report_stats(selected)
        distinct = {(t.mt, t.pe) for t in pool + reference}
        assert set(calls) == distinct
        assert set(calls.values()) == {1}

    def test_rows_go_with_their_triplets(self):
        before = len(triplet_select._STATS)
        triplets = [_ident(n, "gone") for n in (2, 3, 4)]
        stat_matrix(triplets + [_ident(2, "gone")])
        assert len(triplet_select._STATS) == before + 3
        del triplets
        gc.collect()
        assert len(triplet_select._STATS) == before

    def test_cached_row_is_read_only(self):
        t = _subbed(5, 2)
        row = stat_vector(t)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = -1.0
        assert stat_vector(t) is row

    def test_mutating_a_matrix_leaves_later_rows_unchanged(self):
        t = _subbed(6, 1)
        first = stat_matrix([t, t])
        first[:] = -1.0
        assert stat_matrix([t]).tolist() == [_row_from_ter(t)]
