"""Sequence-to-sequence model: gradients, training behavior, checkpoints.

The analytic backward pass is verified against central finite differences;
that comparison is the ground truth for everything else in the module.
"""

import math

import numpy as np
import pytest

from apeforge.corpus import CorpusError, Vocab
from apeforge.decoder import NmtScorer, ScorerBinding, decode
from apeforge.nmt import (
    Adadelta,
    CheckpointError,
    DecodeState,
    DivergenceError,
    InputError,
    TrainConfig,
    gradient_check,
    init_model,
    load,
    save,
    train,
)
from apeforge.nmt.model import (
    _Encoder,
    _GruStep,
    _step_weights,
    backward_batch,
    batch_arrays,
    forward_batch,
    pad_batch,
    param_shapes,
)
from apeforge.nmt.training import EPSILON, MAXI_BATCH, RHO, _schedule, clip_gradients

from conftest import copy_task_pairs
from helpers import (
    decode_step_reference,
    exact_accuracy,
    forward_backward_reference,
    gru_step_reference,
    loss_and_grads,
)


def tiny_model(seed=3, e=7, h=5):
    sv = Vocab(["a", "b", "c", "d"])
    tv = Vocab(["x", "y", "z"])
    return init_model(sv, tv, embedding_dim=e, hidden_dim=h, seed=seed), sv, tv


def next_logp(model, src, tgt_prefix):
    """Next-token log-distribution after tgt_prefix, through DecodeState."""
    state = DecodeState.start(model, src)
    for token in [Vocab.BOS, *tgt_prefix]:
        logp, state = state.step([0], [token])
    return logp[0]


def prediction_attention(model, src, tgt_prefix):
    """Attention weights over the source of the step that predicts the token
    after tgt_prefix, read from forward_batch's cache."""
    _, cache = forward_batch(model, *batch_arrays([(src, tgt_prefix)]))
    return cache.steps[len(tgt_prefix)].att.alpha[0]


class TestGradientCheck:
    def test_fresh_model_passes_everywhere(self):
        model, sv, tv = tiny_model()
        src = [sv.id(t) for t in ("a", "b", "c", "a")]
        tgt = [tv.id(t) for t in ("x", "z", "y")]
        report = gradient_check(model, src, tgt, seed=1)
        assert report.passed
        checked = {e.tensor for e in report.entries}
        assert checked == set(model.params)
        for entry in report.entries:
            assert entry.rel_error < 1e-3, entry

    def test_single_token_sequences(self):
        model, sv, tv = tiny_model(seed=9)
        report = gradient_check(model, [sv.id("d")], [tv.id("x")], seed=2)
        assert report.passed

    def test_infinite_tolerance_always_passes(self):
        model, sv, tv = tiny_model()
        report = gradient_check(
            model, [sv.id("a")], [tv.id("y")], tolerance=math.inf
        )
        assert report.passed

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1.0])
    def test_tolerance_that_no_gradient_can_pass_is_rejected(self, tolerance):
        model, sv, tv = tiny_model()
        with pytest.raises(ValueError, match="tolerance must be positive"):
            gradient_check(model, [sv.id("a")], [tv.id("y")], tolerance=tolerance)

    def test_zeroed_output_projection_gives_uniform_loss(self):
        model, sv, tv = tiny_model()
        model.params["out_W"][:] = 0.0
        model.params["out_b"][:] = 0.0
        src = [sv.id("a"), sv.id("b")]
        tgt = [tv.id("x"), tv.id("y")]
        loss, grads = loss_and_grads(model, [(src, tgt)])
        assert loss == pytest.approx(math.log(len(tv)))
        # uniform softmax: d(loss)/d(out_b) = 1/|V| - counts(tgt_out)/N
        n = len(tgt) + 1
        counts = np.zeros(len(tv))
        for tok in tgt + [Vocab.EOS]:
            counts[tok] += 1
        expected = 1.0 / len(tv) - counts / n
        np.testing.assert_allclose(grads["out_b"], expected, atol=1e-12)

    def test_worst_entries_sorted_by_error(self):
        model, sv, tv = tiny_model()
        report = gradient_check(model, [sv.id("a")], [tv.id("x")])
        worst = report.worst(3)
        assert len(worst) == 3
        assert worst[0].rel_error >= worst[1].rel_error >= worst[2].rel_error


class TestFusedGru:
    """The fused GRU step against the per-gate reference kernel."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("prefix, in_dim", [("enc_b", 7), ("dec", 7 + 10)])
    def test_matches_per_gate_reference(self, prefix, in_dim, seed):
        h, rows = 5, 6
        model, _, _ = tiny_model(seed=seed, e=7, h=h)
        p = model.params
        rng = np.random.default_rng(seed)
        for name in ("W", "b", "Uzr", "Uh"):  # unit scale reaches saturated gates
            p[f"{prefix}_{name}"] = rng.normal(size=p[f"{prefix}_{name}"].shape)
        x = rng.normal(size=(rows, in_dim))
        h_prev = rng.normal(size=(rows, h))
        m = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        dh = rng.normal(size=(rows, h))

        gates = {}
        for k, g in enumerate("zrh"):
            gates[f"{prefix}_W{g}"] = p[f"{prefix}_W"][k * h : (k + 1) * h]
            gates[f"{prefix}_b{g}"] = p[f"{prefix}_b"][k * h : (k + 1) * h]
        gates[f"{prefix}_Uz"], gates[f"{prefix}_Ur"] = np.split(p[f"{prefix}_Uzr"], 2)
        gates[f"{prefix}_Uh"] = p[f"{prefix}_Uh"]
        ref_h, ref_dx, ref_dh_prev, ref = gru_step_reference(gates, prefix, x, h_prev, m, dh)

        step = _GruStep(_step_weights(p), prefix, x, h_prev, m)
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        dx, dh_prev = step.backward(p, prefix, dh, grads)

        def close(actual, expected):
            np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=0)

        close(step.h, ref_h)
        np.testing.assert_array_equal(step.h[m == 0], h_prev[m == 0])
        close(dx, ref_dx)
        close(dh_prev, ref_dh_prev)
        for fused, per_gate in (
            ("W", ("Wz", "Wr", "Wh")),
            ("b", ("bz", "br", "bh")),
            ("Uzr", ("Uz", "Ur")),
            ("Uh", ("Uh",)),
        ):
            stacked = np.concatenate([ref[f"{prefix}_{g}"] for g in per_gate])
            close(grads[f"{prefix}_{fused}"], stacked)


class TestKernelMatchesReference:
    """forward_batch and backward_batch against the step-by-step reference
    in helpers, on padded batches whose source and target lengths differ
    row by row and from each other."""

    @pytest.mark.parametrize("rows, seed", [(1, 0), (3, 1), (7, 2)])
    def test_loss_logps_and_gradients(self, rows, seed):
        rng = np.random.default_rng(seed)
        sv = Vocab([f"s{i}" for i in range(9)])
        tv = Vocab([f"t{i}" for i in range(7)])
        model = init_model(sv, tv, embedding_dim=6, hidden_dim=8, seed=seed)
        pairs = [
            (
                rng.integers(Vocab.UNK, len(sv), size=rng.integers(1, 9)).tolist(),
                rng.integers(Vocab.UNK, len(tv), size=rng.integers(1, 7)).tolist(),
            )
            for _ in range(rows)
        ]
        loss, cache = forward_batch(model, *batch_arrays(pairs))
        grads = backward_batch(model, cache)
        ref_loss, ref_logps, ref_grads = forward_backward_reference(model, pairs)

        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert len(cache.logps) == len(ref_logps)
        for got, ref in zip(cache.logps, ref_logps):
            np.testing.assert_allclose(got, ref, rtol=1e-10)
        assert set(grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            scale = np.abs(ref).max()
            assert scale > 0, name
            assert np.abs(grads[name] - ref).max() <= 1e-10 * scale, name


class TestDecodeStepMatchesReference:
    """DecodeState.step against the step read straight from the parameters,
    over two rounds: from the one-row start state, then with parents drawn
    from the rows of the first round. A padded source has no public start,
    so its state is built on the encoder directly."""

    @pytest.mark.parametrize("pad", [0, 3])
    @pytest.mark.parametrize("rows", [1, 5, 12])
    def test_logps_and_states(self, rows, pad):
        rng = np.random.default_rng(rows + pad)
        sv = Vocab([f"s{i}" for i in range(9)])
        tv = Vocab([f"t{i}" for i in range(11)])
        model = init_model(sv, tv, embedding_dim=6, hidden_dim=8, seed=rows)
        for arr in model.params.values():  # beyond init's +-0.08, gates saturate
            arr *= 8.0
        src = rng.integers(Vocab.UNK, len(sv), size=5).tolist()
        src_ids, src_mask = pad_batch([src])
        if pad:
            src_ids = np.pad(src_ids, ((0, 0), (0, pad)), constant_values=Vocab.PAD)
            src_mask = np.pad(src_mask, ((0, 0), (0, pad)))
            enc = _Encoder(model, src_ids, src_mask)
            state = DecodeState(enc, enc.s0)
        else:
            state = DecodeState.start(model, src)
        ref_s = state.s
        parents = np.zeros(rows, dtype=np.int64)
        for _ in range(2):
            tokens = rng.integers(0, len(tv), size=rows)
            logp, state = state.step(parents, tokens)
            ref_logp, ref_s = decode_step_reference(
                model, src_ids, src_mask, ref_s[parents], tokens
            )
            np.testing.assert_allclose(logp, ref_logp, rtol=1e-12, atol=0)
            np.testing.assert_allclose(state.s, ref_s, rtol=1e-12, atol=0)
            parents = rng.integers(0, rows, size=rows)

    @pytest.mark.parametrize(
        "name",
        ["att_W", "out_W"]
        + [f"{g}_{w}" for g in ("enc_f", "enc_b", "dec") for w in ("W", "Uzr", "Uh")],
    )
    def test_weights_changed_in_place_reach_the_next_call(self, name):
        # gradient_check and Adadelta write into params; a copy of a
        # transposed weight kept from an earlier call would hide the change
        model, sv, tv = tiny_model(seed=9)
        src, tgt = [sv.id("a"), sv.id("c")], [tv.id("y"), tv.id("x")]
        arrays = batch_arrays([(src, tgt)])
        loss, _ = forward_batch(model, *arrays)
        logp = next_logp(model, src, [])
        model.params[name][0, 0] += 0.5
        assert forward_batch(model, *arrays)[0] != loss
        assert not np.array_equal(next_logp(model, src, []), logp)


class TestBatching:
    def test_batched_loss_is_token_weighted_mean(self):
        model, sv, tv = tiny_model(seed=5)
        a = ([sv.id("a"), sv.id("b")], [tv.id("x")])
        b = ([sv.id("c")], [tv.id("y"), tv.id("z"), tv.id("x")])
        la, ga = loss_and_grads(model, [a])
        lb, gb = loss_and_grads(model, [b])
        lab, gab = loss_and_grads(model, [a, b])
        na, nb = len(a[1]) + 1, len(b[1]) + 1
        assert lab == pytest.approx((la * na + lb * nb) / (na + nb), rel=1e-12)
        for name in gab:
            np.testing.assert_allclose(
                gab[name],
                (ga[name] * na + gb[name] * nb) / (na + nb),
                rtol=1e-9,
                atol=1e-13,
            )

    def test_padding_is_inert(self):
        # a short pair alone vs. the same pair padded next to a longer one
        model, sv, tv = tiny_model(seed=8)
        short = ([sv.id("a")], [tv.id("x")])
        long = ([sv.id("b")] * 4, [tv.id("y")] * 4)
        _, cache = forward_batch(model, *batch_arrays([short, long]))
        _, solo_cache = forward_batch(model, *batch_arrays([short]))
        # per-token logps of the short pair must match its solo run
        np.testing.assert_allclose(
            cache.logps[0][0], solo_cache.logps[0][0], atol=1e-12
        )

    def test_pad_batch_shapes(self):
        ids, mask = pad_batch([[5, 6], [7]])
        assert ids.tolist() == [[5, 6], [7, Vocab.PAD]]
        assert mask.tolist() == [[1.0, 1.0], [1.0, 0.0]]

    def test_target_batch_shifts(self):
        src_ids, src_mask, tgt_in, tgt_out, mask = batch_arrays([([5], [7, 8])])
        assert src_ids.tolist() == [[5]]
        assert src_mask.tolist() == [[1.0]]
        assert tgt_in.tolist() == [[Vocab.BOS, 7, 8]]
        assert tgt_out.tolist() == [[7, 8, Vocab.EOS]]
        assert mask.tolist() == [[1.0, 1.0, 1.0]]


class TestForward:
    def test_distribution_normalized(self):
        model, sv, tv = tiny_model()
        src, prefix = [sv.id("a"), sv.id("b")], [tv.id("x")]
        logp = next_logp(model, src, prefix)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-6)
        assert logp.shape == (len(tv),)
        assert prediction_attention(model, src, prefix).sum() == pytest.approx(1.0, abs=1e-6)

    def test_attention_normalized(self):
        model, sv, tv = tiny_model()
        alpha = prediction_attention(model, [sv.id(t) for t in "abcd"], [])
        assert alpha.shape == (4,)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-6)
        assert (alpha >= 0).all()

    def test_id_out_of_range(self):
        model, sv, tv = tiny_model()
        with pytest.raises(InputError):
            DecodeState.start(model, [len(sv)])
        with pytest.raises(InputError):
            DecodeState.start(model, [-1])
        with pytest.raises(InputError):
            forward_batch(model, *batch_arrays([([sv.id("a")], [len(tv)])]))

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_decode_rejects_source_id_out_of_range(self, bad):
        # -1 would index the last embedding row and decode silently
        model, sv, _ = tiny_model()
        binding = ScorerBinding("nmt", NmtScorer(model), (bad, sv.id("a")), 1.0)
        with pytest.raises(InputError, match="source id out of range"):
            decode([binding], beam=2)

    def test_empty_source_rejected(self):
        model, _, _ = tiny_model()
        with pytest.raises(InputError):
            DecodeState.start(model, [])

    def test_incremental_matches_batched(self):
        # teacher-forced batch logps must equal the step-by-step decode path
        model, sv, tv = tiny_model(seed=13)
        src = [sv.id(t) for t in ("a", "c", "b")]
        tgt = [tv.id(t) for t in ("y", "x", "z")]
        _, cache = forward_batch(model, *batch_arrays([(src, tgt)]))
        state = DecodeState.start(model, src)
        prev = Vocab.BOS
        for t, tok in enumerate(tgt + [Vocab.EOS]):
            logp, state = state.step([0], [prev])
            np.testing.assert_array_equal(logp[0], cache.logps[t][0])
            prev = tok

    def test_permuting_source_changes_distribution(self, copy_task):
        vocab, pairs, result, _ = copy_task
        model = result.model
        src = next(s for s, _ in pairs if len(set(s)) >= 3)
        permuted = [src[1], src[0]] + list(src[2:])
        assert permuted != src
        p = np.exp(next_logp(model, src, []))
        q = np.exp(next_logp(model, permuted, []))
        assert 0.5 * np.abs(p - q).sum() > 1e-3


class TestTraining:
    def test_copy_task_converges(self, copy_task):
        vocab, pairs, result, _ = copy_task
        assert result.iterations <= 2000
        assert exact_accuracy(result.model, pairs) >= 0.99

    def test_loss_smoothed_monotone(self, copy_task):
        _, _, result, _ = copy_task
        losses = result.losses
        windows = [
            float(np.mean(losses[i : i + 50])) for i in range(0, len(losses) - 49, 50)
        ]
        for before, after in zip(windows, windows[1:]):
            assert after <= before + 1e-6

    def test_empty_corpus_rejected(self):
        model, _, _ = tiny_model()
        with pytest.raises(ValueError):
            train(model, [], TrainConfig())

    def test_overlong_pairs_skipped_and_counted(self):
        model, sv, tv = tiny_model()
        short = ([sv.id("a")], [tv.id("x")])
        long = ([sv.id("b")] * 9, [tv.id("y")])
        cfg = TrainConfig(
            batch_size=2, max_sentence_length=4, epochs=1, max_iterations=2
        )
        result = train(model, [short, long, short], cfg)
        assert result.skipped_pairs == 1

    def test_all_pairs_skipped_is_an_error(self):
        model, sv, tv = tiny_model()
        long = ([sv.id("b")] * 9, [tv.id("y")] * 9)
        with pytest.raises(CorpusError, match="overlong"):
            train(model, [long], TrainConfig(max_sentence_length=4))

    def test_divergence_abort_names_batch(self):
        model, sv, tv = tiny_model()
        model.params["out_b"][:] = np.nan
        pairs = [([sv.id("a")], [tv.id("x")])]
        with pytest.raises(DivergenceError, match=r"iteration 1 \(epoch 1, batch 1\)"):
            train(model, pairs, TrainConfig(batch_size=1, epochs=1))

    def test_max_iterations_caps_run(self):
        model, sv, tv = tiny_model()
        pairs = [([sv.id("a")], [tv.id("x")])] * 8
        cfg = TrainConfig(batch_size=2, epochs=10, max_iterations=5)
        result = train(model, pairs, cfg)
        assert result.iterations == 5
        assert len(result.losses) == 5

    def test_identical_seeds_identical_checkpoints(self, tmp_path):
        vocab, pairs = copy_task_pairs(n_pairs=8, seed=3)
        outs = []
        for run in ("one", "two"):
            model = init_model(vocab, vocab, embedding_dim=8, hidden_dim=6, seed=2)
            cfg = TrainConfig(
                batch_size=4, epochs=3, shuffle_seed=17, checkpoint_every=10**9
            )
            out = tmp_path / run
            train(model, pairs, cfg, out_dir=out)
            outs.append((out / "model.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_checkpoint_matches_state_at_its_iteration(self, tmp_path):
        vocab, pairs = copy_task_pairs(n_pairs=8, seed=3)
        cfg_full = TrainConfig(
            batch_size=4, epochs=10, shuffle_seed=17, checkpoint_every=4,
            max_iterations=8,
        )
        model_a = init_model(vocab, vocab, embedding_dim=8, hidden_dim=6, seed=2)
        result = train(model_a, pairs, cfg_full, out_dir=tmp_path / "series")
        names = [p.name for p in result.checkpoint_paths]
        assert names == ["checkpoint-00000004.bin", "checkpoint-00000008.bin", "model.bin"]

        cfg_half = TrainConfig(
            batch_size=4, epochs=10, shuffle_seed=17, checkpoint_every=4,
            max_iterations=4,
        )
        model_b = init_model(vocab, vocab, embedding_dim=8, hidden_dim=6, seed=2)
        half = train(model_b, pairs, cfg_half)
        loaded = load(tmp_path / "series" / "checkpoint-00000004.bin")
        for name in loaded.params:
            np.testing.assert_array_equal(loaded.params[name], half.model.params[name])

    def test_log_cadence(self):
        vocab, pairs = copy_task_pairs(n_pairs=6, seed=4)
        model = init_model(vocab, vocab, embedding_dim=8, hidden_dim=6, seed=2)
        cfg = TrainConfig(batch_size=2, epochs=4, log_every=3, checkpoint_every=10**9)
        result = train(model, pairs, cfg)
        assert [e.iteration for e in result.log] == [3, 6, 9, 12]
        assert all(np.isfinite(e.train_loss) for e in result.log)

    def test_fine_tuning_reduces_shifted_task_loss(self, tmp_path):
        vocab, pairs = copy_task_pairs(n_pairs=12, seed=6)
        model = init_model(vocab, vocab, embedding_dim=16, hidden_dim=12, seed=21)
        base_cfg = TrainConfig(
            batch_size=4, epochs=40, shuffle_seed=9, checkpoint_every=10**9,
            max_iterations=120,
        )
        train(model, pairs, base_cfg, out_dir=tmp_path)
        ckpt_path = tmp_path / "model.bin"

        # shifted task: target is the reversed source
        shifted = [(s, list(reversed(s))) for s, _ in pairs]
        before = loss_and_grads(load(ckpt_path), shifted)[0]
        tune_cfg = TrainConfig(
            batch_size=4, epochs=100, shuffle_seed=9, checkpoint_every=10**9,
            max_iterations=200,
        )
        result = train(load(ckpt_path), shifted, tune_cfg)
        after = loss_and_grads(result.model, shifted)[0]
        assert after < before

    def test_greedy_decode_emits_token_ids(self, copy_task):
        vocab, pairs, result, _ = copy_task
        src = pairs[0][0]
        binding = ScorerBinding("nmt", NmtScorer(result.model), tuple(src), 1.0)
        out = decode([binding], beam=1).entries[0].tokens
        assert all(0 <= t < len(vocab) for t in vocab.ids(out))
        assert len(out) <= 3 * len(src)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(max_sentence_length=1)


def _length_pairs(src_lens, tgt_lens):
    """Distinct id pairs with the given lengths; each pair's first source id
    is its index."""
    return [
        ([i] + [5] * (ls - 1), [6] * lt)
        for i, (ls, lt) in enumerate(zip(src_lens, tgt_lens))
    ]


def _batches_by_epoch(pairs, cfg):
    """Per epoch, its batches as lists of the pairs' first source ids."""
    epochs = [[] for _ in range(cfg.epochs)]
    for epoch, number, batch in _schedule(pairs, cfg):
        assert number == len(epochs[epoch])
        epochs[epoch].append([s[0] for s, _ in batch])
    return epochs


class TestSchedule:
    def _corpus(self, n=103, seed=0):
        rng = np.random.default_rng(seed)
        return _length_pairs(rng.integers(1, 12, n), rng.integers(1, 12, n))

    def test_every_pair_once_per_epoch(self):
        # 103 pairs at batch 4: one full maxi-batch, a partial one, a short batch
        pairs = self._corpus()
        cfg = TrainConfig(batch_size=4, epochs=3)
        assert MAXI_BATCH * cfg.batch_size < len(pairs)
        for batches in _batches_by_epoch(pairs, cfg):
            assert sorted(i for b in batches for i in b) == list(range(len(pairs)))
            assert sorted(map(len, batches)) == [3] + [4] * 25

    def test_batches_are_length_sorted_within_a_maxi_batch(self):
        pairs = self._corpus(n=MAXI_BATCH * 4)
        for batches in _batches_by_epoch(pairs, TrainConfig(batch_size=4, epochs=2)):
            spans = sorted(
                (min(len(pairs[i][1]) for i in b), max(len(pairs[i][1]) for i in b))
                for b in batches
            )
            # sorted batches cover disjoint target-length ranges, in order
            assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))

    def test_same_seed_same_batches_and_epochs_differ(self):
        pairs = self._corpus()
        cfg = TrainConfig(batch_size=4, epochs=2, shuffle_seed=7)
        first, second = _batches_by_epoch(pairs, cfg)
        assert _batches_by_epoch(pairs, cfg) == [first, second]
        assert first != second
        other = _batches_by_epoch(pairs, TrainConfig(batch_size=4, epochs=2, shuffle_seed=8))
        assert other != [first, second]

    def test_equal_lengths_batch_differently_every_epoch(self):
        # ties keep their place in the epoch's drawn order, not corpus order
        pairs = _length_pairs([3] * 40, [4] * 40)
        epochs = _batches_by_epoch(pairs, TrainConfig(batch_size=5, epochs=3))
        contents = [sorted(map(tuple, map(sorted, batches))) for batches in epochs]
        assert contents[0] != contents[1] and contents[1] != contents[2]

    def test_oversampled_copies_spread_over_batches(self):
        # `corpus mix` writes a corpus k times back to back; a tie-break that
        # grouped equal pairs would put all k copies of each in one batch
        k, distinct = 4, 60
        base = _length_pairs([5] * distinct, [3, 4, 5] * (distinct // 3))
        cfg = TrainConfig(batch_size=8, epochs=3)
        together = 0
        for batches in _batches_by_epoch(base * k, cfg):
            for i in range(distinct):
                together += max(b.count(i) for b in batches) == k
        assert together / (distinct * cfg.epochs) < 0.05

    def test_max_iterations_cuts_the_schedule(self, tmp_path):
        # 3 batches per epoch, so the cut falls inside the second epoch
        vocab, pairs = copy_task_pairs(n_pairs=12, seed=3)
        model_a = init_model(vocab, vocab, embedding_dim=8, hidden_dim=6, seed=2)
        cut = train(model_a, pairs, TrainConfig(batch_size=4, epochs=3, max_iterations=5))
        assert cut.iterations == 5 and len(cut.losses) == 5
        model_b = init_model(vocab, vocab, embedding_dim=8, hidden_dim=6, seed=2)
        full = train(
            model_b, pairs, TrainConfig(batch_size=4, epochs=3, checkpoint_every=5),
            out_dir=tmp_path,
        )
        assert full.iterations == 9
        assert full.losses[:5] == cut.losses
        at_five = load(tmp_path / "checkpoint-00000005.bin")
        for name in at_five.params:
            np.testing.assert_array_equal(at_five.params[name], cut.model.params[name])

    def test_real_tokens_fill_padded_targets(self):
        # the shape of perfbench's `train` data: 400 pairs of 6-40 units
        # (mean 23), batch 40, 2 epochs; random batches fill 0.58 of it
        rng = np.random.default_rng(1)
        pairs = _length_pairs(rng.integers(6, 41, 400), rng.integers(6, 41, 400))
        real = padded = 0
        for _, _, batch in _schedule(pairs, TrainConfig(batch_size=40, epochs=2)):
            *_, tgt_mask = batch_arrays(batch)
            real += tgt_mask.sum()
            padded += tgt_mask.size
        assert real / padded >= 0.85


class TestOptimizer:
    @staticmethod
    def _grads():
        # global L2 norm sqrt(9 + 16 + 144) = 13
        return {"a": np.array([3.0, 4.0]), "b": np.array([[12.0]])}

    def test_adadelta_step_matches_closed_form(self):
        rho, eps = RHO, EPSILON
        params = {"a": np.array([0.5, -1.0]), "b": np.array([[2.0]])}
        start = {k: v.copy() for k, v in params.items()}
        grads = self._grads()
        opt = Adadelta(params)
        opt.step(params, grads)
        for name, g in grads.items():
            # from zero accumulators: E[g^2] = (1 - rho) g^2, and the step is
            # -sqrt(eps / (E[g^2] + eps)) g, whose square feeds E[dx^2]
            acc_grad = (1 - rho) * g * g
            delta = -np.sqrt(eps / (acc_grad + eps)) * g
            np.testing.assert_allclose(params[name], start[name] + delta, rtol=1e-12)
            np.testing.assert_allclose(opt.acc_grad[name], acc_grad, rtol=1e-12)
            np.testing.assert_allclose(opt.acc_delta[name], (1 - rho) * delta**2, rtol=1e-12)

    def test_clip_scales_to_max_norm_and_returns_the_norm_before(self):
        grads = self._grads()
        assert clip_gradients(grads, 6.5) == pytest.approx(13.0)
        np.testing.assert_allclose(grads["a"], [1.5, 2.0])
        np.testing.assert_allclose(grads["b"], [[6.0]])

    @pytest.mark.parametrize("max_norm", [13.0, 20.0, 0.0])
    def test_clip_leaves_gradients_within_the_norm_or_at_zero(self, max_norm):
        grads = self._grads()
        assert clip_gradients(grads, max_norm) == pytest.approx(13.0)
        for name, g in self._grads().items():
            np.testing.assert_array_equal(grads[name], g)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model, sv, tv = tiny_model(seed=31)
        path = tmp_path / "m.bin"
        save(model, path)
        loaded = load(path)
        assert loaded.src_vocab == sv and loaded.tgt_vocab == tv
        assert loaded.embedding_dim == model.embedding_dim
        assert loaded.hidden_dim == model.hidden_dim
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        src, tgt = [sv.id("a"), sv.id("c")], [tv.id("z")]
        np.testing.assert_array_equal(next_logp(model, src, tgt), next_logp(loaded, src, tgt))
        np.testing.assert_array_equal(
            prediction_attention(model, src, tgt), prediction_attention(loaded, src, tgt)
        )

    def test_save_is_deterministic(self, tmp_path):
        model, _, _ = tiny_model(seed=31)
        save(model, tmp_path / "a.bin")
        save(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_corrupt_magic(self, tmp_path):
        model, _, _ = tiny_model()
        path = tmp_path / "m.bin"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load(path)

    def test_corrupt_tensor_data(self, tmp_path):
        model, _, _ = tiny_model()
        path = tmp_path / "m.bin"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0x01  # inside the last tensor's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum|trailing"):
            load(path)

    def test_truncated_file(self, tmp_path):
        model, _, _ = tiny_model()
        path = tmp_path / "m.bin"
        save(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load(path)

    def test_vocab_token_not_utf8(self, tmp_path):
        model, _, _ = tiny_model()
        path = tmp_path / "m.bin"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"<pad>")] ^= 0x80  # a lone continuation byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="m.bin: .* not valid UTF-8"):
            load(path)

    @pytest.mark.parametrize("version", [1, 99])
    def test_unsupported_version(self, tmp_path, version):
        model, _, _ = tiny_model()
        path = tmp_path / "m.bin"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"unsupported format version {version}$"):
            load(path)

    def test_dimension_mismatch(self, tmp_path):
        model, _, _ = tiny_model()
        path = tmp_path / "m.bin"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[12:16] = (model.embedding_dim + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(tmp_path / "nope.bin")

    def test_wrong_tensor_shape_rejected(self, tmp_path):
        model, _, _ = tiny_model(e=7, h=5)
        model.params["dec_W"] = np.zeros((3 * 5, 7 + 10 + 1))
        save(model, tmp_path / "m.bin")
        with pytest.raises(
            CheckpointError, match=r"tensor dec_W has shape \(15, 18\), expected \(15, 17\)"
        ):
            load(tmp_path / "m.bin")

    def test_missing_tensor_rejected(self, tmp_path):
        model, _, _ = tiny_model()
        del model.params["enc_f_Uzr"]
        save(model, tmp_path / "m.bin")
        with pytest.raises(CheckpointError, match="missing tensor enc_f_Uzr"):
            load(tmp_path / "m.bin")

    def test_unexpected_tensor_rejected(self, tmp_path):
        model, _, _ = tiny_model()
        model.params["extra"] = np.zeros(3)
        save(model, tmp_path / "m.bin")
        with pytest.raises(CheckpointError, match="unexpected tensor extra"):
            load(tmp_path / "m.bin")

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path):
        model, _, _ = tiny_model(seed=31)
        path = tmp_path / "model.bin"
        save(model, path)
        before = path.read_bytes()
        broken, _, _ = tiny_model(seed=31)
        broken.params["out_b"] = "not a tensor"  # fails after earlier tensors are written
        with pytest.raises(ValueError):
            save(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
        loaded = load(path)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])


class TestModelInit:
    def test_parameter_shapes(self):
        model, sv, tv = tiny_model(e=7, h=5)
        p = model.params
        assert p["src_emb"].shape == (len(sv), 7)
        assert p["tgt_emb"].shape == (len(tv), 7)
        assert p["out_W"].shape == (len(tv), 5 + 10 + 7)
        assert p["out_b"].shape == (len(tv),)
        assert p["dec_W"].shape == (3 * 5, 7 + 10)
        assert p["dec_b"].shape == (3 * 5,)
        assert p["enc_f_W"].shape == (3 * 5, 7)
        assert p["enc_f_Uzr"].shape == (2 * 5, 5)
        assert p["enc_b_Uh"].shape == (5, 5)
        assert p["init_W"].shape == (5, 10)
        assert p["att_U"].shape == (5, 10)
        assert len(p) == len(param_shapes(len(sv), len(tv), 7, 5)) == 22

    def test_all_parameters_finite_and_bounded(self):
        model, _, _ = tiny_model(seed=77)
        for name, arr in model.params.items():
            assert np.isfinite(arr).all(), name
            assert np.abs(arr).max() <= 0.08, name

    def test_seeded_init_deterministic(self):
        a, _, _ = tiny_model(seed=4)
        b, _, _ = tiny_model(seed=4)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
