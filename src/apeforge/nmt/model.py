"""Attentional encoder-decoder implemented on dense float64 arrays.

Architecture: embeddings on both sides, single-layer bidirectional GRU
encoder, additive attention, single-layer GRU decoder whose input is the
previous target embedding concatenated with the attention context, and an
output projection over [state; context; previous embedding]. The backward
pass is written by hand and verified coordinate-wise against central finite
differences (see gradient_check).

All math runs in float64 for checkable gradients. Attention and the output
layer contract through (batched) BLAS products, and the backward pass runs
the output layer for all target steps at once.

Every forward product `x @ W.T` by `att_W`, `out_W` or a GRU's `W`, `Uzr`
and `Uh` reads a C-contiguous copy of `W.T` (`_step_weights`), made once
per `forward_batch` and once per `DecodeState.start` and carried by the
`_Encoder` every step receives. The copies are never kept across calls:
training and `gradient_check` change `params` in place. Step temporaries
(bias adds, gate non-linearities, softmaxes) are written in place, and a
step skips its mask arithmetic when every row is live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import Vocab

PAD = Vocab.PAD
BOS = Vocab.BOS
EOS = Vocab.EOS


class InputError(Exception):
    """Token ids outside the model's vocabulary ranges."""


# The three functions below overwrite and return their argument.
def _sigmoid(x):
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def _log_softmax(x):
    x -= x.max(axis=-1, keepdims=True)
    x -= np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return x


def _softmax(x):
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


# gradient_check: finite-difference step and coordinates probed per tensor.
GRAD_CHECK_EPSILON = 1e-4
GRAD_CHECK_COORDS = 11


def param_shapes(
    src_vocab_size: int, tgt_vocab_size: int, embedding_dim: int, hidden_dim: int
) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor of a model of these sizes.

    Each GRU stacks its update (z), reset (r) and candidate gates, in that
    order, in one input matrix `W` (3H, in) and bias `b` (3H,); `Uzr` (2H, H)
    is the z and r recurrent matrix, and `Uh` (H, H) multiplies r*h_prev."""
    e, h = embedding_dim, hidden_dim
    ctx = 2 * h
    shapes: dict[str, tuple[int, ...]] = {
        "src_emb": (src_vocab_size, e),
        "tgt_emb": (tgt_vocab_size, e),
        "att_W": (h, h),
        "att_U": (h, ctx),
        "att_b": (h,),
        "att_v": (h,),
        "init_W": (h, ctx),
        "init_b": (h,),
        "out_W": (tgt_vocab_size, h + ctx + e),
        "out_b": (tgt_vocab_size,),
    }
    for prefix, in_dim in (("enc_f", e), ("enc_b", e), ("dec", e + ctx)):
        shapes[f"{prefix}_W"] = (3 * h, in_dim)
        shapes[f"{prefix}_b"] = (3 * h,)
        shapes[f"{prefix}_Uzr"] = (2 * h, h)
        shapes[f"{prefix}_Uh"] = (h, h)
    return shapes


@dataclass
class Seq2SeqModel:
    src_vocab: Vocab
    tgt_vocab: Vocab
    embedding_dim: int
    hidden_dim: int
    params: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def ctx_dim(self) -> int:
        return 2 * self.hidden_dim

    def param_names(self) -> list[str]:
        return sorted(self.params)


def init_model(
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    embedding_dim: int,
    hidden_dim: int,
    seed: int = 0,
) -> Seq2SeqModel:
    """Fresh model with uniform(-0.08, 0.08) parameters, seeded; tensors are
    drawn in sorted-name order."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(len(src_vocab), len(tgt_vocab), embedding_dim, hidden_dim)
    params = {
        name: rng.uniform(-0.08, 0.08, size=shape) for name, shape in sorted(shapes.items())
    }
    return Seq2SeqModel(
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        embedding_dim=embedding_dim,
        hidden_dim=hidden_dim,
        params=params,
    )


def _check_ids(ids, vocab_size, side):
    arr = np.asarray(ids)
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        raise InputError(f"{side} id out of range [0, {vocab_size})")


def pad_batch(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences; returns (ids (B,T), mask (B,T) float64)."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), width))
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1.0
    return ids, mask


def batch_arrays(pairs) -> tuple[np.ndarray, ...]:
    """The five forward_batch arrays for (source ids, target ids) pairs:
    source ids and mask, then the target shifted both ways (inputs start
    with BOS, outputs end with EOS) and its mask."""
    src_ids, src_mask = pad_batch([s for s, _ in pairs])
    tgt_in, tgt_mask = pad_batch([[BOS, *t] for _, t in pairs])
    tgt_out, _ = pad_batch([[*t, EOS] for _, t in pairs])
    return src_ids, src_mask, tgt_in, tgt_out, tgt_mask


# Weights that forward steps multiply as `x @ W.T`.
_TRANSPOSED = ("att_W", "out_W") + tuple(
    f"{prefix}_{w}" for prefix in ("enc_f", "enc_b", "dec") for w in ("W", "Uzr", "Uh")
)


def _step_weights(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`params` plus, under `<name>.T`, a C-contiguous copy of `W.T` for each
    weight in _TRANSPOSED: at the few rows of a beam step, BLAS multiplies
    by it about twice as fast as by the F-ordered view `W.T`. Build it
    afresh for each pass, as `params` may have changed in place."""
    weights = dict(params)
    for name in _TRANSPOSED:
        weights[name + ".T"] = np.ascontiguousarray(params[name].T)
    return weights


class _GruStep:
    """One masked GRU step with enough saved state to run backward; `zr`
    holds the z and r gates side by side. `p` holds the step weights
    (_step_weights); `m` is the (B,) 0/1 row mask, None when every row is
    live."""

    __slots__ = ("x", "h_prev", "zr", "c", "m", "h")

    def __init__(self, p, prefix, x, h_prev, m):
        hd = h_prev.shape[1]
        self.x = x
        self.h_prev = h_prev
        self.m = m
        a = x @ p[prefix + "_W.T"]  # (B, 3H)
        a += p[prefix + "_b"]
        zr = h_prev @ p[prefix + "_Uzr.T"]
        zr += a[:, : 2 * hd]
        self.zr = _sigmoid(zr)
        z, r = self.zr[:, :hd], self.zr[:, hd:]
        c = (r * h_prev) @ p[prefix + "_Uh.T"]
        c += a[:, 2 * hd :]
        self.c = np.tanh(c, out=c)
        h_new = (1.0 - z) * h_prev
        h_new += z * self.c
        if m is None or m.all():  # the blend would return h_new exactly
            self.h = h_new
        else:
            self.h = m[:, None] * h_new + (1.0 - m[:, None]) * h_prev

    def backward(self, p, prefix, dh, grads):
        """Given dL/dh for this step's output, return (dx, dh_prev)."""
        hd = dh.shape[1]
        z, r = self.zr[:, :hd], self.zr[:, hd:]
        m = 1.0 if self.m is None else self.m[:, None]
        dh_new = dh * m
        dh_prev = dh * (1.0 - m) + dh_new * (1.0 - z)

        dac = dh_new * z * (1.0 - self.c**2)
        grads[prefix + "_Uh"] += dac.T @ (r * self.h_prev)
        drh = dac @ p[prefix + "_Uh"]
        dh_prev += drh * r

        dzr = np.concatenate([dh_new * (self.c - self.h_prev), drh * self.h_prev], axis=1)
        dazr = dzr * self.zr * (1.0 - self.zr)
        da = np.concatenate([dazr, dac], axis=1)  # (B, 3H), gates z, r, h
        grads[prefix + "_W"] += da.T @ self.x
        grads[prefix + "_b"] += da.sum(axis=0)
        grads[prefix + "_Uzr"] += dazr.T @ self.h_prev
        dh_prev += dazr @ p[prefix + "_Uzr"]
        return da @ p[prefix + "_W"], dh_prev


class _Encoder:
    """Bidirectional encoder pass with cached per-step state, plus what every
    decoder step reads from it: the step `weights` (_step_weights), the
    initial decoder state `s0`, the attention keys `u_cached`, which include
    `att_b`, and whether any source position is `padded`."""

    def __init__(self, model, src_ids, src_mask):
        p = self.weights = _step_weights(model.params)
        self.src_ids = src_ids
        self.src_mask = src_mask
        self.x = p["src_emb"][src_ids]  # (B, Ts, E)
        b, ts, _ = self.x.shape

        # (GRU prefix, positions in processing order, steps by position)
        self.directions = []
        for prefix, positions in (("enc_f", range(ts)), ("enc_b", range(ts)[::-1])):
            steps = [None] * ts
            state = np.zeros((b, model.hidden_dim))
            for j in positions:
                steps[j] = _GruStep(p, prefix, self.x[:, j], state, src_mask[:, j])
                state = steps[j].h
            self.directions.append((prefix, positions, steps))

        self.annotations = np.concatenate(
            [np.stack([s.h for s in steps], axis=1) for _, _, steps in self.directions],
            axis=2,
        )  # (B, Ts, 2H)
        self.padded = not src_mask.all()
        self.lengths = src_mask.sum(axis=1)
        self.mean = (
            (self.annotations * src_mask[:, :, None]).sum(axis=1)
            / self.lengths[:, None]
        )
        s0 = self.mean @ p["init_W"].T
        s0 += p["init_b"]
        self.s0 = np.tanh(s0, out=s0)
        self.u_cached = self.annotations @ p["att_U"].T  # (B, Ts, A)
        self.u_cached += p["att_b"]

    def backward(self, model, d_annotations, d_u, ds0, grads):
        """Back-propagate dL/d(annotations), dL/d(u_cached) and dL/d(s0)."""
        p = model.params
        h = model.hidden_dim

        # initial state projection
        dpre0 = ds0 * (1.0 - self.s0**2)
        grads["init_W"] += dpre0.T @ self.mean
        grads["init_b"] += dpre0.sum(axis=0)
        d_mean = dpre0 @ p["init_W"]

        # attention keys used by every decoder step
        grads["att_U"] += d_u.reshape(-1, h).T @ self.annotations.reshape(-1, 2 * h)
        grads["att_b"] += d_u.sum(axis=(0, 1))
        d_annotations += d_u @ p["att_U"]

        dh_all = d_annotations + (
            d_mean[:, None, :] * self.src_mask[:, :, None] / self.lengths[:, None, None]
        )
        dx = np.zeros_like(self.x)
        for k, (prefix, positions, steps) in enumerate(self.directions):
            carry = np.zeros_like(ds0)
            for j in reversed(positions):
                dxj, carry = steps[j].backward(
                    p, prefix, dh_all[:, j, k * h : (k + 1) * h] + carry, grads
                )
                dx[:, j] += dxj

        np.add.at(grads["src_emb"], self.src_ids, dx)


class _AttentionStep:
    """Additive attention over an encoder's annotations, with cached
    tensors for backward."""

    def __init__(self, p, s_prev, encoder):
        self.s_prev = s_prev
        self.annotations = encoder.annotations
        q = s_prev @ p["att_W.T"]  # (B, A)
        g = q[:, None, :] + encoder.u_cached
        self.g = np.tanh(g, out=g)  # (B, Ts, A)
        scores = self.g @ p["att_v"]  # (B, Ts)
        if encoder.padded:
            scores = np.where(encoder.src_mask > 0, scores, -1e30)
        self.alpha = _softmax(scores)
        self.ctx = (self.alpha[:, None, :] @ self.annotations)[:, 0]

    def backward(self, p, dctx, grads):
        """Returns (ds_prev, d_u_cached). The gradient reaching the
        annotations through the context is alpha @ dctx, which backward_batch
        forms for all steps at once."""
        d_alpha = (self.annotations @ dctx[:, :, None])[:, :, 0]
        inner = (d_alpha * self.alpha).sum(axis=1, keepdims=True)
        d_scores = self.alpha * (d_alpha - inner)
        grads["att_v"] += d_scores.ravel() @ self.g.reshape(-1, self.g.shape[2])
        dpre = (1.0 - self.g**2) * p["att_v"]
        dpre *= d_scores[:, :, None]
        dq = dpre.sum(axis=1)
        grads["att_W"] += dq.T @ self.s_prev
        return dq @ p["att_W"], dpre


class _DecoderStep:
    """One target position for B rows: attention from the previous state,
    the `dec` GRU fed [previous target embedding; context], and the output
    log-distribution over [new state; context; previous embedding]. Training
    runs it teacher-forced over a batch; decoding runs it on the rows of a
    beam, all attending over one encoded sentence. It reads the encoder's
    step weights."""

    __slots__ = ("att", "gru", "feat", "logp")

    def __init__(self, encoder, s_prev, prev_ids, mask):
        p = encoder.weights
        self.att = _AttentionStep(p, s_prev, encoder)
        e_prev = p["tgt_emb"][prev_ids]
        x = np.concatenate([e_prev, self.att.ctx], axis=1)
        self.gru = _GruStep(p, "dec", x, s_prev, mask)
        self.feat = np.concatenate([self.gru.h, self.att.ctx, e_prev], axis=1)
        logits = self.feat @ p["out_W.T"]
        logits += p["out_b"]
        self.logp = _log_softmax(logits)


@dataclass
class _ForwardCache:
    encoder: _Encoder
    steps: list[_DecoderStep]
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tgt_mask: np.ndarray
    n_tokens: float

    @property
    def logps(self) -> list[np.ndarray]:
        return [step.logp for step in self.steps]


def forward_batch(
    model: Seq2SeqModel,
    src_ids: np.ndarray,
    src_mask: np.ndarray,
    tgt_in: np.ndarray,
    tgt_out: np.ndarray,
    tgt_mask: np.ndarray,
) -> tuple[float, _ForwardCache]:
    """Mean per-token cross-entropy of the batch plus the backward cache."""
    _check_ids(src_ids, len(model.src_vocab), "source")
    _check_ids(tgt_in, len(model.tgt_vocab), "target")
    _check_ids(tgt_out, len(model.tgt_vocab), "target")

    enc = _Encoder(model, src_ids, src_mask)
    state = enc.s0
    steps: list[_DecoderStep] = []
    loss = 0.0
    n_tokens = tgt_mask.sum()
    b, tt = tgt_in.shape
    rows = np.arange(b)

    for t in range(tt):
        step = _DecoderStep(enc, state, tgt_in[:, t], tgt_mask[:, t])
        state = step.gru.h
        loss -= (step.logp[rows, tgt_out[:, t]] * tgt_mask[:, t]).sum()
        steps.append(step)

    cache = _ForwardCache(enc, steps, tgt_in, tgt_out, tgt_mask, float(n_tokens))
    return float(loss / n_tokens), cache


def backward_batch(model: Seq2SeqModel, cache: _ForwardCache) -> dict[str, np.ndarray]:
    """Gradients of the mean per-token cross-entropy for every parameter.

    The output layer and the context's path to the annotations are computed
    for all T steps at once; the decoder GRU and the attention scores are
    back-propagated step by step."""
    p = model.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    enc = cache.encoder
    b, tt = cache.tgt_in.shape
    e, h = model.embedding_dim, model.hidden_dim
    ctx_dim = model.ctx_dim

    # output layer over (T*B) rows: softmax minus one-hot, masked and scaled
    dlogits = np.stack(cache.logps)  # (T, B, V)
    np.exp(dlogits, out=dlogits)
    dlogits[np.arange(tt)[:, None], np.arange(b), cache.tgt_out.T] -= 1.0
    dlogits *= (cache.tgt_mask.T / cache.n_tokens)[:, :, None]
    dlogits = dlogits.reshape(tt * b, -1)
    feat = np.stack([step.feat for step in cache.steps]).reshape(tt * b, -1)
    grads["out_W"] += dlogits.T @ feat
    grads["out_b"] += dlogits.sum(axis=0)
    dfeat = (dlogits @ p["out_W"]).reshape(tt, b, -1)
    de_prev = dfeat[:, :, h + ctx_dim :]  # (T, B, E), completed in the loop

    dctx = np.empty((b, tt, ctx_dim))
    d_u = np.zeros_like(enc.u_cached)
    ds = np.zeros((b, h))
    for t in reversed(range(tt)):
        step = cache.steps[t]
        dx, ds_prev = step.gru.backward(p, "dec", ds + dfeat[t, :, :h], grads)
        de_prev[t] += dx[:, :e]
        np.add(dfeat[t, :, h : h + ctx_dim], dx[:, e:], out=dctx[:, t])
        ds_att, d_u_t = step.att.backward(p, dctx[:, t], grads)
        d_u += d_u_t
        ds = ds_prev + ds_att

    np.add.at(grads["tgt_emb"], cache.tgt_in.T, de_prev)
    d_annotations = np.stack([step.att.alpha for step in cache.steps], axis=2) @ dctx
    enc.backward(model, d_annotations, d_u, ds, grads)
    return grads


class DecodeState:
    """Incremental decoder state of B hypotheses over one source sentence:
    the encoder memory, computed once, plus the recurrent state `s` of shape
    (B, H)."""

    __slots__ = ("encoder", "s")

    def __init__(self, encoder, s):
        self.encoder = encoder
        self.s = s

    @classmethod
    def start(cls, model: Seq2SeqModel, src: list[int]) -> "DecodeState":
        """The one-row state before any target token."""
        if not src:
            raise InputError("empty source sequence")
        _check_ids(src, len(model.src_vocab), "source")
        enc = _Encoder(model, *pad_batch([list(src)]))
        return cls(enc, enc.s0)

    def step(self, parents, tokens) -> tuple[np.ndarray, "DecodeState"]:
        """Row i continues row `parents[i]` of this state with the token it
        just emitted, `tokens[i]`. Returns the (B, V) next-token log-probs
        and the B-row state. The step multiplies by the weight copies made
        at `start`."""
        step = _DecoderStep(
            self.encoder, self.s[np.asarray(parents)], np.asarray(tokens), mask=None
        )
        return step.logp, DecodeState(self.encoder, step.gru.h)


@dataclass(frozen=True)
class GradCheckEntry:
    tensor: str
    coordinate: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass(frozen=True)
class GradCheckReport:
    entries: tuple[GradCheckEntry, ...]
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def worst(self, k: int = 5) -> list[GradCheckEntry]:
        return sorted(self.entries, key=lambda e: -e.rel_error)[:k]


def gradient_check(
    model: Seq2SeqModel,
    src: list[int],
    tgt: list[int],
    tolerance: float = 1e-3,
    seed: int = 0,
) -> GradCheckReport:
    """Central finite differences against the analytic gradient.

    Every parameter tensor is probed at up to GRAD_CHECK_COORDS coordinates:
    a seeded sample plus the coordinate with the largest analytic gradient
    magnitude. `tolerance` must be positive: a check at `nan` or <= 0 cannot
    pass. `inf` is allowed and reports the errors without failing.
    """
    if not tolerance > 0:  # also catches nan
        raise ValueError("tolerance must be positive")
    rng = np.random.default_rng(seed)
    arrays = batch_arrays([(src, tgt)])
    _, cache = forward_batch(model, *arrays)
    grads = backward_batch(model, cache)
    entries = []
    for name in model.param_names():
        arr = model.params[name]
        g = grads[name]
        flat_candidates = set()
        flat_candidates.add(int(np.argmax(np.abs(g))))
        n_extra = min(GRAD_CHECK_COORDS - 1, arr.size)
        flat_candidates.update(
            int(i) for i in rng.choice(arr.size, size=n_extra, replace=False)
        )
        for flat in sorted(flat_candidates):
            coord = np.unravel_index(flat, arr.shape)
            orig = arr[coord]
            arr[coord] = orig + GRAD_CHECK_EPSILON
            up, _ = forward_batch(model, *arrays)
            arr[coord] = orig - GRAD_CHECK_EPSILON
            down, _ = forward_batch(model, *arrays)
            arr[coord] = orig
            numeric = (up - down) / (2.0 * GRAD_CHECK_EPSILON)
            analytic = float(g[coord])
            denom = max(abs(analytic), abs(numeric), 1e-8)
            entries.append(
                GradCheckEntry(
                    tensor=name,
                    coordinate=tuple(int(c) for c in coord),
                    analytic=analytic,
                    numeric=float(numeric),
                    rel_error=abs(analytic - numeric) / denom,
                )
            )
    max_err = max(e.rel_error for e in entries)
    return GradCheckReport(
        entries=tuple(entries), max_rel_error=max_err, tolerance=tolerance
    )
