"""Mini-batch training loop with Adadelta and periodic checkpoints."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..corpus import CorpusError, ParseError, config_lines, read_text
from . import checkpoint as ckpt
from .model import Seq2SeqModel, backward_batch, batch_arrays, forward_batch


class DivergenceError(Exception):
    """Loss became non-finite; message names the offending batch."""


# Batches per length-sorted chunk of an epoch (Nematus's maxi-batch default).
MAXI_BATCH = 20
# Adadelta's decay and offset (Zeiler 2012, arXiv:1212.5701), and the gradient-norm clip.
RHO, EPSILON, CLIP_NORM = 0.95, 1e-6, 1.0


# Least value of each training-config key but fine_tune_from; all are
# integers, and max_iterations may also be None. The model sizes come first,
# then TrainConfig's fields: the order their errors are reported in.
_MINIMUMS = {
    "embedding_dim": 1, "hidden_dim": 1, "init_seed": 0,
    "batch_size": 1, "max_sentence_length": 2, "epochs": 1, "shuffle_seed": 0,
    "checkpoint_every": 1, "max_iterations": 1, "log_every": 1,
}


@dataclass
class TrainConfig:
    batch_size: int = 80
    max_sentence_length: int = 50
    epochs: int = 1
    shuffle_seed: int = 1234
    checkpoint_every: int = 10000
    max_iterations: int | None = None
    log_every: int = 50

    def __post_init__(self):
        for name, value in vars(self).items():
            least = _MINIMUMS[name]
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}")


def read_train_config(path: str | Path) -> tuple[dict, TrainConfig]:
    """`key value` lines, each key at most once; '#' comments. Returns the
    model keys, then the training schedule as a TrainConfig. The model keys
    are either {"fine_tune_from": checkpoint path}, whose checkpoint fixes
    the sizes, so embedding_dim, hidden_dim and init_seed are an error
    beside it, or init_model keyword arguments (embedding_dim, hidden_dim,
    seed)."""
    values = {}
    for lineno, line in config_lines(read_text(path)):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"{path}: line {lineno}: expected 'key value'")
        key, value = fields
        if key not in _MINIMUMS and key != "fine_tune_from":
            raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{path}: line {lineno}: key {key!r} given twice")
        try:
            values[key] = value if key == "fine_tune_from" else int(value)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: bad value {value!r} for key {key!r}"
            ) from None
    fixed = [key for key in ("embedding_dim", "hidden_dim", "init_seed") if key in values]
    if "fine_tune_from" in values and fixed:
        raise ParseError(
            f"{path}: {', '.join(fixed)} cannot be set with fine_tune_from; "
            "the checkpoint fixes them"
        )
    for key, least in _MINIMUMS.items():
        if values.get(key, least) < least:
            raise ParseError(f"{path}: {key} must be >= {least}")
    if "fine_tune_from" in values:
        model_kw = {"fine_tune_from": values.pop("fine_tune_from")}
    else:
        model_kw = {
            "embedding_dim": values.pop("embedding_dim", 32),
            "hidden_dim": values.pop("hidden_dim", 32),
            "seed": values.pop("init_seed", 0),
        }
    return model_kw, TrainConfig(**values)


@dataclass(frozen=True)
class LogEntry:
    iteration: int
    train_loss: float


@dataclass
class TrainResult:
    model: Seq2SeqModel
    iterations: int
    skipped_pairs: int
    losses: list[float] = field(default_factory=list)
    log: list[LogEntry] = field(default_factory=list)
    checkpoint_paths: list[Path] = field(default_factory=list)


class Adadelta:
    """Learning-rate-free update with decaying squared-gradient averages."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.acc_grad = {k: np.zeros_like(v) for k, v in params.items()}
        self.acc_delta = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            ag = self.acc_grad[name]
            ad = self.acc_delta[name]
            ag *= RHO
            ag += (1.0 - RHO) * g * g
            delta = -np.sqrt((ad + EPSILON) / (ag + EPSILON)) * g
            ad *= RHO
            ad += (1.0 - RHO) * delta * delta
            params[name] += delta


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total**0.5
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _schedule(pairs, cfg: TrainConfig):
    """(epoch, batch number, batch) in training order, from one generator
    seeded with cfg.shuffle_seed. Every epoch draws a fresh order of `pairs`,
    sorts each maxi-batch of it (MAXI_BATCH batches' worth of pairs) by
    (target length, source length), keeping drawn order among equal lengths,
    cuts it into batches and yields the epoch's batches in a drawn order.
    Batches of similar lengths carry little padding."""
    rng = np.random.default_rng(cfg.shuffle_seed)
    size = cfg.batch_size
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        batches = []
        for start in range(0, len(order), MAXI_BATCH * size):
            maxi = sorted(
                order[start : start + MAXI_BATCH * size],
                key=lambda i: (len(pairs[i][1]), len(pairs[i][0])),
            )
            batches.extend(maxi[j : j + size] for j in range(0, len(maxi), size))
        for number, b in enumerate(rng.permutation(len(batches))):
            yield epoch, number, [pairs[i] for i in batches[b]]


def train(
    model: Seq2SeqModel,
    corpus: list[tuple[list[int], list[int]]],
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
) -> TrainResult:
    """Train `model` in place on id pairs; returns it with its log.

    Pairs longer than cfg.max_sentence_length on either side are skipped and
    counted, every epoch reshuffles the corpus into length-sorted batches
    (see _schedule), and a checkpoint is written every cfg.checkpoint_every
    iterations when out_dir is given.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    kept = [
        (s, t)
        for s, t in corpus
        if len(s) <= cfg.max_sentence_length and len(t) <= cfg.max_sentence_length
    ]
    skipped = len(corpus) - len(kept)
    if not kept:
        raise CorpusError(
            f"training corpus is empty after skipping {skipped} overlong pairs "
            f"(max_sentence_length {cfg.max_sentence_length})"
        )

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    optimizer = Adadelta(model.params)
    result = TrainResult(model=model, iterations=0, skipped_pairs=skipped)
    interval_losses: list[float] = []

    def log_interval():
        result.log.append(LogEntry(result.iterations, float(np.mean(interval_losses))))
        interval_losses.clear()

    schedule = itertools.islice(_schedule(kept, cfg), cfg.max_iterations)
    for iteration, (epoch, number, batch) in enumerate(schedule, 1):
        loss, cache = forward_batch(model, *batch_arrays(batch))
        if not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite loss at iteration {iteration} "
                f"(epoch {epoch + 1}, batch {number + 1})"
            )
        grads = backward_batch(model, cache)
        clip_gradients(grads, CLIP_NORM)
        optimizer.step(model.params, grads)
        result.iterations = iteration
        result.losses.append(loss)
        interval_losses.append(loss)

        if iteration % cfg.log_every == 0:
            log_interval()
        if out_path is not None and iteration % cfg.checkpoint_every == 0:
            path = out_path / f"checkpoint-{iteration:08d}.bin"
            ckpt.save(model, path)
            result.checkpoint_paths.append(path)

    if interval_losses:
        log_interval()
    if out_path is not None:
        final = out_path / "model.bin"
        ckpt.save(model, final)
        result.checkpoint_paths.append(final)
    return result
