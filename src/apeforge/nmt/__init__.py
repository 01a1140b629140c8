"""Attentional sequence-to-sequence model, training loop, and checkpoints."""

from .checkpoint import CheckpointError, load, save
from .model import (
    DecodeState,
    GradCheckEntry,
    GradCheckReport,
    InputError,
    Seq2SeqModel,
    forward,
    gradient_check,
    init_model,
)
from .training import (
    Adadelta,
    DivergenceError,
    LogEntry,
    TrainConfig,
    TrainResult,
    dev_loss,
    read_train_config,
    train,
)

__all__ = [
    "Adadelta",
    "CheckpointError",
    "DecodeState",
    "DivergenceError",
    "GradCheckEntry",
    "GradCheckReport",
    "InputError",
    "LogEntry",
    "Seq2SeqModel",
    "TrainConfig",
    "TrainResult",
    "dev_loss",
    "forward",
    "gradient_check",
    "init_model",
    "load",
    "read_train_config",
    "save",
    "train",
]
