"""Attentional sequence-to-sequence model, training loop, and checkpoints."""

from .checkpoint import CheckpointError, load, save
from .model import (
    DecodeState,
    GradCheckEntry,
    GradCheckReport,
    InputError,
    Seq2SeqModel,
    gradient_check,
    init_model,
)
from .training import (
    Adadelta,
    DivergenceError,
    LogEntry,
    TrainConfig,
    TrainResult,
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
    "gradient_check",
    "init_model",
    "load",
    "read_train_config",
    "save",
    "train",
]
