"""Binary model checkpoints.

Layout (all integers little-endian uint32 unless noted):
magic bytes, format version (2), embedding_dim, hidden_dim, two vocab tables
(count, then length-prefixed UTF-8 tokens including the reserved ones),
tensor count, then per tensor in sorted-name order: length-prefixed name,
ndim, dims, raw float64 little-endian data, crc32 of the data bytes.

The tensors are those of `model.param_shapes`: src_emb, tgt_emb, att_W,
att_U, att_b, att_v, init_W, init_b, out_W, out_b, and for each GRU prefix
enc_f, enc_b and dec the fused {prefix}_W (3H, in) and {prefix}_b (3H,) with
gates in z, r, h order, {prefix}_Uzr (2H, H) and {prefix}_Uh (H, H).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..corpus import CorpusError, Vocab
from .model import Seq2SeqModel, param_shapes

MAGIC = b"APEF-NMT"
VERSION = 2


class CheckpointError(CorpusError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _write_str(fh, text: str) -> None:
    data = text.encode("utf-8")
    _write_u32(fh, len(data))
    fh.write(data)


def _write_vocab(fh, vocab: Vocab) -> None:
    _write_u32(fh, len(vocab.tokens))
    for tok in vocab.tokens:
        _write_str(fh, tok)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        start = self.pos
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: string at byte {start} is not valid UTF-8"
            ) from exc


def _read_vocab(r: _Reader) -> Vocab:
    tokens = [r.string() for _ in range(r.u32())]
    if tuple(tokens[: len(Vocab.RESERVED)]) != Vocab.RESERVED:
        raise CheckpointError(f"{r.path}: vocab table missing reserved tokens")
    return Vocab(tokens[len(Vocab.RESERVED) :])


def save(model: Seq2SeqModel, path: str | Path) -> None:
    """Write to a temporary file next to `path`, then rename it over `path`,
    so a failed save leaves any earlier checkpoint intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            _write_u32(fh, VERSION)
            _write_u32(fh, model.embedding_dim)
            _write_u32(fh, model.hidden_dim)
            _write_vocab(fh, model.src_vocab)
            _write_vocab(fh, model.tgt_vocab)
            names = model.param_names()
            _write_u32(fh, len(names))
            for name in names:
                arr = np.ascontiguousarray(model.params[name], dtype="<f8")
                _write_str(fh, name)
                _write_u32(fh, arr.ndim)
                for d in arr.shape:
                    _write_u32(fh, d)
                data = arr.tobytes()
                fh.write(data)
                _write_u32(fh, zlib.crc32(data) & 0xFFFFFFFF)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load(path: str | Path) -> Seq2SeqModel:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    r = _Reader(raw, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    embedding_dim = r.u32()
    hidden_dim = r.u32()
    src_vocab = _read_vocab(r)
    tgt_vocab = _read_vocab(r)
    expected = param_shapes(len(src_vocab), len(tgt_vocab), embedding_dim, hidden_dim)
    params: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.string()
        shape = tuple(r.u32() for _ in range(r.u32()))
        if name not in expected or name in params:
            raise CheckpointError(f"{path}: unexpected tensor {name}")
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, expected {expected[name]}"
            )
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = r.take(count * 8)
        stored_crc = r.u32()
        if zlib.crc32(data) & 0xFFFFFFFF != stored_crc:
            raise CheckpointError(f"{path}: checksum mismatch in tensor {name}")
        params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if r.pos != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after final tensor")
    missing = sorted(expected.keys() - params.keys())
    if missing:
        raise CheckpointError(f"{path}: missing tensor {missing[0]}")

    return Seq2SeqModel(
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        embedding_dim=embedding_dim,
        hidden_dim=hidden_dim,
        params=params,
    )
