"""Binary model checkpoints: magic, version, embedded config, named tensors.

Layout (all integers little-endian):

    "ESGB" | u32 version | u32 meta_len | meta JSON (utf-8)
    | u32 tensor_count | tensor records... | u32 crc32

Tensor record: u32 name_len | name utf-8 | u8 dtype (0 = float32)
| u8 rank | u32 dims... | raw little-endian payload.

The trailing crc32 (zlib) covers every byte before it; version 1 files
have no trailer and still load.  Payloads are 32-bit floats; loading a
saved float32 ParameterSet reproduces every tensor bit-exactly.  Magic
and version are rejected before any tensor is read.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import artifact, from_record, typed
from .errors import (
    CorruptCheckpoint,
    InvalidConfig,
    InvalidInput,
    NotACheckpoint,
    UnsupportedVersion,
)
from .model import ModelConfig, ParameterSet, parameter_shapes

MAGIC = b"ESGB"
FORMAT_VERSION = 2
_DTYPES = {0: np.dtype("<f4")}
_DTYPE_CODE = 0


@dataclass
class CheckpointMeta:
    stage: str
    seed: int
    train_config: dict | None = None


def _body(params: ParameterSet, config: ModelConfig, meta: CheckpointMeta):
    """The bytes before the crc32, in pieces."""
    doc = {"model_config": asdict(config), **asdict(meta)}
    meta_bytes = json.dumps(doc, sort_keys=True).encode("utf-8")
    names = list(parameter_shapes(config))
    yield MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_bytes))
    yield meta_bytes + struct.pack("<I", len(names))
    for name in names:
        tensor = np.ascontiguousarray(params[name], dtype="<f4")
        name_bytes = name.encode("utf-8")
        yield struct.pack("<I", len(name_bytes)) + name_bytes
        yield struct.pack(f"<BB{tensor.ndim}I", _DTYPE_CODE, tensor.ndim, *tensor.shape)
        yield tensor.tobytes()


def save_checkpoint(
    params: ParameterSet,
    config: ModelConfig,
    meta: CheckpointMeta,
    path,
) -> None:
    """Write params as float32 tensor records with embedded metadata."""
    crc = 0
    with artifact(path, "wb") as fh:
        for piece in _body(params, config, meta):
            fh.write(piece)
            crc = zlib.crc32(piece, crc)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig, CheckpointMeta]:
    """Read and validate a checkpoint; shapes are checked against the config.

    The file is read once; a version 2 file's CRC32 is checked before any
    record is parsed, so its corruption reads as a CRC32 mismatch.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    magic = bytes(raw[:len(MAGIC)])
    if magic != MAGIC:
        raise NotACheckpoint(f"{path}: bad magic {magic!r}")
    pos, end = len(MAGIC), len(raw)

    def read(n: int, what: str) -> memoryview:
        """The next n bytes, refused when fewer are left before end."""
        nonlocal pos
        if n > end - pos:
            raise CorruptCheckpoint(f"truncated: {what} needs {n} bytes, {end - pos} left")
        pos += n
        return raw[pos - n:pos]

    (version,) = struct.unpack("<I", read(4, "version"))
    if version > FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path}: format version {version} > supported {FORMAT_VERSION}"
        )
    if version >= 2:  # the trailer, checked against every byte before it
        if end - pos < 4:
            raise CorruptCheckpoint(f"truncated: crc32 needs 4 bytes, {end - pos} left")
        end -= 4
        (crc,) = struct.unpack("<I", raw[end:])
        if zlib.crc32(raw[:end]) != crc:
            raise CorruptCheckpoint(f"{path}: CRC32 mismatch")
    (meta_len,) = struct.unpack("<I", read(4, "meta length"))
    try:
        doc = json.loads(bytes(read(meta_len, "metadata")).decode("utf-8"))
        config = from_record(ModelConfig, typed(doc, "model_config", dict))
        del doc["model_config"]
        meta = from_record(CheckpointMeta, doc)
    except (ValueError, TypeError, InvalidConfig, InvalidInput) as exc:
        raise CorruptCheckpoint(f"{path}: bad metadata: {exc}") from None

    (count,) = struct.unpack("<I", read(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", read(4, "name length"))
        name = bytes(read(name_len, "tensor name")).decode("utf-8", "replace")
        dtype_code, rank = struct.unpack("<BB", read(2, "dtype/rank"))
        if dtype_code not in _DTYPES:
            raise CorruptCheckpoint(f"{path}: unknown dtype {dtype_code}")
        if rank > 2:  # every parameter is a vector or a matrix
            raise CorruptCheckpoint(f"{path}: rank {rank} for {name}")
        dims = struct.unpack(f"<{rank}I", read(4 * rank, "dims"))
        dtype = _DTYPES[dtype_code]
        n_bytes = math.prod(dims) * dtype.itemsize  # Python ints never wrap
        payload = read(n_bytes, f"payload of {name}")
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims)
    if pos != end:
        raise CorruptCheckpoint(f"{path}: trailing bytes after tensors")

    expected = parameter_shapes(config)
    shapes = {name: t.shape for name, t in tensors.items()}
    if shapes != expected:
        wrong = sorted(set(shapes.items()) ^ set(expected.items()))
        raise CorruptCheckpoint(
            f"{path}: tensors {wrong} do not match the embedded config")
    return ParameterSet({name: tensors[name] for name in expected}), config, meta
