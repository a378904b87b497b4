"""Binary model checkpoints: magic, version, embedded config, named tensors.

Layout (all integers little-endian):

    "ESGB" | u32 version | u32 meta_len | meta JSON (utf-8)
    | u32 tensor_count | tensor records...

Tensor record: u32 name_len | name utf-8 | u8 dtype (0 = float32)
| u8 rank | u32 dims... | raw little-endian payload.

Payloads are 32-bit floats; loading a saved float32 ParameterSet
reproduces every tensor bit-exactly.  Magic and version are rejected
before any tensor is read.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import artifact
from .errors import (
    CorruptCheckpoint,
    NotACheckpoint,
    UnsupportedVersion,
)
from .model import ModelConfig, ParameterSet, parameter_shapes

MAGIC = b"ESGB"
FORMAT_VERSION = 1
_DTYPES = {0: np.dtype("<f4")}
_DTYPE_CODE = 0


@dataclass
class CheckpointMeta:
    stage: str
    seed: int
    train_config: dict | None = None


def save_checkpoint(
    params: ParameterSet,
    config: ModelConfig,
    meta: CheckpointMeta,
    path,
) -> None:
    """Write params as float32 tensor records with embedded metadata."""
    doc = {"model_config": asdict(config), **asdict(meta)}
    meta_bytes = json.dumps(doc, sort_keys=True).encode("utf-8")
    names = list(parameter_shapes(config))
    with artifact(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_bytes)))
        fh.write(meta_bytes + struct.pack("<I", len(names)))
        for name in names:
            tensor = np.ascontiguousarray(params[name], dtype="<f4")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)) + name_bytes)
            fh.write(struct.pack(f"<BB{tensor.ndim}I", _DTYPE_CODE, tensor.ndim,
                                 *tensor.shape))
            fh.write(tensor.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """n bytes, refused before reading when fewer are left in the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CorruptCheckpoint(f"truncated: {what} needs {n} bytes, {left} left")
    return fh.read(n)


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig, CheckpointMeta]:
    """Read and validate a checkpoint; shapes are checked against the config."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise NotACheckpoint(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version > FORMAT_VERSION:
            raise UnsupportedVersion(
                f"{path}: format version {version} > supported {FORMAT_VERSION}"
            )
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "meta length"))
        try:
            doc = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
            config = ModelConfig(**doc.pop("model_config"))
            meta = CheckpointMeta(**doc)
        except (AttributeError, ValueError, KeyError, TypeError) as exc:
            raise CorruptCheckpoint(f"{path}: bad metadata: {exc}") from None
        if not (isinstance(meta.stage, str) and type(meta.seed) is int
                and isinstance(meta.train_config, (dict, type(None)))):
            raise CorruptCheckpoint(f"{path}: bad metadata types: {meta}")

        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8", "replace")
            dtype_code, rank = struct.unpack("<BB", _read_exact(fh, 2, "dtype/rank"))
            if dtype_code not in _DTYPES:
                raise CorruptCheckpoint(f"{path}: unknown dtype {dtype_code}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
            dtype = _DTYPES[dtype_code]
            n_bytes = math.prod(dims) * dtype.itemsize  # Python ints never wrap
            payload = _read_exact(fh, n_bytes, f"payload of {name}")
            tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims)
        if fh.read(1):
            raise CorruptCheckpoint(f"{path}: trailing bytes after tensors")

    expected = parameter_shapes(config)
    shapes = {name: t.shape for name, t in tensors.items()}
    if shapes != expected:
        wrong = sorted(set(shapes.items()) ^ set(expected.items()))
        raise CorruptCheckpoint(
            f"{path}: tensors {wrong} do not match the embedded config")
    return ParameterSet({name: tensors[name] for name in expected}), config, meta
