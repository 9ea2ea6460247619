"""Versioned binary checkpoints.

Layout (little-endian throughout):

    magic  b"SADN"
    u32    format version (currently 1)
    u32    config JSON length, then that many UTF-8 bytes (sorted keys)
    u64    iteration count
    f64    adam lr, beta1, beta2, eps
    u64    adam step count t
    u32    RNG state JSON length, then that many bytes (0 if absent)
    u32    tensor record count
    per record:
        u16 name length, name UTF-8
        u8  ndim, then ndim x u32 dims
        u8  dtype code (0 = float32, 1 = float64)
        raw data bytes

Tensor records are the model parameters in model order, followed by the
ADAM first/second moments under "adam.m.<name>" / "adam.v.<name>" once the
optimizer has stepped. The fixed ordering makes save -> load -> save
byte-identical. A save writes each tensor from its own buffer, and a load
reads the file front to back, each tensor straight into its own array, so
neither holds the weights twice. Loading checks every moment against the
model: it must name a parameter, have that parameter's shape, and come with
its m/v partner, so a resumed run never restarts one parameter's Adam state
silently.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import ModelConfig, SADNet
from .optim import AdamState

MAGIC = b"SADN"
VERSION = 1
_DTYPES = {0: np.float32, 1: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass
class Checkpoint:
    """A loaded checkpoint; its model config is ``model.config``."""

    model: SADNet
    adam: AdamState
    iteration: int
    rng_state: dict | None


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__array__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _restore(obj):
    if isinstance(obj, dict):
        if "__array__" in obj:
            return np.array(obj["__array__"], dtype=obj["dtype"])
        return {k: _restore(v) for k, v in obj.items()}
    return obj


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
    # the array's own buffer: a tobytes() copy would double the largest tensor
    fh.write(np.ascontiguousarray(arr))


class _Reader:
    """Reads a checkpoint file front to back. Each field is checked against
    the file's size before anything is allocated for it, and each tensor is
    read straight into its own array: the file is never held whole."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.path = path

    def _need(self, n: int, have: int) -> None:
        if have < n:
            raise DataError(
                f"{self.path}: truncated checkpoint at byte offset {self.pos} "
                f"(need {n} more bytes)")

    def take(self, n: int) -> bytes:
        self._need(n, self.size - self.pos)
        out = self.fh.read(n)
        # a file that shrank after its size was taken reads short
        self._need(n, len(out))
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        # Python integers: an int64 product of large dims can wrap to 0
        nbytes = math.prod(shape) * dtype.itemsize
        self._need(nbytes, self.size - self.pos)
        arr = np.empty(shape, dtype)
        # a flat byte view: memoryview.cast refuses a zero-size shape
        self._need(nbytes, self.fh.readinto(arr.reshape(-1).view(np.uint8)))
        self.pos += nbytes
        return arr


def save_checkpoint(path, model: SADNet, adam: AdamState, iteration: int,
                    rng_state: dict | None = None) -> None:
    params = model.params()
    records: list[tuple[str, np.ndarray]] = [(n, p.data) for n, p in params]
    for name, _ in params:
        if name in adam.m:
            records.append((f"adam.m.{name}", adam.m[name]))
            records.append((f"adam.v.{name}", adam.v[name]))
    cfg_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
    rng_blob = (json.dumps(_sanitize(rng_state), sort_keys=True).encode("utf-8")
                if rng_state is not None else b"")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(cfg_blob)))
            fh.write(cfg_blob)
            fh.write(struct.pack("<Q", iteration))
            fh.write(struct.pack("<dddd", adam.lr, adam.beta1, adam.beta2, adam.eps))
            fh.write(struct.pack("<Q", adam.t))
            fh.write(struct.pack("<I", len(rng_blob)))
            fh.write(rng_blob)
            fh.write(struct.pack("<I", len(records)))
            for name, arr in records:
                _write_tensor(fh, name, arr)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            return _load(_Reader(fh, path))
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc


def _load(r: _Reader) -> Checkpoint:
    path = r.path
    if r.take(4) != MAGIC:
        raise DataError(f"{path}: bad magic bytes (not a checkpoint)")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    cfg_blob = r.take(cfg_len)
    (iteration,) = r.unpack("<Q")
    lr, beta1, beta2, eps = r.unpack("<dddd")
    (t,) = r.unpack("<Q")
    (rng_len,) = r.unpack("<I")
    rng_blob = r.take(rng_len)
    try:
        config = ModelConfig.from_dict(json.loads(str(cfg_blob, "utf-8")))
        rng_state = (_restore(json.loads(str(rng_blob, "utf-8")))
                     if rng_len else None)
    # numpy reports an out-of-range integer with OverflowError and a
    # malformed dtype string with SyntaxError
    except (KeyError, TypeError, ValueError, OverflowError, SyntaxError) as exc:
        raise DataError(f"{path}: bad model config or RNG state: {exc!r}") from exc
    (count,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    order: list[str] = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        at = r.pos
        try:
            name = str(r.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: tensor name at byte offset {at} is not "
                            f"UTF-8: {exc}") from exc
        if name in tensors:
            raise DataError(f"{path}: duplicate tensor {name} in checkpoint")
        (ndim,) = r.unpack("<B")
        shape = tuple(r.unpack(f"<{ndim}I")) if ndim else ()
        (code,) = r.unpack("<B")
        if code not in _DTYPES:
            raise DataError(f"{path}: unknown dtype code {code} for tensor {name}")
        tensors[name] = r.array(shape, np.dtype(_DTYPES[code]))
        order.append(name)
    if r.pos != r.size:
        raise DataError(f"{path}: {r.size - r.pos} trailing bytes after "
                        f"the last tensor record at byte offset {r.pos}")

    dtype = tensors[order[0]].dtype if order else np.float32
    for name in order:
        # a mixed-dtype model would run every GEMM by upcasting
        if tensors[name].dtype != dtype:
            raise DataError(f"{path}: tensor {name} is {tensors[name].dtype}, "
                            f"the model is {np.dtype(dtype)}")
    # each residual block and RSAB holds two convs' weights and biases; a
    # config that asks for more blocks than the file holds would build them
    # all before a record is compared
    blocks = config.scales * (config.resblocks_per_scale
                              + config.rsabs_per_scale)
    records = sum(not name.startswith("adam.") for name in order)
    if 4 * blocks > records:
        raise DataError(f"{path}: bad model config: {blocks} blocks need "
                        f"{4 * blocks} parameter records, the checkpoint "
                        f"holds {records}")
    try:
        model = SADNet(config, dtype=dtype)
    except MemoryError as exc:
        # a damaged config (kernel_size 73, say) can ask for terabytes
        raise DataError(f"{path}: model config too large to build: "
                        f"{exc}") from exc
    adam = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=t)
    shapes = {}
    for name, p in model.params():
        shapes[name] = p.data.shape
        if name not in tensors:
            raise DataError(f"{path}: checkpoint missing parameter {name}")
        if tensors[name].shape != p.data.shape:
            raise DataError(
                f"{path}: parameter {name} has shape {tensors[name].shape}, "
                f"model expects {p.data.shape}")
        p.data = tensors[name]
    moments = {"adam.m.": adam.m, "adam.v.": adam.v}
    for name in order:
        prefix = name[:len("adam.m.")]
        if prefix in moments:
            param = name[len(prefix):]
            if param not in shapes:
                raise DataError(f"{path}: Adam moment {name} names no model "
                                f"parameter")
            if tensors[name].shape != shapes[param]:
                raise DataError(
                    f"{path}: Adam moment {name} has shape "
                    f"{tensors[name].shape}, parameter {param} has "
                    f"{shapes[param]}")
            moments[prefix][param] = tensors[name]
        elif name not in shapes:
            raise DataError(f"{path}: unexpected tensor {name} in checkpoint")
    unpaired = sorted(adam.m.keys() ^ adam.v.keys())
    if unpaired:
        param = unpaired[0]
        have, lack = ("m", "v") if param in adam.m else ("v", "m")
        raise DataError(f"{path}: Adam moment adam.{have}.{param} has no "
                        f"adam.{lack}.{param}")
    return Checkpoint(model, adam, iteration, rng_state)


def diff_configs(expected: ModelConfig, found: ModelConfig) -> list[str]:
    """Names of fields that differ, for mismatch error messages."""
    a, b = expected.to_dict(), found.to_dict()
    return [k for k in sorted(a) if a[k] != b[k]]


def require_config_match(expected: ModelConfig, found: ModelConfig, path) -> None:
    diff = diff_configs(expected, found)
    if diff:
        details = ", ".join(
            f"{k}: expected {expected.to_dict()[k]!r}, checkpoint has "
            f"{found.to_dict()[k]!r}" for k in diff)
        raise DataError(f"{path}: model config mismatch ({details})")
