"""Dense row-major tensors, three checked reference ops (``matmul``,
``conv_spatial``, ``reduce``) and little-endian f32 weight-blob I/O.

Tensors are immutable after construction, so values can be shared freely
between streams and threads.  Two element types are supported, ``f32`` and
``f64``; the attention layers rely on ``f64`` being available for their
internal accumulators.

``Tensor`` is the type at the package's public edge: weights, inputs and
the outputs of the public call modes.  Layers compute on plain ndarrays and
wrap a result once, where it leaves a public method.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError

DTYPES = {"f32": np.float32, "f64": np.float64}
_NP_TO_NAME = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

Scalar = Union[int, float]


class Tensor:
    """Immutable dense n-dimensional array with dtype ``f32`` or ``f64``.

    ``data`` is the row-major flat element sequence; ``len(data)`` always
    equals the product of ``shape``.  Rank 0 (scalars) is allowed.
    """

    __slots__ = ("array",)

    def __init__(self, data, shape: Sequence[int] | None = None, dtype: str = "f32"):
        if dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        arr = np.asarray(data, dtype=DTYPES[dtype])
        if shape is not None:
            if any(int(e) < 0 for e in shape):
                raise DimensionError(f"negative extent in shape {tuple(shape)}")
            expected = int(np.prod(shape)) if len(shape) else 1
            if arr.size != expected:
                raise DimensionError(
                    f"{arr.size} elements cannot fill shape {tuple(shape)}"
                )
            arr = arr.reshape(tuple(int(e) for e in shape))
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def wrap(arr: np.ndarray) -> "Tensor":
        """Adopt an f32/f64 ndarray as an immutable tensor.  A read-only
        contiguous array is shared; any other array is copied, so a freshly
        computed (writeable) result is copied too and the tensor never
        aliases memory someone can still write.  This is the one hand-off
        from arrays to ``Tensor``: the public call modes and shims
        (``forward*``, ``att_step``, ``graph_conv``, ``sda_full``) and the
        reference ops call it once on their result, and layers never call
        it on each other's."""
        if arr.dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported ndarray dtype {arr.dtype}")
        t = object.__new__(Tensor)
        a = np.ascontiguousarray(arr)
        if a is arr and arr.flags.writeable:
            a = arr.copy()
        a.flags.writeable = False
        object.__setattr__(t, "array", a)
        return t

    @staticmethod
    def zeros(shape: Sequence[int], dtype: str = "f32") -> "Tensor":
        return Tensor.wrap(np.zeros(tuple(shape), dtype=DTYPES[dtype]))

    @staticmethod
    def full(shape: Sequence[int], value: Scalar, dtype: str = "f32") -> "Tensor":
        return Tensor.wrap(np.full(tuple(shape), value, dtype=DTYPES[dtype]))

    # -- basic fields --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def rank(self) -> int:
        return self.array.ndim

    @property
    def dtype(self) -> str:
        return _NP_TO_NAME[self.array.dtype]

    @property
    def data(self) -> np.ndarray:
        """Row-major flat element sequence (read-only view)."""
        return self.array.reshape(-1)

    @property
    def size(self) -> int:
        return self.array.size

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def astype(self, dtype: str) -> "Tensor":
        if dtype == self.dtype:
            return self
        return Tensor.wrap(self.array.astype(DTYPES[dtype]))

    def tolist(self):
        return self.array.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and self.dtype == other.dtype
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.shape, self.dtype, self.array.tobytes()))


def _same_dtype(*ts: Tensor) -> str:
    dts = {t.dtype for t in ts}
    if len(dts) != 1:
        raise DimensionError(f"mixed dtypes {sorted(dts)}")
    return dts.pop()


# -- reference ops ------------------------------------------------------------
# Checked tensor-level ops for callers outside the layers; the layers do the
# same arithmetic on plain ndarrays.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Row-major matrix product of an (m, k) and a (k, n) tensor."""
    if a.rank != 2 or b.rank != 2:
        raise DimensionError(f"matmul needs rank-2 operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner extents differ: {a.shape} x {b.shape}")
    _same_dtype(a, b)
    return Tensor.wrap(a.array @ b.array)


def conv_spatial(x: Tensor, w: Tensor, pad: tuple = (0, 0)) -> Tensor:
    """2-D cross-correlation (no kernel flip) with zero padding and stride 1.

    ``x`` is (C_in, H, W), ``w`` is (C_out, C_in, K_H, K_W); the output is
    (C_out, H + 2*pad_h - K_H + 1, W + 2*pad_w - K_W + 1).
    """
    if x.rank != 3 or w.rank != 4:
        raise DimensionError(f"expected (C,H,W) x (O,C,KH,KW), got {x.shape} x {w.shape}")
    c_in, h, wd = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise DimensionError(f"channel mismatch: input {c_in}, kernel {c_in_w}")
    _same_dtype(x, w)
    ph, pw = int(pad[0]), int(pad[1])
    hp, wp = h + 2 * ph, wd + 2 * pw
    if kh > hp or kw > wp:
        raise DimensionError(
            f"kernel ({kh},{kw}) larger than padded input ({hp},{wp})"
        )
    xa = x.array
    if ph or pw:
        xa = np.pad(xa, ((0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(xa, (kh, kw), axis=(1, 2))
    out = np.einsum("cijab,ocab->oij", windows, w.array, optimize=True)
    return Tensor.wrap(out.astype(x.array.dtype, copy=False))


def reduce(op: str, x: Tensor, axis: int) -> Tensor:
    """Reduce one axis with ``sum``, ``mean`` or ``max``; the axis is removed."""
    if not 0 <= axis < x.rank:
        raise DimensionError(f"axis {axis} out of range for rank {x.rank}")
    fn = {"sum": np.sum, "mean": np.mean, "max": np.max}.get(op)
    if fn is None:
        raise ValueError(f"unknown reduce op {op!r}")
    return Tensor.wrap(fn(x.array, axis=axis).astype(x.array.dtype, copy=False))


# -- weight blob I/O ---------------------------------------------------------
# Blob format: little-endian IEEE-754 f32 flat array. Shapes live in the JSON
# manifest next to it, not in the blob.


def save_blob(path, tensors: Sequence[Tensor]) -> dict:
    """Write tensors as one concatenated little-endian f32 blob.

    Returns the manifest dict mapping entry index to shape and offset
    (offsets count f32 elements, not bytes).
    """
    path = Path(path)
    manifest = {"format": "f32-le", "entries": []}
    offset = 0
    with open(path, "wb") as fh:
        for t in tensors:
            flat = t.array.astype("<f4").reshape(-1)
            fh.write(flat.tobytes())
            manifest["entries"].append({"shape": list(t.shape), "offset": offset})
            offset += flat.size
    return manifest


def load_blob(path, shape: Sequence[int], offset: int = 0, dtype: str = "f32") -> Tensor:
    """Read one tensor from a little-endian f32 blob at an element offset."""
    count = int(np.prod(shape)) if len(shape) else 1
    raw = np.fromfile(path, dtype="<f4", count=count, offset=offset * 4)
    if raw.size != count:
        raise DimensionError(
            f"blob {path} too short: wanted {count} f32 at offset {offset}"
        )
    return Tensor.wrap(raw.astype(DTYPES[dtype]).reshape(tuple(shape)))
