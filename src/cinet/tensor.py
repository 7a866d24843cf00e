"""Dense row-major tensors and little-endian f32 weight-blob I/O.

Tensors are immutable after construction, so values can be shared freely
between streams and threads.  Two element types are supported, ``f32`` and
``f64``; the attention layers rely on ``f64`` being available for their
internal accumulators.

``Tensor`` is the type at the package's public edge: weights, inputs and
the outputs of the public call modes.  Layers compute on plain ndarrays and
wrap a result once, where it leaves a public method.

Who freezes and who copies: ``Tensor.wrap`` shares a read-only C-contiguous
array and copies any other.  ``_shared`` is the one place that freezes a
result: ``Tensor.zeros``/``full``/``astype``, ``load_blob`` and the public
call modes and shims hand it theirs, which is fresh (by ``cinet.module``'s
``_step``/``_clip`` contract, nothing in the package keeps or writes it)
or the input tensor's own read-only array; so no output is copied at the
edge.  A caller's writeable array is copied.
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
    equals the product of ``shape``.  Rank 0 (scalars) is allowed.  A
    writeable array of the caller's is copied, not frozen; an input that
    needs converting is not copied again.
    """

    __slots__ = ("array",)

    def __init__(self, data, shape: Sequence[int] | None = None, dtype: str = "f32"):
        if dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        arr = np.asarray(data, dtype=DTYPES[dtype])
        if arr.flags.writeable and (arr is data or arr.base is not None):
            arr = arr.copy()  # the caller's memory, which it may still write
        if shape is not None:
            if any(int(e) < 0 for e in shape):
                raise DimensionError(f"negative extent in shape {tuple(shape)}")
            expected = int(np.prod(shape)) if len(shape) else 1
            if arr.size != expected:
                raise DimensionError(
                    f"{arr.size} elements cannot fill shape {tuple(shape)}"
                )
            arr = arr.reshape(tuple(int(e) for e in shape))
        # np.ascontiguousarray alone would make a rank-0 array rank 1
        arr = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def wrap(arr: np.ndarray) -> "Tensor":
        """Adopt an f32/f64 ndarray as an immutable tensor.  A read-only
        C-contiguous array is shared: whoever set it read-only vouches that
        nothing writes it through another reference.  Any other array is
        copied, so a writeable array never becomes a tensor's memory.  This
        is the one hand-off from arrays to ``Tensor``: the public call modes
        and shims (``forward*``, ``att_step``, ``graph_conv``, ``sda_full``)
        reach it once, through ``_shared``, so it shares rather than copies,
        and layers never call it on each other's results."""
        # keyed by dtype objects: comparing with np.float32 would convert the type first
        if arr.dtype not in _NP_TO_NAME:
            raise ValueError(f"unsupported ndarray dtype {arr.dtype}")
        t = object.__new__(Tensor)
        flags = arr.flags
        if flags.writeable or not flags.c_contiguous:
            arr = arr.copy()  # C order
            arr.flags.writeable = False
        object.__setattr__(t, "array", arr)
        return t

    @staticmethod
    def zeros(shape: Sequence[int], dtype: str = "f32") -> "Tensor":
        return _shared(np.zeros(tuple(shape), dtype=DTYPES[dtype]))

    @staticmethod
    def full(shape: Sequence[int], value: Scalar, dtype: str = "f32") -> "Tensor":
        return _shared(np.full(tuple(shape), value, dtype=DTYPES[dtype]))

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

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def astype(self, dtype: str) -> "Tensor":
        return _shared(self.array.astype(DTYPES[dtype]))

    def tolist(self):
        return self.array.tolist()


def _shared(arr: np.ndarray) -> Tensor:
    """``arr`` as a tensor that shares it: the one way out of the package for
    a fresh array, or a tensor's own read-only one, which nothing else keeps
    or writes.  It is frozen here and handed to ``Tensor.wrap``, looked up
    at call time, so a patched ``Tensor.wrap`` sees every result leave."""
    arr.setflags(write=False)
    return Tensor.wrap(arr)


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
    return _shared(raw.astype(DTYPES[dtype]).reshape(tuple(shape)))
