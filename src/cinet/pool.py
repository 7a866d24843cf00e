"""Continual temporal pooling: running windowed average and sliding maximum.

The average keeps a running sum (newest frame added, oldest subtracted) and
the window's ``window - 1`` older frames in a zero-initialised ring in the
stream dtype; step ``t`` reads the leaving frame from slot
``t mod (window - 1)`` and then writes its own frame there.  Zero slots
stand for the padding frames before the stream, so they leave the sum
without a special case.  The sum is accumulated in f64 regardless of the
stream dtype and refreshed from the ring every ``refresh_interval`` steps,
since add/subtract accumulation is not exactly associative in floating
point.

The maximum uses a queue-with-max built from two stacks carrying elementwise
running maxima: amortized O(1) comparisons per element per step and never
more than ``window`` stacked frames.  Zero padding is rejected for max
pooling because padding with zeros corrupts maxima of negative signals.

A global-average head over a temporal receptive field is just an average
pool with ``window`` set to that receptive field.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DimensionError
from .module import CoModule, OpCount, ring_buffer


class _MaxQueue:
    """Elementwise queue-with-max over frames (two-stack arrangement)."""

    __slots__ = ("front_max", "back_raw", "back_max")

    def __init__(self):
        self.front_max = []  # suffix maxima; top is the oldest side's max
        self.back_raw = []
        self.back_max = []

    def __len__(self):
        return len(self.front_max) + len(self.back_raw)

    def push(self, x: np.ndarray) -> None:
        x = x.copy()  # the caller's frame is not the queue's to keep
        m = np.maximum(self.back_max[-1], x) if self.back_max else x
        self.back_raw.append(x)
        self.back_max.append(m)

    def pop_oldest(self) -> None:
        if not self.front_max:
            m = None
            while self.back_raw:
                x = self.back_raw.pop()
                m = x if m is None else np.maximum(m, x)
                self.front_max.append(m)
            self.back_max.clear()
        self.front_max.pop()

    def max(self) -> np.ndarray:
        """A fresh array: the queue keeps its frames to itself."""
        if self.front_max and self.back_max:
            return np.maximum(self.front_max[-1], self.back_max[-1])
        return (self.front_max[-1] if self.front_max else self.back_max[-1]).copy()


class _PoolState:
    __slots__ = ("t", "frame", "ring", "running_sum", "maxq")

    def __init__(self):
        self.t = 0
        self.frame = None  # max: (shape, dtype) of the stream's first frame
        self.ring = None  # avg: (window-1, ...) ring of the window's older frames
        self.running_sum = None  # avg: f64 sum of the ring's frames
        self.maxq = _MaxQueue()


class TemporalPool(CoModule):
    def __init__(self, kind: str, window: int, padding: int = 0, refresh_interval: int = 4096):
        if kind not in ("avg", "max"):
            raise ValueError(f"unknown pooling kind {kind!r}")
        if window < 1:
            raise ValueError("window must be >= 1")
        if kind == "max" and padding != 0:
            raise ValueError("zero padding is not valid for max pooling")
        if not 0 <= padding <= window - 1:
            raise ValueError(f"padding {padding} outside [0, {window - 1}]")
        self.kind = kind
        self.window = window
        self.padding = padding
        self.refresh_interval = refresh_interval  # 0 disables the refresh

    def delay(self) -> int:
        return self.window - 1 - self.padding

    def receptive_field(self) -> int:
        return self.window

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return tuple(frame_shape)

    # -- clip mode -------------------------------------------------------------

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        n_out = self.out_len(xa.shape[0])
        if n_out == 0:
            return np.zeros((0,) + xa.shape[1:], dtype=xa.dtype)
        if self.kind == "avg":
            # cumulative sums over the zero-prefixed sequence
            csum = np.cumsum(xa.astype(np.float64), axis=0)
            csum = np.concatenate([np.zeros((1,) + xa.shape[1:]), csum], axis=0)
            ends = self.delay() + np.arange(n_out) + 1  # exclusive, real-frame indexing
            starts = np.maximum(ends - self.window, 0)
            out = (csum[ends] - csum[starts]) / self.window
            return out.astype(xa.dtype)
        windows = np.lib.stride_tricks.sliding_window_view(xa, self.window, axis=0)
        return np.ascontiguousarray(windows.max(axis=-1))

    # -- step mode ----------------------------------------------------------------

    def init_state(self) -> _PoolState:
        return _PoolState()

    def _step(self, state: _PoolState, xa: np.ndarray) -> Optional[np.ndarray]:
        n = self.window - 1
        if self.kind == "avg":
            ring = state.ring = ring_buffer(state.ring, (n,) + xa.shape, xa.dtype)
        elif state.frame is None:
            state.frame = (xa.shape, xa.dtype)
        elif (xa.shape, xa.dtype) != state.frame:
            raise DimensionError(f"frame drift: {xa.shape} {xa.dtype} after "
                                 f"{state.frame[0]} {state.frame[1]}")
        t = state.t
        state.t += 1
        if self.kind == "max":
            state.maxq.push(xa)
            if len(state.maxq) > self.window:
                state.maxq.pop_oldest()
            if t >= n:
                return state.maxq.max()
            return None
        if t == 0 or (self.refresh_interval and t % self.refresh_interval == 0):
            state.running_sum = ring.sum(axis=0, dtype=np.float64)
        state.running_sum += xa
        y = None
        if t >= self.delay():
            y = (state.running_sum / self.window).astype(xa.dtype, copy=False)
        # frame t - n leaves the sum: a zero slot (padding, or before the
        # stream) until the ring has wrapped, x_t itself for a 1-frame window
        if n:
            state.running_sum -= ring[t % n]
            ring[t % n] = xa
        else:
            state.running_sum -= xa
        return y

    # -- analytic cost ----------------------------------------------------------
    # avg step: add + subtract + divide per element; max step: one push
    # comparison, one output combine, one amortized flip comparison.
    # Maintenance refreshes are excluded from the counts.

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n = int(np.prod(frame_shape))
        return OpCount(macs=0, other=3 * n)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        n = int(np.prod(frame_shape))
        per_out = n * self.window if self.kind == "avg" else n * (self.window - 1)
        return OpCount(macs=0, other=per_out * self.out_len(t))
