"""Containers: sequential chaining, parallel branches, residuals.

Temporal bookkeeping rules (all integer, checked by property tests):

- sequential: stride multiplies through; each stage's delay and warm-up
  count at the container's input clock, scaled by the cumulative stride of
  the stages before it.  Worked example: stages with (delay, stride) of
  (2, 2) then (2, 1) compose to stride 2 and delay 2 + 2*2 = 6 input steps,
  because the second stage's two-step delay elapses at the halved clock.
- parallel: all branches must share one stride ``s`` (and emission phase);
  composite delay ``D`` is the max branch delay and the container emits at
  steps ``t >= warmup()`` with ``(t - warmup()) % s == 0``.
- residual: a parallel of the inner module and a shortcut (identity by
  default), summed.  Residuals across strided modules are rejected rather
  than guessed at.

Step mode never lets a not-ready placeholder enter arithmetic: a stage that
gets nothing simply produces nothing.  Parallel branches are aligned by
lags fixed at construction: branch ``b`` keeps its last
``lag_b = ceil((D - delay_b) / s)`` emissions in a zero-initialised ring
whose cursor is its emission count.  On an emitting step the slot under the
cursor, the oldest of those emissions, is the one aligned with the
container's output; it is read before the branch's emission of that step
takes the slot.  A branch with ``lag_b = 0`` contributes the emission of
the step itself.  A branch whose warm-up exceeds its delay (windowed
attention) only moves the container's warm-up.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .errors import DimensionError
from .module import CoModule, OpCount, PerFrame, per_dtype
from .tensor import Tensor


class Identity(PerFrame):
    def _apply(self, a: np.ndarray, channel_axis: int) -> np.ndarray:
        return a

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return OpCount()


class Pointwise(PerFrame):
    """Per-step channel projection (a 1x1x1 convolution without bias)."""

    def __init__(self, weight: Tensor):
        if weight.rank != 2:
            raise DimensionError(f"weight must be (c_in, c_out), got {weight.shape}")
        self.weight = weight
        self.c_in, self.c_out = weight.shape
        self._w = per_dtype(lambda dt: weight.array.astype(dt).T)  # W^T

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape[:1]) != (self.c_in,):
            raise DimensionError(f"frame {tuple(frame_shape)} does not lead with "
                                 f"{self.c_in} channels")
        return (self.c_out,) + tuple(frame_shape[1:])

    def _apply(self, xa: np.ndarray, channel_axis: int) -> np.ndarray:
        """``W^T`` on the channel axis; the axes after it are the GEMM's columns."""
        w_t = self._w[xa.dtype]
        if channel_axis == 0 and xa.ndim == 2:  # a (c_in, V) frame is the GEMM's operand
            return np.dot(w_t, xa)
        lead, tail = xa.shape[:channel_axis], xa.shape[channel_axis + 1:]
        x = xa.reshape(lead + (self.c_in, math.prod(tail)))
        y = np.dot(w_t, x) if x.ndim == 2 else w_t @ x  # a frame, or stacked clip frames
        return y.reshape(lead + (self.c_out,) + tail)

    def step_cost(self, frame_shape: tuple) -> OpCount:
        spatial = int(np.prod(frame_shape[1:])) if len(frame_shape) > 1 else 1
        return OpCount(macs=self.c_in * self.c_out * spatial)


class Sequential(CoModule):
    def __init__(self, modules: Sequence[CoModule]):
        if not modules:
            raise ValueError("sequential needs at least one stage")
        self.modules = list(modules)

    def children(self) -> List[CoModule]:
        return list(self.modules)

    def _cumulative(self):
        """(stage, stride of everything before it) pairs."""
        s = 1
        for m in self.modules:
            yield m, s
            s *= m.stride()

    def delay(self) -> int:
        return sum(m.delay() * s for m, s in self._cumulative())

    def warmup(self) -> int:
        return sum(m.warmup() * s for m, s in self._cumulative())

    def receptive_field(self) -> int:
        return 1 + sum((m.receptive_field() - 1) * s for m, s in self._cumulative())

    def stride(self) -> int:
        return math.prod(m.stride() for m in self.modules)

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        for m in self.modules:
            frame_shape = m.out_frame_shape(frame_shape)
        return frame_shape

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> list:
        states = []
        for m in self.modules:
            states.append(m._state(frame_shape, dtype))
            frame_shape = m.out_frame_shape(frame_shape)
        return states

    def _clip(self, a: np.ndarray) -> np.ndarray:
        for m in self.modules:
            a = m._clip(a)
        return a

    def _step(self, state: list, a: np.ndarray) -> Optional[np.ndarray]:
        for m, s in zip(self.modules, state):
            a = m._step(s, a)
            if a is None:
                return None
        return a

    def _stage_costs(self, frame_shape: tuple, t: Optional[int] = None) -> List[OpCount]:
        """Each stage's cost per input step of the container (``t`` is
        ``None``), or over one clip of ``t`` frames."""
        costs = []
        for m, s in self._cumulative():
            if t is None:
                costs.append(m.step_cost(frame_shape).per_input(s))
            else:
                costs.append(m.clip_cost(frame_shape, t))
                t = m.out_len(t)
            frame_shape = m.out_frame_shape(frame_shape)
        return costs

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return sum(self._stage_costs(frame_shape), OpCount())

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return sum(self._stage_costs(frame_shape, t), OpCount())


class _ParallelState:
    __slots__ = ("branches", "rings", "counts", "t")

    def __init__(self, branch_states, rings):
        self.branches = branch_states
        self.rings = rings  # (lag, ...) rings of branch emissions; None where lag is 0
        self.counts = [0] * len(branch_states)  # emissions per branch: the ring cursors
        self.t = 0


class Parallel(CoModule):
    """Run branches on the same stream and reduce aligned emissions."""

    def __init__(self, branches: Sequence[CoModule], reduce: str = "sum"):
        if not branches:
            raise ValueError("parallel needs at least one branch")
        if reduce not in ("sum", "concat"):
            raise ValueError(f"unknown reduce {reduce!r}")
        strides = {b.stride() for b in branches}
        if len(strides) != 1:
            raise ValueError(f"branch strides differ: {sorted(strides)}")
        s = strides.pop()
        phases = {(b.warmup() - b.delay()) % s for b in branches}
        if len(phases) != 1:
            raise ValueError("branch emission phases differ")
        self.branches = list(branches)
        self.reduce = reduce
        self._lags = [-(-(self.delay() - b.delay()) // s) for b in self.branches]
        self._warmup = self.warmup()

    def children(self) -> List[CoModule]:
        return list(self.branches)

    def delay(self) -> int:
        return max(b.delay() for b in self.branches)

    def warmup(self) -> int:
        return self.delay() + max(b.warmup() - b.delay() for b in self.branches)

    def receptive_field(self) -> int:
        d = self.delay()
        return 1 + d + max(b.receptive_field() - 1 - b.delay() for b in self.branches)

    def stride(self) -> int:
        return self.branches[0].stride()

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        shapes = [b.out_frame_shape(frame_shape) for b in self.branches]
        if self.reduce == "sum":
            if len(set(shapes)) != 1:
                raise DimensionError(f"sum branches disagree: {shapes}")
            return shapes[0]
        tails = {s[1:] for s in shapes}
        if len(tails) != 1:
            raise DimensionError(f"concat branches disagree beyond channels: {shapes}")
        return (sum(s[0] for s in shapes),) + shapes[0][1:]

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> _ParallelState:
        return _ParallelState(
            [b._state(frame_shape, dtype) for b in self.branches],
            [np.zeros((lag,) + b.out_frame_shape(frame_shape), dtype) if lag else None
             for b, lag in zip(self.branches, self._lags)])

    def _combine(self, vals: List[np.ndarray], channel_axis: int = 0) -> np.ndarray:
        if self.reduce == "sum":
            out = vals[0]
            for v in vals[1:]:
                out = out + v
            return out
        return np.concatenate(vals, axis=channel_axis)

    def _step(self, state: _ParallelState, a: np.ndarray) -> Optional[np.ndarray]:
        t = state.t
        state.t += 1
        ys = [b._step(s, a) for b, s in zip(self.branches, state.branches)]
        out = None
        if t >= self._warmup and (t - self._warmup) % self.stride() == 0:
            # a lagged branch's aligned emission is the oldest in its ring,
            # read before this step's emission takes its slot
            out = self._combine([y if lag == 0 else ring[c % lag] for y, lag, ring, c
                                 in zip(ys, self._lags, state.rings, state.counts)])
        for i, (y, lag) in enumerate(zip(ys, self._lags)):
            if lag and y is not None:
                state.rings[i][state.counts[i] % lag] = y
                state.counts[i] += 1
        return out

    def _clip(self, a: np.ndarray) -> np.ndarray:
        base = self.warmup() - self.delay()
        s = self.stride()
        outs = []
        for b in self.branches:
            o = b._clip(a)
            drop = (base - (b.warmup() - b.delay())) // s
            outs.append(o[drop:])
        n = min(len(o) for o in outs)
        return self._combine([o[:n] for o in outs], channel_axis=1)

    def step_cost(self, frame_shape: tuple) -> OpCount:
        total = OpCount()
        for b in self.branches:
            total = total + b.step_cost(frame_shape)
        if self.reduce == "sum":
            out = int(np.prod(self.out_frame_shape(frame_shape)))
            adds = (len(self.branches) - 1) * out
            total = total + OpCount(other=adds).per_input(self.stride())
        return total

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        total = OpCount()
        for b in self.branches:
            total = total + b.clip_cost(frame_shape, t)
        if self.reduce == "sum":
            out = int(np.prod(self.out_frame_shape(frame_shape)))
            total = total + OpCount(other=(len(self.branches) - 1) * out).scaled(self.out_len(t))
        return total


class Residual(Parallel):
    """Add a shortcut around a stride-1 module: the parallel sum of both."""

    def __init__(self, inner: CoModule, shortcut: CoModule | None = None):
        if inner.stride() != 1:
            raise ValueError("residual around a strided module is not defined")
        self.inner = inner
        self.shortcut = shortcut if shortcut is not None else Identity()
        super().__init__([self.inner, self.shortcut], "sum")
