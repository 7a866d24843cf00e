"""Shared behavioural contract for continual layers and containers.

A ``CoModule`` owns its weights and hyperparameters immutably and exposes
clip mode (``forward``), step mode (``forward_step``) and batched step mode
(``forward_steps``).  One weight set serves all modes, and collecting the
ready step outputs of a fresh stream must reproduce ``forward`` exactly:
that equivalence is the core guarantee everything in this package is tested
against.

Step outputs are ``Tensor`` or ``None`` (not ready).  Inside the package,
modules hand plain ndarrays to each other: a subclass implements
``_step(state, a) -> ndarray | None`` and ``_clip(a) -> ndarray``, containers
and blocks call their children's ``_step``/``_clip`` directly, and only the
public ``forward_step``/``forward``/``forward_steps`` defined here wrap a
result in a ``Tensor``, once per call.  The ``_step``/``_clip`` contract:

- never write to the input array, and never keep a reference to it (a ring
  copies the frame in);
- return a fresh array, which no state, weight table or later call holds
  or writes, or the input itself (or a view of it).

``Tensor``'s immutability rests on that contract.  The public call modes,
and the shims ``att_step``, ``sda_full`` and ``graph_conv``, hand their
result to ``cinet.tensor._shared``, which freezes it and has
``Tensor.wrap`` share it instead of copying it: a fresh result is frozen,
not copied, and the input was a tensor's read-only array to begin with.
A result that was a view of a ring or of a weight would reach the caller
as a tensor that a later step rewrites.

Two timing numbers describe each module:

- ``delay()``: input steps between a frame's arrival and the emission of
  the output aligned with it.  A temporal convolution with kernel ``K_T``,
  dilation ``D_T`` and leading padding ``P_T`` has delay
  ``K_T + (K_T - 1)(D_T - 1) - P_T - 1``.
- ``warmup()``: number of initial steps with no emission.  For convolutions
  warm-up equals delay; windowed attention has warm-up ``n - 1`` but delay 0
  because its emission is aligned with the newest token.

Every module's ``init_state()`` returns an unbound ``Stream``, a stateless
one's too (its layer state is ``None``).  The stream's first frame binds it
in one place, ``Stream.bind(root, shape, dtype)``, which every step call
mode (``forward_step``, ``forward_steps``, ``att_step``) calls with its
root layer: the root checks that every stage can take the frame
(``out_frame_shape``), then every layer builds its whole state,
``_state(frame_shape, dtype)``, containers along ``out_frame_shape``.  So
every array a stream keeps is made there, in its final shape, and
zero-initialised but for a conv's ring, whose partial sums all start at
the conv's bias: rings of a fixed number of slots whose cursor is a step or
emission count, which never grow.  A later frame of another shape or dtype
is refused before any layer runs, so no kernel allocates state or checks
drift, and a refused frame changes no state.  Clip mode checks its frames
once at the root too: ``forward`` refuses an input without a time axis and
passes its frame shape through ``out_frame_shape`` before any layer runs.
So no ``_clip``, ``_step`` or ``_apply`` checks a shape.

A layer arranges its weights at construction, with ``per_dtype``, in the
form its kernel needs and in both stream dtypes; a kernel looks them up by
its input's dtype and casts no weight, so a stream changes nothing on the
layer.  The one table filled later is ``TemporalConv``'s step table, one
entry per stream layout, a dtype and a frame shape, made by the first
stream of that layout and read-only: everything a step reads in the form
it reads it, so that no step operand broadcasts and no step makes a memo
call.  No other layer keeps anything keyed by a frame shape.

A step spends more on numpy's per-call dispatch than on arithmetic, so
step kernels make their calls by one rule.  A step's product whose
operands are both at most 2-D calls ``np.dot``: it reaches the same BLAS
routine as ``@`` for less dispatch, so it moves no bit.  Clip mode's
products keep ``@``: a stacked product needs it, as ``np.dot`` contracts
N-D operands another way, and on clip-sized 2-D operands ``np.dot`` runs
slower.  A kernel that serves both modes picks the call by its operands'
``ndim``.  A ufunc's scalar operand is a 0-d array of the operand's dtype,
made at construction (``per_dtype`` for the stream dtype), not a Python
scalar, which a ufunc converts on every call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DimensionError
from .tensor import DTYPES, Tensor, _shared

StepOutput = Optional[Tensor]


class Stream:
    """One stream's state: unbound until its first frame, then that frame's
    shape and dtype and the root layer's state, ``layer`` (``state.layer.t``).
    ``bind`` is the one way in for every step call mode."""

    __slots__ = ("shape", "dtype", "layer")

    def __init__(self):
        self.shape = self.dtype = self.layer = None

    def bind(self, root: "CoModule", shape: tuple, dtype: np.dtype):
        """``root``'s state for a frame of ``shape`` and ``dtype``.  The first
        frame binds the stream: ``root.out_frame_shape`` refuses a frame that
        a stage cannot take before anything is built, then ``root._state``
        builds the whole state.  A later frame of another shape or dtype is
        refused."""
        if self.shape is None:
            root.out_frame_shape(shape)
            self.layer = root._state(shape, dtype)
            self.shape, self.dtype = shape, dtype
        elif shape != self.shape or (dtype is not self.dtype and dtype != self.dtype):
            raise DimensionError(f"stream drifted: frame {shape} {np.dtype(dtype)} after "
                                 f"{self.shape} {self.dtype}")
        return self.layer


def _frame_shape(a: np.ndarray) -> tuple:
    """The frame shape of a ``(T, ...)`` clip; a rank-0 array has no time axis."""
    if a.ndim == 0:
        raise DimensionError("a clip needs a leading time axis, got a rank-0 tensor")
    return a.shape[1:]


def integer(name: str, value) -> int:
    """``value``, a Python or numpy integer, as an ``int``; anything else, a
    float of integral value too, is refused with a ``ValueError`` naming
    the argument ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def per_dtype(make) -> dict:
    """``{dtype: make(dtype)}`` for the two stream dtypes of ``DTYPES``."""
    return {np.dtype(t): make(np.dtype(t)) for t in DTYPES.values()}


@dataclass(frozen=True)
class OpCount:
    """Arithmetic cost: multiply-accumulates plus other single ops.

    ``other`` counts additions, exponentials, divisions and comparisons at
    one FLOP each; ``flops`` uses the 2-FLOPs-per-MAC convention.
    """

    macs: float = 0
    other: float = 0

    @property
    def flops(self):
        return 2 * self.macs + self.other

    def __add__(self, o: "OpCount") -> "OpCount":
        return OpCount(self.macs + o.macs, self.other + o.other)

    def scaled(self, factor) -> "OpCount":
        return OpCount(self.macs * factor, self.other * factor)

    def per_input(self, stride: int) -> "OpCount":
        """This count, spent once every ``stride`` input steps, per input
        step: integral at stride 1."""
        return self if stride == 1 else self.scaled(1 / stride)


class CoModule:
    """Base class.  A layer implements the eight abstract members, whose
    bodies here only raise ``NotImplementedError``: ``delay``,
    ``receptive_field``, ``_clip``, ``_step``, ``_state``,
    ``out_frame_shape``, ``step_cost`` and ``clip_cost``.  ``PerFrame``
    implements all but ``step_cost`` for a stateless per-frame ``_apply``."""

    # -- temporal properties ------------------------------------------------

    def delay(self) -> int:
        raise NotImplementedError

    def warmup(self) -> int:
        return self.delay()

    def receptive_field(self) -> int:
        raise NotImplementedError

    def stride(self) -> int:
        return 1

    # -- call modes ----------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        """Offline clip mode over a (T, ...) sequence."""
        a = x.array
        self.out_frame_shape(_frame_shape(a))
        return _shared(self._clip(a))

    def init_state(self) -> Stream:
        """A new stream's state, unbound until its first frame."""
        return Stream()

    def forward_step(self, state: Stream, x_t: Tensor) -> StepOutput:
        """Consume one step; the ready output, or ``None`` during warm-up."""
        a = x_t.array
        y = self._step(state.bind(self, a.shape, a.dtype), a)
        return None if y is None else _shared(y)

    def forward_steps(self, state: Stream, x: Tensor) -> Tensor:
        """Feed each step of a (T, ...) sequence; stack the ready outputs."""
        xa = x.array
        state = state.bind(self, _frame_shape(xa), xa.dtype)
        outs = [y for y in (self._step(state, xa[t]) for t in range(xa.shape[0]))
                if y is not None]
        if outs:
            y = np.stack(outs, axis=0)
        else:
            y = np.zeros((0,) + self.out_frame_shape(xa.shape[1:]), dtype=xa.dtype)
        return _shared(y)

    def _clip(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _step(self, state, a: np.ndarray) -> Optional[np.ndarray]:
        raise NotImplementedError

    def _state(self, frame_shape: tuple, dtype: np.dtype):
        """This layer's whole state for a stream of ``frame_shape`` frames in
        ``dtype``, every array allocated; ``None`` if it keeps nothing."""
        raise NotImplementedError

    # -- introspection for composition and counting --------------------------

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        raise NotImplementedError

    def children(self) -> List["CoModule"]:
        return []

    def out_len(self, t: int) -> int:
        """Clip-mode output length for an input of length ``t``."""
        avail = t - self.warmup()
        if avail <= 0:
            return 0
        return (avail - 1) // self.stride() + 1

    # -- analytic cost --------------------------------------------------------

    def step_cost(self, frame_shape: tuple) -> OpCount:
        """Steady-state arithmetic per consumed input step."""
        raise NotImplementedError

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        """Arithmetic of one offline forward pass over a length-``t`` clip."""
        raise NotImplementedError


class PerFrame(CoModule):
    """A stateless layer mapping each frame on its own: delay 0, receptive
    field 1, a clip costs ``t`` steps, and both modes run one kernel,
    ``_apply(a, channel_axis)``, with the channels on axis 1 of a ``(T, C,
    ...)`` clip and on axis 0 of a ``(C, ...)`` frame.  A subclass supplies
    ``step_cost`` and ``_apply`` (and ``out_frame_shape`` if it reshapes)."""

    def delay(self) -> int:
        return 0

    def receptive_field(self) -> int:
        return 1

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return tuple(frame_shape)

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> None:
        return None

    def _clip(self, a: np.ndarray) -> np.ndarray:
        return self._apply(a, 1)

    def _step(self, state, a: np.ndarray) -> np.ndarray:
        return self._apply(a, 0)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return self.step_cost(frame_shape).scaled(t)
