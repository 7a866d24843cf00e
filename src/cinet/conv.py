"""Continual temporal/3D convolution as a FIR filter over a frame stream.

Temporal taps are indexed newest-first, like FIR coefficients: tap ``k``
multiplies the frame ``k * dilation`` steps back from the emission step.
Spatially each tap is an ordinary stride-1 cross-correlation.  Zero padding
is leading-only (``padding`` virtual zero frames before the stream); trailing
padding would require peeking into the future and is never applied.  A
frame is ``(C, H, W)``, or ``(C, N)`` for a 1x1 kernel, which emits ``(c_out,
N)``: the skeleton block's nodes need no made-up unit axis.

Step mode runs the transposed form of the filter, CoX3D's cache of
intermediary partial sums: each frame's taps go into the emissions they
feed as it arrives, so the stream keeps partial sums, never frames.  They
live in one 2-D ring made when the stream binds (``cinet.module.Stream``),
so it never grows or reallocates: slot ``i``, one pending emission, is the
``c_out`` rows from ``i*c_out`` on of a ``(slots*c_out, H'*W')`` matrix, and
every slot starts at the bias (the ring is filled with it, for the first
emissions of a padded conv read slots that no emission freed).

The ring's geometry is polyphase.  With ``m = k_t - 1``, ``d`` the dilation
and ``s`` the stride, emission ``j`` completes at step ``d0 + j*s``, ``d0 =
delay() mod s`` (those before ``delay()`` would read more zero frames than
the padding gives, and are dropped).  At most ``ceil(m*d/s)`` are pending at
once.  They sit in ``dp = d / gcd(d, s)`` sub-rings of ``mp =
ceil(ceil(m*d/s) / dp)`` slots, emission ``j`` in slot ``(j // dp) mod mp``
of sub-ring ``j mod dp``.  With ``t - d0 = q*s + r``, ``0 <= r < s``, tap
``k`` of step ``t``'s frame feeds emission ``q + (r + k*d)/s`` when ``s``
divides ``r + k*d``: the taps a frame feeds are ``s / gcd(d, s)`` apart, so
the emissions they feed are consecutive slots of one sub-ring, and a frame
spends MACs only on emissions that read it.  At ``s = 1`` these are ``d``
sub-rings of ``m`` slots, each an undilated ring of the frames ``d`` steps
apart.

The geometry repeats every ``s * dp * mp`` steps, and the schedule holds
one entry per step phase:

- the row of the slot the step's emission completes in, if one does: the
  emission is the newest tap's product plus that slot, and the slot starts
  over at the bias for the emission ``dp * mp`` later;
- the products of the frame's older taps, each added to a range of rows.  A
  phase that feeds the whole sub-ring takes one product with its taps
  rotated to the sub-ring's slot order, a view of a table that holds them
  twice over.  A phase that feeds fewer slots takes the table's first half,
  split once where the sub-ring wraps.  No product pads with zero weights:
  ``0 * NaN`` would carry a non-finite frame into emissions whose window
  lacks it;
- the row of the emission aligned with the frame, ``delay()`` steps later,
  for a lagged term.  A step with ``t mod s == 0`` may hand one in: it starts
  the freed slot with the bias when the aligned emission takes that slot,
  joins the aligned emission's pending slot otherwise, and goes straight
  into the emission at delay 0.  A block adds its shortcut so, with no ring
  of inputs awaiting it (``cinet.graph``).

The layer arranges its weights once, in both stream dtypes at construction:
the clip product's oldest-first matrix, with the bias.  What a step reads
is arranged when the first stream of its layout, a dtype and a frame shape,
binds, and kept on the module in the step table: per dtype, the newest tap
and the schedule, which serve every frame shape, and per frame shape the
bias as a read-only ``(c_out, H'*W')`` plane, so that no step operand
broadcasts, and for a spatial kernel the read-only gather index that
unfolds a frame once (im2col); a 1x1 kernel's products read the frame in
place.  The ring's slot count is fixed at construction, and a stream sizes
its ring from its frame.  So one instance steps streams of every frame
shape it accepts, side by side.

Step and clip mode emit on one schedule and differ only in summation order.

Clip mode keeps the clip in its own ``(T, C, ...)`` layout, a ``(T, C, N)``
clip read as ``(T, C, N, 1)``: each frame is unfolded once (im2col) into a
``(padding + T, C*KH*KW, H'*W')`` buffer after leading zero frames, and an
unpadded 1x1 clip is read in place.  Emission ``j``'s ``k_t`` frames,
``dilation`` apart from ``j * stride`` on, are one ``(k_t*C*KH*KW, H'*W')``
block of a strided view: no copy when undilated, one copy when dilated.  The
conv is then one stacked product of the oldest-first ``(c_out,
k_t*C*KH*KW)`` weights with the blocks, plus the bias, straight into the
``(n_out, c_out, H', W')`` output.  Each emission is its own
fixed-shape product, so its bits do not depend on the clip's length or start.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DimensionError
from .module import CoModule, OpCount, integer, per_dtype
from .tensor import Tensor


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: every stream of a layout reads the step table."""
    a.flags.writeable = False
    return a


def _unfold_index(frame_shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Read-only gather index that unfolds a (C, H, W) frame into im2col
    columns: row (c, a, b), column (i, j) picks element ``[c, i + a, j + b]``
    of the flattened frame."""
    c, h, w = frame_shape
    flat = np.arange(c * h * w).reshape(c, h, w)
    win = np.lib.stride_tricks.sliding_window_view(flat, (kh, kw), axis=(1, 2))
    return _frozen(win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, -1))


class _ConvState:
    __slots__ = ("ring", "t", "shape")

    def __init__(self, ring, shape):
        # (dp*mp*c_out, H'*W') partial sums, slot i from row i*c_out on:
        # dp sub-rings of mp slots, one slot per pending emission
        self.ring = ring
        self.t = 0  # steps consumed; it places step t in the schedule
        self.shape = shape  # the frame shape: a step's key into its dtype's layouts


class TemporalConv(CoModule):
    """Causal temporal convolution over (C_in, H, W) or, 1x1, (C_in, N) frames."""

    def __init__(
        self,
        weights: Tensor,
        bias: Tensor,
        dilation: int = 1,
        padding: int = 0,
        temporal_stride: int = 1,
    ):
        if weights.rank != 5:
            raise DimensionError(f"weights must be (O,C,KT,KH,KW), got {weights.shape}")
        self.c_out, self.c_in, self.k_t, self.k_h, self.k_w = weights.shape
        if bias.shape != (self.c_out,):
            raise DimensionError(f"bias shape {bias.shape} != ({self.c_out},)")
        dilation, padding = integer("dilation", dilation), integer("padding", padding)
        temporal_stride = integer("temporal_stride", temporal_stride)
        if dilation < 1:
            raise ValueError("dilation must be >= 1")
        if temporal_stride < 1:
            raise ValueError("stride must be >= 1")
        rf = (self.k_t - 1) * dilation + 1
        if not 0 <= padding <= rf - 1:
            raise ValueError(f"padding {padding} outside [0, {rf - 1}]")
        self.weights = weights
        self.bias = bias
        self.dilation = dilation
        self.padding = padding
        self.temporal_stride = temporal_stride
        self._rf = rf
        self._delay = rf - 1 - padding
        # the ring's dp sub-rings of mp slots (see the module docstring)
        pending = -(-(self.k_t - 1) * dilation // temporal_stride)  # ceil(m*d/s)
        self._dp = dilation // math.gcd(dilation, temporal_stride)
        self._mp = -(-pending // self._dp)
        # (c_out, k_t*C*KH*KW) weights, taps oldest first, and the (c_out,) bias
        self._w = per_dtype(lambda dt: (
            weights.array.astype(dt)[:, :, ::-1].swapaxes(1, 2).reshape(self.c_out, -1),
            bias.array.astype(dt)))
        # dtype -> the step path's newest tap (c_out, C*KH*KW), its layouts
        # and its schedule (``_plan``); the layouts map a frame shape to its
        # bias plane (c_out, H'*W') and its gather index (``None`` at 1x1).
        # The first stream of a layout makes its entry
        self._step_table = {}

    def folded(self, bn) -> "TemporalConv":
        """This conv with the inference ``BatchNorm`` ``bn`` applied to its
        emissions, as one conv: ``w' = w * scale`` and ``b' = b * scale +
        shift`` per output channel, computed in f64 from ``bn``'s scale and
        shift.  The map acts on each emission, so the fold holds for any
        dilation, padding and stride."""
        if bn.channels != self.c_out:
            raise DimensionError(f"batchnorm has {bn.channels} channels, "
                                 f"conv emits {self.c_out}")
        w = self.weights.array * bn.scale[:, None, None, None, None]
        b = self.bias.array * bn.scale + bn.shift
        return TemporalConv(Tensor(w, dtype="f64"), Tensor(b, dtype="f64"), self.dilation,
                            self.padding, self.temporal_stride)

    # -- temporal properties --------------------------------------------------

    def delay(self) -> int:
        return self._delay

    def receptive_field(self) -> int:
        return self._rf

    def stride(self) -> int:
        return self.temporal_stride

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if len(frame_shape) != 3:
            if len(frame_shape) == 2 and self.k_h == self.k_w == 1:  # (C, N) -> (c_out, N)
                return self.out_frame_shape((*frame_shape, 1))[:2]
            raise DimensionError(f"frame must be (C,H,W), or (C,N) for a 1x1 kernel, "
                                 f"got {tuple(frame_shape)}")
        c, h, w = frame_shape
        if c != self.c_in:
            raise DimensionError(f"expected {self.c_in} channels, got {c}")
        if self.k_h > h or self.k_w > w:
            raise DimensionError(f"kernel ({self.k_h},{self.k_w}) larger than frame ({h},{w})")
        return (self.c_out, h - self.k_h + 1, w - self.k_w + 1)

    # -- clip mode --------------------------------------------------------------

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        if xa.ndim == 3:  # (T, C, N) as (T, C, N, 1) through this kernel, not an override
            return TemporalConv._clip(self, xa[..., None])[..., 0]
        t_in = xa.shape[0]
        _, oh, ow = out_shape = self.out_frame_shape(xa.shape[1:])
        n_out = self.out_len(t_in)
        if n_out == 0:
            return np.zeros((0,) + out_shape, dtype=xa.dtype)
        # cols[e]: effective frame e (input frame e - padding) as its
        # (C*KH*KW, H'*W') im2col block, written once per frame
        xa = np.ascontiguousarray(xa)  # the views below index its buffer
        pad, kh, kw = self.padding, self.k_h, self.k_w
        if pad == 0 and kh == kw == 1:
            cols = xa.reshape(t_in, self.c_in, oh * ow)
        else:
            cols = np.zeros((pad + t_in, self.c_in * kh * kw, oh * ow), xa.dtype)
            shape = (t_in, self.c_in, kh, kw, oh, ow)
            st, sc, sh, sw = xa.strides
            np.copyto(cols[pad:].reshape(shape),
                      np.ndarray(shape, xa.dtype, xa, 0, (st, sc, sh, sw, sh, sw)))
        # emission j reads effective frames j*stride + i*dilation, i = 0 the
        # oldest: (n_out, k_t, C*KH*KW, H'*W') blocks, whose reshape is a view
        # when the frames are adjacent (dilation 1) and a copy otherwise
        f, r, c = cols.strides
        wins = np.ndarray((n_out, self.k_t) + cols.shape[1:], cols.dtype, cols, 0,
                          (self.temporal_stride * f, self.dilation * f, r, c))
        w_cat, bias = self._w[xa.dtype]
        y = w_cat @ wins.reshape(n_out, w_cat.shape[1], oh * ow)
        y += bias[:, None]
        return y.reshape((n_out,) + out_shape)

    # -- step mode ----------------------------------------------------------------

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> _ConvState:
        """A stream's ring; the first stream of a layout arranges the step
        path for every later one.  Racing streams keep the first entry."""
        table = self._step_table.get(dtype)
        if table is None:
            w_cat, _ = self._w[dtype]
            taps = w_cat.reshape(self.c_out, self.k_t, -1)[:, ::-1].swapaxes(0, 1)  # newest first
            new = (_frozen(taps[0].copy()), {}, self._plan(taps))
            table = self._step_table.setdefault(dtype, new)
        layouts = table[1]
        if frame_shape not in layouts:
            cols = math.prod(self.out_frame_shape(frame_shape)[1:])
            plane = _frozen(np.repeat(self._w[dtype][1][:, None], cols, axis=1))
            index = (_unfold_index(frame_shape, self.k_h, self.k_w)
                     if self.k_h > 1 or self.k_w > 1 else None)
            layouts.setdefault(frame_shape, (plane, index))
        plane = layouts[frame_shape][0]
        ring = np.empty((self._dp * self._mp * self.c_out, plane.shape[1]), dtype)
        ring.reshape(-1, *plane.shape)[...] = plane  # every pending emission starts at the bias
        return _ConvState(ring, frame_shape)

    def _plan(self, taps: np.ndarray) -> list:
        """The ring's schedule from the (k_t, c_out, C*KH*KW) taps, newest
        first: ``plan[t mod len(plan)]`` is step ``t``'s ``(out, adds,
        lag)``, the row of the slot its emission completes in (``None`` when
        none does), the ``(lo, hi, w)`` products ``ring[lo:hi] += w @ x`` of
        its frame's older taps, and the row of the emission aligned with the
        frame, for a lagged term (``None`` at delay 0 and when ``t mod
        stride`` is not 0)."""
        m, d, s, c = self.k_t - 1, self.dilation, self.temporal_stride, self.c_out
        d0 = self._delay % s
        dp, mp = self._dp, self._mp

        def row(j):  # the first row of emission j's slot
            return (j % dp * mp + j // dp % mp) * c if mp else 0

        tables = {}  # the taps of each phase that feeds any, laid twice
        plan = []
        for t in range(s * max(dp * mp, 1)):
            q, r = divmod(t - d0, s)
            ks = [k for k in range(1, m + 1) if (r + k * d) % s == 0]
            adds = []
            if ks:
                n, j = len(ks), q + (r + ks[0] * d) // s  # tap ks[i] feeds j + i*dp
                table = tables.get(tuple(ks))
                if table is None:
                    table = tables[tuple(ks)] = _frozen(taps[ks * 2])
                lo, p = j % dp * mp * c, j // dp % mp
                if n == mp:  # the whole sub-ring: its slot p' takes tap ks[(p' - p) mod mp]
                    adds.append((lo, lo + mp * c, table[(mp - p) % mp:][:mp].reshape(mp * c, -1)))
                else:  # n slots from p on, split where the sub-ring wraps
                    w = table[:n].reshape(n * c, -1)
                    head = min(n, mp - p)
                    adds.append((lo + p * c, lo + (p + head) * c, w[:head * c]))
                    if head < n:
                        adds.append((lo, lo + (n - head) * c, w[head * c:]))
            lag = row((t + self._delay - d0) // s) if self._delay and t % s == 0 else None
            plan.append((row(q) if r == 0 else None, adds, lag))
        return plan

    def _step(self, state: _ConvState, xa: np.ndarray,
              lagged: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """One frame in, the emission it completes out (``None`` if none).
        ``lagged``, handed in only on steps with ``t mod stride == 0``, is a
        (c_out, H'*W') term added to the emission ``delay()`` steps later,
        the one aligned with this frame."""
        w_new, layouts, plan = self._step_table[xa.dtype]
        plane, index = layouts[state.shape]
        t = state.t
        state.t += 1
        out, adds, lag = plan[t % len(plan)]
        if index is not None:
            x = xa.take(index)  # im2col columns
        else:
            x = xa if xa.ndim == 2 else xa.reshape(self.c_in, -1)  # (C, H*W) rows
        ring, c = state.ring, self.c_out
        y = None
        if out is not None:
            slot = ring[out:out + c] if self.k_t > 1 else plane  # k_t = 1 keeps no ring
            if t >= self._delay:
                y = np.dot(w_new, x) + slot
            # the freed slot starts its next emission at the bias, and at
            # bias + lagged when that emission is the aligned one
            if lag == out and lagged is not None:
                np.add(lagged, plane, out=slot)
            elif self.k_t > 1:
                slot[...] = plane
        if lagged is not None and lag != out:
            if self._delay:  # into the aligned emission's pending slot
                sub = ring[lag:lag + c]
                sub += lagged
            else:
                y += lagged
        for lo, hi, w in adds:
            sub = ring[lo:hi]  # bound first: ring[lo:hi] += would also copy it back
            sub += np.dot(w, x)
        if y is not None and xa.ndim == 3:
            y = y.reshape(c, xa.shape[1] - self.k_h + 1, -1)  # (c_out, H', W')
        return y

    # -- analytic cost ---------------------------------------------------------------

    def _per_emission(self, frame_shape: tuple) -> OpCount:
        out = math.prod(self.out_frame_shape(frame_shape))
        macs = out * self.c_in * self.k_t * self.k_h * self.k_w
        return OpCount(macs=macs, other=out)  # bias adds

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return self._per_emission(frame_shape).per_input(self.temporal_stride)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return self._per_emission(frame_shape).scaled(self.out_len(t))
