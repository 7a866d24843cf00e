"""Continual temporal/3D convolution as a FIR filter over a frame stream.

Temporal taps are indexed newest-first, like FIR coefficients: tap ``k``
multiplies the frame ``k * dilation`` steps back from the emission step.
Spatially each tap is an ordinary stride-1 cross-correlation.  Zero padding
is leading-only (``padding`` virtual zero frames before the stream); trailing
padding would require peeking into the future and is never applied.  A
frame is ``(C, H, W)``, or ``(C, N)`` for a 1x1 kernel, which emits ``(c_out,
N)``: the skeleton block's nodes need no made-up unit axis.

Two step-mode arrangements are provided.  Each keeps its stream state in one
2-D ring of ``rf - 1`` slots (``rf`` the receptive field), made when the
stream binds (``cinet.module.Stream``), so it never grows or reallocates.
Slot ``s`` is the ``R`` rows from ``s*R`` on of a ``((rf-1)*R, H*W)``
matrix: a frame read as ``(R, H*W)`` enters by one row-slice write, and the
products read the ring in place.  Both read the ring with one
geometry: ``d = dilation`` contiguous sub-rings of ``m = k_t - 1`` slots,
step ``t`` owning slot ``(t // d) mod m`` of sub-ring ``t mod d``.  The
frames of one window are ``d`` steps apart, so they and the sums they feed
share a sub-ring, which then works as an undilated ring of ``m`` slots at
phase ``p = (t // d) mod m``:

- ``pre``  (direct form): the ring holds the previous raw input frames,
  ``R = C``.  An emission is two matrix products: the newest tap on the
  newest frame, and the older taps on the sub-ring read in place in slot
  order.  The ring starts at zero: unwritten slots are the virtual frames
  before the stream.  The bias is added to each emission.
- ``post`` (transposed form): the ring holds partial sums, ``R = c_out``,
  one slot per pending emission, and a slot starts at the bias (the ring is
  filled with it, for the first emissions of a padded conv read slots never
  freed).  An emission adds the newest tap's product to its slot; the slot
  starts over at the bias, and one matrix product of the older taps on the
  arriving frame adds to every slot of the sub-ring, the oldest tap starting
  the emission ``rf - 1`` steps later in the slot just freed.  A step may
  hand in a lagged term, which joins the emission ``delay()`` steps later,
  the one aligned with its frame: it starts the freed slot with the bias
  when unpadded, joins that emission's pending slot when padded, and goes
  straight into the emission at delay 0.  A block adds its shortcut so,
  with no ring of inputs awaiting it (``cinet.graph``).

In both, phase ``p`` takes the older taps rotated by ``p``, a view of one
table that holds them twice over, so the weights of every phase cost twice
the taps' bytes.  ``post`` is taken when it caches fewer elements and the
stride is 1, ``pre`` otherwise: ``pre`` computes on emitting steps only,
while ``post`` convolves every frame.  A caller may ask ``_state`` for
``post`` instead, as a block with a lagged shortcut does.

The layer arranges its weights once, in both stream dtypes at construction:
the clip product's oldest-first matrix, with the bias.  The step path's
layout takes its taps from that matrix and depends on the frame shape too,
so it is made when the first stream of each dtype and frame shape binds,
and kept on the module.  A spatial kernel is unfolded (im2col) through
gather indices built at the same time; a 1x1 kernel needs no unfolding, so
each product reads its frames, and a ``pre`` sub-ring, in place.

Both emit on exactly the same schedule and differ only in summation order.

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
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError
from .module import CoModule, OpCount, per_dtype
from .tensor import Tensor


def _unfold_index(frames: int, frame_shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Gather index that unfolds ``frames`` stacked (C, H, W) frames into
    im2col columns: row (frame, c, a, b), column (i, j) picks element
    ``[frame, c, i + a, j + b]`` of the flattened stack."""
    c, h, w = frame_shape
    flat = np.arange(frames * c * h * w).reshape(frames * c, h, w)
    win = np.lib.stride_tricks.sliding_window_view(flat, (kh, kw), axis=(1, 2))
    return win.transpose(0, 3, 4, 1, 2).reshape(frames * c * kh * kw, -1)


class _Layout(NamedTuple):
    """What the step path needs for one frame dtype and shape, made once.

    ``w_new`` is the newest tap's (c_out, C*KH*KW) weights.  ``plan[p]`` is
    the older taps' weights at sub-ring phase ``p``, one entry per phase
    (none when k_t = 1): for ``pre`` a (c_out, (k_t-1)*C*KH*KW) matrix over
    the sub-ring's frames in slot order, for ``post`` a ((k_t-1)*c_out,
    C*KH*KW) matrix whose block ``s`` is the tap that sub-ring slot ``s``
    collects.  ``cols`` unfolds one frame into im2col columns and
    ``ring_cols`` the k_t-1 frames of a ``pre`` sub-ring; both are ``None``
    for 1x1 kernels.  ``bias`` is (c_out, 1), added to a ``pre`` emission's
    (c_out, H'*W') columns and the start of every ``post`` slot.
    """

    form: str
    out_shape: tuple
    ring_shape: tuple
    w_new: np.ndarray
    plan: list
    bias: np.ndarray
    cols: Optional[np.ndarray]
    ring_cols: Optional[np.ndarray]


class _ConvState:
    __slots__ = ("ring", "t")

    def __init__(self, ring):
        # pre: ((rf-1)*C, H*W) raw frames, post: ((rf-1)*O, H'*W') partial sums,
        # slot s from row s*C (s*O); read as dilation sub-rings of k_t-1 slots
        self.ring = ring
        self.t = 0  # steps consumed; it places step t's slot in the ring


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
        # (c_out, k_t*C*KH*KW) weights, taps oldest first, and the (c_out,) bias
        self._w = per_dtype(lambda dt: (
            weights.array.astype(dt)[:, :, ::-1].swapaxes(1, 2).reshape(self.c_out, -1),
            bias.array.astype(dt)))
        self._layouts = {}  # (dtype, frame shape) -> _Layout, made by its first stream

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

    def cache_elements(self, frame_shape: tuple) -> dict:
        """Cache sizes of both arrangements and the one the step path takes:
        ``post`` if it caches fewer elements and the stride is 1, else ``pre``
        (a strided ``post`` would convolve the frames ``pre`` skips)."""
        pre = (self._rf - 1) * math.prod(frame_shape)
        post = (self._rf - 1) * math.prod(self.out_frame_shape(frame_shape))
        post_wins = post < pre and self.temporal_stride == 1
        return {"pre": pre, "post": post, "chosen": "post" if post_wins else "pre"}

    # -- clip mode --------------------------------------------------------------

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        if xa.ndim != 4:
            if xa.ndim == 3 and self.k_h == self.k_w == 1:
                # (T, C, N) as (T, C, N, 1) through this kernel, not an override
                return TemporalConv._clip(self, xa[..., None])[..., 0]
            raise DimensionError(f"clip must be (T,C,H,W), or (T,C,N) for a 1x1 kernel, "
                                 f"got {xa.shape}")
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

    def _state(self, frame_shape: tuple, dtype: np.dtype,
               form: Optional[str] = None) -> _ConvState:
        """A stream's ring, in the arrangement ``cache_elements`` chooses or,
        when given, in ``form``; the layout it makes is kept for every later
        stream of this dtype and frame shape, which must take the same form."""
        lay = self._layouts.get((dtype, frame_shape))
        if lay is None:
            lay = self._layout(dtype, frame_shape, form)
        elif form not in (None, lay.form):
            raise ValueError(f"conv steps {frame_shape} frames in {lay.form}, not {form}")
        if lay.form == "pre":
            return _ConvState(np.zeros(lay.ring_shape, dtype))
        ring = np.empty(lay.ring_shape, dtype)  # every pending emission starts at the bias
        ring.reshape(self._rf - 1, self.c_out, -1)[...] = lay.bias
        return _ConvState(ring)

    def _layout(self, dtype: np.dtype, frame_shape: tuple, form: Optional[str]) -> _Layout:
        out_shape = self.out_frame_shape(frame_shape)
        form = form or self.cache_elements(frame_shape)["chosen"]
        m = self.k_t - 1
        w_cat, bias = self._w[dtype]
        taps = w_cat.reshape(self.c_out, self.k_t, -1)[:, ::-1].swapaxes(0, 1)  # newest first
        # the tap each slot of a sub-ring pairs with at phase 0, taken mod m
        # (0 is the oldest tap, m): pre slot s holds the frame tap -s reads,
        # post slot s collects tap s's product.  Laid twice, the table holds
        # phase p's taps from block (m - p) mod m on
        order = [(-s if form == "pre" else s) % m or m for s in range(m)] * 2
        slot = frame_shape if form == "pre" else out_shape
        ring_shape = ((self._rf - 1) * slot[0], math.prod(slot[1:]))
        ring_cols = None
        if form == "pre":
            table = np.ascontiguousarray(taps[order].transpose(1, 0, 2))
            plan = [table[:, (m - p) % m:][:, :m].reshape(self.c_out, -1) for p in range(m)]
            if m and (self.k_h > 1 or self.k_w > 1):
                ring_cols = _unfold_index(m, frame_shape, self.k_h, self.k_w)
        else:
            table = taps[order]
            plan = [table[(m - p) % m:][:m].reshape(-1, taps.shape[2]) for p in range(m)]
        cols = None
        if self.k_h > 1 or self.k_w > 1:
            cols = _unfold_index(1, frame_shape, self.k_h, self.k_w)
        lay = _Layout(form, out_shape, ring_shape, taps[0].copy(), plan, bias[:, None], cols,
                      ring_cols)
        self._layouts[(dtype, frame_shape)] = lay
        return lay

    def _step(self, state: _ConvState, xa: np.ndarray,
              lagged: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """One frame in, the emission it completes out (``None`` if none).
        ``lagged``, ``post`` only, is a (c_out, H'*W') term added to the
        emission ``delay()`` steps later, the one aligned with this frame."""
        lay = self._layouts[xa.dtype, xa.shape]
        m, d = self.k_t - 1, self.dilation
        ring = state.ring
        t = state.t
        state.t += 1
        emits = t >= self._delay and (t - self._delay) % self.temporal_stride == 0
        if lay.cols is not None and lay.form == "post":
            x = xa.take(lay.cols)  # the frame's im2col columns
        else:
            x = xa if xa.ndim == 2 else xa.reshape(self.c_in, -1)  # (C, H*W) rows
        y = None
        if lay.form == "pre":
            if emits:
                y = lay.w_new @ (x if lay.cols is None else xa.take(lay.cols))
            if m:
                c = self.c_in  # sub-ring slot s: rows s*c .. s*c + c
                sub = ring if d == 1 else ring[t % d * m * c:(t % d * m + m) * c]
                p = t // d % m
                if emits:
                    y += lay.plan[p] @ (sub if lay.ring_cols is None
                                        else sub.take(lay.ring_cols))
                sub[p * c:p * c + c] = x
            if y is not None:
                y += lay.bias
        else:
            c = self.c_out
            sub = ring if d == 1 else ring[t % d * m * c:(t % d * m + m) * c]
            p = t // d % m
            slot = sub[p * c:p * c + c]
            if emits:
                y = lay.w_new @ x + slot
            # the freed slot starts the emission rf - 1 steps later at the
            # bias, and at bias + lagged when that emission is the aligned one
            lag = self._delay
            if lagged is None:
                slot[...] = lay.bias
            elif lag == m * d:
                np.add(lagged, lay.bias, out=slot)
            else:
                slot[...] = lay.bias
                if lag:  # padded: into the aligned emission's pending slot
                    s = t + lag
                    r = (s % d * m + s // d % m) * c
                    ring[r:r + c] += lagged
                else:
                    y += lagged
            sub += lay.plan[p] @ x
        if y is not None and xa.ndim == 3:
            y = y.reshape(lay.out_shape)
        return y

    # -- analytic cost ---------------------------------------------------------------

    def _per_emission(self, frame_shape: tuple) -> OpCount:
        out = math.prod(self.out_frame_shape(frame_shape))
        macs = out * self.c_in * self.k_t * self.k_h * self.k_w
        return OpCount(macs=macs, other=out)  # bias adds

    def step_cost(self, frame_shape: tuple) -> OpCount:
        per = self._per_emission(frame_shape)
        if self.temporal_stride == 1:
            return per
        return per.scaled(1 / self.temporal_stride)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return self._per_emission(frame_shape).scaled(self.out_len(t))
