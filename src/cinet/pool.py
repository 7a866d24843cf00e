"""Continual temporal pooling: windowed average and maximum.

In step mode both kinds run one kernel, the block prefix/suffix scheme of
van Herk and Gil--Werman, with ``op`` the sum or the maximum.  The stream
splits into blocks of ``window`` frames; a leading ``padding`` counts as
zero frames opening the first block, so step ``t`` sits at block position
``r = (t + padding) mod window``.  ``prefix`` holds ``op`` over the current
block so far (f64 for the average, the stream dtype for the maximum).  A
ring of ``window - 1`` slots in the stream dtype holds block positions
``1 .. window - 1``, position ``r`` at slot ``window - 1 - r``; the frame
at position 0 lives only in the prefix.  When a block completes, one
forward ``op.accumulate`` over the ring turns its frames into suffix
partials in place: slot ``s`` then reduces the last block's positions
``window - 1 - s`` on.  The window ending at step ``t`` is the current
block's ``r + 1`` frames plus the last block's frames from position
``r + 1`` on, so its output is one ``op`` of the prefix with one slot, or
the prefix alone when ``r = window - 1``: amortized O(1) operations per
element per step.  The average accumulates its partials in f64 and rounds
each once into the ring, then divides by ``window``.  Every partial covers
frames of one window only, so nothing drifts on an endless stream and a
non-finite frame reaches exactly the outputs whose window holds it.  Step
maxima equal clip maxima bit for bit, except that a tie of -0.0 and +0.0
may take either sign.  Zero padding is rejected for max pooling because
padding with zeros corrupts maxima of negative signals.

In clip mode both kinds run one kernel, ``_window_reduce``, over doubling
levels: level ``b`` holds the sum or maximum of every span of ``2**b``
consecutive frames, one elementwise call on the level below, and each set
bit of ``window`` folds one slice of its level into the outputs.  That is
``log2(window) + popcount(window)`` contiguous calls and O(T log window)
work over a ``T``-frame clip, with no loop over frames.  The average sums in
f64 from the first level on, with a leading ``padding`` as zero frames in
front of the clip, and divides once; the maximum is exact, so it equals a
per-window maximum bit for bit.  Clip mode has the same non-finite locality
as step mode.

``cinet.graph.GlobalAverageHead`` runs an average pool with ``window`` set
to its temporal receptive field, over per-frame ``(classes,)`` logits rather
than whole frames: the node mean and the classifier are linear, so they
commute with the temporal average and the pool's ring stays class-sized.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .module import CoModule, OpCount, ring_buffer


def _window_reduce(op, e: np.ndarray, w: int, n_out: int, dtype) -> np.ndarray:
    """``op`` over each run of ``w`` consecutive frames of ``e``, computed in
    ``dtype``: output ``j < n_out`` reduces frames ``j .. j + w - 1``.

    ``s[i]`` is ``op`` over frames ``i .. i + span - 1``, each level one call
    on the level below.  Each set bit ``span`` of ``w`` folds ``s[off + j]``
    into output ``j``, and the next set bit's spans start where these end.
    """
    out = None
    off, span, s = 0, 1, e
    while True:
        if w & span:
            part = s[off:off + n_out]
            if out is None:  # a level is ours to overwrite once the next is built
                out = part if s is not e else part.astype(dtype)
            else:
                op(out, part, out=out)
            off += span
        if 2 * span > w:
            return out
        s = op(s[:-span], s[span:], dtype=dtype)
        span *= 2


class _PoolState:
    __slots__ = ("t", "ring", "prefix")

    def __init__(self):
        self.t = 0
        self.ring = None  # (window-1, ...) block frames, then suffix partials; see above
        self.prefix = None  # op over the current block's frames so far


class TemporalPool(CoModule):
    def __init__(self, kind: str, window: int, padding: int = 0):
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

    @property
    def refresh_interval(self) -> int:
        # steps between rebuilds of the suffix partials, which perfbench's refresh counter reads
        return self.window

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
        if self.kind == "max":
            return _window_reduce(np.maximum, xa, self.window, n_out, xa.dtype)
        if self.padding:
            xa = np.concatenate([np.zeros((self.padding,) + xa.shape[1:], xa.dtype), xa])
        total = _window_reduce(np.add, xa, self.window, n_out, np.float64)
        total /= self.window
        return total.astype(xa.dtype, copy=False)

    # -- step mode ----------------------------------------------------------------

    def init_state(self) -> _PoolState:
        return _PoolState()

    def _step(self, state: _PoolState, xa: np.ndarray) -> Optional[np.ndarray]:
        w = self.window
        avg = self.kind == "avg"
        op = np.add if avg else np.maximum
        ring = state.ring = ring_buffer(state.ring, (w - 1,) + xa.shape, xa.dtype)
        prefix = state.prefix
        if prefix is None:  # zeros: the padding frames before the stream
            prefix = state.prefix = np.zeros(xa.shape, np.float64 if avg else xa.dtype)
        t = state.t
        state.t += 1
        r = (t + self.padding) % w
        if r:
            op(prefix, xa, out=prefix)
            ring[w - 1 - r] = xa
        else:
            prefix[...] = xa
        if r < w - 1:
            if t < self.delay():
                return None
            y = op(ring[w - 2 - r], prefix)
        else:
            y = prefix.copy()
            # the block is complete: slot s becomes op over its positions w-1-s .. w-1
            if avg:
                ring[...] = np.add.accumulate(ring, axis=0, dtype=np.float64)
            else:
                np.maximum.accumulate(ring, axis=0, out=ring)
        if not avg:
            return y
        y /= w
        return y.astype(xa.dtype, copy=False)

    # -- analytic cost ----------------------------------------------------------
    # step, per element: one prefix op, one output combine, one amortized
    # suffix op for the rebuild of the partials, and for the average one
    # divide.  The clip count is the paper's naive recomputation of every
    # window, which AC3, AC5 and `cinbench flops` compare against.  `_clip`
    # runs the doubling levels instead on purpose: about log2(window)
    # operations per clip element and popcount(window) + 1 per output
    # element, far fewer than this count on a clip of many windows, more on a
    # clip of one (w log2 w against w).

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n = int(np.prod(frame_shape))
        return OpCount(macs=0, other=(4 if self.kind == "avg" else 3) * n)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        n = int(np.prod(frame_shape))
        per_out = n * self.window if self.kind == "avg" else n * (self.window - 1)
        return OpCount(macs=0, other=per_out * self.out_len(t))
