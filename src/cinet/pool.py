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

The maximum splits the stream into blocks of ``window`` frames and keeps
two arrays in the stream dtype: the running maximum of the current block so
far (its prefix) and a ring of ``window`` slots.  At step ``t``, with
``r = t mod window``, slots ``0..r`` hold the current block's frames and the
slots after ``r`` the elementwise suffix maxima of the last complete block,
which the ring recomputes in place when a block completes.  The window
ending at step ``t`` is the current block's ``r + 1`` frames plus the last
block's frames from slot ``r + 1`` on, so its maximum is one comparison of
the prefix with slot ``r + 1``: amortized O(1) comparisons per element per
step.  Zero padding is rejected for max pooling because padding with zeros
corrupts maxima of negative signals.

In clip mode both kinds run one kernel, ``_window_reduce``, over doubling
levels: level ``b`` holds the sum or maximum of every span of ``2**b``
consecutive frames, one elementwise call on the level below, and each set
bit of ``window`` folds one slice of its level into the outputs.  That is
``log2(window) + popcount(window)`` contiguous calls and O(T log window)
work over a ``T``-frame clip, with no loop over frames.  The average sums in
f64 from the first level on, with a leading ``padding`` as zero frames in
front of the clip, and divides once; the maximum is exact, so it equals a
per-window maximum bit for bit.  Every partial result covers frames of one
window only, so in clip mode a non-finite frame reaches exactly the outputs
whose window holds it.  Step-mode maxima keep that locality too, but the
average's running sum stays non-finite after such a frame has left the
window, until its next refresh from the ring.

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
    __slots__ = ("t", "ring", "running_sum", "prefix")

    def __init__(self):
        self.t = 0
        self.ring = None  # avg: (window-1, ...) older frames; max: (window, ...), see above
        self.running_sum = None  # avg: f64 sum of the ring's frames
        self.prefix = None  # max: running max of the current block's frames


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
        if self.kind == "max":
            return self._max_step(state, xa)
        n = self.window - 1
        ring = state.ring = ring_buffer(state.ring, (n,) + xa.shape, xa.dtype)
        t = state.t
        state.t += 1
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

    def _max_step(self, state: _PoolState, xa: np.ndarray) -> Optional[np.ndarray]:
        w = self.window
        ring = state.ring = ring_buffer(state.ring, (w,) + xa.shape, xa.dtype)
        prefix = state.prefix = ring_buffer(state.prefix, xa.shape, xa.dtype)
        t = state.t
        state.t += 1
        r = t % w  # slots 0..r: this block's frames; r+1..: the last block's suffix maxima
        ring[r] = xa
        if r:
            np.maximum(prefix, xa, out=prefix)
        else:
            prefix[...] = xa
        if r < w - 1:
            return np.maximum(ring[r + 1], prefix) if t >= w - 1 else None
        for i in range(w - 2, -1, -1):  # the block is complete: its suffix maxima, in place
            np.maximum(ring[i], ring[i + 1], out=ring[i])
        return prefix.copy()

    # -- analytic cost ----------------------------------------------------------
    # avg step: add + subtract + divide per element; max step: one prefix
    # comparison, one output combine, one amortized suffix comparison.
    # Maintenance refreshes are excluded from the counts.  The clip count is
    # the paper's naive recomputation of every window, which AC3, AC5 and
    # `cinbench flops` compare against.  `_clip` runs the doubling levels
    # instead on purpose: about log2(window) operations per clip element and
    # popcount(window) + 1 per output element, far fewer than this count on a
    # clip of many windows, more on a clip of one (w log2 w against w).

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n = int(np.prod(frame_shape))
        return OpCount(macs=0, other=3 * n)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        n = int(np.prod(frame_shape))
        per_out = n * self.window if self.kind == "avg" else n * (self.window - 1)
        return OpCount(macs=0, other=per_out * self.out_len(t))
