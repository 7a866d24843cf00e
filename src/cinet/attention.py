"""Continual scaled dot-product attention and the transformer encoder block.

Two step forms are implemented over a sliding window of ``n`` tokens:

- retroactive: every step emits updated outputs for all ``n`` window
  positions.  The row-normalizers ``d_mem`` and the weighted values
  ``av_mem`` are updated by subtracting the contribution of the departing
  key/value and adding the new one; only the newest row is computed from
  scratch.  Cost per step is O(n*d) instead of O(n^2*d).
- single-output: every step emits only the current query's attention row,
  using cached keys/values.

Rows are ``(..., d)``, one independent stream per index of the leading
axes; multi-head attention passes its heads as a ``(heads,)`` axis, axis -3
of window rows.  :func:`sda_full` takes the same leading axes, so one
batched kernel serves clip mode, window input and step-mode refreshes.
Clip mode runs it over a ``(W, n, ...)`` strided view of the clip's ``W``
windows, ``WINDOW_BATCH`` per call; the single-output form, on newest rows alone.

A stream's first row binds it (``cinet.module.Stream``): every state array
is made then, zero-initialised, and a later row that drifts in shape or
dtype is refused before it reaches a kernel.  ``att_step`` binds the stream
on its value row, whose shape ``(..., d_v)`` fixes every array; a
self-attention step binds it on its token.  All state is ``(..., n, d)``
rows in window order, oldest first, each array shifted by one row per step
(``_push``) and attended over in place: O(n*d), the order of the update
itself, with no gather or copy.  Retroactive attention keeps
f64 queries, keys, values and ``[av | d]``, reads the departing key/value
from the oldest row before the push, and reads its emission off ``[av |
d]``.  The fused ``avd_mem`` holds each row's weighted values ``av`` and
row sum ``d`` side by side, so one ``(n-1, 2) @ (2, d_v+1)`` product by
the departing ``[v | 1]`` row negated and the arriving one updates both;
``d_mem`` and ``av_mem`` are views of it.  Single-output attention keeps
keys and values in the stream dtype.

Multi-head attention is self-attention, stepped by token and with no
``att_step``: it projects a token or window by one matmul with
``w_q | w_k | w_v``, concatenated in both stream dtypes at construction,
and reads the head rows as views of that product.  In step mode a
retroactive head's product is cast to f64 once, and one ``reshape(3,
heads, d_h)`` of it yields every head's q, k and v row.  Rows are checked
where they enter: a token when its stream binds, a clip when ``forward``
starts, and a head's q, k and v rows on every ``att_step``; multi-head
attention hands its own projections to its head's kernel, which checks
nothing.

:class:`EncoderBlock` takes its step form and window from its attention; a
positional encoding is a ``Sequential`` stage ahead of a token-input block.
Single-output clip mode, and a window-input block (the single-output block
after a retroactive one) in both modes, compute a window's newest row alone:
keys and values of all ``n`` rows, the query of that row, and attention,
residual, LayerNorms and feed-forward on it.

Numerical-stability choices: the subtract/add updates rule out the usual
max-subtraction softmax trick, so (a) ``d_mem``/``av_mem`` accumulate in f64
even for f32 tokens, (b) both are recomputed from the cached window every
``RetroAttention.refresh_interval`` steps (64 under multi-head attention)
to bound drift, and (c) exponent arguments are
clamped to +-30 (exp overflows f32 near 88; 30 leaves headroom through
subtraction chains) with a counter recording clamp events.  One reduction,
``max |logits|``, checks the clamp; the clamped elements are counted and
clipped only when it trips, which a NaN logit also does.

The 1/sqrt(d) scaling is applied in every exponent, including the
incremental update terms; dropping it there (``scale_updates=False``) is
supported only as a diagnostic knob and breaks window equivalence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DimensionError
from .module import CoModule, OpCount, PerFrame, StepOutput, per_dtype
from .tensor import Tensor
from .norm import LayerNorm

LOGIT_CLAMP = 30.0
WINDOW_BATCH = 128  # clip-mode windows per kernel call, bounding its temporaries


def _clamped_exp(logits: np.ndarray, counter: list) -> np.ndarray:
    # one reduction checks the clamp; the clamped elements are counted only
    # when it trips.  Written as "not <=", a NaN trips it too, so a NaN
    # cannot hide a clamped element from the count or from the clip
    if not np.maximum.reduce(np.abs(logits), None) <= LOGIT_CLAMP:  # abs(logits).max()
        counter[0] += int(np.count_nonzero(np.abs(logits) > LOGIT_CLAMP))
        logits = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
    return np.exp(logits)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale, counter=None):
    """``A 1`` and ``A V`` of ``A = exp(Q K^T * scale)`` over leading batch
    axes; logits are clamped and counted when a ``counter`` is given."""
    if q.ndim == 2:  # one stream's rows
        logits = np.dot(q, k.T) * scale
    else:
        logits = q @ k.swapaxes(-1, -2) * scale
    a = np.exp(logits) if counter is None else _clamped_exp(logits, counter)
    # a.sum(-1) without its Python wrapper
    return np.add.reduce(a, -1), np.dot(a, v) if a.ndim == 2 else a @ v


def sda_full(q: Tensor, k: Tensor, v: Tensor, scale: float | None = None) -> Tensor:
    """Reference scaled dot-product attention over complete windows.

    ``A = exp(Q K^T * scale)``, ``D = diag(A 1)``, result ``D^-1 A V``,
    computed directly for each (n, d) window along any leading batch axes;
    ``scale`` defaults to ``1/sqrt(d)``.
    """
    if q.rank < 2 or k.rank != q.rank or v.rank != q.rank:
        raise DimensionError(f"Q, K, V must share a rank >= 2: Q{q.shape} K{k.shape} V{v.shape}")
    if k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise DimensionError(f"window mismatch: Q{q.shape} K{k.shape} V{v.shape}")
    if scale is None:
        scale = 1.0 / float(np.sqrt(q.shape[-1]))  # python float: no f32 upcast
    y = _sda(q.array, k.array, v.array, scale)
    y.setflags(write=False)  # fresh: Tensor.wrap shares it (see cinet.module)
    return Tensor.wrap(y)


def _sda(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale) -> np.ndarray:
    """The kernel behind :func:`sda_full`, on arrays."""
    denom, av = _attend(q, k, v, scale)
    return av / denom[..., None]


def sda_full_cost(n: int, d: int) -> OpCount:
    """Analytic cost of :func:`sda_full`: quadratic in the window length."""
    macs = n * n * d + n * n * d  # Q K^T and A V
    other = n * n + n * n + n * (n - 1) + n * d  # scale, exp, row sums, divide
    return OpCount(macs=macs, other=other)


def _windows(xa: np.ndarray, n: int) -> np.ndarray:
    """A ``(W, n, ...)`` view of the ``W`` complete windows of ``n`` rows of
    ``xa``, oldest first; no windows when ``xa`` has fewer than ``n`` rows."""
    xa = np.ascontiguousarray(xa)
    s = xa.strides
    return np.ndarray((max(len(xa) - n + 1, 0), n) + xa.shape[1:], xa.dtype, xa, 0, s[:1] + s)


def _batched(kernel, windows: np.ndarray) -> np.ndarray:
    """``kernel`` over ``WINDOW_BATCH`` of the ``(W, ...)`` windows at a time,
    as one C-contiguous array: peak memory does not grow with ``W``, and as
    windows are independent, the batch size changes no bit of the result."""
    if len(windows) <= WINDOW_BATCH:
        return np.ascontiguousarray(kernel(windows))
    return np.concatenate([kernel(windows[i:i + WINDOW_BATCH])
                           for i in range(0, len(windows), WINDOW_BATCH)])


def _push(rows: np.ndarray, row: np.ndarray) -> None:
    """Shift window-order ``(..., size, d)`` rows by one, the oldest out, and
    write ``row`` as the newest."""
    rows[..., :-1, :] = rows[..., 1:, :]
    rows[..., -1, :] = row


class _WindowAttention(CoModule):
    """Attention over a window of ``n`` tokens, its emissions aligned with
    the newest token."""

    def delay(self) -> int:
        return 0

    def warmup(self) -> int:
        return self.n - 1

    def receptive_field(self) -> int:
        return self.n


class _RowAttention(_WindowAttention):
    """The attention forms on ``(..., d)`` rows.  ``att_step`` checks its
    rows and binds the stream on the value row; ``_att`` then casts them to
    ``row_dtype``, if set, and runs ``_kernel(state, q, k, v, dtype)``, which
    checks nothing: multi-head attention, whose rows are its own
    projections, casts and calls it directly."""

    row_dtype: Optional[np.dtype] = None  # None: the rows' own dtype

    def att_step(self, state, q: Tensor, k: Tensor, v: Tensor) -> StepOutput:
        """Consume one row each of ``q``, ``k``, ``v``; the emission, or
        ``None`` during warm-up."""
        qa, ka, va = q.array, k.array, v.array
        self._check_rows(qa, ka, va)
        y = self._att(state.bind(self._state, va.shape, va.dtype), qa, ka, va)
        if y is None:
            return None
        y.setflags(write=False)
        return Tensor.wrap(y)

    def _check_rows(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        d = self.d
        if (q.shape[-1:] != (d,) or k.shape != q.shape or v.shape[:-1] != q.shape[:-1]
                or not q.dtype == k.dtype == v.dtype):
            raise DimensionError(
                f"rows must be (..., {d}) with equal leading axes and one dtype, got "
                f"Q{q.shape} {q.dtype} K{k.shape} {k.dtype} V{v.shape} {v.dtype}")

    def _lead(self, frame_shape: tuple) -> tuple:
        """The leading axes of a self-attention token ``(..., d)``."""
        if tuple(frame_shape[-1:]) != (self.d,):
            raise DimensionError(f"tokens must be (..., {self.d}), got {tuple(frame_shape)}")
        return tuple(frame_shape[:-1])

    def _att(self, state, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> Optional[np.ndarray]:
        """Consume one ``(..., d)`` row each of ``q``, ``k``, ``v``; the
        emission in the rows' dtype, or ``None`` during warm-up."""
        dtype = q.dtype
        if self.row_dtype is not None:
            q, k, v = (a.astype(self.row_dtype, copy=False) for a in (q, k, v))
        return self._kernel(state, q, k, v, dtype)

    def _step(self, state, a: np.ndarray) -> Optional[np.ndarray]:
        return self._att(state, a, a, a)


class _RetroCache:
    __slots__ = ("q_mem", "k_mem", "v_mem", "avd_mem", "t", "clamp_events")

    def __init__(self, q_mem, k_mem, v_mem, avd_mem):
        # f64 rows in window order, oldest first; see the module docstring
        self.q_mem = q_mem  # (..., n, d)
        self.k_mem = k_mem  # (..., n, d)
        self.v_mem = v_mem  # (..., n, d_v)
        self.avd_mem = avd_mem  # (..., n, d_v + 1): [av | d], zeros until the first emission
        self.t = 0
        self.clamp_events = [0]

    # views of ``avd_mem``, not slots: a state walk counts each array once
    @property
    def av_mem(self) -> np.ndarray:
        """(..., n, d_v): each window row's exp-weighted sum of values."""
        return self.avd_mem[..., :-1]

    @property
    def d_mem(self) -> np.ndarray:
        """(..., n): each window row's sum of exponentials."""
        return self.avd_mem[..., -1]


class RetroAttention(_RowAttention):
    """Sliding-window self-attention emitting all ``n`` rows each step."""

    row_dtype = np.dtype(np.float64)  # the rings keep f64, whatever the stream's dtype

    def __init__(self, n: int, d: int, refresh_interval: int = 64,
                 scale_updates: bool = True):
        if n < 1:
            raise ValueError("window length must be >= 1")
        self.n = n
        self.d = d
        self.scale = 1.0 / float(np.sqrt(d))
        self.refresh_interval = refresh_interval  # 0 disables refreshes
        self.scale_updates = scale_updates
        # the f64 exponent scales as 0-d arrays, which a ufunc takes faster
        # than a Python float, and the signs of the departing and arriving
        # rows in an update
        self._scale = np.array(self.scale)
        self._upd_scale = self._scale if scale_updates else np.array(1.0)
        self._signs = np.array([-1.0, 1.0])

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return self._lead(frame_shape) + (self.n, self.d)

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> _RetroCache:
        """f64 rows for a stream of ``(..., d_v)`` value rows of ``dtype``."""
        lead, d_v = tuple(frame_shape[:-1]), frame_shape[-1]
        return _RetroCache(*(np.zeros(lead + (self.n, e)) for e in (self.d, self.d, d_v, d_v + 1)))

    # -- step ------------------------------------------------------------------

    def _kernel(self, state: _RetroCache, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                dtype: np.dtype) -> Optional[np.ndarray]:
        """One f64 row each of a stream of ``dtype``: the ``(..., n, d_v)``
        window outputs, oldest row first, in ``dtype``."""
        n, m = self.n, self.n - 1
        q_mem, k_mem, v_mem, avd = state.q_mem, state.k_mem, state.v_mem, state.avd_mem
        t = state.t
        state.t += 1
        from_scratch = (
            t <= m  # warm-up, and the first emission
            or n == 1
            or (self.refresh_interval and (t - m) % self.refresh_interval == 0)
        )
        if not from_scratch:
            # the window's rows but the newest lose the oldest key/value and
            # gain the arriving one, moving up one row as they do: one
            # product by the departing [v | 1] row negated and the arriving one
            k_pair = np.empty(k.shape + (2,))  # (..., d, 2): departing, arriving
            k_pair[..., 0] = k_mem[..., 0, :]
            k_pair[..., 1] = k
            q_old = q_mem[..., 1:, :]
            qk = np.dot(q_old, k_pair) if q_old.ndim == 2 else q_old @ k_pair
            e = _clamped_exp(qk * self._upd_scale, state.clamp_events)
            v_pair = np.empty(v.shape[:-1] + (2, v.shape[-1] + 1))  # (..., 2, d_v + 1)
            np.negative(v_mem[..., 0, :], out=v_pair[..., 0, :-1])
            v_pair[..., 1, :-1] = v
            v_pair[..., -1] = self._signs
            upd = np.dot(e, v_pair) if e.ndim == 2 else e @ v_pair
            upd += avd[..., 1:, :]
            avd[..., :-1, :] = upd
        _push(q_mem, q)
        _push(k_mem, k)
        _push(v_mem, v)
        if t < m:
            return None
        if from_scratch:
            denom, av = _attend(q_mem, k_mem, v_mem, self._scale, state.clamp_events)
            avd[..., :-1] = av
            avd[..., -1] = denom
        else:
            denom, av = _attend(q[..., None, :], k_mem, v_mem, self._scale,
                                state.clamp_events)
            avd[..., -1, :-1] = av[..., 0, :]
            avd[..., -1, -1] = denom[..., 0]
        return (avd[..., :-1] / avd[..., -1:]).astype(dtype, copy=False)

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        """Offline self-attention: one full window result per position."""
        return _batched(lambda w: _sda(w, w, w, self.scale), _windows(xa, self.n))

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n, d = self.n, self.d
        macs = 2 * (n - 1) * d + 2 * (n - 1) * d + n * d + n * d  # updates + scratch row
        other = (
            2 * (n - 1)  # update exponentials
            + 2 * (n - 1)  # their scaling
            + 2 * (n - 1) * (1 + d)  # d/av subtract-add
            + n + n + (n - 1)  # scratch exp, scale, row sum
            + n * d  # final divide
        )
        return OpCount(macs=macs, other=other)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return sda_full_cost(self.n, self.d).scaled(self.out_len(t))


class _SingleCache:
    __slots__ = ("k_mem", "v_mem", "t", "clamp_events")

    def __init__(self, k_mem, v_mem):
        self.k_mem = k_mem  # (..., n, d) keys in window order, in their dtype
        self.v_mem = v_mem  # (..., n, d_v)
        self.t = 0
        self.clamp_events = [0]


class SingleAttention(_RowAttention):
    """Sliding-window attention emitting only the newest query's row."""

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ValueError("window length must be >= 1")
        self.n = n
        self.d = d
        self.scale = 1.0 / float(np.sqrt(d))
        self._scale = per_dtype(lambda dt: np.array(self.scale, dt))  # see RetroAttention

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return self._lead(frame_shape) + (self.d,)

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> _SingleCache:
        """Rows of ``dtype`` for a stream of ``(..., d_v)`` value rows."""
        lead, d_v = tuple(frame_shape[:-1]), frame_shape[-1]
        return _SingleCache(np.zeros(lead + (self.n, self.d), dtype),
                            np.zeros(lead + (self.n, d_v), dtype))

    def _kernel(self, state: _SingleCache, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                dtype: np.dtype) -> Optional[np.ndarray]:
        """One row each of ``dtype``, which the rings keep: the newest
        query's ``(..., d_v)`` output."""
        k_mem, v_mem = state.k_mem, state.v_mem
        t = state.t
        state.t += 1
        _push(k_mem, k)
        _push(v_mem, v)
        if t < self.n - 1:
            return None
        denom, av = _attend(q[..., None, :], k_mem, v_mem, self._scale[dtype],
                            state.clamp_events)
        return av[..., 0, :] / denom

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        return _batched(lambda w: _sda(w[:, -1:], w, w, self.scale)[:, 0], _windows(xa, self.n))

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n, d = self.n, self.d
        macs = n * d + n * d  # q K^T and a V
        other = n + n + (n - 1) + d  # scale, exp, sum, divide
        return OpCount(macs=macs, other=other)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        n, d = self.n, self.d
        per = OpCount(macs=2 * n * d, other=2 * n + (n - 1) + d)
        return per.scaled(self.out_len(t))


class MultiheadAttention(_WindowAttention):
    """Continual attention over heads on a leading axis, with stacked projections.

    ``w_q``/``w_k`` are (d_model, d_k), ``w_v`` is (d_model, d_v) and
    ``w_o`` is (d_v, d_o); head ``i`` uses the ``i``-th column slice of
    each.  ``mode`` picks the retroactive or single-output step form; one
    such module steps all heads at once, as ``(heads, d_h)`` rows.
    """

    def __init__(self, mode: str, n: int, w_q: Tensor, w_k: Tensor, w_v: Tensor,
                 w_o: Tensor, heads: int = 1):
        if mode not in ("retro", "single"):
            raise ValueError(f"unknown attention mode {mode!r}")
        self.mode = mode
        self.n = n
        self.heads = heads
        self.d_model = w_q.shape[0]
        self.d_k = w_q.shape[1]
        self.d_v = w_v.shape[1]
        self.d_o = w_o.shape[1]
        if self.d_k % heads or self.d_v % heads:
            raise DimensionError(f"d_k={self.d_k}, d_v={self.d_v} not divisible by {heads} heads")
        if w_k.shape != (self.d_model, self.d_k) or w_v.shape[0] != self.d_model:
            raise DimensionError("projection shapes disagree")
        if w_o.shape[0] != self.d_v:
            raise DimensionError(f"w_o expects {self.d_v} rows, got {w_o.shape[0]}")
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o
        dh_k = self.d_k // heads
        dh_v = self.d_v // heads
        self._head = RetroAttention(n, dh_k) if mode == "retro" else SingleAttention(n, dh_k)
        self._dh_k, self._dh_v = dh_k, dh_v
        w_qkv = np.concatenate([w_q.array, w_k.array, w_v.array], axis=1)
        self._w = per_dtype(lambda dt: (w_qkv.astype(dt), w_o.array.astype(dt)))

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape) != (self.d_model,):
            raise DimensionError(f"token must be ({self.d_model},), got {tuple(frame_shape)}")
        if self.mode == "retro":
            return (self.n, self.d_o)
        return (self.d_o,)

    def _state(self, frame_shape: tuple, dtype: np.dtype):
        return self._head._state((self.heads, self._dh_v), dtype)

    def _split(self, a: np.ndarray) -> np.ndarray:
        """A (d,) or (..., n, d) projection -> (heads, d_h) or (..., heads, n,
        d_h) head rows: a view, which the matmuls read in place."""
        h = a.reshape(a.shape[:-1] + (self.heads, a.shape[-1] // self.heads))
        return h.swapaxes(-3, -2) if h.ndim > 2 else h

    def _heads(self, x: np.ndarray, dtype: Optional[np.dtype] = None) -> tuple:
        """q, k, v head rows of a (d_model,) token or (..., n, d_model)
        windows, cast to ``dtype`` if one is given: one matmul by ``w_q |
        w_k | w_v``, one cast and three views of it."""
        dk, w = self.d_k, self._w[x.dtype][0]
        p = np.dot(x, w) if x.ndim <= 2 else x @ w  # a token, or stacked windows
        if dtype is not None:
            p = p.astype(dtype)
        if p.ndim == 1 and self.d_v == dk:  # a token: rows (3, heads, d_h)
            return p.reshape(3, self.heads, self._dh_k)
        q, k, v = p[..., :dk], p[..., dk:2 * dk], p[..., 2 * dk:]
        return self._split(q), self._split(k), self._split(v)

    def _merge(self, y: np.ndarray) -> np.ndarray:
        """Head outputs (heads, d_h) or (..., heads, n, d_h) -> heads
        concatenated, then ``w_o``."""
        cat = y.swapaxes(-3, -2) if y.ndim > 2 else y
        cat = cat.reshape(cat.shape[:-2] + (self.d_v,))
        w_o = self._w[y.dtype][1]
        return np.dot(cat, w_o) if cat.ndim <= 2 else cat @ w_o

    def _window(self, win: np.ndarray) -> np.ndarray:
        """Attention output (..., n, d_o) of complete (..., n, d_model) windows."""
        return self._merge(_sda(*self._heads(win), self._head.scale))

    def _newest(self, win: np.ndarray) -> np.ndarray:
        """Attention output (..., 1, d_o) of the newest row of complete (...,
        n, d_model) windows: keys and values of every row, one query."""
        w = self._w[win.dtype][0]
        w_q, w_kv = w[:, :self.d_k], w[:, self.d_k:]
        if win.ndim == 2:  # one window, as a window-input block steps
            q, kv = self._split(np.dot(win[-1:], w_q)), np.dot(win, w_kv)
        else:
            q, kv = self._split(win[..., -1:, :] @ w_q), win @ w_kv
        # K^T as contiguous rows: a one-row q K^T is a matrix-vector product,
        # and over a strided K^T BLAS runs it as a transposed gemv whose sums
        # round unlike the window's gemm; laid out this way, the newest row
        # gets the bits that row of ``_window`` gets
        k_t = np.ascontiguousarray(self._split(kv[..., :self.d_k]).swapaxes(-1, -2))
        v = self._split(kv[..., self.d_k:])
        return self._merge(_sda(q, k_t.swapaxes(-1, -2), v, self._head.scale))

    def _step(self, state, a: np.ndarray) -> Optional[np.ndarray]:
        """One token's self-attention: projected once, its heads through
        the head's kernel, merged."""
        q, k, v = self._heads(a, self._head.row_dtype)
        y = self._head._kernel(state, q, k, v, a.dtype)
        return None if y is None else self._merge(y)

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        """Sliding-window offline self-attention; single mode: newest rows only."""
        kernel = self._window if self.mode == "retro" else lambda w: self._newest(w)[:, 0]
        return _batched(kernel, _windows(xa, self.n))

    def _proj_cost(self) -> OpCount:
        return OpCount(macs=self.d_model * (2 * self.d_k + self.d_v))

    def step_cost(self, frame_shape: tuple) -> OpCount:
        per_head = self._head.step_cost((self._dh_k,))
        total = self._proj_cost() + per_head.scaled(self.heads)
        rows = self.n if self.mode == "retro" else 1
        return total + OpCount(macs=rows * self.d_v * self.d_o)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        # a regular transformer's full-window pass: single-mode _clip runs less
        n_out = self.out_len(t)
        per_win = OpCount(macs=self.n * self.d_model * (2 * self.d_k + self.d_v))
        per_win = per_win + sda_full_cost(self.n, self._dh_k).scaled(self.heads)
        per_win = per_win + OpCount(macs=self.n * self.d_v * self.d_o)
        return per_win.scaled(n_out)


class _RpeState:
    __slots__ = ("tau",)

    def __init__(self):
        self.tau = 0


class RecyclingPositionalEncoding(PerFrame):
    """Add positional encodings indexed by a modular time counter.

    Positions are fixed in time rather than in sequence, so cached tokens
    never need re-encoding; after ``period`` steps the encodings repeat.
    Timing and cost are a ``PerFrame``'s; the step counter ``tau`` is the
    one piece of state, so both modes are its own.
    """

    def __init__(self, table: Tensor):
        if table.rank != 2:
            raise DimensionError(f"encoding table must be (period, d), got {table.shape}")
        self.table = table
        self.period = table.shape[0]
        self._w = per_dtype(table.array.astype)

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape) != self.table.shape[1:]:
            raise DimensionError(f"token must be {self.table.shape[1:]}, got {tuple(frame_shape)}")
        return tuple(frame_shape)

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> _RpeState:
        return _RpeState()

    def _step(self, state: _RpeState, a: np.ndarray) -> np.ndarray:
        p = self._w[a.dtype][state.tau]
        state.tau = (state.tau + 1) % self.period
        return a + p

    def _clip(self, a: np.ndarray) -> np.ndarray:
        idx = np.arange(a.shape[0]) % self.period
        return a + self._w[a.dtype][idx]

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return OpCount(other=int(np.prod(frame_shape)))


class _EncoderState:
    __slots__ = ("mha", "tokens")

    def __init__(self, mha_state, tokens):
        self.mha = mha_state
        self.tokens = tokens  # retro: (n, d_model) window of inputs for the residual, oldest first


class EncoderBlock(CoModule):
    """Transformer encoder block over the window of its attention ``mha``.

    ``y = LN(Sel(x) + MHA(x, x, x))``, ``z = LN(y + FF(y))`` with FF an
    affine-ReLU-affine token map.  Mode and window ``n`` are the attention's:
    in single mode ``Sel`` picks the newest token and one row is emitted; in
    retro mode all ``n`` rows are.  A positional encoding is a stage ahead.

    Single-mode clip mode runs ``_newest``, the newest row's kernel, on each
    window; so does a ``window_input=True`` block, in both modes, on the
    complete (n, d) windows an upstream retroactive block emits, keeping no
    state: the two-block wiring, retroactive first and single-output last.
    """

    def __init__(self, mha: MultiheadAttention,
                 ff_w1: Tensor, ff_b1: Tensor, ff_w2: Tensor, ff_b2: Tensor,
                 ln1: LayerNorm, ln2: LayerNorm, window_input: bool = False):
        if window_input and mha.mode != "single":
            raise ValueError("window input is only meaningful for single mode")
        self.mha = mha
        self.d_model = mha.d_model
        self._in_shape = (mha.n, self.d_model) if window_input else (self.d_model,)
        self.ff_dim = ff_w1.shape[1]
        if (mha.d_o != self.d_model or ff_w1.shape[0] != self.d_model
                or ff_w2.shape != (self.ff_dim, self.d_model)):
            raise DimensionError("attention output or feed-forward shapes disagree with d_model")
        if ln1.d != self.d_model or ln2.d != self.d_model:
            raise DimensionError(f"LayerNorms over {ln1.d} and {ln2.d}, not d_model {self.d_model}")
        self.ff_w1, self.ff_b1, self.ff_w2, self.ff_b2 = ff_w1, ff_b1, ff_w2, ff_b2
        self.ln1, self.ln2 = ln1, ln2
        self.window_input = window_input
        # the feed-forward weights, and ReLU's 0 as a 0-d array (see LayerNorm)
        self._w = per_dtype(lambda dt: tuple(
            t.array.astype(dt) for t in (ff_w1, ff_b1, ff_w2, ff_b2)) + (np.zeros((), dt),))

    def delay(self) -> int:
        return 0

    def warmup(self) -> int:
        return 0 if self.window_input else self.mha.n - 1

    def receptive_field(self) -> int:
        return 1 if self.window_input else self.mha.n

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape) != self._in_shape:
            what = "window input" if self.window_input else "token"
            raise DimensionError(f"{what} must be {self._in_shape}, got {tuple(frame_shape)}")
        return self.mha.out_frame_shape((self.d_model,))

    def _state(self, frame_shape: tuple, dtype: np.dtype) -> Optional[_EncoderState]:
        if self.window_input:
            return None
        retro = self.mha.mode == "retro"
        tokens = np.zeros((self.mha.n,) + self._in_shape, dtype) if retro else None
        return _EncoderState(self.mha._state(frame_shape, dtype), tokens)

    # -- shared math -------------------------------------------------------------

    def _ff(self, ya: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2, zero = self._w[ya.dtype]
        h = np.dot(ya, w1) if ya.ndim <= 2 else ya @ w1  # step rows, or stacked windows
        h += b1
        np.maximum(h, zero, out=h)
        y = np.dot(h, w2) if h.ndim <= 2 else h @ w2
        y += b2
        return y

    def _block_tail(self, sel: np.ndarray, att: np.ndarray) -> np.ndarray:
        y = self.ln1._apply(sel + att)
        return self.ln2._apply(y + self._ff(y))

    def _offline_window(self, win: np.ndarray) -> np.ndarray:
        """Full block output for complete (..., n, d_model) windows."""
        return self._block_tail(win, self.mha._window(win))

    def _newest(self, win: np.ndarray) -> np.ndarray:
        """Block output (..., d_model) of the newest row of complete (..., n,
        d_model) windows: the window-input kernel of both modes.  The row
        keeps its window axis through the tail, so a window's products are
        the same BLAS calls whether it comes alone or in a batch."""
        return self._block_tail(win[..., -1:, :], self.mha._newest(win))[..., 0, :]

    # -- step mode ------------------------------------------------------------------

    def _step(self, state: Optional[_EncoderState], a: np.ndarray) -> Optional[np.ndarray]:
        if self.window_input:
            return self._newest(a)
        sel = a
        att = self.mha._step(state.mha, a)
        if self.mha.mode == "retro":
            sel = state.tokens
            _push(sel, a)  # the window, oldest first
        return None if att is None else self._block_tail(sel, att)

    # -- clip mode --------------------------------------------------------------------

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        if not self.window_input:
            xa = _windows(xa, self.mha.n)
        return _batched(self._offline_window if self.mha.mode == "retro" else self._newest, xa)

    # -- analytic cost --------------------------------------------------------------

    def _tail_cost(self, rows: int) -> OpCount:
        d, f = self.d_model, self.ff_dim
        ff = OpCount(macs=rows * (d * f + f * d), other=rows * (f + d + f))  # affine+relu
        lns = (self.ln1.step_cost((d,)) + self.ln2.step_cost((d,))).scaled(rows)
        residuals = OpCount(other=2 * rows * d)
        return ff + lns + residuals

    def step_cost(self, frame_shape: tuple) -> OpCount:
        if self.window_input:
            return self.clip_cost(frame_shape, 1)  # a step computes one window's row
        rows = self.mha.n if self.mha.mode == "retro" else 1
        return self.mha.step_cost(frame_shape) + self._tail_cost(rows)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        m = self.mha
        if self.window_input:
            # the newest row of a window costs a token step, plus the keys and
            # values of the n - 1 older rows, which a token block has cached
            older = OpCount(macs=(m.n - 1) * m.d_model * (m.d_k + m.d_v))
            per_win = m.step_cost((self.d_model,)) + older + self._tail_cost(1)
        else:  # a regular transformer's full-window pass: single-mode _clip runs less
            per_win = m.clip_cost((self.d_model,), m.n) + self._tail_cost(m.n)
        return per_win.scaled(self.out_len(t))
