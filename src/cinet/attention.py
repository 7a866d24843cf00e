"""Continual scaled dot-product attention and the transformer encoder block.

Two step forms are implemented over a sliding window of ``n`` tokens:

- retroactive: every step emits updated outputs for all ``n`` window
  positions.  The row-normalizers ``d_mem`` and the weighted values
  ``av_mem`` are updated by subtracting the contribution of the departing
  key/value and adding the new one; only the newest row is computed from
  scratch.  Cost per step is O(n*d) instead of O(n^2*d).
- single-output: every step emits only the current query's attention row,
  using cached keys/values.

Numerical-stability choices: the subtract/add updates rule out the usual
max-subtraction softmax trick, so (a) ``d_mem``/``av_mem`` accumulate in f64
even for f32 tokens, (b) both are recomputed from the cached window every
``refresh_interval`` steps to bound drift, and (c) exponent arguments are
clamped to +-30 (exp overflows f32 near 88; 30 leaves headroom through
subtraction chains) with a counter recording clamp events.

The 1/sqrt(d) scaling is applied in every exponent, including the
incremental update terms; dropping it there (``scale_updates=False``) is
supported only as a diagnostic knob and breaks window equivalence.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DimensionError
from .module import CoModule, OpCount, StepOutput
from .tensor import Tensor
from .norm import LayerNorm

LOGIT_CLAMP = 30.0


def _clamped_exp(logits: np.ndarray, counter: list) -> np.ndarray:
    n_over = int(np.count_nonzero(np.abs(logits) > LOGIT_CLAMP))
    if n_over:
        counter[0] += n_over
        logits = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
    return np.exp(logits)


def sda_full(q: Tensor, k: Tensor, v: Tensor, scale: float | None = None) -> Tensor:
    """Reference scaled dot-product attention over one complete window.

    ``A = exp(Q K^T * scale)``, ``D = diag(A 1)``, result ``D^-1 A V``,
    computed directly; ``scale`` defaults to ``1/sqrt(d)``.
    """
    if q.rank != 2 or k.rank != 2 or v.rank != 2:
        raise DimensionError("Q, K, V must be rank-2")
    n, d = q.shape
    if k.shape != (n, d) or v.shape[0] != n:
        raise DimensionError(f"window mismatch: Q{q.shape} K{k.shape} V{v.shape}")
    if scale is None:
        scale = 1.0 / float(np.sqrt(d))  # python float: no f32 upcast
    a = np.exp(q.array @ k.array.T * scale)
    denom = a.sum(axis=1, keepdims=True)
    return Tensor.wrap((a @ v.array) / denom)


def sda_full_cost(n: int, d: int) -> OpCount:
    """Analytic cost of :func:`sda_full`: quadratic in the window length."""
    macs = n * n * d + n * n * d  # Q K^T and A V
    other = n * n + n * n + n * (n - 1) + n * d  # scale, exp, row sums, divide
    return OpCount(macs=macs, other=other)


class _RetroCache:
    __slots__ = ("q_mem", "k_mem", "v_mem", "d_mem", "av_mem", "t", "clamp_events")

    def __init__(self, n: int):
        self.q_mem = deque(maxlen=max(n - 1, 1))
        # k/v keep one extra row: the token sliding out of the window is
        # still needed for the subtraction update
        self.k_mem = deque(maxlen=n)
        self.v_mem = deque(maxlen=n)
        self.d_mem = None  # (n,) f64
        self.av_mem = None  # (n, d) f64
        self.t = 0
        self.clamp_events = [0]


class RetroAttention(CoModule):
    """Sliding-window self-attention emitting all ``n`` rows each step."""

    def __init__(self, n: int, d: int, refresh_interval: int = 64,
                 scale_updates: bool = True):
        if n < 1:
            raise ValueError("window length must be >= 1")
        self.n = n
        self.d = d
        self.scale = 1.0 / float(np.sqrt(d))
        self.refresh_interval = refresh_interval  # 0 disables refreshes
        self.scale_updates = scale_updates

    def delay(self) -> int:
        return 0  # emissions are aligned with the newest token

    def warmup(self) -> int:
        return self.n - 1

    def receptive_field(self) -> int:
        return self.n

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return (self.n, self.d)

    def init_state(self) -> _RetroCache:
        return _RetroCache(self.n)

    # -- step ------------------------------------------------------------------

    def att_step(self, state: _RetroCache, q: Tensor, k: Tensor, v: Tensor) -> StepOutput:
        qa = q.array.astype(np.float64)
        ka = k.array.astype(np.float64)
        va = v.array.astype(np.float64)
        if qa.shape != (self.d,):
            raise DimensionError(f"rows must be ({self.d},), got {qa.shape}")
        t = state.t
        state.t += 1
        n = self.n
        if t < n - 1:
            state.q_mem.append(qa)
            state.k_mem.append(ka)
            state.v_mem.append(va)
            return None
        warm_steps = t - (n - 1)
        from_scratch = (
            state.d_mem is None
            or (self.refresh_interval and warm_steps % self.refresh_interval == 0)
        )
        if from_scratch or n == 1:
            k_win = list(state.k_mem)[-(n - 1):] if n > 1 else []
            v_win = list(state.v_mem)[-(n - 1):] if n > 1 else []
            q_all = np.stack(list(state.q_mem) + [qa]) if n > 1 else qa[None]
            k_all = np.stack(k_win + [ka])
            v_all = np.stack(v_win + [va])
            a = _clamped_exp(q_all @ k_all.T * self.scale, state.clamp_events)
            state.d_mem = a.sum(axis=1)
            state.av_mem = a @ v_all
        else:
            k_old = state.k_mem[0]
            v_old = state.v_mem[0]
            q_mem = np.stack(state.q_mem)  # the n-1 retained queries
            upd_scale = self.scale if self.scale_updates else 1.0
            exp_old = _clamped_exp(q_mem @ k_old * upd_scale, state.clamp_events)
            exp_new = _clamped_exp(q_mem @ ka * upd_scale, state.clamp_events)
            d_upd = state.d_mem[1:] - exp_old + exp_new
            av_upd = (
                state.av_mem[1:]
                - np.outer(exp_old, v_old)
                + np.outer(exp_new, va)
            )
            k_all = np.stack(list(state.k_mem)[1:] + [ka])
            v_all = np.stack(list(state.v_mem)[1:] + [va])
            a0 = _clamped_exp(qa @ k_all.T * self.scale, state.clamp_events)
            state.d_mem = np.concatenate([d_upd, [a0.sum()]])
            state.av_mem = np.concatenate([av_upd, (a0 @ v_all)[None]], axis=0)
        out = state.av_mem / state.d_mem[:, None]
        state.q_mem.append(qa)
        state.k_mem.append(ka)
        state.v_mem.append(va)
        return Tensor.wrap(out.astype(q.array.dtype, copy=False))

    def forward_step(self, state: _RetroCache, x_t: Tensor) -> StepOutput:
        return self.att_step(state, x_t, x_t, x_t)

    def forward(self, x: Tensor) -> Tensor:
        """Offline self-attention: one full window result per position."""
        t_in = x.shape[0]
        n_out = self.out_len(t_in)
        outs = np.zeros((n_out, self.n, self.d), dtype=x.array.dtype)
        for j in range(n_out):
            win = Tensor.wrap(x.array[j : j + self.n])
            outs[j] = sda_full(win, win, win, self.scale).array
        return Tensor.wrap(outs)

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

    def __init__(self, n: int):
        self.k_mem = deque(maxlen=max(n - 1, 1))
        self.v_mem = deque(maxlen=max(n - 1, 1))
        self.t = 0
        self.clamp_events = [0]


class SingleAttention(CoModule):
    """Sliding-window attention emitting only the newest query's row."""

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ValueError("window length must be >= 1")
        self.n = n
        self.d = d
        self.scale = 1.0 / float(np.sqrt(d))

    def delay(self) -> int:
        return 0

    def warmup(self) -> int:
        return self.n - 1

    def receptive_field(self) -> int:
        return self.n

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return (self.d,)

    def init_state(self) -> _SingleCache:
        return _SingleCache(self.n)

    def att_step(self, state: _SingleCache, q: Tensor, k: Tensor, v: Tensor) -> StepOutput:
        if q.shape != (self.d,):
            raise DimensionError(f"rows must be ({self.d},), got {q.shape}")
        t = state.t
        state.t += 1
        if t < self.n - 1:
            state.k_mem.append(k.array)
            state.v_mem.append(v.array)
            return None
        k_all = np.stack(list(state.k_mem) + [k.array]) if self.n > 1 else k.array[None]
        v_all = np.stack(list(state.v_mem) + [v.array]) if self.n > 1 else v.array[None]
        a = _clamped_exp(q.array @ k_all.T * q.array.dtype.type(self.scale),
                         state.clamp_events)
        y = (a @ v_all) / a.sum()
        if self.n > 1:
            state.k_mem.append(k.array)
            state.v_mem.append(v.array)
        return Tensor.wrap(y.astype(q.array.dtype, copy=False))

    def forward_step(self, state: _SingleCache, x_t: Tensor) -> StepOutput:
        return self.att_step(state, x_t, x_t, x_t)

    def forward(self, x: Tensor) -> Tensor:
        t_in = x.shape[0]
        n_out = self.out_len(t_in)
        outs = np.zeros((n_out, self.d), dtype=x.array.dtype)
        for j in range(n_out):
            win = Tensor.wrap(x.array[j : j + self.n])
            outs[j] = sda_full(win, win, win, self.scale).array[-1]
        return Tensor.wrap(outs)

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n, d = self.n, self.d
        macs = n * d + n * d  # q K^T and a V
        other = n + n + (n - 1) + d  # scale, exp, sum, divide
        return OpCount(macs=macs, other=other)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        n, d = self.n, self.d
        per = OpCount(macs=2 * n * d, other=2 * n + (n - 1) + d)
        return per.scaled(self.out_len(t))


class MultiheadAttention(CoModule):
    """Per-head continual attention with stacked projections.

    ``w_q``/``w_k`` are (d_model, d_k), ``w_v`` is (d_model, d_v) and
    ``w_o`` is (d_v, d_o); head ``i`` uses the ``i``-th column slice of
    each.  ``mode`` picks the retroactive or single-output step form.
    """

    def __init__(self, mode: str, n: int, w_q: Tensor, w_k: Tensor, w_v: Tensor,
                 w_o: Tensor, heads: int = 1, refresh_interval: int = 64):
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
        if mode == "retro":
            self._head = RetroAttention(n, dh_k, refresh_interval)
        else:
            self._head = SingleAttention(n, dh_k)
        self._dh_k, self._dh_v = dh_k, dh_v

    def delay(self) -> int:
        return 0

    def warmup(self) -> int:
        return self.n - 1

    def receptive_field(self) -> int:
        return self.n

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if self.mode == "retro":
            return (self.n, self.d_o)
        return (self.d_o,)

    def init_state(self):
        return [self._head.init_state() for _ in range(self.heads)]

    def _project(self, x: np.ndarray):
        dt = x.dtype
        return (
            x @ self.w_q.array.astype(dt, copy=False),
            x @ self.w_k.array.astype(dt, copy=False),
            x @ self.w_v.array.astype(dt, copy=False),
        )

    def att_step(self, state, x_q: Tensor, x_k: Tensor, x_v: Tensor) -> StepOutput:
        dt = x_q.array.dtype
        q = x_q.array @ self.w_q.array.astype(dt, copy=False)
        k = x_k.array @ self.w_k.array.astype(dt, copy=False)
        v = x_v.array @ self.w_v.array.astype(dt, copy=False)
        outs = []
        for i in range(self.heads):
            sk = slice(i * self._dh_k, (i + 1) * self._dh_k)
            sv = slice(i * self._dh_v, (i + 1) * self._dh_v)
            y = self._head.att_step(
                state[i], Tensor.wrap(q[sk]), Tensor.wrap(k[sk]), Tensor.wrap(v[sv])
            )
            outs.append(y)
        if any(y is None for y in outs):
            return None  # all heads consumed the token; they warm together
        cat = np.concatenate([y.array for y in outs], axis=-1)
        return Tensor.wrap(cat @ self.w_o.array.astype(dt, copy=False))

    def forward_step(self, state, x_t: Tensor) -> StepOutput:
        return self.att_step(state, x_t, x_t, x_t)

    def forward(self, x: Tensor) -> Tensor:
        """Sliding-window offline multi-head self-attention."""
        t_in = x.shape[0]
        n_out = self.out_len(t_in)
        shape = (n_out,) + self.out_frame_shape(x.shape[1:])
        outs = np.zeros(shape, dtype=x.array.dtype)
        for j in range(n_out):
            win = x.array[j : j + self.n]
            q, k, v = self._project(win)
            heads = []
            for i in range(self.heads):
                sk = slice(i * self._dh_k, (i + 1) * self._dh_k)
                sv = slice(i * self._dh_v, (i + 1) * self._dh_v)
                a = sda_full(Tensor.wrap(q[:, sk]), Tensor.wrap(k[:, sk]),
                             Tensor.wrap(v[:, sv]), self._head.scale).array
                heads.append(a)
            cat = np.concatenate(heads, axis=-1) @ self.w_o.array.astype(x.array.dtype)
            outs[j] = cat if self.mode == "retro" else cat[-1]
        return Tensor.wrap(outs)

    def _proj_cost(self) -> OpCount:
        return OpCount(macs=self.d_model * (2 * self.d_k + self.d_v))

    def step_cost(self, frame_shape: tuple) -> OpCount:
        per_head = self._head.step_cost((self._dh_k,))
        total = self._proj_cost() + per_head.scaled(self.heads)
        rows = self.n if self.mode == "retro" else 1
        return total + OpCount(macs=rows * self.d_v * self.d_o)

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        n_out = self.out_len(t)
        per_win = OpCount(macs=self.n * self.d_model * (2 * self.d_k + self.d_v))
        per_win = per_win + sda_full_cost(self.n, self._dh_k).scaled(self.heads)
        per_win = per_win + OpCount(macs=self.n * self.d_v * self.d_o)
        return per_win.scaled(n_out)


class _RpeState:
    __slots__ = ("tau",)

    def __init__(self):
        self.tau = 0


class RecyclingPositionalEncoding(CoModule):
    """Add positional encodings indexed by a modular time counter.

    Positions are fixed in time rather than in sequence, so cached tokens
    never need re-encoding; after ``period`` steps the encodings repeat.
    """

    def __init__(self, table: Tensor):
        if table.rank != 2:
            raise DimensionError(f"encoding table must be (period, d), got {table.shape}")
        self.table = table
        self.period = table.shape[0]

    def delay(self) -> int:
        return 0

    def receptive_field(self) -> int:
        return 1

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        return tuple(frame_shape)

    def init_state(self) -> _RpeState:
        return _RpeState()

    def forward_step(self, state: _RpeState, x_t: Tensor) -> StepOutput:
        p = self.table.array[state.tau].astype(x_t.array.dtype, copy=False)
        state.tau = (state.tau + 1) % self.period
        return Tensor.wrap(x_t.array + p)

    def forward(self, x: Tensor) -> Tensor:
        idx = np.arange(x.shape[0]) % self.period
        return Tensor.wrap(x.array + self.table.array[idx].astype(x.array.dtype))

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return OpCount(other=int(np.prod(frame_shape)))

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return self.step_cost(frame_shape).scaled(t)


class _EncoderState:
    __slots__ = ("mha", "rpe", "tokens")

    def __init__(self, mha_state, rpe_state, n: int):
        self.mha = mha_state
        self.rpe = rpe_state
        self.tokens = deque(maxlen=n)  # encoded inputs for the retro residual


class EncoderBlock(CoModule):
    """Transformer encoder block over a sliding window of ``n`` tokens.

    ``y = LN(Sel(x) + MHA(x, x, x))``, ``z = LN(y + FF(y))`` with FF an
    affine-ReLU-affine token map.  In single mode ``Sel`` picks the newest
    token and one row is emitted; in retro mode all ``n`` rows are.

    With ``window_input=True`` the block consumes complete (n, d) windows
    (as emitted by an upstream retroactive block), recomputing the single
    newest-row output per window; that is the two-block wiring where a
    retroactive block runs first and a single-output block last.
    """

    def __init__(self, mode: str, n: int, mha: MultiheadAttention,
                 ff_w1: Tensor, ff_b1: Tensor, ff_w2: Tensor, ff_b2: Tensor,
                 ln1: LayerNorm, ln2: LayerNorm,
                 rpe: RecyclingPositionalEncoding | None = None,
                 window_input: bool = False):
        if mode not in ("retro", "single"):
            raise ValueError(f"unknown encoder mode {mode!r}")
        if window_input and mode != "single":
            raise ValueError("window input is only meaningful for single mode")
        self.mode = mode
        self.n = n
        self.mha = mha
        self.d_model = mha.d_model
        self.ff_dim = ff_w1.shape[1]
        if ff_w1.shape[0] != self.d_model or ff_w2.shape != (self.ff_dim, self.d_model):
            raise DimensionError("feed-forward shapes disagree with d_model")
        self.ff_w1, self.ff_b1, self.ff_w2, self.ff_b2 = ff_w1, ff_b1, ff_w2, ff_b2
        self.ln1, self.ln2 = ln1, ln2
        self.rpe = rpe
        self.window_input = window_input

    def delay(self) -> int:
        return 0

    def warmup(self) -> int:
        return 0 if self.window_input else self.n - 1

    def receptive_field(self) -> int:
        return 1 if self.window_input else self.n

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if self.mode == "retro":
            return (self.n, self.d_model)
        return (self.d_model,)

    def init_state(self) -> _EncoderState:
        return _EncoderState(
            self.mha.init_state(),
            self.rpe.init_state() if self.rpe else None,
            self.n,
        )

    # -- shared math -------------------------------------------------------------

    def _ff(self, ya: np.ndarray) -> np.ndarray:
        dt = ya.dtype
        h = np.maximum(ya @ self.ff_w1.array.astype(dt, copy=False)
                       + self.ff_b1.array.astype(dt, copy=False), 0)
        return h @ self.ff_w2.array.astype(dt, copy=False) + self.ff_b2.array.astype(dt, copy=False)

    def _block_tail(self, sel: np.ndarray, att: np.ndarray) -> np.ndarray:
        y = self.ln1._apply(sel + att)
        return self.ln2._apply(y + self._ff(y))

    def _offline_window(self, win: np.ndarray) -> np.ndarray:
        """Full block output for one complete (n, d_model) window."""
        q, k, v = self.mha._project(win)
        heads = []
        for i in range(self.mha.heads):
            sk = slice(i * self.mha._dh_k, (i + 1) * self.mha._dh_k)
            sv = slice(i * self.mha._dh_v, (i + 1) * self.mha._dh_v)
            heads.append(
                sda_full(Tensor.wrap(q[:, sk]), Tensor.wrap(k[:, sk]),
                         Tensor.wrap(v[:, sv]), self.mha._head.scale).array
            )
        att = np.concatenate(heads, axis=-1) @ self.mha.w_o.array.astype(win.dtype, copy=False)
        return self._block_tail(win, att)

    # -- step mode ------------------------------------------------------------------

    def forward_step(self, state: _EncoderState, x_t: Tensor) -> StepOutput:
        if self.window_input:
            if x_t.rank != 2:
                raise DimensionError(f"window input must be (n, d), got {x_t.shape}")
            return Tensor.wrap(self._offline_window(x_t.array)[-1])
        if x_t.shape != (self.d_model,):
            raise DimensionError(f"token must be ({self.d_model},), got {x_t.shape}")
        if self.rpe is not None:
            x_t = self.rpe.forward_step(state.rpe, x_t)
        if self.mode == "retro":
            state.tokens.append(x_t.array)
        att = self.mha.forward_step(state.mha, x_t)
        if att is None:
            return None
        if self.mode == "single":
            return Tensor.wrap(self._block_tail(x_t.array, att.array))
        sel = np.stack(state.tokens)
        return Tensor.wrap(self._block_tail(sel, att.array))

    # -- clip mode --------------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        if self.window_input:
            outs = [self._offline_window(x.array[j])[-1] for j in range(x.shape[0])]
            if not outs:
                return Tensor.wrap(np.zeros((0, self.d_model), dtype=x.array.dtype))
            return Tensor.wrap(np.stack(outs))
        xa = x.array
        if self.rpe is not None:
            xa = self.rpe.forward(x).array
        n_out = self.out_len(x.shape[0])
        shape = (n_out,) + self.out_frame_shape(x.shape[1:])
        outs = np.zeros(shape, dtype=xa.dtype)
        for j in range(n_out):
            block = self._offline_window(xa[j : j + self.n])
            outs[j] = block if self.mode == "retro" else block[-1]
        return Tensor.wrap(outs)

    # -- analytic cost --------------------------------------------------------------

    def _tail_cost(self, rows: int) -> OpCount:
        d, f = self.d_model, self.ff_dim
        ff = OpCount(macs=rows * (d * f + f * d), other=rows * (f + d + f))  # affine+relu
        lns = (self.ln1.step_cost((d,)) + self.ln2.step_cost((d,))).scaled(rows)
        residuals = OpCount(other=2 * rows * d)
        return ff + lns + residuals

    def step_cost(self, frame_shape: tuple) -> OpCount:
        if self.window_input:
            return self.clip_cost(frame_shape, 1)  # a step recomputes one window
        rows = self.n if self.mode == "retro" else 1
        cost = self.mha.step_cost(frame_shape) + self._tail_cost(rows)
        if self.rpe is not None:
            cost = cost + self.rpe.step_cost(frame_shape)
        return cost

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        if self.window_input:
            per = self.mha.clip_cost((self.d_model,), self.n) + self._tail_cost(self.n)
            return per.scaled(t)
        per_win = self.mha.clip_cost((self.d_model,), self.n) + self._tail_cost(self.n)
        cost = per_win.scaled(self.out_len(t))
        if self.rpe is not None:
            cost = cost + self.rpe.clip_cost(frame_shape, t)
        return cost
