"""Continual attention against the from-scratch window oracle."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cinet import attention
from cinet.attention import (
    WINDOW_BATCH,
    EncoderBlock,
    MultiheadAttention,
    RecyclingPositionalEncoding,
    RetroAttention,
    SingleAttention,
    _sda,
    sda_full,
    sda_full_cost,
)
from cinet.config import build_model, load_config, random_stream
from cinet.containers import Sequential
from cinet.errors import DimensionError
from cinet.module import OpCount
from cinet.norm import LayerNorm
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor


def softmax_attention_oracle(q, k, v):
    """Two-loop softmax-then-weighted-sum, the dumbest possible reference."""
    n, d = q.shape
    out = np.zeros((n, d))
    for i in range(n):
        weights = np.array([np.exp(float(q[i] @ k[j]) / np.sqrt(d)) for j in range(n)])
        weights /= weights.sum()
        for j in range(n):
            out[i] += weights[j] * v[j].astype(np.float64)
    return out


def stream(rng, t, d, dtype="f32", scale=0.8):
    return rand_tensor(rng, (t, d), dtype=dtype, scale=scale)


# -- sda_full -------------------------------------------------------------------


def test_sda_single_token_returns_value():
    rng = np.random.default_rng(0)
    q, k, v = (rand_tensor(rng, (1, 3)) for _ in range(3))
    assert np.allclose(sda_full(q, k, v).array, v.array, atol=1e-6)


def test_sda_zero_query_averages_values():
    rng = np.random.default_rng(1)
    k, v = rand_tensor(rng, (5, 2)), rand_tensor(rng, (5, 2))
    out = sda_full(Tensor.zeros((5, 2)), k, v).array
    assert np.allclose(out, v.array.mean(axis=0), atol=1e-5)


def test_sda_vs_two_loop_oracle_seed3():
    rng = np.random.default_rng(3)
    q, k, v = (rand_tensor(rng, (4, 2)) for _ in range(3))
    got = sda_full(q, k, v).array
    want = softmax_attention_oracle(q.array, k.array, v.array)
    assert np.allclose(got, want, rtol=1e-4, atol=1e-5)


# -- retroactive ------------------------------------------------------------------


def test_retro_window_one_emits_value():
    retro = RetroAttention(1, 3)
    state = retro.init_state()
    rng = np.random.default_rng(4)
    for _ in range(5):
        q, k, v = (rand_tensor(rng, (3,)) for _ in range(3))
        out = retro.att_step(state, q, k, v)
        assert out.shape == (1, 3)
        assert np.allclose(out.array[0], v.array, rtol=1e-6)


def test_retro_identical_tokens_are_symmetric():
    retro = RetroAttention(4, 2)
    state = retro.init_state()
    tok = rand_tensor(np.random.default_rng(5), (2,))
    for t in range(8):
        out = retro.att_step(state, tok, tok, tok)
        if out is not None:
            assert np.allclose(out.array, np.broadcast_to(tok.array, (4, 2)), rtol=1e-5)


def test_retro_sliding_equivalence():
    rng = np.random.default_rng(6)
    retro = RetroAttention(4, 2)
    state = retro.init_state()
    q, k, v = (stream(rng, 32, 2) for _ in range(3))
    for t in range(32):
        out = retro.att_step(state, Tensor.wrap(q.array[t]), Tensor.wrap(k.array[t]),
                             Tensor.wrap(v.array[t]))
        if t < 3:
            assert out is None
            continue
        win = slice(t - 3, t + 1)
        ref = sda_full(Tensor.wrap(q.array[win]), Tensor.wrap(k.array[win]),
                       Tensor.wrap(v.array[win]))
        assert max_rel_dev(out.array, ref.array) < 1e-4


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_retro_and_single_oracle_grid(n, d):
    for dtype, tol in (("f32", 1e-4), ("f64", 1e-9)):
        rng = np.random.default_rng(64 * n + d)
        retro, single = RetroAttention(n, d), SingleAttention(n, d)
        rs, ss = retro.init_state(), single.init_state()
        q, k, v = (stream(rng, 64, d, dtype) for _ in range(3))
        for t in range(64):
            args = tuple(Tensor.wrap(a.array[t]) for a in (q, k, v))
            r, s = retro.att_step(rs, *args), single.att_step(ss, *args)
            if t < n - 1:
                assert r is None and s is None
                continue
            win = slice(t - n + 1, t + 1)
            ref = sda_full(Tensor.wrap(q.array[win]), Tensor.wrap(k.array[win]),
                           Tensor.wrap(v.array[win]))
            assert max_rel_dev(r.array, ref.array) < tol
            assert max_rel_dev(s.array, ref.array[-1]) < tol


def test_retro_without_update_scaling_breaks_equality():
    rng = np.random.default_rng(7)
    broken = RetroAttention(4, 4, scale_updates=False)
    state = broken.init_state()
    q, k, v = (stream(rng, 24, 4) for _ in range(3))
    worst = 0.0
    for t in range(24):
        out = broken.att_step(state, Tensor.wrap(q.array[t]), Tensor.wrap(k.array[t]),
                              Tensor.wrap(v.array[t]))
        if out is None or t == 3:  # the first warm step is from scratch
            continue
        win = slice(t - 3, t + 1)
        ref = sda_full(Tensor.wrap(q.array[win]), Tensor.wrap(k.array[win]),
                       Tensor.wrap(v.array[win]))
        worst = max(worst, max_rel_dev(out.array, ref.array))
    assert worst > 1e-4


# -- heads on a leading axis ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5])
def test_head_rows_are_independent_streams_in_fixed_rings(n):
    # (h, d) rows step h streams at once: each output slice equals a 1-D
    # stream of its own, across a refresh, and every ring keeps one object
    # and shape from the first row on; the row sums and weighted values are
    # one fused [av | d] ring
    h, d, d_v = 3, 4, 2
    steps = n - 1 + 64 + 10
    rng = np.random.default_rng(40 + n)
    q, k = (rng.uniform(-1, 1, (steps, h, d)) for _ in range(2))
    v = rng.uniform(-1, 1, (steps, h, d_v))
    retro_rings = {"q_mem": (h, n, d), "k_mem": (h, n, d), "v_mem": (h, n, d_v),
                   "avd_mem": (h, n, d_v + 1)}
    single_rings = {"k_mem": (h, n, d), "v_mem": (h, n, d_v)}
    for att, shapes in ((RetroAttention(n, d), retro_rings),
                        (SingleAttention(n, d), single_rings)):
        state = att.init_state()
        solo = [att.init_state() for _ in range(h)]
        rings = {}
        for t in range(steps):
            y = att.att_step(state, *(Tensor.wrap(a[t]) for a in (q, k, v)))
            ys = [att.att_step(s, *(Tensor.wrap(a[t, i]) for a in (q, k, v)))
                  for i, s in enumerate(solo)]
            if t < n - 1:
                assert y is None and all(z is None for z in ys)
            else:
                assert max_rel_dev(y.array, np.stack([z.array for z in ys])) < 1e-12
            for name, shape in shapes.items():
                ring = getattr(state.layer, name)
                assert rings.setdefault(name, ring) is ring
                assert ring.shape == shape
        assert set(rings) == set(shapes)


def test_retro_rejects_row_dtype_drift():
    # the rings hold f64 whatever the rows are, so the stream's row dtype is
    # remembered from its first row: an f64 row after f32 ones is refused,
    # as every other ring-backed layer refuses it
    rng = np.random.default_rng(41)
    retro = RetroAttention(3, 4)
    state = retro.init_state()
    for t in range(4):
        y = retro.forward_step(state, rand_tensor(rng, (4,)))
        assert (y is None) == (t < 2) and (y is None or y.dtype == "f32")
    with pytest.raises(DimensionError):
        retro.forward_step(state, rand_tensor(rng, (4,), dtype="f64"))


@pytest.mark.parametrize("mode", ["retro", "single"])
def test_drifted_rows_are_refused_before_the_stream_moves(mode):
    # rows that change dtype or leading axes mid-stream are refused, both at
    # a head's public edge and through multi-head attention, which hands its
    # head rows it projected itself; the refused row moves no step counter
    n, d = 3, 4
    rng = np.random.default_rng(44)
    head = RetroAttention(n, d) if mode == "retro" else SingleAttention(n, d)
    mha = MultiheadAttention(mode, n, *(rand_tensor(rng, (d, d)) for _ in range(4)), heads=2)
    f32, f64 = (rand_tensor(rng, (2, d), dtype=dt) for dt in ("f32", "f64"))
    cases = [(head, lambda s, x: head.att_step(s, x, x, x), f32, [f64, Tensor.wrap(f32.array[0])]),
             (mha, mha.forward_step, Tensor.wrap(f32.array[0]), [Tensor.wrap(f64.array[0])])]
    for att, step, row, drifted in cases:
        state = att.init_state()
        for _ in range(n + 1):
            step(state, row)
        for bad in drifted:
            with pytest.raises(DimensionError, match="drifted"):
                step(state, bad)
        assert state.layer.t == n + 1
    with pytest.raises(DimensionError, match="one dtype"):
        head.att_step(head.init_state(), f32, f64, f32)


def test_retro_state_is_the_window_in_order():
    # every state array holds rows oldest first: the retroactive form keeps
    # the last n queries, keys and values and the n row sums and weighted
    # values the emission is read off without a gather, all in f64; the
    # single-output form keeps the last n keys and values in the stream dtype
    n, d, h, steps = 4, 3, 2, 30
    rng = np.random.default_rng(42)
    retro = RetroAttention(n, d, refresh_interval=5)
    q, k, v = (rng.uniform(-1, 1, (steps, h, d)).astype(np.float32) for _ in range(3))
    shapes = {"q_mem": (h, n, d), "k_mem": (h, n, d), "v_mem": (h, n, d),
              "d_mem": (h, n), "av_mem": (h, n, d)}
    state = retro.init_state()
    for t in range(steps):
        y = retro.att_step(state, *(Tensor.wrap(a[t]) for a in (q, k, v)))
        for name, shape in shapes.items():
            held = getattr(state.layer, name)
            assert held.shape == shape and held.dtype == np.float64
        if t < n - 1:
            assert y is None
            continue
        for name, rows in (("q_mem", q), ("k_mem", k), ("v_mem", v)):
            assert np.array_equal(getattr(state.layer, name),
                                  rows[t - n + 1 : t + 1].swapaxes(0, 1))
        want = (state.layer.av_mem / state.layer.d_mem[..., None]).astype(np.float32)
        assert np.array_equal(y.array, want)
    with pytest.raises(DimensionError):
        retro.att_step(state, *(Tensor.wrap(a[0].astype(np.float64)) for a in (q, k, v)))
    single = SingleAttention(n, d)
    for dtype in (np.float32, np.float64):
        rows = [a.astype(dtype) for a in (q, k, v)]
        state = single.init_state()
        for t in range(steps):
            y = single.att_step(state, *(Tensor.wrap(a[t]) for a in rows))
            assert (y is None) == (t < n - 1)
            lo = max(t - n + 1, 0)
            for held, a in ((state.layer.k_mem, rows[1]), (state.layer.v_mem, rows[2])):
                assert held.shape == (h, n, d) and held.dtype == dtype
                assert np.array_equal(held[:, n - (t + 1 - lo):], a[lo : t + 1].swapaxes(0, 1))
            if y is not None:
                assert y.array.dtype == dtype
                assert np.array_equal(y.array, _sda(rows[0][t][:, None], state.layer.k_mem,
                                                    state.layer.v_mem, single.scale)[:, 0])


def test_retro_refresh_step_recomputes_the_window():
    # a refresh step recomputes d_mem/av_mem from the window's rows, so its
    # emission is the from-scratch attention of that window.  Unscaled
    # updates make every other step drift far from it, so only a real
    # recomputation lands within f64 rounding on the refresh steps
    n, d, interval, steps = 5, 4, 8, 70
    rng = np.random.default_rng(43)
    retro = RetroAttention(n, d, refresh_interval=interval, scale_updates=False)
    q, k, v = (rng.uniform(-1.5, 1.5, (steps, d)) for _ in range(3))
    state = retro.init_state()
    refreshed = 0
    for t in range(steps):
        y = retro.att_step(state, *(Tensor.wrap(a[t]) for a in (q, k, v)))
        if y is None:
            continue
        win = slice(t - n + 1, t + 1)
        dev = max_rel_dev(y.array, sda_full(*(Tensor.wrap(a[win]) for a in (q, k, v))).array)
        if (t - (n - 1)) % interval == 0:
            assert dev < 1e-12
            refreshed += 1
        else:
            assert dev > 1e-6
    assert refreshed == (steps - n) // interval + 1


def test_clamp_events_count_on_the_update_and_the_scratch_row():
    # logits above 30 are clamped and counted wherever they are exponentiated:
    # n * n on a from-scratch step, and otherwise 2 * (n - 1) update terms plus
    # the n of the newest row
    n, d = 3, 2
    retro = RetroAttention(n, d, refresh_interval=0)
    state = retro.init_state()
    big = Tensor.wrap(np.full(d, 40.0, dtype=np.float32))
    counts = [0]
    for _ in range(6):
        retro.att_step(state, big, big, big)
        counts.append(state.layer.clamp_events[0])
    per_step = [b - a for a, b in zip(counts, counts[1:])]
    assert per_step == [0, 0, n * n] + [2 * (n - 1) + n] * 3
    # a random stream of large logits, some clamped and most not: the
    # counts are pinned, so a cheaper clamp check must count the same
    rng = np.random.default_rng(1)
    q, k, v = (rng.normal(0, 4, (200, 4)).astype(np.float32) for _ in range(3))
    for att, want in ((RetroAttention(8, 4), 346), (SingleAttention(8, 4), 125)):
        state = att.init_state()
        for t in range(200):
            att.att_step(state, *(Tensor.wrap(a[t]) for a in (q, k, v)))
        assert state.layer.clamp_events[0] == want, type(att).__name__


# -- single-output -----------------------------------------------------------------


def test_single_window_one_emits_value():
    single = SingleAttention(1, 2)
    state = single.init_state()
    rng = np.random.default_rng(8)
    for _ in range(4):
        q, k, v = (rand_tensor(rng, (2,)) for _ in range(3))
        out = single.att_step(state, q, k, v)
        assert np.allclose(out.array, v.array, rtol=1e-6)


def test_single_equal_keys_average_values():
    single = SingleAttention(3, 2)
    state = single.init_state()
    rng = np.random.default_rng(9)
    key = rand_tensor(rng, (2,))
    vals = []
    for t in range(6):
        v = rand_tensor(rng, (2,))
        vals.append(v.array)
        out = single.att_step(state, rand_tensor(rng, (2,)), key, v)
        if out is not None:
            window = np.stack(vals[-3:])
            assert np.allclose(out.array, window.mean(axis=0), rtol=1e-5, atol=1e-6)


# -- multi-head --------------------------------------------------------------------


def identity_mha(mode, n, d):
    eye = Tensor.wrap(np.eye(d, dtype=np.float32))
    return MultiheadAttention(mode, n, eye, eye, eye, eye, heads=1)


def test_mha_identity_projections_match_plain_attention():
    n, d = 3, 4
    mha = identity_mha("single", n, d)
    plain = SingleAttention(n, d)
    ms, ps = mha.init_state(), plain.init_state()
    rng = np.random.default_rng(10)
    for t in range(10):
        x = rand_tensor(rng, (d,))
        a = mha.forward_step(ms, x)
        b = plain.att_step(ps, x, x, x)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.allclose(a.array, b.array, rtol=1e-5)


def test_mha_duplicated_heads_duplicate_outputs():
    n, d = 3, 4
    rng = np.random.default_rng(11)
    half = rand_tensor(rng, (d, d // 2)).array
    w_qkv = Tensor.wrap(np.concatenate([half, half], axis=1))
    w_o = Tensor.wrap(np.eye(d, dtype=np.float32))
    mha = MultiheadAttention("single", n, w_qkv, w_qkv, w_qkv, w_o, heads=2)
    state = mha.init_state()
    for t in range(8):
        out = mha.forward_step(state, rand_tensor(rng, (d,)))
        if out is not None:
            assert np.allclose(out.array[: d // 2], out.array[d // 2 :], rtol=1e-5)


def offline_mha_oracle(xs, mha):
    """Sliding-window multi-head attention recomputed per window."""
    n = mha.n
    outs = []
    for j in range(xs.shape[0] - n + 1):
        win = xs[j : j + n]
        q, k, v = (win @ w.array.astype(win.dtype)
                   for w in (mha.w_q, mha.w_k, mha.w_v))
        heads = []
        dh_k, dh_v = mha._dh_k, mha._dh_v
        for i in range(mha.heads):
            qs, vs = q[:, i * dh_k : (i + 1) * dh_k], v[:, i * dh_v : (i + 1) * dh_v]
            ks = k[:, i * dh_k : (i + 1) * dh_k]
            heads.append(softmax_attention_oracle(qs, ks, vs))
        outs.append(np.concatenate(heads, axis=1) @ mha.w_o.array.astype(np.float64))
    return np.stack(outs)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("mode", ["retro", "single"])
def test_mha_vs_offline_oracle(mode, heads):
    n, d, h = 4, 4, heads
    rng = np.random.default_rng(12)
    mha = MultiheadAttention(mode, n, *(rand_tensor(rng, (d, d)) for _ in range(4)),
                             heads=h)
    x = stream(rng, 20, d)
    want = offline_mha_oracle(x.array, mha)
    got = mha.forward_steps(mha.init_state(), x).array
    if mode == "single":
        want = want[:, -1]
    assert got.shape == want.shape
    assert max_rel_dev(got, want) < 1e-4


# -- recycling positional encoding ---------------------------------------------------


def test_rpe_counter_cycles():
    table = Tensor.wrap(np.arange(8, dtype=np.float32).reshape(4, 2))
    rpe = RecyclingPositionalEncoding(table)
    state = rpe.init_state()
    seen = []
    for t in range(9):
        out = rpe.forward_step(state, Tensor.zeros((2,)))
        seen.append(out.array[0])
    assert seen == [0, 2, 4, 6, 0, 2, 4, 6, 0]


def test_rpe_zero_table_is_identity():
    rpe = RecyclingPositionalEncoding(Tensor.zeros((4, 3)))
    x = rand_tensor(np.random.default_rng(13), (6, 3))
    assert np.array_equal(rpe.forward(x).array, x.array)


def test_rpe_streams_do_not_interfere():
    rpe = RecyclingPositionalEncoding(
        rand_tensor(np.random.default_rng(14), (4, 2)))
    s1, s2 = rpe.init_state(), rpe.init_state()
    x = Tensor.zeros((2,))
    a1 = rpe.forward_step(s1, x)
    rpe.forward_step(s2, x)
    rpe.forward_step(s2, x)
    b1 = rpe.forward_step(s1, x)
    assert s1.layer.tau == 2 and s2.layer.tau == 2
    assert not np.allclose(a1.array, b1.array)


def test_rpe_exact_periodicity():
    period = 5
    rpe = RecyclingPositionalEncoding(
        rand_tensor(np.random.default_rng(15), (period, 3)))
    state = rpe.init_state()
    outs = [rpe.forward_step(state, Tensor.zeros((3,))).array for _ in range(3 * period)]
    for t in range(period, len(outs)):
        assert np.array_equal(outs[t], outs[t - period])


# -- encoder block ------------------------------------------------------------------


def make_encoder(rng, mode, n, d, h=1, ff=None, rpe=True, window_input=False):
    """An encoder block; with ``rpe`` the ``Sequential`` of a recycling
    positional encoding and the block, as a config builds it."""
    ff = ff or d
    mha = MultiheadAttention(mode if not window_input else "single", n,
                             *(rand_tensor(rng, (d, d)) for _ in range(4)), heads=h)
    ln1 = LayerNorm(rand_tensor(rng, (d,), scale=0.3), rand_tensor(rng, (d,), scale=0.3))
    ln2 = LayerNorm(rand_tensor(rng, (d,), scale=0.3), rand_tensor(rng, (d,), scale=0.3))
    enc = RecyclingPositionalEncoding(rand_tensor(rng, (n, d), scale=0.3)) if rpe else None
    blk = EncoderBlock(mha, rand_tensor(rng, (d, ff)), rand_tensor(rng, (ff,)),
                       rand_tensor(rng, (ff, d)), rand_tensor(rng, (d,)),
                       ln1, ln2, window_input=window_input)
    return blk if enc is None else Sequential([enc, blk])


def test_encoder_zero_branches_collapse_to_double_layernorm():
    n, d = 3, 4
    rng = np.random.default_rng(16)
    eye = Tensor.wrap(np.eye(d, dtype=np.float32))
    mha = MultiheadAttention("single", n, eye, eye, eye, Tensor.zeros((d, d)), heads=1)
    ln = LayerNorm(Tensor.wrap(np.ones(d, dtype=np.float32)), Tensor.zeros((d,)))
    blk = EncoderBlock(mha, Tensor.zeros((d, d)), Tensor.zeros((d,)),
                       Tensor.zeros((d, d)), Tensor.zeros((d,)), ln, ln)
    state = blk.init_state()
    for t in range(6):
        x = rand_tensor(rng, (d,))
        out = blk.forward_step(state, x)
        if out is not None:
            want = ln._apply(ln._apply(x.array))
            assert np.allclose(out.array, want, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("mode", ["retro", "single"])
def test_encoder_steps_match_offline_windows(mode):
    rng = np.random.default_rng(17)
    blk = make_encoder(rng, mode, n=4, d=6, h=2)
    x = stream(rng, 18, 6, scale=0.5)
    offline = blk.forward(x)
    online = blk.forward_steps(blk.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-4


def test_encoded_block_rejects_a_token_of_another_width_without_moving_the_stream():
    # the positional-encoding stage sees a token before the block does; a
    # rejected token must leave the stream's position where it was
    rng = np.random.default_rng(23)
    enc = make_encoder(rng, "single", n=4, d=6)
    x = stream(rng, 12, 6, scale=0.5)
    clean = enc.forward_steps(enc.init_state(), x).array
    state = enc.init_state()
    outs = []
    for t in range(12):
        if t == 5:
            for shape in [(7,), (1, 6)]:
                with pytest.raises(DimensionError):
                    enc.forward_step(state, Tensor.zeros(shape))
        y = enc.forward_step(state, Tensor.wrap(x.array[t]))
        if y is not None:
            outs.append(y.array)
    assert np.array_equal(np.stack(outs), clean)
    for shape in [(12, 7), (12, 1, 6)]:
        with pytest.raises(DimensionError):
            enc.forward(Tensor.zeros(shape))


def test_two_block_wiring_retro_then_single():
    rng = np.random.default_rng(18)
    n, d = 4, 6
    first = make_encoder(rng, "retro", n, d)
    second = make_encoder(rng, "single", n, d, rpe=False, window_input=True)
    x = stream(rng, 16, d, scale=0.5)
    off = second.forward(first.forward(x))
    s1, s2 = first.init_state(), second.init_state()
    outs = []
    for t in range(16):
        mid = first.forward_step(s1, Tensor.wrap(x.array[t]))
        if mid is None:
            continue
        outs.append(second.forward_step(s2, mid).array)
    assert off.shape == (len(outs), d)
    assert max_rel_dev(np.stack(outs), off.array) < 1e-4
    # a window-input step recomputes its window: its state caches nothing
    assert not held_arrays(s2)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_window_input_block_computes_the_newest_row(dtype):
    # one query row per window: steps equal the clip bit for bit, and each
    # window's row is the newest row of the full-window oracle
    rng = np.random.default_rng(25)
    n, d = 5, 6
    blk = make_encoder(rng, "single", n, d, h=2, rpe=False, window_input=True)
    x = rand_tensor(rng, (40, n, d), dtype=dtype, scale=0.5)
    clip = blk.forward(x).array
    assert np.array_equal(blk.forward_steps(blk.init_state(), x).array, clip)
    for row, win in zip(clip, x.array):
        assert max_rel_dev(row, encoder_oracle(blk, win)[-1]) < 1e-4


@pytest.mark.parametrize("mode,window_input,mha_mode,mha_n", [("single", True, "retro", 4)])
def test_encoder_rejects_attention_of_another_mode_or_window(mode, window_input, mha_mode,
                                                              mha_n):
    # a block takes its mode and window from its attention; what is left to
    # reject is window input over a retroactive attention
    rng = np.random.default_rng(21)
    ok = make_encoder(rng, mode, n=4, d=6, rpe=False, window_input=window_input)
    m = ok.mha
    mha = MultiheadAttention(mha_mode, mha_n, m.w_q, m.w_k, m.w_v, m.w_o)
    with pytest.raises(ValueError):
        EncoderBlock(mha, ok.ff_w1, ok.ff_b1, ok.ff_w2, ok.ff_b2, ok.ln1, ok.ln2,
                     window_input=window_input)


def test_encoder_rejects_attention_output_of_another_width():
    rng = np.random.default_rng(24)
    ok = make_encoder(rng, "single", n=4, d=6, rpe=False)
    m = ok.mha
    mha = MultiheadAttention("single", 4, m.w_q, m.w_k, m.w_v, rand_tensor(rng, (6, 5)))
    with pytest.raises(DimensionError):
        EncoderBlock(mha, ok.ff_w1, ok.ff_b1, ok.ff_w2, ok.ff_b2, ok.ln1, ok.ln2)


@pytest.mark.parametrize("which", ["ln1", "ln2"])
def test_encoder_rejects_a_layernorm_of_another_width(which):
    # the tail runs its LayerNorms' kernel on d_model rows, which checks no
    # shape: the block refuses a norm over another width when it is built
    rng = np.random.default_rng(26)
    ok = make_encoder(rng, "single", n=4, d=6, rpe=False)
    norms = {"ln1": ok.ln1, "ln2": ok.ln2}
    norms[which] = LayerNorm(rand_tensor(rng, (5,)), rand_tensor(rng, (5,)))
    with pytest.raises(DimensionError, match="LayerNorm"):
        EncoderBlock(ok.mha, ok.ff_w1, ok.ff_b1, ok.ff_w2, ok.ff_b2, norms["ln1"], norms["ln2"])


@pytest.mark.parametrize("call", ["step", "clip"])
def test_window_input_rejects_windows_of_another_length(call):
    rng = np.random.default_rng(22)
    blk = make_encoder(rng, "single", n=4, d=6, rpe=False, window_input=True)
    shapes = {"step": [(5, 6), (3, 6), (4, 7), (6,), (1, 4, 6)],
              "clip": [(3, 7, 6), (3, 3, 6), (3, 4, 5), (4, 6)]}[call]
    for shape in shapes:
        x = rand_tensor(rng, shape)
        with pytest.raises(DimensionError):
            if call == "step":
                blk.forward_step(blk.init_state(), x)
            else:
                blk.forward(x)


def held_arrays(obj):
    """Arrays reachable from a stream state through slots, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in held_arrays(item)]
    names = getattr(type(obj), "__slots__", ())
    return [a for name in names for a in held_arrays(getattr(obj, name, None))]


# -- numerical stability ----------------------------------------------------------------


def test_dmem_stays_positive_over_long_stream():
    rng = np.random.default_rng(19)
    retro = RetroAttention(8, 4, refresh_interval=64)
    state = retro.init_state()
    q, k, v = (stream(rng, 3000, 4) for _ in range(3))
    for t in range(3000):
        out = retro.att_step(state, Tensor.wrap(q.array[t]), Tensor.wrap(k.array[t]),
                             Tensor.wrap(v.array[t]))
        if out is not None:  # d_mem is zeros until the first emission
            assert np.all(state.layer.d_mem > 0)
    assert state.layer.clamp_events[0] == 0


def test_clamp_counter_fires_on_extreme_logits():
    retro = RetroAttention(2, 2)
    state = retro.init_state()
    big = Tensor.wrap(np.full(2, 40.0, dtype=np.float32))
    for _ in range(4):
        retro.att_step(state, big, big, big)
    assert state.layer.clamp_events[0] > 0


def test_refresh_interval_zero_disables_refresh():
    rng = np.random.default_rng(20)
    a = RetroAttention(4, 2, refresh_interval=0)
    b = RetroAttention(4, 2, refresh_interval=16)
    sa, sb = a.init_state(), b.init_state()
    q, k, v = (stream(rng, 80, 2) for _ in range(3))
    for t in range(80):
        args = tuple(Tensor.wrap(s.array[t]) for s in (q, k, v))
        ya = a.att_step(sa, *args)
        yb = b.att_step(sb, *args)
        if ya is not None:
            assert np.allclose(ya.array, yb.array, rtol=1e-4, atol=1e-6)


# -- analytic cost scaling -----------------------------------------------------------


def test_step_cost_grows_linearly_in_window():
    for cls in (RetroAttention, SingleAttention):
        small = cls(64, 8).step_cost((8,)).flops
        large = cls(128, 8).step_cost((8,)).flops
        assert 1.8 <= large / small <= 2.2


def test_row_attention_clip_cost_counts_each_window():
    # a clip of t tokens has t - n + 1 windows: the retroactive form runs the
    # full n x n attention on each, the single-output form its newest row
    n, d, t = 5, 3, 12
    windows = t - n + 1
    retro = RetroAttention(n, d).clip_cost((d,), t)
    assert retro == OpCount(macs=windows * 2 * n * n * d,
                            other=windows * (2 * n * n + n * (n - 1) + n * d))
    single = SingleAttention(n, d).clip_cost((d,), t)
    assert single == OpCount(macs=windows * 2 * n * d, other=windows * (2 * n + n - 1 + d))
    assert RetroAttention(n, d).clip_cost((d,), n - 1) == OpCount()


def test_window_input_step_cost_is_one_window():
    # a window-input step computes the newest row of one (n, d) window: a
    # token block's step, plus the keys and values of the n - 1 older rows
    # that a token block reads from its cache; less than a full window
    rng = np.random.default_rng(30)
    n, d = 5, 4
    win_block = make_encoder(rng, "single", n, d, rpe=False, window_input=True)
    tok_block = make_encoder(rng, "single", n, d, rpe=False)
    step = win_block.step_cost((n, d))
    assert step == win_block.clip_cost((n, d), 1)
    assert step == tok_block.step_cost((d,)) + OpCount(macs=(n - 1) * d * 2 * d)
    assert step.macs < tok_block.clip_cost((d,), n).macs
    assert win_block.clip_cost((n, d), 7) == step.scaled(7)


def test_sda_cost_grows_quadratically():
    ratio = sda_full_cost(128, 8).flops / sda_full_cost(64, 8).flops
    assert 3.6 <= ratio <= 4.4


# -- clip mode: one batched call over every window ------------------------------------


def layer_norm_oracle(ln, x):
    x = x.astype(np.float64)
    c = x - x.mean(axis=-1, keepdims=True)
    norm = c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + ln.eps)
    return norm * ln.gamma.array + ln.beta.array


def encoder_oracle(blk, win):
    """Block output of one (n, d) window from the two-loop attention oracle."""
    y = layer_norm_oracle(blk.ln1, win + offline_mha_oracle(win, blk.mha)[0])
    h = np.maximum(y @ blk.ff_w1.array + blk.ff_b1.array, 0)
    return layer_norm_oracle(blk.ln2, y + h @ blk.ff_w2.array + blk.ff_b2.array)


def clip_case(kind, n, d, rng):
    """(module, per-window kernel, per-window oracle, windows-as-input flag)."""
    if kind in ("retro", "single"):
        mod = RetroAttention(n, d) if kind == "retro" else SingleAttention(n, d)
        if kind == "retro":
            return mod, lambda w: _sda(w, w, w, mod.scale), \
                lambda w: softmax_attention_oracle(w, w, w), False
        return mod, lambda w: _sda(w[-1:], w, w, mod.scale)[0], \
            lambda w: softmax_attention_oracle(w, w, w)[-1], False
    if kind.startswith("mha"):
        _, mode, heads = kind.split("-")
        mod = MultiheadAttention(mode, n, *(rand_tensor(rng, (d, d)) for _ in range(4)),
                                 heads=int(heads))
        last = slice(None) if mode == "retro" else -1
        # single mode computes only the newest row: its own kernel
        kernel = mod._window if mode == "retro" else lambda w: mod._newest(w)[0]
        return mod, kernel, lambda w: offline_mha_oracle(w, mod)[0][last], False
    mode = "single" if kind == "enc-window" else kind[4:]
    window_input = kind == "enc-window"
    mod = make_encoder(rng, mode, n, d, h=2, rpe=not window_input, window_input=window_input)
    blk = mod if window_input else mod.modules[1]  # token blocks follow their encoding
    last = slice(None) if mode == "retro" else -1
    # a single-mode block, token or window input, computes only the newest row
    kernel = blk._offline_window if mode == "retro" else blk._newest
    return mod, kernel, lambda w: encoder_oracle(blk, w)[last], window_input


CLIP_KINDS = ["retro", "single", "mha-retro-1", "mha-retro-2", "mha-single-1", "mha-single-2",
              "enc-retro", "enc-single", "enc-window"]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("t_of_n", [lambda n: n - 1, lambda n: n, lambda n: 3 * n + 2,
                                    lambda n: 2 * WINDOW_BATCH + n + 1],
                         ids=["n-1", "n", "3n+2", "3-batches"])
@pytest.mark.parametrize("kind", CLIP_KINDS)
def test_clip_equals_the_kernel_run_per_window(kind, t_of_n, dtype):
    n, d = 4, 6
    rng = np.random.default_rng(41)
    mod, kernel, oracle, window_input = clip_case(kind, n, d, rng)
    t = t_of_n(n)
    if window_input:
        x = rand_tensor(rng, (t, n, d), dtype=dtype, scale=0.5)
        wins = list(x.array)
    else:
        x = rand_tensor(rng, (t, d), dtype=dtype, scale=0.5)
        # an encoded block's windows are read after its positional-encoding stage
        xe = mod.modules[0]._clip(x.array) if isinstance(mod, Sequential) else x.array
        wins = [xe[j : j + n] for j in range(t - n + 1)]
    got = mod.forward(x).array
    # the loop clip mode ran before it was one batched call
    want = np.zeros((len(wins),) + mod.out_frame_shape(x.shape[1:]), dtype=x.array.dtype)
    for j, win in enumerate(wins):
        want[j] = kernel(win)
    assert got.dtype == x.array.dtype and np.array_equal(got, want)
    if wins:
        assert max_rel_dev(got, np.stack([oracle(w) for w in wins])) < 1e-4
    assert got.flags.c_contiguous and not np.shares_memory(got, x.array)


def test_clip_memory_is_bounded_by_the_window_batch():
    """Clip mode's temporaries are ``WINDOW_BATCH`` windows deep, not one per
    window of the clip: one call over all 961 windows of this 1024-frame
    stream would peak near 71 MB."""
    path = Path(__file__).resolve().parent.parent / "configs" / "encoder_one_block.json"
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    x = random_stream(3, 1024, tuple(cfg["input"]["shape"]), cfg["dtype"])
    tracemalloc.start()
    try:
        y = model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (1024 - 63, 8)
    assert peak <= 16e6, f"clip peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("kind", CLIP_KINDS)
def test_clip_emission_bits_do_not_depend_on_the_clip(kind, dtype):
    # each window is the same fixed-shape kernel call wherever it falls, so
    # an emission has the same bits in a clip that starts earlier or later,
    # is longer or shorter, or cuts its window batches elsewhere
    n, d = 4, 6
    rng = np.random.default_rng(43)
    mod, _, _, window_input = clip_case(kind, n, d, rng)
    # a token block alone: its positional encoding reads the clip's start
    blk = mod.modules[1] if isinstance(mod, Sequential) else mod
    t = 2 * WINDOW_BATCH + 3 * n
    x = rand_tensor(rng, (t, n, d) if window_input else (t, d), dtype=dtype, scale=0.5).array
    whole = blk._clip(x)
    for q in (1, n + 1, WINDOW_BATCH - 1):
        for length in (n, 2 * n + 3, WINDOW_BATCH + n):
            part = blk._clip(x[q:q + length])
            assert len(part) > 0 and np.array_equal(part, whole[q:q + len(part)])


@pytest.mark.parametrize("kind", ["mha", "enc"])
def test_single_mode_clip_attends_one_query_row_per_window(kind, monkeypatch):
    # single-output clip mode computes only the row it emits: every
    # attention call gets one query row per window, not the window's n
    n, d = 5, 4
    rng = np.random.default_rng(44)
    if kind == "mha":
        mod = MultiheadAttention("single", n, *(rand_tensor(rng, (d, d)) for _ in range(4)),
                                 heads=2)
    else:
        mod = make_encoder(rng, "single", n, d, h=2, rpe=False)
    rows = []

    def spy(q, k, v, scale):
        rows.append(q.shape[-2])
        return _sda(q, k, v, scale)

    monkeypatch.setattr(attention, "_sda", spy)
    y = mod.forward(rand_tensor(rng, (3 * n, d)))
    assert y.shape == (2 * n + 1, d)
    assert rows and set(rows) == {1}


def test_single_block_clip_memory_does_not_grow_with_the_window():
    """A single-mode block's clip holds one attention row per window, so this
    1024-frame stream peaks under 2 MB, not near the 11 MB that every
    window's (heads, n, n) logits and n-row tail take."""
    path = Path(__file__).resolve().parent.parent / "configs" / "encoder_one_block.json"
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    x = random_stream(3, 1024, tuple(cfg["input"]["shape"]), cfg["dtype"])
    tracemalloc.start()
    try:
        y = model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (1024 - 63, 8)
    assert peak <= 2e6, f"clip peak {peak / 1e6:.1f} MB"
