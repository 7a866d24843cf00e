"""Continual convolution: delay arithmetic, offline oracle, step equivalence."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cinet.config import build_model, random_stream
from cinet.conv import TemporalConv
from cinet.errors import DimensionError
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor


# c_out that makes a c_in = 2 conv pick each step arrangement on every frame
# and kernel below: pre caches C*H*W elements per slot, post c_out*H'*W'
C_OUT = {"pre": 6, "post": 1}


def make_conv(rng, c_in=2, c_out=3, k=(3, 2, 2), dilation=1, padding=0,
              stride=1, scale=0.5):
    w = rand_tensor(rng, (c_out, c_in) + k, scale=scale)
    b = rand_tensor(rng, (c_out,), scale=scale)
    return TemporalConv(w, b, dilation=dilation, padding=padding,
                        temporal_stride=stride)


def offline_oracle(x, w, b, dilation, padding):
    """Six-nested-loop causal convolution over the zero-prefixed sequence."""
    t_in, c_in, h, wd = x.shape
    c_out, _, k_t, k_h, k_w = w.shape
    rf = (k_t - 1) * dilation + 1
    xe = np.concatenate([np.zeros((padding, c_in, h, wd)), x.astype(np.float64)])
    n_out = xe.shape[0] - rf + 1
    oh, ow = h - k_h + 1, wd - k_w + 1
    out = np.zeros((max(n_out, 0), c_out, oh, ow))
    for j in range(max(n_out, 0)):
        end = j + rf - 1  # the window closes at this effective index
        for o in range(c_out):
            for i in range(oh):
                for jj in range(ow):
                    acc = float(b[o])
                    for k in range(k_t):
                        for c in range(c_in):
                            for a in range(k_h):
                                for bb in range(k_w):
                                    acc += float(w[o, c, k, a, bb]) * \
                                        float(xe[end - k * dilation, c, i + a, jj + bb])
                    out[j, o, i, jj] = acc
    return out


# -- delay arithmetic ----------------------------------------------------------


@pytest.mark.parametrize("k_t,dil,pad,expected", [(3, 1, 0, 2), (1, 1, 0, 0), (3, 2, 1, 3)])
def test_delay_equation(k_t, dil, pad, expected):
    conv = make_conv(np.random.default_rng(0), k=(k_t, 1, 1), dilation=dil, padding=pad)
    assert conv.delay() == expected
    assert conv.receptive_field() == k_t + (k_t - 1) * (dil - 1)


def test_padding_bounded_by_receptive_field():
    with pytest.raises(ValueError):
        make_conv(np.random.default_rng(0), k=(3, 1, 1), padding=3)


# -- offline forward ------------------------------------------------------------


def test_forward_pointwise_identity():
    w = np.zeros((1, 1, 1, 1, 1), dtype=np.float32)
    w[0, 0, 0, 0, 0] = 1.0
    conv = TemporalConv(Tensor.wrap(w), Tensor.zeros((1,)))
    x = rand_tensor(np.random.default_rng(3), (6, 1, 3, 3))
    assert np.allclose(conv.forward(x).array, x.array)


def test_forward_counting_case():
    w = Tensor.wrap(np.ones((1, 1, 3, 1, 1), dtype=np.float32))
    conv = TemporalConv(w, Tensor.zeros((1,)))
    x = Tensor.wrap(np.ones((5, 1, 1, 1), dtype=np.float32))
    out = conv.forward(x)
    assert out.shape == (3, 1, 1, 1)
    assert np.all(out.array == 3.0)


def test_forward_vs_loop_oracle_seed13():
    rng = np.random.default_rng(13)
    for dil, pad in [(1, 0), (1, 2), (2, 1), (2, 4)]:
        conv = make_conv(rng, dilation=dil, padding=pad)
        x = rand_tensor(rng, (10, 2, 4, 4))
        got = conv.forward(x).array
        want = offline_oracle(x.array, conv.weights.array, conv.bias.array, dil, pad)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
@pytest.mark.parametrize("dil", [1, 2])
@pytest.mark.parametrize("k_t", [1, 3, 9])
def test_forward_vs_loop_oracle_grid(k_t, dil, dtype, tol):
    # the oracle emits every stride-1 window; a strided clip keeps every
    # stride-th of them, so one oracle run checks strides 1, 2 and 3
    rng = np.random.default_rng(200 + k_t + 10 * dil)
    rf = (k_t - 1) * dil + 1
    for pad in range(rf):
        for spatial, frame in [((1, 1), (2, 2, 3)), ((2, 3), (2, 3, 4))]:
            w = rand_tensor(rng, (2, 2, k_t) + spatial, dtype=dtype, scale=0.3)
            b = rand_tensor(rng, (2,), dtype=dtype, scale=0.3)
            for length in (rf - 1, rf, 5 * rf + 3):
                x = rand_tensor(rng, (length,) + frame, dtype=dtype)
                want = offline_oracle(x.array, w.array, b.array, dil, pad)
                for stride in (1, 2, 3):
                    conv = TemporalConv(w, b, dilation=dil, padding=pad,
                                        temporal_stride=stride)
                    got = conv.forward(x).array
                    assert got.dtype == x.array.dtype
                    assert got.shape == want[::stride].shape
                    assert max_rel_dev(got, want[::stride]) < tol


def test_forward_too_short_gives_empty():
    conv = make_conv(np.random.default_rng(1), k=(3, 1, 1))
    out = conv.forward(rand_tensor(np.random.default_rng(2), (2, 2, 3, 3)))
    assert out.shape[0] == 0


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("spatial", [(1, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dil", [1, 2, 3])
@pytest.mark.parametrize("k_t", [1, 3, 9])
def test_clip_emission_bits_do_not_depend_on_the_clip(k_t, dil, stride, spatial, dtype):
    # an emission is its own fixed-shape product, so the same window gives
    # the same bits in a longer clip that starts q emissions earlier
    rng = np.random.default_rng(300 + k_t + 10 * dil + 100 * stride)
    rf = (k_t - 1) * dil + 1
    x = rand_tensor(rng, (3 * rf + 7, 16, 4, 5), dtype=dtype).array
    q = 3
    for pad in (0, rf // 2):
        conv = make_conv(rng, c_in=16, c_out=8, k=(k_t,) + spatial, dilation=dil,
                         padding=pad, stride=stride)
        whole = conv._clip(x)
        part = conv._clip(x[q * stride:q * stride + 2 * rf + 1])
        # a padded clip's first emissions read its leading zero frames
        inside = -(-pad // stride)
        assert len(part) > inside
        assert np.array_equal(part[inside:], whole[q + inside:q + len(part)])


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("form", ["pre", "post"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dil", [1, 2])
@pytest.mark.parametrize("k_t", [1, 3, 9])
def test_pointwise_conv_takes_node_frames_without_a_unit_axis(k_t, dil, stride, form, dtype):
    # a 1x1 conv steps and clips (C, N) frames, with no made-up W = 1 axis,
    # to the same bits as (C, N, 1) frames, on a ring of the same shape
    rng = np.random.default_rng(200 + k_t + 10 * dil + 100 * stride)
    rf = (k_t - 1) * dil + 1
    x = rand_tensor(rng, (4 * rf + 5, 2, 7), dtype=dtype)
    unit = Tensor.wrap(x.array[..., None])
    for pad in (0, rf // 2):
        conv = make_conv(rng, c_out=C_OUT[form], k=(k_t, 1, 1), dilation=dil, padding=pad,
                         stride=stride)
        assert conv.out_frame_shape((2, 7)) == (conv.c_out, 7)
        assert conv.cache_elements((2, 7)) == conv.cache_elements((2, 7, 1))
        # with no ring to keep, or strided, the conv runs pre
        assert conv.cache_elements((2, 7))["chosen"] == (form if rf > 1 and stride == 1
                                                         else "pre")
        clip = conv.forward(x).array
        assert clip.shape == (conv.out_len(x.shape[0]), conv.c_out, 7)
        assert np.array_equal(clip, conv.forward(unit).array[..., 0])
        flat, deep = conv.init_state(), conv.init_state()
        steps = conv.forward_steps(flat, x).array
        assert steps.shape == clip.shape
        assert np.array_equal(steps, conv.forward_steps(deep, unit).array[..., 0])
        assert flat.ring.ndim == 2 and flat.ring.shape == deep.ring.shape
        assert np.array_equal(flat.ring, deep.ring)


def test_spatial_kernel_refuses_node_frames():
    conv = make_conv(np.random.default_rng(8), k=(3, 2, 2))
    with pytest.raises(DimensionError):
        conv.out_frame_shape((2, 7))
    with pytest.raises(DimensionError):
        conv.forward_step(conv.init_state(), Tensor.zeros((2, 7)))
    with pytest.raises(DimensionError):
        conv.forward(Tensor.zeros((5, 2, 7)))
    pointwise = make_conv(np.random.default_rng(8), k=(3, 1, 1))
    with pytest.raises(DimensionError):
        pointwise.forward(Tensor.zeros((5, 2, 7, 1, 1)))


def test_undilated_clip_reads_its_frames_in_place():
    # the skeleton block's 1x1 conv: the only array a clip allocates is its
    # output, so the traced peak is the input and the output
    conv = make_conv(np.random.default_rng(7), c_in=16, c_out=16, k=(9, 1, 1))
    tracemalloc.start()
    try:
        x = np.ones((4096, 16, 25, 1), np.float32)
        y = conv._clip(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (4088, 16, 25, 1)
    assert peak <= 1.25 * (x.nbytes + y.nbytes)


# -- warm-up and step mode ----------------------------------------------------------


@pytest.mark.parametrize("padding,ready_from", [(0, 2), (2, 0)])
def test_warmup_schedule(padding, ready_from):
    conv = make_conv(np.random.default_rng(4), k=(3, 1, 1), padding=padding)
    state = conv.init_state()
    for t in range(4):
        out = conv.forward_step(state, rand_tensor(np.random.default_rng(t), (2, 1, 1)))
        assert (out is not None) == (t >= ready_from)


def test_pointwise_ready_every_step():
    conv = make_conv(np.random.default_rng(5), k=(1, 1, 1))
    state = conv.init_state()
    for t in range(3):
        assert conv.forward_step(state, rand_tensor(np.random.default_rng(t), (2, 2, 2))) is not None


def test_delta_kernel_is_delayed_identity():
    # temporal tap 0 carries an identity spatial kernel; full padding
    k_t = 3
    w = np.zeros((1, 1, k_t, 1, 1), dtype=np.float32)
    w[0, 0, 0, 0, 0] = 1.0
    conv = TemporalConv(Tensor.wrap(w), Tensor.zeros((1,)), padding=k_t - 1)
    assert conv.delay() == 0
    state = conv.init_state()
    rng = np.random.default_rng(6)
    for _ in range(6):
        x_t = rand_tensor(rng, (1, 2, 2))
        out = conv.forward_step(state, x_t)
        assert np.allclose(out.array, x_t.array, atol=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("form", ["pre", "post"])
def test_steps_match_forward(seed, form):
    rng = np.random.default_rng(seed)
    conv = make_conv(rng, c_out=C_OUT[form], dilation=2, padding=1)
    x = rand_tensor(rng, (14, 2, 4, 4))
    assert conv.cache_elements((2, 4, 4))["chosen"] == form
    offline = conv.forward(x)
    online = conv.forward_steps(conv.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-5


def test_strided_emission_schedule():
    conv = make_conv(np.random.default_rng(9), k=(3, 1, 1), stride=2)
    state = conv.init_state()
    emitted = []
    rng = np.random.default_rng(10)
    for t in range(10):
        out = conv.forward_step(state, rand_tensor(rng, (2, 1, 1)))
        if out is not None:
            emitted.append(t)
    assert emitted == [2, 4, 6, 8]


def test_forward_steps_empty_input():
    conv = make_conv(np.random.default_rng(11))
    state = conv.init_state()
    out = conv.forward_steps(state, Tensor.zeros((0, 2, 4, 4)))
    assert out.shape == (0, 3, 3, 3)
    assert state.t == 0


def test_chunked_steps_equal_single_pass():
    rng = np.random.default_rng(12)
    conv = make_conv(rng, dilation=2)
    x = rand_tensor(rng, (13, 2, 4, 4))
    whole = conv.forward_steps(conv.init_state(), x)
    state = conv.init_state()
    parts = [
        conv.forward_steps(state, Tensor.wrap(x.array[:5])),
        conv.forward_steps(state, Tensor.wrap(x.array[5:6])),
        conv.forward_steps(state, Tensor.wrap(x.array[6:])),
    ]
    joined = np.concatenate([p.array for p in parts if p.shape[0]])
    assert np.array_equal(whole.array, joined)


def test_frame_shape_mismatch_raises():
    conv = make_conv(np.random.default_rng(13))
    with pytest.raises(DimensionError):
        conv.forward_step(conv.init_state(), Tensor.zeros((3, 4, 4)))


# -- cache accounting -----------------------------------------------------------


def test_cache_elements_examples():
    rng = np.random.default_rng(14)
    up = make_conv(rng, c_in=4, c_out=16, k=(3, 1, 1))
    got = up.cache_elements((4, 8, 8))
    assert got == {"pre": 512, "post": 2048, "chosen": "pre"}
    down = make_conv(rng, c_in=16, c_out=4, k=(3, 1, 1))
    assert down.cache_elements((16, 8, 8))["chosen"] == "post"
    tie = make_conv(rng, c_in=8, c_out=8, k=(3, 1, 1))
    assert tie.cache_elements((8, 8, 8))["chosen"] == "pre"
    # post would cache less, but it convolves every frame and pre only the
    # frames that emit
    strided = make_conv(rng, c_in=16, c_out=4, k=(3, 1, 1), stride=2)
    assert strided.cache_elements((16, 8, 8)) == {"pre": 2048, "post": 512, "chosen": "pre"}


def test_auto_form_resolves_to_smaller_cache():
    rng = np.random.default_rng(15)
    conv = make_conv(rng, c_in=16, c_out=4, k=(3, 1, 1))
    state = conv.init_state()
    conv.forward_step(state, rand_tensor(rng, (16, 2, 2)))
    # post form: the ring's slots hold output-shaped partial sums, slot s
    # the c_out rows from s * c_out on, of H'*W' columns each
    assert state.ring.shape == ((conv.receptive_field() - 1) * conv.c_out, 2 * 2)


# -- invariants -------------------------------------------------------------------


def test_alignment_law_and_fifo_bound():
    rng = np.random.default_rng(16)
    for k_t, dil, pad, dtype, tol in [
        (3, 1, 0, "f32", 1e-5), (4, 2, 3, "f32", 1e-5), (3, 2, 0, "f64", 1e-10),
    ]:
        conv = make_conv(rng, c_out=C_OUT["pre"], k=(k_t, 2, 2), dilation=dil, padding=pad)
        x = rand_tensor(rng, (16, 2, 4, 4), dtype=dtype)
        assert conv.cache_elements((2, 4, 4))["chosen"] == "pre"
        offline = conv.forward(x).array
        state = conv.init_state()
        ready = 0
        for t in range(16):
            out = conv.forward_step(state, Tensor.wrap(x.array[t]))
            assert len(state.ring) <= (conv.receptive_field() - 1) * conv.c_in
            if out is not None:
                assert max_rel_dev(out.array, offline[ready]) < tol
                ready += 1
        assert ready == max(0, 16 - conv.delay())


def test_post_form_cache_bound():
    rng = np.random.default_rng(17)
    conv = make_conv(rng, c_out=C_OUT["post"], k=(4, 1, 1), dilation=2)
    assert conv.cache_elements((2, 2, 2))["chosen"] == "post"
    state = conv.init_state()
    for t in range(20):
        conv.forward_step(state, rand_tensor(rng, (2, 2, 2)))
        assert len(state.ring) <= (conv.receptive_field() - 1) * conv.c_out


# -- ring-buffer state ---------------------------------------------------------------


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dil", [1, 2])
@pytest.mark.parametrize("k_t", [1, 3, 9])
@pytest.mark.parametrize("form", ["pre", "post"])
def test_ring_steps_match_forward_and_never_reallocate(form, k_t, dil, stride, dtype, tol):
    rng = np.random.default_rng(100 + k_t + 10 * dil + 100 * stride)
    rf = (k_t - 1) * dil + 1
    length = 5 * rf + 3  # the cursor wraps at least five times
    for pad in range(rf):
        for spatial in [(1, 1), (2, 3)]:
            conv = make_conv(rng, c_out=C_OUT[form], k=(k_t,) + spatial, dilation=dil,
                             padding=pad, stride=stride, scale=0.3)
            x = rand_tensor(rng, (length, 2, 3, 4), dtype=dtype)
            # with no ring to keep (rf = 1) the tie goes to pre, and a
            # strided conv runs pre whatever it caches
            want_form = form if rf > 1 and stride == 1 else "pre"
            assert conv.cache_elements((2, 3, 4))["chosen"] == want_form
            offline = conv.forward(x).array
            state = conv.init_state()
            # one 2-D matrix: (rf-1) slots of C input rows (pre) or of c_out
            # partial-sum rows (post)
            rows = (rf - 1) * (conv.c_in if want_form == "pre" else conv.c_out)
            size = conv.cache_elements((2, 3, 4))[want_form]
            ring = None
            outs = []
            for t in range(length):
                y = conv.forward_step(state, Tensor.wrap(x.array[t]))
                if ring is None:
                    ring = state.ring
                    assert ring.shape[0] == rows and ring.size == size and ring.ndim == 2
                    assert ring.dtype == x.array.dtype
                assert state.ring is ring and ring.shape[0] == rows
                if y is not None:
                    assert y.dtype == dtype
                    outs.append(y.array)
            assert len(outs) == offline.shape[0]
            assert max_rel_dev(np.stack(outs), offline) < tol


def _check_every_sub_ring_phase(form, k_t, dil, pad, stride, spatial, dtype, tol):
    rng = np.random.default_rng(25)
    conv = make_conv(rng, c_out=C_OUT[form], k=(k_t,) + spatial, dilation=dil,
                     padding=pad, stride=stride, scale=0.3)
    frame = (2, 5, 5)
    assert conv.cache_elements(frame)["chosen"] == form
    m, n = k_t - 1, conv.receptive_field() - 1
    x = rand_tensor(rng, (3 * n * stride + 8,) + frame, dtype=dtype).array
    want = offline_oracle(x, conv.weights.array, conv.bias.array, dil, pad)[::stride]
    state = conv._state(frame, x.dtype)
    outs, phases = [], set()
    for t in range(len(x)):
        y = conv._step(state, x[t])
        assert state.ring.shape[0] == n * (conv.c_in if form == "pre" else conv.c_out)
        if y is not None:
            phases.add((t % dil, t // dil % m))  # (sub-ring, phase)
            assert max_rel_dev(y, want[len(outs)]) < tol
            outs.append(y)
    # the stride is prime to the ring size, so every sub-ring emitted at
    # every phase
    assert len(outs) == len(want)
    assert phases == {(r, p) for r in range(dil) for p in range(m)}
    # one weight matrix per phase, each a view of one table of at most
    # twice the taps' bytes, not a copy per phase nor a slot index
    taps = m * conv.c_out * conv.c_in * spatial[0] * spatial[1] * x.itemsize
    plan = conv._layouts[(x.dtype, frame)].plan
    assert len(plan) == m
    assert all(w.ndim == 2 and w.dtype == x.dtype for w in plan)
    table = plan[0] if plan[0].base is None else plan[0].base
    assert table.nbytes <= 2 * taps
    assert all(np.shares_memory(w, table) for w in plan)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-6), ("f64", 1e-12)])
@pytest.mark.parametrize("k_t,dil,pad,stride,spatial", [
    (9, 1, 0, 1, (1, 1)),  # the skeleton block's conv: the ring read in place
    (4, 1, 2, 2, (3, 3)),  # the ring unfolded through its own im2col index
    (3, 2, 0, 1, (1, 1)),  # dilated: each sub-ring read in place
    (3, 2, 3, 3, (3, 3)),
    (3, 3, 1, 1, (1, 1)),
    (4, 3, 2, 5, (2, 2)),
])
def test_pre_form_matches_loop_oracle_at_every_ring_phase(k_t, dil, pad, stride, spatial,
                                                           dtype, tol):
    _check_every_sub_ring_phase("pre", k_t, dil, pad, stride, spatial, dtype, tol)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-6), ("f64", 1e-12)])
@pytest.mark.parametrize("k_t,dil,pad,spatial", [
    (9, 1, 0, (1, 1)),
    (4, 1, 2, (3, 3)),
    (3, 2, 0, (1, 1)),
    (3, 2, 3, (3, 3)),
    (3, 3, 1, (1, 1)),
    (4, 3, 2, (2, 2)),
])
def test_post_form_matches_loop_oracle_at_every_ring_phase(k_t, dil, pad, spatial, dtype, tol):
    _check_every_sub_ring_phase("post", k_t, dil, pad, 1, spatial, dtype, tol)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
@pytest.mark.parametrize("k_t,dil", [(2, 1), (3, 2), (4, 3), (9, 1)])
def test_post_lagged_term_lands_on_its_aligned_emission(k_t, dil, dtype, tol):
    # a term handed in with frame j joins emission j, delay() steps later: it
    # starts the freed slot (padding 0), joins a pending one, or goes straight
    # into the emission (delay 0); the padded emissions that read slots never
    # freed find the bias there
    rng = np.random.default_rng(26 + k_t + dil)
    rf = (k_t - 1) * dil + 1
    for pad in range(rf):
        conv = make_conv(rng, c_out=4, k=(k_t, 1, 1), dilation=dil, padding=pad)
        assert conv.cache_elements((2, 6))["chosen"] == "pre"
        x = rand_tensor(rng, (4 * rf + 5, 2, 6), dtype=dtype).array
        z = rand_tensor(rng, (len(x), 4, 6), dtype=dtype).array
        state = conv._state((2, 6), x.dtype, "post")  # the form a block asks for
        outs = [y for t in range(len(x)) if (y := conv._step(state, x[t], z[t])) is not None]
        want = conv._clip(x) + z[:len(outs)]
        assert len(outs) == len(want) == len(x) - conv.delay()
        assert max_rel_dev(np.stack(outs), want) < tol
        with pytest.raises(ValueError):  # one conv steps one frame shape one way
            conv._state((2, 6), x.dtype, "pre")


# the stack of the AC9 throughput gate in test_acceptance.py
K8_STACK = {"name": "k8_stack", "dtype": "f32", "input": {"shape": [8, 12, 12]},
            "layers": [
                {"type": "conv3d", "c_in": 8, "c_out": 8, "kernel": [8, 3, 3],
                 "init": {"scheme": "uniform", "seed": 91}},
                {"type": "conv3d", "c_in": 8, "c_out": 8, "kernel": [8, 1, 1],
                 "init": {"scheme": "uniform", "seed": 92}},
            ]}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name,forms", [
    ("conv_stack", ["post", "pre"]),
    ("toy_costgcn", ["post"] * 4),
    ("k8_stack", ["post", "pre"]),
])
def test_bundled_traffic_keeps_its_step_arrangements(name, forms):
    # the arrangement each conv of the benchmarked and gated models takes on
    # its stream, so a change of the choosing rule shows here
    cfg = K8_STACK if name == "k8_stack" else json.loads((CONFIG_DIR / f"{name}.json").read_text())
    model = build_model(cfg)
    x = random_stream(0, 40, tuple(cfg["input"]["shape"]), cfg["dtype"])
    model.forward_steps(model.init_state(), x)
    convs = [c for m in model.modules for c in (m, getattr(m, "tc", None))
             if isinstance(c, TemporalConv)]
    assert [lay.form for c in convs for lay in c._layouts.values()] == forms


@pytest.mark.parametrize("form", ["pre", "post"])
def test_interleaved_dtypes_share_one_module(form):
    # the per-dtype weight layouts live on the module; two streams of
    # different dtypes stepped alternately must each match their own clip.
    # f64 weights, so an f64 stream served f32-rounded weights would drift
    rng = np.random.default_rng(21)
    w = rand_tensor(rng, (C_OUT[form], 2, 3, 2, 2), dtype="f64")
    b = rand_tensor(rng, (C_OUT[form],), dtype="f64")
    conv = TemporalConv(w, b, dilation=2, padding=1)
    assert conv.cache_elements((2, 4, 4))["chosen"] == form
    x32 = rand_tensor(rng, (30, 2, 4, 4), dtype="f32")
    x64 = rand_tensor(rng, (30, 2, 4, 4), dtype="f64")
    s32, s64 = conv.init_state(), conv.init_state()
    o32, o64 = [], []
    for t in range(30):
        for state, x, outs in ((s32, x32, o32), (s64, x64, o64)):
            y = conv.forward_step(state, Tensor.wrap(x.array[t]))
            if y is not None:
                assert y.array.dtype == x.array.dtype
                outs.append(y.array)
    assert max_rel_dev(np.stack(o32), conv.forward(x32).array) < 1e-5
    assert max_rel_dev(np.stack(o64), conv.forward(x64).array) < 1e-12


def test_stream_rejects_frame_of_other_dtype():
    rng = np.random.default_rng(22)
    conv = make_conv(rng, k=(3, 1, 1))
    state = conv.init_state()
    conv.forward_step(state, rand_tensor(rng, (2, 4, 4), dtype="f32"))
    with pytest.raises(DimensionError):
        conv.forward_step(state, rand_tensor(rng, (2, 4, 4), dtype="f64"))
    assert state.t == 1


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k_t,dil,pad", [(3, 1, 0), (3, 2, 2), (4, 1, 3), (2, 3, 1)])
@pytest.mark.parametrize("form", ["pre", "post"])
def test_nan_frame_poisons_exactly_its_windows(form, k_t, dil, pad, stride):
    rng = np.random.default_rng(23)
    conv = make_conv(rng, c_in=2, c_out=C_OUT[form], k=(k_t, 1, 1), dilation=dil,
                     padding=pad, stride=stride)
    assert conv.cache_elements((2, 2, 2))["chosen"] == (form if stride == 1 else "pre")
    rf = conv.receptive_field()
    length = 6 * rf
    for s in (0, rf // 2, 2 * rf + 1):
        x = rand_tensor(rng, (length, 2, 2, 2)).array.copy()
        x[s] = np.nan
        out = conv.forward_steps(conv.init_state(), Tensor.wrap(x)).array
        want = offline_oracle(x, conv.weights.array, conv.bias.array, dil, pad)[::stride]
        assert out.shape == want.shape
        for j in range(out.shape[0]):
            t_emit = conv.delay() + j * stride
            poisoned = any(t_emit - k * dil == s for k in range(k_t))
            assert np.isnan(out[j]).all() == poisoned
            assert np.isnan(want[j]).all() == poisoned
            if not poisoned:
                assert np.isfinite(out[j]).all()
                assert np.allclose(out[j], want[j], rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("spatial", [(1, 1), (2, 3)])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k_t,dil,pad", [(3, 1, 0), (3, 2, 2), (4, 1, 3), (2, 3, 1)])
def test_nan_frame_poisons_exactly_its_clip_windows(k_t, dil, pad, stride, spatial):
    # clip-mode twin of the step test above: the clip's leading zero frames
    # and unread frames must not pick up the NaN through a shared product
    rng = np.random.default_rng(24)
    conv = make_conv(rng, c_in=2, c_out=2, k=(k_t,) + spatial, dilation=dil,
                     padding=pad, stride=stride)
    rf = conv.receptive_field()
    length = 6 * rf
    for s in (0, rf // 2, 2 * rf + 1):
        x = rand_tensor(rng, (length, 2, 3, 4)).array.copy()
        x[s] = np.nan
        out = conv.forward(Tensor.wrap(x)).array
        want = offline_oracle(x, conv.weights.array, conv.bias.array, dil, pad)[::stride]
        assert out.shape == want.shape
        for j in range(out.shape[0]):
            t_emit = conv.delay() + j * stride
            poisoned = any(t_emit - k * dil == s for k in range(k_t))
            assert np.isnan(out[j]).all() == poisoned
            if not poisoned:
                assert np.isfinite(out[j]).all()
                assert np.allclose(out[j], want[j], rtol=1e-4, atol=1e-5)
