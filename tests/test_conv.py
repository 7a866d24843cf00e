"""Continual convolution: delay arithmetic, offline oracle, step equivalence."""

import math
import tracemalloc

import numpy as np
import pytest

from cinet.conv import TemporalConv
from cinet.errors import DimensionError
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor


# the two output widths of a c_in = 2 conv that the step tests run: c_out = 6,
# whose partial sums take more room than the frames they sum would, and
# c_out = 1, less.  The ids name the step arrangement each width took while
# the conv had two, so the cases keep their names
WIDTHS = pytest.mark.parametrize("c_out", [6, 1], ids=["pre", "post"])


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
@WIDTHS
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dil", [1, 2])
@pytest.mark.parametrize("k_t", [1, 3, 9])
def test_pointwise_conv_takes_node_frames_without_a_unit_axis(k_t, dil, stride, c_out, dtype):
    # a 1x1 conv steps and clips (C, N) frames, with no made-up W = 1 axis,
    # to the same bits as (C, N, 1) frames, on a ring of the same shape
    rng = np.random.default_rng(200 + k_t + 10 * dil + 100 * stride)
    rf = (k_t - 1) * dil + 1
    x = rand_tensor(rng, (4 * rf + 5, 2, 7), dtype=dtype)
    unit = Tensor.wrap(x.array[..., None])
    for pad in (0, rf // 2):
        conv = make_conv(rng, c_out=c_out, k=(k_t, 1, 1), dilation=dil, padding=pad,
                         stride=stride)
        assert conv.out_frame_shape((2, 7)) == (conv.c_out, 7)
        clip = conv.forward(x).array
        assert clip.shape == (conv.out_len(x.shape[0]), conv.c_out, 7)
        assert np.array_equal(clip, conv.forward(unit).array[..., 0])
        flat, deep = conv.init_state(), conv.init_state()
        steps = conv.forward_steps(flat, x).array
        assert steps.shape == clip.shape
        assert np.array_equal(steps, conv.forward_steps(deep, unit).array[..., 0])
        assert flat.layer.ring.ndim == 2 and flat.layer.ring.shape == deep.layer.ring.shape
        assert np.array_equal(flat.layer.ring, deep.layer.ring)


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
@WIDTHS
def test_steps_match_forward(seed, c_out):
    rng = np.random.default_rng(seed)
    conv = make_conv(rng, c_out=c_out, dilation=2, padding=1)
    x = rand_tensor(rng, (14, 2, 4, 4))
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
    assert state.layer.t == 0


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


@pytest.mark.parametrize("k,frames", [
    ((3, 2, 2), [(2, 4, 4), (2, 6, 6)]),  # a spatial kernel on two frame sizes
    ((3, 1, 1), [(2, 5), (2, 3, 4)]),  # a 1x1 kernel on node and (C, H, W) frames
], ids=["spatial", "pointwise"])
def test_one_conv_steps_streams_of_several_frame_shapes(k, frames):
    # the step path is arranged per dtype alone: streams of two frame shapes
    # in both dtypes, interleaved on one instance, each give the bits of the
    # same frames run alone on a fresh instance, and match their clip
    rng = np.random.default_rng(31)
    w, b = rand_tensor(rng, (3, 2) + k), rand_tensor(rng, (3,))

    def conv():
        return TemporalConv(w, b, dilation=2, padding=1, temporal_stride=2)

    xs = [(rand_tensor(rng, (13,) + f, dtype=dt), tol)
          for f in frames for dt, tol in (("f32", 1e-6), ("f64", 1e-12))]
    shared = conv()
    states = [shared.init_state() for _ in xs]
    outs = [[] for _ in xs]
    for t in range(13):
        for (x, _), state, ys in zip(xs, states, outs):
            y = shared.forward_step(state, Tensor.wrap(x.array[t]))
            if y is not None:
                ys.append(y.array)
    for (x, tol), ys in zip(xs, outs):
        alone = conv()
        want = alone.forward_steps(alone.init_state(), x).array
        assert len(ys) == len(want) == 5
        assert np.array_equal(np.stack(ys), want)
        assert max_rel_dev(want, shared.forward(x).array) < tol


# -- invariants -------------------------------------------------------------------


def test_alignment_law_and_fifo_bound():
    rng = np.random.default_rng(16)
    for k_t, dil, pad, dtype, tol in [
        (3, 1, 0, "f32", 1e-5), (4, 2, 3, "f32", 1e-5), (3, 2, 0, "f64", 1e-10),
    ]:
        conv = make_conv(rng, c_out=6, k=(k_t, 2, 2), dilation=dil, padding=pad)
        x = rand_tensor(rng, (16, 2, 4, 4), dtype=dtype)
        offline = conv.forward(x).array
        state = conv.init_state()
        ready = 0
        for t in range(16):
            out = conv.forward_step(state, Tensor.wrap(x.array[t]))
            assert len(state.layer.ring) <= (conv.receptive_field() - 1) * conv.c_out
            if out is not None:
                assert max_rel_dev(out.array, offline[ready]) < tol
                ready += 1
        assert ready == max(0, 16 - conv.delay())


def test_post_form_cache_bound():
    rng = np.random.default_rng(17)
    conv = make_conv(rng, c_out=1, k=(4, 1, 1), dilation=2)
    state = conv.init_state()
    for t in range(20):
        conv.forward_step(state, rand_tensor(rng, (2, 2, 2)))
        assert len(state.layer.ring) <= (conv.receptive_field() - 1) * conv.c_out


# -- ring-buffer state ---------------------------------------------------------------


def ring_slots(k_t, dil, stride):
    """Slots of the polyphase ring: ``dp = dil / gcd(dil, stride)`` sub-rings
    of ``ceil(ceil((k_t-1)*dil/stride) / dp)`` slots."""
    pending = -(-(k_t - 1) * dil // stride)
    dp = dil // math.gcd(dil, stride)
    return dp * -(-pending // dp)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dil", [1, 2])
@pytest.mark.parametrize("k_t", [1, 3, 9])
@WIDTHS
def test_ring_steps_match_forward_and_never_reallocate(c_out, k_t, dil, stride, dtype, tol):
    rng = np.random.default_rng(100 + k_t + 10 * dil + 100 * stride)
    rf = (k_t - 1) * dil + 1
    length = 5 * rf + 3  # the cursor wraps at least five times
    for pad in range(rf):
        for spatial in [(1, 1), (2, 3)]:
            conv = make_conv(rng, c_out=c_out, k=(k_t,) + spatial, dilation=dil,
                             padding=pad, stride=stride, scale=0.3)
            x = rand_tensor(rng, (length, 2, 3, 4), dtype=dtype)
            offline = conv.forward(x).array
            state = conv.init_state()
            # one 2-D matrix of c_out partial-sum rows per slot, (rf-1) slots
            # at stride 1 (none at rf = 1)
            rows = ring_slots(k_t, dil, stride) * c_out
            assert stride > 1 or rows == (rf - 1) * c_out
            cols = math.prod(conv.out_frame_shape((2, 3, 4))[1:])
            ring = None
            outs = []
            for t in range(length):
                y = conv.forward_step(state, Tensor.wrap(x.array[t]))
                if ring is None:
                    ring = state.layer.ring
                    assert ring.shape == (rows, cols) and ring.dtype == x.array.dtype
                assert state.layer.ring is ring and ring.shape[0] == rows
                if y is not None:
                    assert y.dtype == dtype
                    outs.append(y.array)
            assert len(outs) == offline.shape[0]
            assert max_rel_dev(np.stack(outs), offline) < tol


@pytest.mark.parametrize("k_t,dil,stride,slots", [
    (9, 1, 1, 8), (3, 2, 1, 4),  # stride 1: rf - 1 slots, dil sub-rings of k_t - 1
    (9, 1, 2, 4), (3, 2, 2, 2), (5, 1, 3, 2), (4, 2, 3, 2),
    (4, 3, 2, 6),  # 3 sub-rings of 2 slots: ceil(9/2) = 5 pending, rounded up per sub-ring
    (9, 3, 5, 6), (1, 2, 2, 0),
])
def test_ring_rows_are_the_polyphase_slots(k_t, dil, stride, slots):
    assert ring_slots(k_t, dil, stride) == slots
    for pad in (0, (k_t - 1) * dil):  # padding moves no slot
        conv = make_conv(np.random.default_rng(18), c_out=3, k=(k_t, 1, 1), dilation=dil,
                         padding=pad, stride=stride)
        assert conv._state((2, 5), np.dtype(np.float32)).ring.shape == (slots * 3, 5)


def _taps(conv, dtype):
    """The conv's (k_t, c_out, C*KH*KW) step taps, newest first."""
    return conv._w[dtype][0].reshape(conv.c_out, conv.k_t, -1)[:, ::-1].swapaxes(0, 1)


@pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
def test_schedule_feeds_every_emission_exactly_its_older_taps(stride):
    # walk the schedule over three periods as the ring sees it: a completing
    # slot is read, then freed, then the frame's products land.  Every
    # emission, real or dropped before delay(), must have collected tap k of
    # the frame k*dil steps back, for each k >= 1 the stream reaches, once,
    # and nothing else: no zero block and no tap of an emission that skips it
    rng = np.random.default_rng(19 + stride)
    dt = np.dtype(np.float64)
    for k_t in range(1, 10):
        for dil in (1, 2, 3):
            rf = (k_t - 1) * dil + 1
            for pad in sorted({0, rf // 2, rf - 1}):
                conv = make_conv(rng, c_out=3, k=(k_t, 1, 1), dilation=dil, padding=pad,
                                 stride=stride)
                ring = conv._state((2, 4), dt).ring
                plan = conv._step_table[dt][2]
                taps, c = _taps(conv, dt), conv.c_out
                assert len(plan) == stride * max(ring_slots(k_t, dil, stride), 1)
                got = {r: [] for r in range(0, ring.shape[0], c)}
                completed = 0
                for t in range(3 * len(plan) + rf):
                    out, adds, lag = plan[t % len(plan)]
                    assert (out is not None) == ((t - conv.delay()) % stride == 0)
                    if out is not None and k_t > 1:
                        want = [(k, t - k * dil) for k in range(1, k_t) if t - k * dil >= 0]
                        assert sorted(got[out]) == want, (k_t, dil, pad, t)
                        got[out] = []
                        completed += 1
                    for lo, hi, w in adds:
                        assert w.shape == (hi - lo, taps.shape[2])
                        for i, r in enumerate(range(lo, hi, c)):
                            (k,) = [k for k in range(1, k_t)
                                    if np.array_equal(w[i * c:i * c + c], taps[k])]
                            got[r].append((k, t))
                    # the aligned emission's slot, for a step's lagged term
                    if t % stride or not conv.delay():
                        assert lag is None
                    else:
                        j = (t + conv.delay() - conv.delay() % stride) // stride
                        assert lag == ring_row(j, k_t, dil, stride, c)
                assert k_t == 1 or completed >= ring_slots(k_t, dil, stride)


def ring_row(j, k_t, dil, stride, c):
    """The first row of emission ``j``'s slot: slot ``(j // dp) mod mp`` of
    sub-ring ``j mod dp``."""
    dp = dil // math.gcd(dil, stride)
    mp = ring_slots(k_t, dil, stride) // dp
    return (j % dp * mp + j // dp % mp) * c


def _check_every_sub_ring_phase(c_out, k_t, dil, pad, stride, spatial, dtype, tol):
    rng = np.random.default_rng(25)
    conv = make_conv(rng, c_out=c_out, k=(k_t,) + spatial, dilation=dil,
                     padding=pad, stride=stride, scale=0.3)
    frame = (2, 5, 5)
    n = ring_slots(k_t, dil, stride)
    x = rand_tensor(rng, (3 * n * stride + 8,) + frame, dtype=dtype).array
    want = offline_oracle(x, conv.weights.array, conv.bias.array, dil, pad)[::stride]
    state = conv._state(frame, x.dtype)
    outs, slots = [], set()
    for t in range(len(x)):
        y = conv._step(state, x[t])
        assert state.ring.shape[0] == n * conv.c_out
        if y is not None:
            slots.add(ring_row(len(outs) + conv.delay() // stride, k_t, dil, stride, c_out))
            assert max_rel_dev(y, want[len(outs)]) < tol
            outs.append(y)
    # the stride is prime to the slot count, so every slot of every sub-ring
    # emitted
    assert len(outs) == len(want)
    assert slots == {i * c_out for i in range(n)}
    # each product's weights are a view of one table per set of taps a
    # phase feeds, together at most twice the taps' bytes, not a copy per
    # phase nor a zero-padded block
    taps = (k_t - 1) * conv.c_out * conv.c_in * spatial[0] * spatial[1] * x.itemsize
    plan = conv._step_table[x.dtype][2]
    ws = [w for _, adds, _ in plan for _, _, w in adds]
    assert all(w.ndim == 2 and w.dtype == x.dtype and w.base is not None for w in ws)
    assert sum({id(w.base): w.base.nbytes for w in ws}.values()) <= 2 * taps


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-6), ("f64", 1e-12)])
@pytest.mark.parametrize("k_t,dil,pad,stride,spatial", [
    (9, 1, 0, 1, (1, 1)),  # the skeleton block's conv: frames read in place
    (4, 1, 2, 2, (3, 3)),  # strided: two taps at one phase, one at the other
    (3, 2, 0, 1, (1, 1)),  # dilated: two sub-rings
    (3, 2, 3, 3, (3, 3)),
    (3, 3, 1, 1, (1, 1)),
    (4, 3, 2, 5, (2, 2)),
])
def test_pre_form_matches_loop_oracle_at_every_ring_phase(k_t, dil, pad, stride, spatial,
                                                           dtype, tol):
    # "pre" names the wide-output cases (c_out 6 > c_in 2) that once stepped
    # a ring of input frames, as the ``pre`` ids of ``WIDTHS`` do; they now
    # step the polyphase post form, strided ones included
    _check_every_sub_ring_phase(6, k_t, dil, pad, stride, spatial, dtype, tol)


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
    _check_every_sub_ring_phase(1, k_t, dil, pad, 1, spatial, dtype, tol)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
@pytest.mark.parametrize("k_t,dil", [(2, 1), (3, 2), (4, 3), (9, 1)])
def test_post_lagged_term_lands_on_its_aligned_emission(k_t, dil, dtype, tol):
    # a term handed in with frame j*stride joins emission j, delay() steps
    # later: it starts the freed slot (when that slot is the aligned
    # emission's), joins a pending one, or goes straight into the emission
    # (delay 0); the padded emissions that read slots never freed find the
    # bias there
    rng = np.random.default_rng(26 + k_t + dil)
    rf = (k_t - 1) * dil + 1
    for stride in (1, 2, 3):
        for pad in range(rf):
            conv = make_conv(rng, c_out=4, k=(k_t, 1, 1), dilation=dil, padding=pad,
                             stride=stride)
            x = rand_tensor(rng, (4 * rf + 5, 2, 6), dtype=dtype).array
            z = rand_tensor(rng, (len(x), 4, 6), dtype=dtype).array
            state = conv._state((2, 6), x.dtype)
            outs = [y for t in range(len(x))
                    if (y := conv._step(state, x[t], None if t % stride else z[t])) is not None]
            want = conv._clip(x) + z[::stride][:len(outs)]
            assert len(outs) == len(want) == conv.out_len(len(x))
            assert max_rel_dev(np.stack(outs), want) < tol


@WIDTHS
def test_interleaved_dtypes_share_one_module(c_out):
    # the per-dtype weight layouts live on the module; two streams of
    # different dtypes stepped alternately must each match their own clip.
    # f64 weights, so an f64 stream served f32-rounded weights would drift
    rng = np.random.default_rng(21)
    w = rand_tensor(rng, (c_out, 2, 3, 2, 2), dtype="f64")
    b = rand_tensor(rng, (c_out,), dtype="f64")
    conv = TemporalConv(w, b, dilation=2, padding=1)
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
    assert state.layer.t == 1


def _check_nan_locality(conv, frame, nan_steps):
    """A NaN frame at each of ``nan_steps`` poisons exactly the step
    emissions whose window holds it; the others match the loop oracle."""
    rng = np.random.default_rng(23)
    k_t, dil, stride = conv.k_t, conv.dilation, conv.temporal_stride
    length = 6 * conv.receptive_field() + 2 * stride
    for s in nan_steps:
        x = rand_tensor(rng, (length,) + frame).array.copy()
        x[s] = np.nan
        out = conv.forward_steps(conv.init_state(), Tensor.wrap(x)).array
        want = offline_oracle(x, conv.weights.array, conv.bias.array, dil,
                              conv.padding)[::stride]
        assert out.shape == want.shape
        for j in range(out.shape[0]):
            t_emit = conv.delay() + j * stride
            poisoned = any(t_emit - k * dil == s for k in range(k_t))
            assert np.isnan(out[j]).all() == poisoned
            assert np.isnan(want[j]).all() == poisoned
            if not poisoned:
                assert np.isfinite(out[j]).all()
                assert np.allclose(out[j], want[j], rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k_t,dil,pad", [(3, 1, 0), (3, 2, 2), (4, 1, 3), (2, 3, 1)])
@WIDTHS
def test_nan_frame_poisons_exactly_its_windows(c_out, k_t, dil, pad, stride):
    conv = make_conv(np.random.default_rng(23), c_in=2, c_out=c_out, k=(k_t, 1, 1),
                     dilation=dil, padding=pad, stride=stride)
    rf = conv.receptive_field()
    _check_nan_locality(conv, (2, 2, 2), (0, rf // 2, 2 * rf + 1))


@pytest.mark.parametrize("spatial", [(1, 1), (2, 3)])
@pytest.mark.parametrize("k_t,dil,pad,stride", [
    (4, 1, 0, 2), (4, 1, 3, 2),  # phases feed 2 taps, then 1
    (4, 2, 1, 2),  # one phase feeds all 3 older taps, the other none
    (5, 1, 0, 3), (5, 1, 2, 3), (5, 2, 3, 3),  # 1, 1 and 2 taps
    (8, 1, 2, 3),  # 2 taps into 3 slots: split where the sub-ring wraps
])
def test_nan_frame_poisons_exactly_its_windows_at_uneven_phases(k_t, dil, pad, stride,
                                                                 spatial):
    # the stride does not divide the taps evenly, so phases feed different
    # numbers of slots, some split where the sub-ring wraps: a NaN frame at
    # any phase must still reach only the emissions whose window holds it
    conv = make_conv(np.random.default_rng(27), c_in=2, c_out=3, k=(k_t,) + spatial,
                     dilation=dil, padding=pad, stride=stride)
    # a NaN at every step of one schedule period, past the first window
    period = stride * ring_slots(k_t, dil, stride)
    _check_nan_locality(conv, (2, 3, 4), range(conv.receptive_field() + period))


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
