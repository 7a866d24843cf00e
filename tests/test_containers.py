"""Container algebra: delay/stride bookkeeping, equivalence, chunking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinet.containers import Identity, Parallel, Pointwise, Residual, Sequential
from cinet.conv import TemporalConv
from cinet.norm import BatchNorm
from cinet.pool import TemporalPool
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor

CH = 3  # all generated layers preserve this channel count on (CH, 2, 2) frames


def conv_layer(rng, k_t=3, dilation=1, padding=0, stride=1):
    return TemporalConv(rand_tensor(rng, (CH, CH, k_t, 1, 1), scale=0.4),
                        rand_tensor(rng, (CH,), scale=0.4),
                        dilation=dilation, padding=padding, temporal_stride=stride)


def bn_layer(rng):
    return BatchNorm(rand_tensor(rng, (CH,)), rand_tensor(rng, (CH,)),
                     rand_tensor(rng, (CH,)),
                     Tensor.wrap(np.abs(rng.normal(size=CH)).astype(np.float32) + 0.2))


# -- sequential -----------------------------------------------------------------


def test_sequential_stride_product_and_prediction_rate():
    rng = np.random.default_rng(0)
    seq = Sequential([conv_layer(rng, stride=1), conv_layer(rng, stride=2),
                      conv_layer(rng, stride=2)])
    assert seq.stride() == 4
    assert 1 / seq.stride() == 0.25


def test_sequential_delay_sum():
    rng = np.random.default_rng(1)
    seq = Sequential([conv_layer(rng, k_t=3), conv_layer(rng, k_t=1),
                      conv_layer(rng, k_t=2)])
    assert [m.delay() for m in seq.modules] == [2, 0, 1]
    assert seq.delay() == 3


def test_sequential_delay_across_strides():
    rng = np.random.default_rng(2)
    seq = Sequential([conv_layer(rng, k_t=3, stride=2), conv_layer(rng, k_t=3)])
    # the second stage's delay counts at the post-stride clock
    assert seq.delay() == 2 + 2 * 2
    assert seq.receptive_field() == 1 + 2 + 2 * 2


def test_sequential_forward_equals_steps():
    rng = np.random.default_rng(3)
    seq = Sequential([conv_layer(rng), bn_layer(rng), conv_layer(rng, k_t=2),
                      TemporalPool("avg", 3)])
    x = rand_tensor(rng, (20, CH, 2, 2))
    offline = seq.forward(x)
    online = seq.forward_steps(seq.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-4


# -- residual --------------------------------------------------------------------


def test_residual_offline_oracle():
    rng = np.random.default_rng(4)
    inner = conv_layer(rng, k_t=3)  # delay 2
    res = Residual(inner)
    assert res.delay() == 2
    x = rand_tensor(rng, (12, CH, 2, 2))
    got = res.forward(x).array
    want = inner.forward(x).array + x.array[: want_len(inner, 12)]
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)
    online = res.forward_steps(res.init_state(), x)
    assert max_rel_dev(online.array, got) < 1e-5


def want_len(module, t):
    return module.out_len(t)


def test_residual_pointwise_inner_is_plain_add():
    rng = np.random.default_rng(5)
    inner = conv_layer(rng, k_t=1)
    res = Residual(inner)
    assert res.delay() == 0
    x = rand_tensor(rng, (6, CH, 2, 2))
    assert np.allclose(res.forward(x).array, inner.forward(x).array + x.array,
                       rtol=1e-5, atol=1e-6)


def test_residual_zero_inner_is_delayed_identity():
    k_t = 4
    inner = TemporalConv(Tensor.zeros((CH, CH, k_t, 1, 1)), Tensor.zeros((CH,)))
    res = Residual(inner)
    x = rand_tensor(np.random.default_rng(6), (10, CH, 1, 1))
    out = res.forward_steps(res.init_state(), x)
    assert out.shape[0] == 10 - inner.delay()
    assert np.allclose(out.array, x.array[: out.shape[0]], atol=1e-6)


def test_residual_rejects_stride():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        Residual(conv_layer(rng, stride=2))


def test_residual_pointwise_shortcut():
    rng = np.random.default_rng(8)
    inner = conv_layer(rng, k_t=3)
    res = Residual(inner, Pointwise(rand_tensor(rng, (CH, CH))))
    x = rand_tensor(rng, (14, CH, 2, 2))
    offline = res.forward(x)
    online = res.forward_steps(res.init_state(), x)
    assert max_rel_dev(online.array, offline.array) < 1e-4


def test_residual_delayed_shortcut_counts_its_delay():
    # the shortcut's delay, not only the inner module's, sets the residual's
    rng = np.random.default_rng(16)
    res = Residual(conv_layer(rng, k_t=1), shortcut=conv_layer(rng, k_t=3))
    assert (res.delay(), res.warmup()) == (2, 2)
    x = rand_tensor(rng, (10, CH, 2, 2))
    offline = res.forward(x)
    assert res.out_len(10) == 8 == offline.shape[0]
    assert max_rel_dev(res.forward_steps(res.init_state(), x).array, offline.array) < 1e-5
    seq = Sequential([res, conv_layer(rng, k_t=2)])
    assert seq.delay() == 3
    assert seq.out_len(10) == 7 == seq.forward(x).shape[0]


# -- parallel ---------------------------------------------------------------------


def test_parallel_duplicate_branch_doubles():
    rng = np.random.default_rng(9)
    c = conv_layer(rng)
    par = Parallel([c, c], reduce="sum")
    x = rand_tensor(rng, (8, CH, 2, 2))
    assert np.allclose(par.forward(x).array, 2 * c.forward(x).array, rtol=1e-6)


def test_parallel_delay_is_max():
    rng = np.random.default_rng(10)
    par = Parallel([conv_layer(rng, k_t=1), conv_layer(rng, k_t=3)], reduce="sum")
    assert par.delay() == 2
    assert [b.delay() for b in par.branches] == [0, 2]


def test_parallel_forward_equals_steps():
    rng = np.random.default_rng(11)
    par = Parallel([Sequential([conv_layer(rng, k_t=2), bn_layer(rng)]),
                    Sequential([conv_layer(rng, k_t=4, dilation=2)])],
                   reduce="concat")
    x = rand_tensor(rng, (18, CH, 2, 2))
    offline = par.forward(x)
    online = par.forward_steps(par.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-4


@pytest.mark.parametrize("k_ts", [(1, 2), (1, 4), (2, 5), (1, 3)])
@pytest.mark.parametrize("reduce", ["sum", "concat"])
def test_parallel_lags_strided_branches(k_ts, reduce):
    # stride-2 branches whose delays differ by an odd count: the faster
    # branch's aligned emission is ceil(diff / 2) of its emissions back; at
    # an even count (1, 3) it also emits on the container's steps, so its
    # ring slot must be read before that emission overwrites it
    rng = np.random.default_rng(17)
    par = Parallel([conv_layer(rng, k_t=k, stride=2) for k in k_ts], reduce=reduce)
    assert par.delay() == par.warmup() == k_ts[1] - 1
    x = rand_tensor(rng, (23, CH, 2, 2))
    offline = par.forward(x)
    assert offline.shape[0] == par.out_len(23)
    online = par.forward_steps(par.init_state(), x)
    assert online.shape == offline.shape
    assert max_rel_dev(online.array, offline.array) < 1e-5
    state = par.init_state()
    chunks = [par.forward_steps(state, Tensor.wrap(x.array[a:b]))
              for a, b in ((0, 1), (1, 4), (4, 5), (5, 13), (13, 23))]
    assert np.array_equal(np.concatenate([c.array for c in chunks]), online.array)


def test_parallel_rejects_unequal_strides():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        Parallel([conv_layer(rng, stride=2), conv_layer(rng)], reduce="sum")


def test_identity_and_pointwise_are_transparent():
    x = rand_tensor(np.random.default_rng(13), (4, CH, 2, 2))
    ident = Identity()
    assert ident.forward(x).array is x.array
    pw = Pointwise(Tensor.wrap(np.eye(CH, dtype=np.float32)))
    assert np.allclose(pw.forward(x).array, x.array)


# -- property tests ------------------------------------------------------------------


@st.composite
def module_tree(draw, depth=0):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if depth >= 2:
        kind = "leaf"
    else:
        kind = draw(st.sampled_from(["leaf", "seq", "res", "par"]))
    if kind == "leaf":
        which = draw(st.sampled_from(["conv", "bn", "pool", "conv_strided"]))
        if which == "conv":
            k = draw(st.integers(1, 4))
            d = draw(st.integers(1, 2))
            p = draw(st.integers(0, (k - 1) * d))
            return conv_layer(rng, k_t=k, dilation=d, padding=p)
        if which == "conv_strided":
            return conv_layer(rng, k_t=draw(st.integers(1, 3)),
                              stride=draw(st.integers(1, 2)))
        if which == "bn":
            return bn_layer(rng)
        return TemporalPool("avg", draw(st.integers(1, 4)))
    if kind == "seq":
        n = draw(st.integers(1, 3))
        return Sequential([draw(module_tree(depth=depth + 1)) for _ in range(n)])
    if kind == "res":
        inner = draw(module_tree(depth=depth + 1))
        if inner.stride() != 1:
            inner = Sequential([conv_layer(rng)])
        return Residual(inner)
    branches = [draw(module_tree(depth=depth + 1)) for _ in range(2)]
    if len({b.stride() for b in branches}) != 1 or \
            len({(b.warmup() - b.delay()) % b.stride() for b in branches}) != 1:
        branches = [Sequential([conv_layer(rng)]), Sequential([conv_layer(rng, k_t=2)])]
    return Parallel(branches, reduce="sum")


@settings(max_examples=40, deadline=None)
@given(module_tree(), st.integers(0, 2**31 - 1))
def test_tree_forward_equals_steps(tree, seed):
    t = tree.warmup() + 3 * tree.stride() + 4
    x = rand_tensor(np.random.default_rng(seed), (t, CH, 2, 2))
    offline = tree.forward(x)
    online = tree.forward_steps(tree.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-4


@settings(max_examples=25, deadline=None)
@given(module_tree(), st.integers(0, 2**31 - 1), st.data())
def test_tree_chunk_invariance(tree, seed, data):
    t = tree.warmup() + 2 * tree.stride() + 6
    x = rand_tensor(np.random.default_rng(seed), (t, CH, 2, 2))
    whole = tree.forward_steps(tree.init_state(), x)
    state = tree.init_state()
    pieces = []
    start = 0
    while start < t:
        size = data.draw(st.integers(1, t - start))
        out = tree.forward_steps(state, Tensor.wrap(x.array[start : start + size]))
        if out.shape[0]:
            pieces.append(out.array)
        start += size
    joined = np.concatenate(pieces) if pieces else whole.array[:0]
    assert np.array_equal(whole.array, joined)


def test_shared_spec_distinct_streams_do_not_interfere():
    # one immutable layer spec, two exclusively-owned states driven
    # interleaved (and from worker threads) must match isolated streams
    import threading

    rng = np.random.default_rng(14)
    seq = Sequential([conv_layer(rng), bn_layer(rng), TemporalPool("avg", 2)])
    xa = rand_tensor(rng, (16, CH, 2, 2))
    xb = rand_tensor(rng, (16, CH, 2, 2))
    want_a = seq.forward_steps(seq.init_state(), xa).array
    want_b = seq.forward_steps(seq.init_state(), xb).array

    sa, sb = seq.init_state(), seq.init_state()
    got_a, got_b = [], []
    for t in range(16):  # interleaved on one thread
        ya = seq.forward_step(sa, Tensor.wrap(xa.array[t]))
        yb = seq.forward_step(sb, Tensor.wrap(xb.array[t]))
        if ya is not None:
            got_a.append(ya.array)
        if yb is not None:
            got_b.append(yb.array)
    assert np.array_equal(np.stack(got_a), want_a)
    assert np.array_equal(np.stack(got_b), want_b)

    results = {}

    def run(name, x):
        state = seq.init_state()
        results[name] = seq.forward_steps(state, x).array

    threads = [threading.Thread(target=run, args=("a", xa)),
               threading.Thread(target=run, args=("b", xb))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert np.array_equal(results["a"], want_a)
    assert np.array_equal(results["b"], want_b)


def test_residual_around_attention_block():
    # attention has delay 0 but warm-up n-1: the shortcut must add the
    # newest token, discarding buffered frames that never get a counterpart
    from test_attention import make_encoder

    rng = np.random.default_rng(15)
    n, d = 4, 6
    blk = make_encoder(rng, "single", n=n, d=d, rpe=False)
    res = Residual(blk)
    assert res.delay() == 0
    assert res.warmup() == n - 1
    x = rand_tensor(rng, (15, d), scale=0.5)
    offline = res.forward(x)
    online = res.forward_steps(res.init_state(), x)
    assert offline.shape == online.shape == (15 - (n - 1), d)
    assert max_rel_dev(online.array, offline.array) < 1e-4
    # spot-check the alignment itself: emission t adds the token from step t
    want_first = blk.forward(Tensor.wrap(x.array[: n])).array[0] + x.array[n - 1]
    assert np.allclose(offline.array[0], want_first, rtol=1e-5, atol=1e-6)
