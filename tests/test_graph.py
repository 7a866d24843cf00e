"""Spatio-temporal graph convolution block and network head."""

from pathlib import Path

import numpy as np
import pytest

import cinet.graph
from cinet.config import build_model, load_config, random_stream
from cinet.conv import TemporalConv, _ConvState
from cinet.errors import DimensionError
from cinet.graph import GlobalAverageHead, SkeletonGraph, StGcnBlock, graph_conv
from cinet.norm import BatchNorm
from cinet.pool import TemporalPool
from cinet.containers import Identity, Pointwise, Sequential
from cinet.tensor import Tensor

from conftest import ConvThenBn, max_rel_dev, rand_tensor, unfolded
from test_conv import ring_slots


def identity_bn(c):
    return BatchNorm(Tensor.wrap(np.ones(c, dtype=np.float32)), Tensor.zeros((c,)),
                     Tensor.zeros((c,)), Tensor.wrap(np.ones(c, dtype=np.float32)),
                     eps=1e-12)


def rand_bn(rng, c):
    return BatchNorm(rand_tensor(rng, (c,)), rand_tensor(rng, (c,)), rand_tensor(rng, (c,)),
                     Tensor.wrap(rng.uniform(0.2, 1.5, c).astype(np.float32)))


def make_block(rng, v=25, c_in=4, c_out=4, k_t=9, stride=1, padding=0,
               partitions=3, residual=None, bn=None, scale=0.3, dilation=1):
    graph = SkeletonGraph.chain(v, partitions=partitions)
    w_gc = [rand_tensor(rng, (c_in, c_out), scale=scale) for _ in range(partitions)]
    tc = TemporalConv(rand_tensor(rng, (c_out, c_out, k_t, 1, 1), scale=scale),
                      rand_tensor(rng, (c_out,), scale=scale), dilation=dilation,
                      padding=padding, temporal_stride=stride)
    if residual is None:
        residual = "identity" if c_in == c_out else "pointwise"
    shortcut = {"none": None, "identity": Identity()}.get(residual)
    if residual == "pointwise":
        shortcut = Pointwise(rand_tensor(rng, (c_in, c_out), scale=scale))
    return StGcnBlock(graph, w_gc, tc.folded(bn or identity_bn(c_out)), shortcut)


# -- graph convolution ------------------------------------------------------------


def test_gc_identity_graph_and_weights():
    v = 4
    graph = SkeletonGraph([Tensor.wrap(np.eye(v))])
    w = [Tensor.wrap(np.eye(3, dtype=np.float32))]
    x = rand_tensor(np.random.default_rng(0), (3, v))
    assert np.allclose(graph_conv(x, graph, w).array, x.array, atol=1e-6)


def test_gc_symmetric_two_node_average():
    graph = SkeletonGraph([Tensor([[0.5, 0.5], [0.5, 0.5]], dtype="f64")])
    w = [Tensor.wrap(np.eye(1, dtype=np.float32))]
    out = graph_conv(Tensor([[1.0, 3.0]]), graph, w)
    assert np.allclose(out.array, [[2.0, 2.0]])


def test_gc_vs_dense_matmul_oracle():
    rng = np.random.default_rng(1)
    v, c_in, c_out, p = 6, 3, 5, 2
    mats = [rand_tensor(rng, (v, v)) for _ in range(p)]
    graph = SkeletonGraph(mats)
    w = [rand_tensor(rng, (c_in, c_out)) for _ in range(p)]
    x = rand_tensor(rng, (c_in, v))
    got = graph_conv(x, graph, w).array
    want = np.zeros((c_out, v))
    for wp, ap in zip(w, mats):
        for o in range(c_out):
            for u in range(v):
                acc = 0.0
                for c in range(c_in):
                    for i in range(v):
                        acc += float(wp.array[c, o]) * float(x.array[c, i]) * float(ap.array[i, u])
                want[o, u] += acc
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


def test_graph_normalization_is_symmetric():
    g = SkeletonGraph.chain(5, partitions=1)
    a = g.partitions[0].array
    assert np.allclose(a, a.T)
    # normalized adjacency of a path graph with self loops has rows <= 1
    assert a.max() <= 1.0 and a.min() >= 0.0


def test_three_way_split_matches_the_edge_rule():
    # edge (i, j) is centripetal when j is nearer the root than i, centrifugal
    # when farther; edges between nodes at the same distance join neither
    v, root = 7, 2
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (1, 6), (6, 0)]
    g = SkeletonGraph.from_edges(v, edges, partitions=3, root=root)
    dist = [2, 1, 0, 1, 2, 2, 2]
    for part, nearer in ((g.partitions[1].array, True), (g.partitions[2].array, False)):
        want = np.zeros((v, v))
        for a, b in edges:
            for i, j in ((a, b), (b, a)):
                if dist[i] != dist[j] and (dist[j] < dist[i]) == nearer:
                    want[i, j] = 1.0
        assert np.array_equal(part, cinet.graph._sym_normalize(want))
    assert np.array_equal(g.partitions[0].array, np.eye(v))


# -- block ---------------------------------------------------------------------------


def test_block_pointwise_collapse():
    # K_T=1 and identity-ish pieces: block reduces to ReLU(GC then channel mix)
    rng = np.random.default_rng(2)
    blk = make_block(rng, v=5, c_in=3, c_out=3, k_t=1, residual="none")
    state = blk.init_state()
    x = rand_tensor(rng, (3, 5))
    out = blk.forward_step(state, x)
    g = graph_conv(x, blk.graph, blk.w_gc)
    tc_w = blk.tc.weights.array[:, :, 0, 0, 0]
    want = np.maximum(tc_w @ g.array + blk.tc.bias.array[:, None], 0)
    assert np.allclose(out.array, want, rtol=1e-5, atol=1e-6)


def test_block_offline_equals_steps():
    rng = np.random.default_rng(3)
    blk = make_block(rng, v=25, c_in=4, c_out=6, k_t=5, residual="pointwise",
                     bn=BatchNorm(rand_tensor(rng, (6,)), rand_tensor(rng, (6,)),
                                  rand_tensor(rng, (6,)),
                                  Tensor.wrap(np.abs(rng.normal(size=6)).astype(np.float32) + 0.2)))
    x = rand_tensor(rng, (16, 4, 25))
    offline = blk.forward(x)
    online = blk.forward_steps(blk.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-4


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("residual,c_in", [("none", 4), ("identity", 5), ("pointwise", 3)])
def test_block_clip_equals_steps_strided(residual, c_in, stride, dtype, tol):
    # at every stride each aligned input's shortcut starts or joins its
    # emission's slot in the conv's ring, so the block's stream state is that
    # ring alone: no ring of inputs awaiting their shortcut
    rng = np.random.default_rng(10 + stride)
    for k_t, dilation in ((1, 1), (3, 1), (3, 2), (9, 1), (9, 2)):
        rf = (k_t - 1) * dilation + 1
        for padding in sorted({0, min(1, rf - 1), rf - 1}):  # rf - 1: delay 0
            blk = make_block(rng, v=7, c_in=c_in, c_out=5, k_t=k_t, stride=stride,
                             padding=padding, dilation=dilation, residual=residual)
            length = 2 * rf + 21
            x = rand_tensor(rng, (length, c_in, 7), dtype=dtype)
            offline = blk.forward(x)
            state = blk.init_state()
            online = blk.forward_steps(state, x)
            assert offline.shape == online.shape == (blk.out_len(length), 5, 7)
            assert offline.array.dtype == x.array.dtype
            assert max_rel_dev(online.array, offline.array) < tol
            assert type(state.layer) is _ConvState
            assert state.layer.ring.shape == (ring_slots(k_t, dilation, stride) * 5, 7)


@pytest.mark.parametrize("k_t,padding", [(9, 0), (9, 4), (4, 1), (1, 0)])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_strided_pointwise_shortcut_projects_each_aligned_input_once(k_t, padding, stride):
    # the shortcut runs only on the inputs an emission aligns with, every
    # stride-th, so over a stream it projects one input per emission, plus
    # the inputs whose emission is still pending
    rng = np.random.default_rng(40 + stride)
    blk = make_block(rng, v=7, c_in=3, c_out=5, k_t=k_t, stride=stride, padding=padding,
                     residual="pointwise")
    calls = []
    apply = blk.shortcut._apply

    def counted(xa, lead):
        calls.append(xa)
        return apply(xa, lead)

    blk.shortcut._apply = counted
    state = blk.init_state()
    x = rand_tensor(rng, (5 * blk.receptive_field() + 7, 3, 7)).array
    steps = []
    for t in range(len(x)):
        n = len(calls)
        if blk.forward_step(state, Tensor.wrap(x[t])) is not None:
            steps.append(t)
        assert len(calls) - n == (t % stride == 0)
    assert steps == [blk.delay() + j * stride for j in range(blk.out_len(len(x)))]
    # every emission took one projection; the rest are of aligned inputs
    # whose emission the stream has not reached
    aligned = range(0, len(x), stride)
    assert len(calls) == len(aligned)
    assert sum(t + blk.delay() < len(x) for t in aligned) == len(steps)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-6), ("f64", 1e-12)])
@pytest.mark.parametrize("stride,padding,dilation", [
    (1, 0, 1), (2, 0, 1), (1, 2, 1), (2, 2, 1), (1, 0, 2), (2, 2, 2)])
@pytest.mark.parametrize("residual,c_in", [("none", 5), ("identity", 5), ("pointwise", 3)])
def test_folded_block_matches_unfolded_oracle(residual, c_in, stride, padding, dilation,
                                              dtype, tol):
    def build():
        rng = np.random.default_rng(30 + stride + 3 * padding + 7 * dilation)
        return make_block(rng, v=7, c_in=c_in, c_out=5, k_t=3, stride=stride,
                          padding=padding, dilation=dilation, residual=residual,
                          bn=rand_bn(rng, 5))

    blk, oracle = build(), unfolded(build)
    assert isinstance(oracle.tc, ConvThenBn) and type(blk.tc) is TemporalConv
    assert not hasattr(blk, "bn")
    x = rand_tensor(np.random.default_rng(1), (23, c_in, 7), dtype=dtype)
    want = oracle.forward(x).array
    clip = blk.forward(x).array
    steps = blk.forward_steps(blk.init_state(), x).array
    assert clip.shape == steps.shape == want.shape and len(want) > 0
    assert clip.dtype == steps.dtype == want.dtype
    assert max_rel_dev(clip, want) < tol
    assert max_rel_dev(steps, want) < tol
    assert max_rel_dev(steps, clip) < tol


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("residual,c_in", [("identity", 4), ("pointwise", 3)])
def test_clip_emission_bits_do_not_depend_on_the_clip(residual, c_in, stride, dtype):
    # the clip-wide graph conv, the conv's per-emission products and the
    # per-frame shortcut give an emission the same bits in a clip that
    # starts q emissions later or ends sooner
    rng = np.random.default_rng(30 + stride)
    x = rand_tensor(rng, (90, c_in, 25), dtype=dtype).array
    for pad in (0, 4):
        blk = make_block(rng, c_in=c_in, stride=stride, padding=pad, residual=residual)
        whole = blk._clip(x)
        inside = -(-pad // stride)  # a padded clip's first emissions read zero frames
        for q in (1, 3, 7):
            for length in (9, 17, 40):
                part = blk._clip(x[q * stride:q * stride + length])
                assert len(part) > inside
                assert np.array_equal(part[inside:], whole[q + inside:q + len(part)])


def test_block_zero_input_zero_output():
    rng = np.random.default_rng(4)
    w_gc = [rand_tensor(rng, (3, 3), scale=0.3) for _ in range(3)]
    # beta = 0 and bias = 0 so zero input stays zero through BN and ReLU
    tc = TemporalConv(rand_tensor(rng, (3, 3, 3, 1, 1), scale=0.3), Tensor.zeros((3,)))
    blk = StGcnBlock(SkeletonGraph.chain(6, partitions=3), w_gc, tc.folded(identity_bn(3)),
                     Identity())
    state = blk.init_state()
    for t in range(8):
        out = blk.forward_step(state, Tensor.zeros((3, 6)))
        if out is not None:
            assert np.allclose(out.array, 0.0, atol=1e-6)


@pytest.mark.parametrize("c_in,shortcut", [
    (3, lambda rng: Identity()),  # c_in != c_out
    (4, lambda rng: Pointwise(rand_tensor(rng, (4, 4)))),  # maps to 4 channels, not 5
    (4, lambda rng: Pointwise(rand_tensor(rng, (3, 5)))),  # reads 3 channels, not 4
    (5, lambda rng: TemporalConv(rand_tensor(rng, (5, 5, 1, 1, 1)), rand_tensor(rng, (5,)))),
], ids=["identity", "pointwise-c_out", "pointwise-c_in", "not-per-frame"])
def test_block_refuses_a_shortcut_of_other_frames(c_in, shortcut):
    # the block applies its shortcut per frame, from (c_in, V) to (c_out, V)
    rng = np.random.default_rng(5)
    w_gc = [rand_tensor(rng, (c_in, 5)) for _ in range(3)]
    tc = TemporalConv(rand_tensor(rng, (5, 5, 3, 1, 1)), rand_tensor(rng, (5,)))
    with pytest.raises(DimensionError):
        StGcnBlock(SkeletonGraph.chain(6, partitions=3), w_gc, tc, shortcut(rng))


def block_parts(rng, c_in=4, c_out=5, partitions=3, k=(3, 1, 1), tc_in=None):
    """``(graph, w_gc, tc)`` of a block; ``tc_in`` sets the conv's input channels."""
    w_gc = [rand_tensor(rng, (c_in, c_out)) for _ in range(partitions)]
    tc = TemporalConv(rand_tensor(rng, (c_out, tc_in or c_out) + k), rand_tensor(rng, (c_out,)))
    return SkeletonGraph.chain(6, partitions=3), w_gc, tc


def _uneven(rng):
    graph, w_gc, tc = block_parts(rng)
    return graph, w_gc[:2] + [rand_tensor(rng, (4, 4))], tc


@pytest.mark.parametrize("make,match", [
    (lambda rng: SkeletonGraph([]), "at least one"),
    (lambda rng: SkeletonGraph([Tensor(np.eye(3)), Tensor(np.zeros((3, 4)))]), "partition shape"),
    (lambda rng: StGcnBlock(*block_parts(rng, k=(3, 2, 1))), "pointwise spatially"),
    (lambda rng: StGcnBlock(*block_parts(rng, partitions=2)), "2 weight sets for 3"),
    (lambda rng: StGcnBlock(*block_parts(rng, partitions=0)), "0 weight sets for 3"),
    (lambda rng: StGcnBlock(*_uneven(rng)), "gc weight shape"),
    (lambda rng: StGcnBlock(*block_parts(rng, tc_in=4)), "temporal conv is 4->5"),
    (lambda rng: GlobalAverageHead(4, rand_tensor(rng, (3, 2)), rand_tensor(rng, (3,))),
     "channels, classes"),
    (lambda rng: GlobalAverageHead(4, rand_tensor(rng, (3,)), rand_tensor(rng, (3,))),
     "channels, classes"),
    (lambda rng: GlobalAverageHead(4, rand_tensor(rng, (3, 2, 1)), rand_tensor(rng, (2,))),
     "channels, classes"),
], ids=["no-partition", "partition-shape", "spatial-conv",
        "fewer-weight-sets", "no-weight-set", "uneven-weights", "conv-channels", "head-bias",
        "head-weight-rank-1", "head-weight-rank-3"])
def test_graph_constructors_refuse_what_cannot_run(make, match):
    # a block of fewer weight sets than partitions, or a head's weight of
    # another rank, failed only at its first step
    with pytest.raises(DimensionError, match=match):
        make(np.random.default_rng(7))


@pytest.mark.parametrize("partitions", [0, 2, 4])
def test_from_edges_splits_into_one_or_three_partitions_only(partitions):
    with pytest.raises(ValueError, match="partition count"):
        SkeletonGraph.from_edges(3, [(0, 1)], partitions=partitions)


@pytest.mark.parametrize("edges,options,match", [
    ([(0, 5)], {}, r"edge \(0, 5\)"),
    ([(0, 1), (0, -1)], {}, r"edge \(0, -1\)"),  # not the edge 0-2
    ([(0, 1)], {"partitions": 3, "root": 7}, "root 7"),
], ids=["node-past-v", "node-negative", "root"])
def test_from_edges_refuses_nodes_outside_the_graph(edges, options, match):
    with pytest.raises(DimensionError, match=match):
        SkeletonGraph.from_edges(3, edges, **options)


@pytest.mark.parametrize("frame,sets,match", [
    ((4,), 3, "frame must be"), ((4, 5), 3, "frame must be"), ((4, 6), 2, "weight sets"),
], ids=["rank", "nodes", "weight-sets"])
def test_graph_conv_refuses_a_frame_or_weights_of_another_graph(frame, sets, match):
    rng = np.random.default_rng(8)
    graph, w_gc, _ = block_parts(rng)
    with pytest.raises(DimensionError, match=match):
        graph_conv(rand_tensor(rng, frame), graph, w_gc[:sets])


def test_three_block_network_equivalence():
    rng = np.random.default_rng(6)
    blocks = [make_block(rng, v=25, c_in=4, c_out=4) for _ in range(3)]
    net = Sequential(blocks)
    x = rand_tensor(rng, (64, 4, 25))
    offline = net.forward(x)
    online = net.forward_steps(net.init_state(), x)
    assert offline.shape == online.shape
    assert max_rel_dev(online.array, offline.array) < 1e-4


# -- network with head -------------------------------------------------------------


def make_network(rng, v=9, c=3, blocks=1, window=8, classes=5, stride=1):
    mods = [make_block(rng, v=v, c_in=c, c_out=c,
                       stride=stride if i == 1 else 1, k_t=3)
            for i in range(blocks)]
    head = GlobalAverageHead(window, rand_tensor(rng, (c, classes)),
                             rand_tensor(rng, (classes,)))
    return Sequential(mods + [head])


def test_network_first_logit_matches_offline():
    rng = np.random.default_rng(7)
    net = make_network(rng, blocks=1, window=8)
    t_total = net.warmup() + 1
    x = rand_tensor(rng, (t_total, 3, 9))
    offline = net.forward(x)
    state = net.init_state()
    first = None
    for t in range(t_total):
        out = net.forward_step(state, Tensor.wrap(x.array[t]))
        if out is not None:
            first = out
            break
    assert offline.shape[0] == 1
    assert max_rel_dev(first.array, offline.array[0]) < 1e-4


def test_stride_two_halves_emission_rate():
    rng = np.random.default_rng(8)
    net = make_network(rng, blocks=3, window=4, stride=2)
    assert net.stride() == 2
    x_short = rand_tensor(rng, (40, 3, 9))
    x_long = Tensor.wrap(np.concatenate([x_short.array] * 2))
    short = net.forward_steps(net.init_state(), x_short).shape[0]
    long = net.forward_steps(net.init_state(), x_long).shape[0]
    # past warm-up, 40 extra input steps yield 20 extra emissions
    assert long - short == 20


@pytest.mark.parametrize("length", [5, 6, 30])
def test_head_clip_equals_steps(length):
    rng = np.random.default_rng(11)
    head = GlobalAverageHead(6, rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,)))
    x = rand_tensor(rng, (length, 3, 9))
    offline = head.forward(x)
    online = head.forward_steps(head.init_state(), x)
    assert offline.shape == online.shape == (max(length - 5, 0), 4)
    assert max_rel_dev(online.array, offline.array) < 1e-6


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("frame", [(3, 25), (3, 2, 4)])
def test_head_clip_emission_bits_do_not_depend_on_the_clip(frame, dtype):
    rng = np.random.default_rng(12)
    head = GlobalAverageHead(6, rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,)))
    x = rand_tensor(rng, (60,) + frame, dtype=dtype).array
    whole = head._clip(x)
    for q in (1, 5, 13):
        for length in (6, 11, 30):
            part = head._clip(x[q:q + length])
            assert len(part) > 0 and np.array_equal(part, whole[q:q + len(part)])


def test_head_rejects_wrong_channels():
    rng = np.random.default_rng(9)
    head = GlobalAverageHead(4, rand_tensor(rng, (3, 2)), rand_tensor(rng, (2,)))
    with pytest.raises(Exception):
        head.out_frame_shape((5, 9))


def test_head_state_holds_logits_not_frames():
    rng = np.random.default_rng(12)
    head = GlobalAverageHead(6, rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,)))
    state = head.init_state()
    head.forward_steps(state, rand_tensor(rng, (20, 3, 9)))
    assert state.layer.ring.shape == (5, 4) and state.layer.ring.dtype == np.float32
    assert state.layer.prefix.shape == (4,) and state.layer.prefix.dtype == np.float64
    pool = TemporalPool("max", 6)
    state = pool.init_state()
    pool.forward_steps(state, rand_tensor(rng, (20, 4)))
    assert state.layer.ring.shape == (5, 4) and state.layer.prefix.shape == (4,)


@pytest.mark.parametrize("length", [5, 6, 30])
def test_head_clip_equals_steps_on_image_frames(length):
    # test_head_clip_equals_steps takes (C, V) frames; these are (C, H, W)
    rng = np.random.default_rng(13)
    head = GlobalAverageHead(6, rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,)))
    x = rand_tensor(rng, (length, 3, 2, 4))
    offline = head.forward(x)
    online = head.forward_steps(head.init_state(), x)
    assert offline.shape == online.shape == (max(length - 5, 0), 4)
    assert max_rel_dev(online.array, offline.array) < 1e-6


def test_toy_costgcn_head_matches_pooling_whole_frames():
    # the head pools per-frame logits; in real arithmetic that is the
    # classifier of the pooled frames' node mean, computed here in f64
    path = Path(__file__).resolve().parent.parent / "configs" / "toy_costgcn.json"
    model = build_model(load_config(path), path.parent)
    *body, head = model.modules
    x = random_stream(3, 400, (3, 25), "f32")
    feats = Sequential(body).forward(x).array.astype(np.float64)
    n = head.pool.window
    csum = np.concatenate([np.zeros((1,) + feats.shape[1:]), np.cumsum(feats, axis=0)])
    pooled = (csum[n:] - csum[:-n]) / n
    ref = pooled.mean(axis=2) @ head.weight.array.astype(np.float64) \
        + head.bias.array.astype(np.float64)
    assert ref.shape == (len(feats) - n + 1, head.classes)
    for out in (model.forward(x), model.forward_steps(model.init_state(), x)):
        assert out.shape == ref.shape
        assert max_rel_dev(out.array, ref) < 1e-6


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("frame", [(3, 25), (3, 2, 4)])
def test_head_node_mean_bit_identical_to_mean_formula(frame, dtype):
    # the head sums the nodes and divides in place; that must be the
    # arithmetic of ``mean``, in step and clip mode alike
    rng = np.random.default_rng(15)
    head = GlobalAverageHead(6, rand_tensor(rng, (3, 4), dtype=dtype),
                             rand_tensor(rng, (4,), dtype=dtype))
    w = head.weight.array
    x = rand_tensor(rng, (20,) + frame, dtype=dtype, scale=10).array
    seen = []
    step, clip = head.pool._step, head.pool._clip
    head.pool._step = lambda state, a: seen.append(a) or step(state, a)
    head.pool._clip = lambda a: seen.append(a) or clip(a)
    state = head._state(frame, x.dtype)
    for a in x:
        head._step(state, a)
        assert np.array_equal(seen.pop(), a.reshape(3, -1).mean(1) @ w)
    head._clip(x)
    assert np.array_equal(seen.pop(), x.reshape(20, 3, -1).mean(2) @ w)


def test_toy_costgcn_step_keeps_one_call_per_kernel(monkeypatch):
    # the graph conv, the temporal conv and the shortcut stay separate calls,
    # once per block and step, and the head hands its logits to its pool
    path = Path(__file__).resolve().parent.parent / "configs" / "toy_costgcn.json"
    model = build_model(load_config(path), path.parent)
    *blocks, head = model.modules
    x = random_stream(5, model.delay() + 2, (3, 25), "f32")
    state = model.init_state()
    model.forward_steps(state, Tensor.wrap(x.array[:-1]))
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cinet.graph, "_gc", counted("_gc", cinet.graph._gc))
    monkeypatch.setattr(TemporalConv, "_step", counted("tc", TemporalConv._step))
    for block in blocks:
        monkeypatch.setattr(block.shortcut, "_apply", counted("shortcut", block.shortcut._apply))
    monkeypatch.setattr(head.pool, "_step", counted("pool", head.pool._step))
    assert model.forward_step(state, Tensor.wrap(x.array[-1])) is not None
    assert calls == {"_gc": 4, "tc": 4, "shortcut": 4, "pool": 1}


class _MacCounter:
    """numpy, but whose ``dot`` of two matrices also adds up its m*k*n MACs."""

    def __init__(self):
        self.macs = 0

    def dot(self, a, b):
        (m, k), (_, n) = a.shape, b.shape
        self.macs += m * k * n
        return np.dot(a, b)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("c_in", [3, 16])
def test_graph_conv_cost_counts_the_products_a_step_runs(monkeypatch, c_in):
    # a frame's graph conv runs x @ A_cat, then the channel mix, whose
    # contraction over c_in*P sums the partitions: P*V*c_in*(V + c_out) MACs
    rng = np.random.default_rng(30 + c_in)
    blk = make_block(rng, c_in=c_in, c_out=16)  # on chain(25, 3)
    x = rand_tensor(rng, (2, c_in, 25)).array
    state = blk.init_state()
    blk.forward_step(state, Tensor.wrap(x[0]))
    counter = _MacCounter()
    monkeypatch.setattr(cinet.graph, "np", counter)
    blk.forward_step(state, Tensor.wrap(x[1]))
    assert counter.macs == blk._gc_cost().macs == 3 * 25 * c_in * (25 + 16)
    assert blk._gc_cost().other == 0


def test_head_cost_counts_each_frame_then_class_sized_pool():
    rng = np.random.default_rng(14)
    head = GlobalAverageHead(6, rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,)))
    # per frame: 3*4 MACs and 3*9 node sums/divides; pool 4 ops per class; bias
    step = head.step_cost((3, 9))
    assert (step.macs, step.other) == (12, 27 + 4 * 4 + 4)
    clip = head.clip_cost((3, 9), 20)  # 15 emissions
    assert (clip.macs, clip.other) == (20 * 12, 20 * 27 + 15 * 4 * 6 + 15 * 4)
