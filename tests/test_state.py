"""Stream state is fixed rings, whole from a stream's first frame: its
footprint never grows, and a refused frame changes none of it."""

import pickle
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from cinet.config import build_model, load_config, random_stream
from cinet.attention import (MultiheadAttention, RecyclingPositionalEncoding, RetroAttention,
                             SingleAttention)
from cinet.containers import Identity, Parallel, Pointwise, Residual, Sequential
from cinet.conv import TemporalConv
from cinet.errors import DimensionError
from cinet.graph import GlobalAverageHead
from cinet.norm import LayerNorm
from cinet.pool import TemporalPool
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor
from test_attention import make_encoder
from test_cli import MINI_STGCN
from test_graph import make_block
from test_perframe import make_bn

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def walk(state):
    """Every distinct object reachable from ``state``; arrays are leaves."""
    seen = set()
    stack = [state]
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (int, float, str, bool, np.dtype)) or id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, np.ndarray):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, deque)):
            stack.extend(obj)
        else:
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, name, None) for name in getattr(cls, "__slots__", ()))


def reachable(state):
    """(bytes of the distinct arrays, number of deques) reachable from ``state``."""
    objs = list(walk(state))
    return (sum(o.nbytes for o in objs if isinstance(o, np.ndarray)),
            sum(isinstance(o, deque) for o in objs))


def steps(model):
    """Input steps up to the first emission and 3 receptive fields past it."""
    return model.warmup() + 1 + 3 * model.receptive_field()


def config_case(path):
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    return model, random_stream(7, steps(model), tuple(cfg["input"]["shape"]),
                                cfg.get("dtype", "f32"))


def residual_case():
    rng = np.random.default_rng(30)
    res = Residual(make_encoder(rng, "single", n=4, d=6, rpe=False))
    return res, rand_tensor(rng, (steps(res), 6))


def strided_parallel_case():
    rng = np.random.default_rng(31)
    par = Parallel([TemporalConv(rand_tensor(rng, (3, 3, k, 1, 1)), rand_tensor(rng, (3,)),
                                 temporal_stride=2) for k in (1, 2)], reduce="sum")
    return par, rand_tensor(rng, (steps(par), 3, 2, 2))


def max_pool_case():
    pool = TemporalPool("max", 5)
    return pool, rand_tensor(np.random.default_rng(32), (steps(pool), 2, 3))


CASES = [pytest.param(lambda p=p: config_case(p), id=p.stem) for p in CONFIGS] + [
    pytest.param(residual_case, id="residual-single-encoder"),
    pytest.param(strided_parallel_case, id="parallel-stride-2"),
    pytest.param(max_pool_case, id="max-pool"),
]


def arrays(state):
    """The ids of the distinct arrays reachable from ``state``."""
    return {id(o) for o in walk(state) if isinstance(o, np.ndarray)}


@pytest.mark.parametrize("make", CASES)
def test_state_footprint_fixed_from_first_emission(make):
    # the first frame builds every array the stream keeps: from then on, the
    # same arrays hold the same bytes, through warm-up and after it
    model, x = make()
    state = model.init_state()
    emitted = []
    for t in range(x.shape[0]):
        if model.forward_step(state, Tensor.wrap(x.array[t])) is not None:
            emitted.append(t)
        if t == 0:
            first, held = reachable(state), arrays(state)
            assert first[0] > 0 and first[1] == 0
        assert reachable(state) == first and arrays(state) == held, f"step {t}"
    assert emitted[0] == model.warmup()


STEADY_BYTES = {"conv_stack": 2304, "encoder_one_block": 4096, "encoder_two_block": 4864,
                "toy_costgcn": 61960}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_bundled_config_steady_state_bytes_are_pinned(path):
    # what a stream of each bundled config keeps, counted once per array: a
    # state that holds a view beside its base counts both, and moves these;
    # the first frame already makes all of it
    model, x = config_case(path)
    state = model.init_state()
    model.forward_step(state, Tensor.wrap(x.array[0]))
    assert reachable(state) == (STEADY_BYTES[path.stem], 0)
    model.forward_steps(state, Tensor.wrap(x.array[1:]))
    assert reachable(state) == (STEADY_BYTES[path.stem], 0)


def test_strided_graph_stack_steady_state_bytes_are_pinned():
    # its stride-1 block keeps 8 slots of (8, 25) f32 partial sums (6400
    # bytes); the stride-2 block, with a pointwise shortcut, keeps only its
    # conv's ring, ceil(8 / 2) = 4 such slots (3200); the head's pool keeps
    # 7 f32 logit rows and an f64 sum (216)
    model = build_model(MINI_STGCN)
    x = random_stream(7, steps(model), (3, 25), "f32")
    state = model.init_state()
    model.forward_step(state, Tensor.wrap(x.array[0]))
    assert reachable(state) == (6400 + 3200 + 216, 0)
    model.forward_steps(state, Tensor.wrap(x.array[1:]))
    assert reachable(state) == (6400 + 3200 + 216, 0)


def test_a_first_frame_a_later_stage_cannot_take_is_refused_at_once():
    # the pool would hold a 3-channel frame through its warm-up; the conv
    # behind it names the mismatch on the first frame instead
    rng = np.random.default_rng(33)
    conv = TemporalConv(rand_tensor(rng, (3, 2, 2, 1, 1)), rand_tensor(rng, (3,)))
    model = Sequential([TemporalPool("avg", 2), conv])
    state = model.init_state()
    with pytest.raises(DimensionError, match="expected 2 channels, got 3"):
        model.forward_step(state, Tensor.zeros((3, 4, 4)))
    x = rand_tensor(rng, (12, 2, 4, 4))
    outs = [y.array for y in (model.forward_step(state, Tensor.wrap(f)) for f in x.array)
            if y is not None]
    assert np.array_equal(np.stack(outs), model.forward_steps(model.init_state(), x).array)
    assert max_rel_dev(np.stack(outs), model.forward(x).array) < 1e-6


def _frames(model, x):
    """``(model, step, good inputs, refused first inputs, refused later inputs)``
    of a ``forward_step`` root: a frame one channel too wide is refused
    first and later, and the other dtype later."""
    xa = x.array
    wide = np.zeros((xa.shape[1] + 1,) + xa.shape[2:], xa.dtype)
    other = xa[0].astype(np.float64 if xa.dtype == np.float32 else np.float32)
    return (model, lambda s, a: model.forward_step(s, Tensor.wrap(a)), list(xa),
            [wide], [wide, other])


def _rows(att, d_v=3, lead=()):
    """The ``att_step`` counterpart of ``_frames``: q and k rows of width
    ``d``, value rows of width ``d_v``."""
    d, rng = att.d, np.random.default_rng(34)
    rows = [tuple(rng.normal(size=lead + (e,)).astype(np.float32) for e in (d, d, d_v))
            for _ in range(3 * att.n)]
    q, k, v = rows[0]
    f64 = tuple(a.astype(np.float64) for a in rows[0])
    first = [(q[..., :-1], k[..., :-1], v), (q, k.astype(np.float64), v)]
    later = first + [f64, (q, k, v[..., :-1]), (q[None], k[None], v[None])]
    return att, lambda s, r: att.att_step(s, *map(Tensor.wrap, r)), rows, first, later


def _mha(rng, mode):
    return MultiheadAttention(mode, 3, *(rand_tensor(rng, (4, 4)) for _ in range(4)), heads=2)


# bare roots: (model, frame shape) built from a seeded generator
ROOTS = {
    "conv": lambda rng: (TemporalConv(rand_tensor(rng, (3, 2, 3, 2, 2)), rand_tensor(rng, (3,)),
                                      padding=1), (2, 4, 4)),
    "stgcn-block": lambda rng: (make_block(rng, v=5, c_in=2, k_t=3), (2, 5)),
    "token-encoder-block": lambda rng: (make_encoder(rng, "retro", 3, 4, rpe=False), (4,)),
    "positional-encoding": lambda rng: (RecyclingPositionalEncoding(rand_tensor(rng, (3, 4))),
                                        (4,)),
    "retro-self-attention": lambda rng: (RetroAttention(3, 4), (4,)),
    "mha-retro": lambda rng: (_mha(rng, "retro"), (4,)),
    "mha-single": lambda rng: (_mha(rng, "single"), (4,)),
}


def root_case(name):
    rng = np.random.default_rng(36)
    model, frame = ROOTS[name](rng)
    return _frames(model, rand_tensor(rng, (9,) + frame))


REFUSALS = [pytest.param(lambda p=p: _frames(*config_case(p)), id=p.stem) for p in CONFIGS] + [
    pytest.param(lambda: _frames(*strided_parallel_case()), id="parallel-stride-2"),
] + [pytest.param(lambda name=name: root_case(name), id=name) for name in ROOTS] + [
    pytest.param(lambda: _rows(RetroAttention(3, 4), lead=(2,)), id="retro-att-step"),
    pytest.param(lambda: _rows(SingleAttention(3, 4)), id="single-att-step"),
]


@pytest.mark.parametrize("make", REFUSALS)
def test_a_refused_input_changes_no_counter_or_byte(make):
    # the first input binds nothing when refused, and a later one is refused
    # before any layer runs; the stream then goes on as if it never came
    model, step, goods, first, later = make()
    ref_state, state = model.init_state(), model.init_state()
    for t, good in enumerate(goods):
        for bad in first if t == 0 else later:
            before = pickle.dumps(state)
            with pytest.raises(DimensionError):
                step(state, bad)
            assert pickle.dumps(state) == before, f"step {t}"
        want, got = step(ref_state, good), step(state, good)
        assert (want is None) == (got is None)
        if got is not None:
            assert np.array_equal(got.array, want.array)
    assert pickle.dumps(state) == pickle.dumps(ref_state)


def _conv(rng, k):
    return TemporalConv(rand_tensor(rng, (3, 2, 3, k, k)), rand_tensor(rng, (3,)), padding=1)


# every module kind as a root: (model, frame shape, frames of another extent
# or rank that it cannot take); Identity and the pool take any frame
MODULES = {
    "conv-3d": lambda rng: (_conv(rng, 2), (2, 4, 4), [(3, 4, 4), (2, 1, 4), (2, 4), ()]),
    "conv-1x1": lambda rng: (_conv(rng, 1), (2, 5), [(3, 5), (2,), (2, 5, 1, 1)]),
    "pool": lambda rng: (TemporalPool("avg", 3), (2, 3), []),
    "batchnorm": lambda rng: (make_bn(rng, 3), (3, 4), [(4, 4), ()]),
    "layernorm": lambda rng: (LayerNorm(rand_tensor(rng, (6,)), rand_tensor(rng, (6,))), (6,),
                              [(5,), ()]),
    "pointwise": lambda rng: (Pointwise(rand_tensor(rng, (4, 3))), (4, 2), [(3, 2), ()]),
    "identity": lambda rng: (Identity(), (3,), []),
    "positional-encoding": lambda rng: (RecyclingPositionalEncoding(rand_tensor(rng, (5, 6))),
                                        (6,), [(5,), (1, 6), ()]),
    "retro-attention": lambda rng: (RetroAttention(3, 4), (4,), [(5,), ()]),
    "single-attention": lambda rng: (SingleAttention(3, 4), (4,), [(5,), ()]),
    "mha": lambda rng: (_mha(rng, "retro"), (4,), [(5,), (1, 4), ()]),
    "token-encoder-block": lambda rng: (make_encoder(rng, "retro", 3, 4, rpe=False), (4,),
                                        [(5,), (3, 4), ()]),
    "window-encoder-block": lambda rng: (
        make_encoder(rng, "single", 3, 4, rpe=False, window_input=True), (3, 4),
        [(4,), (2, 4), (3, 5), ()]),
    "stgcn-block": lambda rng: (make_block(rng, v=5, c_in=2, k_t=3), (2, 5),
                                [(2, 4), (3, 5), (2, 5, 1), ()]),
    "head": lambda rng: (GlobalAverageHead(3, rand_tensor(rng, (4, 2)), rand_tensor(rng, (2,))),
                         (4, 5), [(3, 5), ()]),
    "sequential": lambda rng: (Sequential([TemporalPool("avg", 2), _conv(rng, 1)]), (2, 5),
                               [(3, 5), (2,)]),
    "parallel": lambda rng: (strided_parallel_case()[0], (3, 2, 2),
                             [(2, 2, 2), (3, 2, 2, 1), ()]),
    "residual": lambda rng: (residual_case()[0], (6,), [(5,), ()]),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_module_refuses_a_frame_it_cannot_take_in_both_modes(name):
    # one rule at the root, clip and step alike: a frame of another extent
    # or rank raises DimensionError; on a bound stream, so does a frame of
    # another shape or dtype, stateless roots included; a refused frame
    # changes no state, and the stream goes on as if it never came
    rng = np.random.default_rng(37)
    model, frame, bad = MODULES[name](rng)
    x = rand_tensor(rng, (steps(model),) + frame).array
    for shape in bad:
        with pytest.raises(DimensionError):
            model.forward(Tensor.zeros((len(x),) + shape))
        state = model.init_state()
        before = pickle.dumps(state)
        with pytest.raises(DimensionError):
            model.forward_step(state, Tensor.zeros(shape))
        assert pickle.dumps(state) == before
    drifts = [np.zeros(shape, np.float32) for shape in bad] + [
        np.zeros((frame[0] + 1,) + frame[1:], np.float32), x[:1], x[0].astype(np.float64)]
    ref_state, state = model.init_state(), model.init_state()
    for t, a in enumerate(x):
        if t:
            for drift in drifts:
                before = pickle.dumps(state)
                with pytest.raises(DimensionError):
                    model.forward_step(state, Tensor.wrap(drift))
                assert pickle.dumps(state) == before, f"step {t}"
        want, got = (model.forward_step(s, Tensor.wrap(a)) for s in (ref_state, state))
        assert (want is None) == (got is None)
        if got is not None:
            assert np.array_equal(got.array, want.array)
    assert pickle.dumps(state) == pickle.dumps(ref_state)


def test_a_stream_holds_its_layer_state_and_answers_for_itself_only():
    # a stream's root state is its ``layer``; the stream reads nothing through
    # to it, so a walk over the stream finds one clamp counter, not two
    retro = RetroAttention(3, 4)
    state = retro.init_state()
    big = Tensor.wrap(np.full(4, 40.0, dtype=np.float32))
    for _ in range(4):
        retro.forward_step(state, big)
    assert state.layer.clamp_events[0] == 16  # 3 * 3 from scratch, then 2 * 2 + 3
    assert not hasattr(state, "clamp_events")
    with pytest.raises(AttributeError):
        state.t
    assert [o for o in walk(state) if hasattr(o, "clamp_events")] == [state.layer]
