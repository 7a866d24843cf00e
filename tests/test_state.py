"""Stream state is fixed rings: its footprint never grows once a stream emits."""

from collections import deque
from pathlib import Path

import numpy as np
import pytest

from cinet.config import build_model, load_config, random_stream
from cinet.containers import Parallel, Residual
from cinet.conv import TemporalConv
from cinet.errors import DimensionError
from cinet.module import ring_buffer
from cinet.pool import TemporalPool
from cinet.tensor import Tensor

from conftest import rand_tensor
from test_attention import make_encoder

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


@pytest.mark.parametrize("make", CASES)
def test_state_footprint_fixed_from_first_emission(make):
    model, x = make()
    state = model.init_state()
    t = 0
    while model.forward_step(state, Tensor.wrap(x.array[t])) is None:
        t += 1
    assert t == model.warmup()
    first, _ = reachable(state)
    assert first > 0
    for t in range(t + 1, x.shape[0]):
        model.forward_step(state, Tensor.wrap(x.array[t]))
        assert reachable(state) == (first, 0), f"step {t}"


STEADY_BYTES = {"conv_stack": 2304, "encoder_one_block": 4096, "encoder_two_block": 4864,
                "toy_costgcn": 102760}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_bundled_config_steady_state_bytes_are_pinned(path):
    # what a stream of each bundled config keeps, counted once per array: a
    # state that holds a view beside its base counts both, and moves these
    model, x = config_case(path)
    state = model.init_state()
    model.forward_steps(state, x)
    assert reachable(state) == (STEADY_BYTES[path.stem], 0)


def test_ring_buffer_allocates_once_and_rejects_drift():
    ring = ring_buffer(None, (3, 2), np.float32)
    assert ring.shape == (3, 2) and ring.dtype == np.float32 and not ring.any()
    assert ring_buffer(ring, (3, 2), np.float32) is ring
    with pytest.raises(DimensionError):
        ring_buffer(ring, (3, 4), np.float32)
    with pytest.raises(DimensionError):
        ring_buffer(ring, (3, 2), np.float64)
