"""Arrays inside, ``Tensor`` at the edge: one wrap per emission, no aliasing.

Layers hand ndarrays to each other and only the public call modes wrap a
result.  These tests pin that from outside: how often ``Tensor.wrap`` runs
per ``forward_step``; that every public call mode hands it a read-only
array, which it shares instead of copying; that an output never shares
memory with the stream state or the model's weight tables, nor changes
afterwards; and the package exports exactly the names listed here, so a
change to the public surface is a deliberate diff.
"""

import numpy as np
import pytest

import cinet
from cinet.attention import RetroAttention, SingleAttention, sda_full
from cinet.config import build_model, random_stream
from cinet.graph import SkeletonGraph, graph_conv
from cinet.tensor import Tensor

from conftest import rand_tensor
from test_acceptance import _random_tree
from test_state import (CONFIGS, config_case, max_pool_case, steps, strided_parallel_case,
                        walk)

MAXPOOL_CONFIG = {
    "name": "maxpool_demo",
    "dtype": "f32",
    "input": {"shape": [2, 3, 3]},
    "layers": [
        {"type": "conv3d", "c_in": 2, "c_out": 3, "kernel": [2, 1, 1],
         "init": {"scheme": "uniform", "seed": 5, "lo": -0.5, "hi": 0.5}},
        {"type": "maxpool_t", "window": 4},
        {"type": "maxpool_t", "window": 1},
    ],
}


def maxpool_case():
    model = build_model(MAXPOOL_CONFIG, CONFIGS[0].parent)
    return model, random_stream(9, steps(model), (2, 3, 3), "f32")


CASES = [pytest.param(lambda p=p: config_case(p), id=p.stem) for p in CONFIGS] + [
    pytest.param(maxpool_case, id="maxpool"),
    pytest.param(strided_parallel_case, id="parallel-stride-2-lagged"),
]


def _recorded_wraps(monkeypatch) -> list:
    """Patch ``Tensor.wrap`` to record, per call, whether the array it was
    handed was writeable and whether the tensor shares it."""
    original = Tensor.wrap
    calls = []

    def recorder(arr):
        writeable = arr.flags.writeable
        t = original(arr)
        calls.append((writeable, t.array is arr))
        return t

    monkeypatch.setattr(Tensor, "wrap", staticmethod(recorder))
    return calls


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_forward_step_wraps_once_per_emission(path, monkeypatch):
    model, x = config_case(path)
    frames = [Tensor.wrap(x.array[t]) for t in range(x.shape[0])]
    calls = _recorded_wraps(monkeypatch)
    state = model.init_state()
    emitted = 0
    for t, frame in enumerate(frames):
        calls.clear()
        y = model.forward_step(state, frame)
        if y is None:
            assert not calls, f"step {t}: {len(calls)} wraps on a warm-up step"
        else:
            emitted += 1
            assert len(calls) <= 1, f"step {t}: {len(calls)} wraps"
    assert emitted == model.out_len(x.shape[0])


@pytest.mark.parametrize("make", CASES)
def test_emissions_do_not_alias_the_stream(make):
    model, x = make()
    frames = [Tensor.wrap(x.array[t]) for t in range(x.shape[0])]
    inputs = x.array.copy()
    state = model.init_state()
    kept = []
    for frame in frames:
        y = model.forward_step(state, frame)
        if y is not None:
            kept.append((y, y.array.copy()))
    assert len(kept) == model.out_len(x.shape[0])
    # the stream ran 3 receptive fields past the first emission
    held = [a for a in walk(state) if isinstance(a, np.ndarray)]
    assert held
    for i, (y, copy) in enumerate(kept):
        assert np.array_equal(y.array, copy), f"emission {i} changed"
        assert not any(np.shares_memory(y.array, a) for a in held), f"emission {i} aliases state"
    assert np.array_equal(x.array, inputs)
    assert all(np.array_equal(f.array, inputs[t]) for t, f in enumerate(frames))


# -- a fresh result is frozen and shared, never copied -------------------------------


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_every_call_mode_hands_wrap_a_read_only_array(path, monkeypatch):
    model, x = config_case(path)
    frames = [Tensor.wrap(f) for f in x.array]
    short = Tensor.wrap(x.array[:1])  # no emission in either mode
    calls = _recorded_wraps(monkeypatch)
    state = model.init_state()
    for frame in frames:
        model.forward_step(state, frame)
    model.forward_steps(model.init_state(), x)
    model.forward_steps(model.init_state(), short)
    model.forward(x)
    model.forward(short)
    assert len(calls) == model.out_len(x.shape[0]) + 4
    assert calls == [(False, True)] * len(calls)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_every_shim_hands_wrap_a_read_only_array(dtype, monkeypatch):
    rng = np.random.default_rng(40)
    rows = [[rand_tensor(rng, (2, 4), dtype) for _ in range(3)] for _ in range(6)]
    window = rand_tensor(rng, (3, 5, 4), dtype)
    graph = SkeletonGraph.chain(5, 3)
    w_gc = [rand_tensor(rng, (2, 3)) for _ in range(3)]
    frame = rand_tensor(rng, (2, 5), dtype)
    calls = _recorded_wraps(monkeypatch)
    emitted = 0
    for att in (RetroAttention(3, 4), SingleAttention(3, 4)):
        state = att.init_state()
        emitted += sum(att.att_step(state, *r) is not None for r in rows)
    sda_full(window, window, window)
    graph_conv(frame, graph, w_gc)
    assert emitted == 8
    assert calls == [(False, True)] * (emitted + 2)


def _check_outputs_stay_put(model, x: np.ndarray, more: int = 50) -> None:
    """Keep every tensor that ``forward_step``, ``forward_steps`` and
    ``forward`` return over ``x[:-more]`` together with a copy; then run
    ``more`` further steps through both step modes, and a clip.  No output
    may have changed, nor share memory with an array that the streams or the
    model hold: weights, per-dtype weight tables, step tables."""
    head, tail = x[:-more], x[-more:]
    by_step, by_steps = model.init_state(), model.init_state()
    kept = [y for y in (model.forward_step(by_step, Tensor.wrap(f)) for f in head)
            if y is not None]
    assert len(kept) == model.out_len(len(head)) > 0
    kept += [model.forward_steps(by_steps, Tensor.wrap(head)), model.forward(Tensor.wrap(head))]
    copies = [y.array.copy() for y in kept]
    model.forward_steps(by_step, Tensor.wrap(tail))
    for f in tail:
        model.forward_step(by_steps, Tensor.wrap(f))
    model.forward(Tensor.wrap(x))
    held = [a for a in walk((model, by_step, by_steps)) if isinstance(a, np.ndarray)]
    assert held
    for i, (y, copy) in enumerate(zip(kept, copies)):
        assert np.array_equal(y.array, copy), f"output {i} changed"
        assert not any(np.shares_memory(y.array, a) for a in held), f"output {i} aliases"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", CASES + [pytest.param(max_pool_case, id="max-pool")])
def test_outputs_never_change_nor_alias_state_or_weights(make, dtype):
    model, x = make()
    more = np.random.default_rng(41).uniform(-1, 1, (50,) + x.shape[1:])
    _check_outputs_stay_put(model, np.concatenate([x.array, more]).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_container_tree_outputs_never_change_nor_alias(dtype):
    # AC6's generated trees: containers, lagged branches, strided convs, pools
    for case in range(25):
        rng = np.random.default_rng(5000 + case)
        tree = _random_tree(rng)
        x = rng.normal(size=(steps(tree) + 50, 3, 2, 2)).astype(dtype)
        _check_outputs_stay_put(tree, x)


PUBLIC_NAMES = [
    "BatchNorm", "CoModule", "ConfigError", "DimensionError", "EncoderBlock",
    "GlobalAverageHead", "LayerNorm", "MultiheadAttention", "Parallel",
    "RecyclingPositionalEncoding", "Residual", "RetroAttention", "Sequential",
    "SingleAttention", "SkeletonGraph", "StGcnBlock", "TemporalConv",
    "TemporalPool", "Tensor", "graph_conv", "sda_full", "step_momentum",
]


def test_public_surface_is_pinned():
    assert sorted(cinet.__all__) == PUBLIC_NAMES
    assert all(hasattr(cinet, name) for name in cinet.__all__)
    namespace = {}
    exec("from cinet import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES
