"""Arrays inside, ``Tensor`` at the edge: one wrap per emission, no aliasing.

Layers hand ndarrays to each other and only the public call modes wrap a
result.  These tests pin that from outside: how often ``Tensor.wrap`` runs
per ``forward_step``, and that an emission never shares memory with the
stream state or changes afterwards.
"""

import numpy as np
import pytest

from cinet.config import build_model, random_stream
from cinet.tensor import Tensor

from test_state import CONFIGS, config_case, steps, strided_parallel_case, walk

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


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_forward_step_wraps_once_per_emission(path, monkeypatch):
    model, x = config_case(path)
    frames = [Tensor.wrap(x.array[t]) for t in range(x.shape[0])]
    original = Tensor.wrap
    calls = []

    def counted(arr):
        calls.append(1)
        return original(arr)

    monkeypatch.setattr(Tensor, "wrap", staticmethod(counted))
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
