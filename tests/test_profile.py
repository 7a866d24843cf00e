"""The per-layer step profile: its walk, its row schema, and self times and
state bytes that add up to the stream's."""

import time
from pathlib import Path

import numpy as np
import pytest

from cinet.config import build_model, load_config, random_stream
from cinet.containers import Sequential
from cinet.module import OpCount, PerFrame
from cinet.pool import TemporalPool
from cinet.profile import profile

from conftest import rand_tensor
from test_containers import _at
from test_state import reachable

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
SCHEMA = {"path": str, "kind": str, "step_us": float, "step_cost": float,
          "state_bytes": int, "delay": int, "warmup": int}


def _config(path):
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    x = random_stream(3, 64, tuple(cfg["input"]["shape"]), cfg.get("dtype", "f32"))
    return model, x, model.warmup() + 256


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_every_layer_of_a_bundled_config_reads_its_time_cost_and_state(path):
    model, x, steps = _config(path)
    rows = profile(model, x, steps)
    assert [type(v) for r in rows for v in r.values()] == list(SCHEMA.values()) * len(rows)
    assert [list(r) for r in rows] == [list(SCHEMA)] * len(rows)
    assert rows[0]["path"] == "root" and len({r["path"] for r in rows}) == len(rows)
    for r in rows:
        m = _at(model, r["path"])
        assert r["kind"] == type(m).__name__ and r["step_us"] > 0
        assert (r["delay"], r["warmup"]) == (m.delay(), m.warmup())
    assert rows[0]["step_cost"] == model.step_cost(x.shape[1:]).flops
    # the state bytes split the stream's among the layers
    layer = model.init_state().bind(model, x.shape[1:], x.array.dtype)
    assert sum(r["state_bytes"] for r in rows) == reachable(layer)[0] > 0
    assert not any("_step" in vars(m) for m in map(lambda r: _at(model, r["path"]), rows))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_self_times_sum_to_the_timed_step(path):
    # the self times add up to the profiled run's wall time per step, all
    # but the step loop, the root wrapper's bookkeeping and building the
    # stream and the rows: 0.88-0.99 of it on a 2-core VM, so above 0.8.
    # Counting a child's time in its parent's self time too would double
    # the sum; a preempted run stretches both sides alike.  Best of three
    model, x, steps = _config(path)
    shares = []
    for _ in range(3):
        t0 = time.perf_counter()
        rows = profile(model, x, steps)
        wall_us = (time.perf_counter() - t0) / steps * 1e6
        shares.append(sum(r["step_us"] for r in rows) / wall_us)
    assert 0.8 < max(shares) <= 1, shares


class _Fails(PerFrame):
    """A per-frame layer whose third step raises."""

    def __init__(self):
        self.calls = 0

    def _apply(self, a, channel_axis):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("third step")
        return a

    def step_cost(self, frame_shape):
        return OpCount()


def test_wrappers_go_when_the_run_raises():
    pool, fails = TemporalPool("avg", 2), _Fails()
    model = Sequential([pool, fails])
    with pytest.raises(RuntimeError, match="third step"):
        profile(model, rand_tensor(np.random.default_rng(0), (5, 2)), 8)
    assert not any("_step" in vars(m) for m in (model, pool, fails))
    rows = profile(Sequential([pool]), rand_tensor(np.random.default_rng(1), (5, 2)), 3)
    assert [r["kind"] for r in rows] == ["Sequential", "TemporalPool"]


def test_a_module_no_step_reaches_reads_no_cost():
    pool = TemporalPool("avg", 4)
    rows = profile(Sequential([pool, _Fails()]), rand_tensor(np.random.default_rng(2), (5, 2)), 2)
    assert [r["step_cost"] is None for r in rows] == [False, False, True]
    assert rows[2]["step_us"] == 0 and rows[1]["state_bytes"] == 3 * 2 * 4 + 2 * 8


@pytest.mark.parametrize("frames,steps", [(4, 0), (0, 3)], ids=["no-step", "no-frame"])
def test_profile_refuses_a_run_of_nothing(frames, steps):
    with pytest.raises(ValueError, match="need steps >= 1 and a frame"):
        profile(TemporalPool("avg", 2), rand_tensor(np.random.default_rng(0), (frames, 2)), steps)
