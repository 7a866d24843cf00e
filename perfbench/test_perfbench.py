"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Runs use a short stream and a second or two of measurement; they check the
report's shape and the benchmark's own bookkeeping, not speed.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import statebytes  # noqa: E402
from cinet.config import random_stream  # noqa: E402
from cinet.tensor import Tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_TIME_TOL = 0.05  # share of the traced step time the spans may miss


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced_report(request):
    return bench.run_workload(request.param, seed=3, seconds=1, trace=True, steps=256)


def test_spec_matches_the_metric_tables():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS


def test_every_metric_present_with_a_unit(traced_report):
    for section, units in (("end_to_end", bench.E2E_UNITS), ("per_layer", bench.LAYER_UNITS)):
        metrics = traced_report[section]
        assert list(metrics) == list(units)
        assert all(isinstance(v, float) and math.isfinite(v) for v in metrics.values()), metrics
    e2e = traced_report["end_to_end"]
    assert all(e2e[name] > 0 for name in e2e), e2e
    assert traced_report["correctness"]["failed"] == 0
    assert e2e["passed_share"] == 1.0


def test_self_times_sum_to_the_step_total(traced_report):
    layer = traced_report["per_layer"]
    parts = sum(layer[f"{fam}.step_us"] for fam in ("graph", "conv", "attention", "pool", "norm"))
    parts += layer["containers.step_self_us"] + layer["tensor.wrap_us"]
    assert parts == pytest.approx(layer["trace.self_sum_us"], rel=1e-9)
    assert layer["trace.self_sum_us"] == pytest.approx(layer["trace.step_us"], rel=SELF_TIME_TOL)


def test_refreshes_counted_from_the_state_step_counter():
    report = bench.run_workload("encoder", seed=3, seconds=1, trace=True, steps=256)
    # the retroactive block refreshes every 64 warm steps; both heads share
    # one RetroAttention module, so each refresh step counts twice
    assert report["per_layer"]["attention.refreshes"] == 2 / 64


def _run_cli(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "video", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_schema(trace):
    out = _run_cli(ROOT, trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = last["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
    for m in expected:  # every metric also printed by name with its unit
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in out.stdout.splitlines())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


class _PerturbOnce:
    """Delegates to a model, adding 1.0 to its ``at``-th step emission."""

    def __init__(self, net, at):
        self.net, self.at, self.emitted = net, at, 0

    def __getattr__(self, name):
        return getattr(self.net, name)

    def forward_step(self, state, x_t):
        y = self.net.forward_step(state, x_t)
        if y is not None:
            self.emitted += 1
            if self.emitted == self.at:
                y = Tensor.wrap(y.array + 1.0)
        return y


@pytest.mark.parametrize("perturb", [False, True])
def test_output_check_negative_control(perturb):
    models, (frame, dtype) = bench.load_models(bench.WORKLOADS["video"])
    if perturb:
        models[0] = dataclasses.replace(models[0], net=_PerturbOnce(models[0].net, at=10))
    stream = random_stream(7, models[0].warmup + 256, frame, dtype)
    meas = bench.Measurement(models, stream, slide_count=16).run(0.2, bench.SHARES)
    checked = bench.check_outputs(models, meas.reference, [meas])
    assert checked["attempted"] > 256
    assert checked["failed"] == (1 if perturb else 0)
    assert (checked["failed_share"] > 0) == perturb


class _Slotted:
    __slots__ = ("a", "b", "unset")


class _Plain:
    pass


def test_state_walker_is_generic():
    shared = np.zeros(10, dtype=np.float32)  # 40 bytes, reachable twice
    slotted = _Slotted()
    slotted.a = deque([np.zeros(3), shared])  # 24 + 40
    slotted.b = {"k": [np.zeros((2, 2), dtype=np.float32)], 1: (shared,)}  # 16
    plain = _Plain()
    plain.inner = slotted
    plain.view = np.zeros(100)[10:20]  # a view counts the 80 bytes it spans
    plain.tensor = Tensor.wrap(np.zeros(5))  # 40, charged to the holder
    root = [plain, np.zeros(1, dtype=np.int8)]  # 1
    assert statebytes.state_bytes(root) == 40 + 24 + 16 + 80 + 40 + 1
    owners = statebytes.array_bytes_by_owner(root)
    assert owners == {"test_perfbench": 40 + 24 + 16 + 80 + 40, "root": 1}
