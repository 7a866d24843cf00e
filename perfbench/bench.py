"""Workloads, the closed-loop measurement and the output check.

cinet is driven only through its public contract: models come from
``cinet.config`` (``load_config`` / ``build_model``) and run through
``init_state`` / ``forward_step`` / ``forward``.

A measurement interleaves four kinds of unit until its time is up, always
picking the kind furthest below its share of the time spent so far:

- ``setup``: ``load_config`` + ``build_model`` + ``init_state`` for every
  model of the workload;
- ``step``: ``STEP_UNIT`` workload steps of the closed loop.  A workload step
  sends one frame into every model, each call returning before the next
  frame goes in.  Units continue one long stream; when it ends, the next unit
  starts a new pass from fresh states after an untimed warm-up;
- ``slide``: sliding-window recomputation, the paper's baseline.  One
  prediction is ``forward`` over the ``receptive_field()`` frames ending at an
  emitting step; consecutive predictions slide by one step (by the period of
  a recycling positional encoding, see ``position_period``);
- ``clip``: one offline ``forward`` over the whole stream.  The first one is
  the reference every step emission and sliding prediction is checked
  against, after the timing.

Every unit's time is scaled by the host speed measured next to it (see
``host_probe``), and each timed metric is the median over its units, so a run
reports the speed at a fixed reference host speed rather than the load other
tenants happened to put on the shared host during the run.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cinet.attention import RecyclingPositionalEncoding
from cinet.cli import count_flops
from cinet.config import build_model, load_config, random_stream
from cinet.tensor import Tensor

import spans
import statebytes

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

TOL = 1e-4  # the acceptance suite's f32 tolerance, relative to the reference
STEP_UNIT = 256  # steps per step unit, a multiple of the 64-step attention refresh
SETUP_UNIT_NS = 20_000_000  # a set-up unit repeats the set-up for this long
SHARES = {"setup": 0.05, "step": 0.35, "slide": 0.3, "clip": 0.3}
TRACED_SHARES = {"step": 0.6, "slide": 0.4}

E2E_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_latency_p50_us": "us",
    "step_latency_p99_us": "us",
    "preds_per_s": "1/s",
    "clip_frames_per_s": "1/s",
    "state_bytes": "bytes",
    "passed_share": "share",
}

LAYER_UNITS = {
    "graph.step_us": "us", "graph.gc_us": "us", "graph.clip_us": "us",
    "graph.step_flops": "flop", "graph.step_gflops": "GFLOP/s", "graph.residual_bytes": "bytes",
    "conv.step_us": "us", "conv.clip_us": "us", "conv.step_flops": "flop",
    "conv.step_gflops": "GFLOP/s", "conv.cache_bytes": "bytes",
    "attention.step_us": "us", "attention.sda_full_us": "us", "attention.clip_us": "us",
    "attention.step_flops": "flop", "attention.step_gflops": "GFLOP/s",
    "attention.cache_bytes": "bytes", "attention.refreshes": "1/step",
    "attention.clamp_events": "count",
    "pool.step_us": "us", "pool.clip_us": "us", "pool.refreshes": "1/step",
    "pool.cache_bytes": "bytes",
    "norm.step_us": "us", "norm.clip_us": "us",
    "containers.step_self_us": "us",
    "tensor.wrap_calls": "1/step", "tensor.wrap_copy_bytes": "bytes/step", "tensor.wrap_us": "us",
    "config.build_s": "s",
    "cli.flop_ratio": "x", "cli.wall_ratio": "x",
    "trace.overhead_share": "share", "trace.step_us": "us", "trace.self_sum_us": "us",
}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # file names under configs/, fed the same frames in lockstep
    steps: int  # timed steps per pass: the stream is the warm-up plus these
    slide_count: int  # sliding predictions per slide unit


WORKLOADS = {w.name: w for w in (
    # 299 + 4096 frames: the head's running average (input from step 32 on)
    # crosses its 4096-step refresh once per pass
    Workload("skeleton", ("toy_costgcn.json",), 4096, 4),
    Workload("encoder", ("encoder_two_block.json", "encoder_one_block.json"), 1024, 128),
    Workload("video", ("conv_stack.json",), 4096, 256),
)}


@dataclass
class Model:
    name: str
    path: Path
    cfg: dict
    net: object
    warmup: int
    rf: int
    period: int  # a sliding window must start at a multiple of this


def position_period(net) -> int:
    """Least common multiple of the periods of recycling positional encodings.

    Their positions are fixed in stream time, while ``forward`` numbers a
    window's positions from its first frame, so a window reproduces the
    stream's output only when it starts at a multiple of the period.
    """
    periods = [m.period for _, m in spans.walk_modules([net])
               if isinstance(m, RecyclingPositionalEncoding)]
    return math.lcm(*periods) if periods else 1


def load_models(workload: Workload):
    """Build the workload's models; return them with the frame shape and dtype."""
    models = []
    for file in workload.configs:
        path = CONFIG_DIR / file
        cfg = load_config(path)
        net = build_model(cfg, path.parent)
        if net.stride() != 1:
            raise ValueError(f"{file}: strided models are not benchmarked")
        models.append(Model(cfg["name"], path, cfg, net, net.warmup(), net.receptive_field(),
                            position_period(net)))
    frames = {(tuple(m.cfg["input"]["shape"]), m.cfg.get("dtype", "f32")) for m in models}
    if len(frames) != 1:
        raise ValueError(f"models of {workload.name} take different frames: {frames}")
    return models, frames.pop()


# Host speed probe.  A fixed mix of interpreter work and small numpy calls,
# like the step paths' own mix, that never touches cinet.  It runs before
# every unit and once at the end; a unit's times are scaled by
# REFERENCE_PROBE_NS over the median of the probes around it.  The host's two
# cores are shared with other tenants, whose load moves every timing here by
# up to 2x for seconds to minutes at a time; the probe moves with it, so the
# scaled times move much less.  Changing the probe or the constant changes
# every timed metric, so both stay fixed.
REFERENCE_PROBE_NS = 2_000_000  # the probe on a quiet host of the reference VM
_PROBE_A = np.linspace(-1, 1, 400, dtype=np.float32).reshape(16, 25)
_PROBE_W = np.linspace(-0.1, 0.1, 256, dtype=np.float32).reshape(16, 16)
_PROBE_V = np.linspace(-1, 1, 32, dtype=np.float32).reshape(8, 4)


class _ProbeSlots:
    __slots__ = ("a", "b")


def host_probe() -> int:
    """Nanoseconds the host takes for the fixed probe work."""
    t0 = time.perf_counter_ns()
    x = _PROBE_A
    for _ in range(50):
        x = np.maximum(_PROBE_W @ x, 0) * np.float32(0.9) + _PROBE_A
    o = _ProbeSlots()
    o.a, o.b, d = 0, [], {}
    for i in range(1000):
        o.a += i
        o.b.append(i)
        d[i & 63] = o.a
        if len(o.b) > 32:
            o.b.pop(0)
    q = deque(maxlen=16)
    for i in range(30):
        q.append(_PROBE_V[i % 8] * np.float32(0.5))
        s = np.stack(list(q))
        a = np.exp(s @ _PROBE_V[0] * np.float32(0.1))
        np.einsum("ij,j->i", _PROBE_V, (a @ s) / a.sum(), optimize=True)
    return time.perf_counter_ns() - t0


class Measurement:
    """Interleaved units over one stream; see the module docstring.

    ``units[kind]`` holds one record per unit: ``(probe index, items, ns per
    model, extra)``, where items are steps, predictions, clip frames or
    set-ups, and ``extra`` is the step unit's slice of ``lat`` or the set-up
    unit's ``build_model`` ns.
    """

    def __init__(self, models, stream: Tensor, slide_count: int, tracer=None):
        self.models = models
        self.stream = stream
        xa = stream.array
        self.length = len(xa)
        self.frames = [Tensor.wrap(xa[t]) for t in range(self.length)]
        self.warm = max(m.warmup for m in models)
        # steps where every model emits, has a whole window behind it, and
        # that window starts at a multiple of the model's position period
        first = max(max(m.warmup, m.rf - 1) for m in models)
        self.pred_steps = [e for e in range(first, self.length)
                           if all((e - m.rf + 1) % m.period == 0 for m in models)]
        self.windows = [[Tensor.wrap(xa[e - m.rf + 1: e + 1]) for e in self.pred_steps]
                        for m in models]
        self.slide_count = slide_count
        self.tracer = tracer
        if tracer is not None:
            self.step_nid = tracer.name_id("bench.step", "bench", "step")
            self.slide_nid = tracer.name_id("bench.slide", "bench", "slide")
        self.units = {"setup": [], "step": [], "slide": [], "clip": []}
        self.probes = []
        self.lat = []  # ns per timed workload step
        self.passes = []  # {"steps": steps run, "emissions": per model, "states": per model}
        self.passes_done = 0
        self.pos = self.length  # the first step unit starts a pass
        self.steady_bytes = None
        self.predictions = []  # (step index, forward output per model)
        self.cursor = 0
        self.reference = None

    # -- units -----------------------------------------------------------------

    def _new_pass(self):
        states = [m.net.init_state() for m in self.models]
        emissions = [[None] * self.length for _ in self.models]
        self.passes.append({"steps": 0, "emissions": emissions, "states": states})
        for t in range(self.warm):
            for m, s, em in zip(self.models, states, emissions):
                em[t] = m.net.forward_step(s, self.frames[t])
        self.pos = self.passes[-1]["steps"] = self.warm

    def step_unit(self):
        if self.pos >= self.length:
            self._new_pass()
        current = self.passes[-1]
        states, emissions = current["states"], current["emissions"]
        nets = [m.net for m in self.models]
        n = len(nets)
        per_model = [0] * n
        lat = self.lat
        first = len(lat)
        end = min(self.pos + STEP_UNIT, self.length)
        clock = time.perf_counter_ns
        tracer = self.tracer
        for t in range(self.pos, end):
            frame = self.frames[t]
            if tracer is not None:
                tracer.begin(self.step_nid)
            start = tick = clock()
            for i in range(n):
                emissions[i][t] = nets[i].forward_step(states[i], frame)
                tock = clock()
                per_model[i] += tock - tick
                tick = tock
            lat.append(tick - start)
            if tracer is not None:
                tracer.end()
        steps = end - self.pos
        self.pos = current["steps"] = end
        if end == self.length:
            self.passes_done += 1
            if self.steady_bytes is None:
                self.steady_bytes = statebytes.array_bytes_by_owner(states)
        return steps, per_model, (first, len(lat))

    def slide_unit(self):
        nets = [m.net for m in self.models]
        n = len(nets)
        per_model = [0] * n
        clock = time.perf_counter_ns
        tracer = self.tracer
        span = len(self.windows[0])
        for _ in range(self.slide_count):
            k = self.cursor
            self.cursor = (k + 1) % span
            outs = [None] * n
            if tracer is not None:
                tracer.begin(self.slide_nid)
            tick = clock()
            for i in range(n):
                outs[i] = nets[i].forward(self.windows[i][k])
                tock = clock()
                per_model[i] += tock - tick
                tick = tock
            if tracer is not None:
                tracer.end()
            self.predictions.append((self.pred_steps[k], outs))
        return self.slide_count, per_model, None

    def clip_unit(self):
        per_model, outs = [], []
        for m in self.models:
            t0 = time.perf_counter_ns()
            outs.append(m.net.forward(self.stream))
            per_model.append(time.perf_counter_ns() - t0)
        if self.reference is None:
            self.reference = outs
        return self.length, per_model, None

    def setup_unit(self):
        """Set the workload up repeatedly for at least ``SETUP_UNIT_NS``."""
        clock = time.perf_counter_ns
        total = build = count = 0
        while total < SETUP_UNIT_NS:
            t0 = clock()
            cfgs = [load_config(m.path) for m in self.models]
            t1 = clock()
            nets = [build_model(cfg, m.path.parent) for cfg, m in zip(cfgs, self.models)]
            t2 = clock()
            for net in nets:
                net.init_state()
            total += clock() - t0
            build += t2 - t1
            count += 1
        return count, [total], build

    # -- schedule ----------------------------------------------------------------

    def run(self, seconds: float, shares: dict) -> "Measurement":
        """Run units for ``seconds``, then until a whole pass of the stream
        and at least one unit of every kind are done."""
        run_unit = {"setup": self.setup_unit, "step": self.step_unit,
                    "slide": self.slide_unit, "clip": self.clip_unit}
        spent = dict.fromkeys(shares, 0.0)
        deadline = time.perf_counter() + seconds
        while True:
            if time.perf_counter() < deadline:
                kind = min(shares, key=lambda k: spent[k] / shares[k])
            elif "step" in shares and self.passes_done == 0:
                kind = "step"
            else:
                pending = [k for k in shares if not self.units[k]]
                if not pending:
                    break
                kind = pending[0]
            self.probes.append(host_probe())
            t0 = time.perf_counter()
            items, ns, extra = run_unit[kind]()
            spent[kind] += time.perf_counter() - t0
            self.units[kind].append((len(self.probes) - 1, items, ns, extra))
        self.probes.append(host_probe())
        return self

    # -- summaries: ns at the reference host speed, one value per unit -----------

    def scale(self, probe: int) -> float:
        """Host speed factor of the unit after probe ``probe``: the median of
        the two probes before and the two after it, which outlasts a probe
        caught by a momentary stall."""
        return REFERENCE_PROBE_NS / statistics.median(self.probes[max(probe - 1, 0):probe + 3])

    def per_item_ns(self, kind: str, model=None):
        """ns per item of each ``kind`` unit, for all models or for one."""
        return [(sum(ns) if model is None else ns[model]) / items * self.scale(p)
                for p, items, ns, _ in self.units[kind]]

    def median_ns(self, kind: str, model=None) -> float:
        return statistics.median(self.per_item_ns(kind, model))

    def latency_percentile(self, q) -> float:
        """Median over step units of each unit's ``q``-th percentile step latency.

        Other tenants stall this VM's cores for a millisecond now and then, in
        bursts: from 0.1% to 9% of a run's steps, so a percentile over the
        whole run swings with the bursts.  A unit's 99th percentile of 256
        steps sits on its third-slowest step, which a burst in a few units
        does not move, while a cost paid on at least 1% of steps (every 64th
        step, say) shows in every unit.  A run has at least four step units.
        """
        return statistics.median(float(np.percentile(self.lat[a:b], q)) * self.scale(p)
                                 for p, _, _, (a, b) in self.units["step"])

    def median_scale(self, kind: str) -> float:
        return statistics.median(self.scale(p) for p, _, _, _ in self.units[kind])

    def clamp_events(self):
        """Logit clamp events counted by the attention caches of every pass."""
        return sum(int(obj.clamp_events[0]) for p in self.passes
                   for obj, _ in statebytes.walk(p["states"])
                   if hasattr(obj, "clamp_events"))


# -- output check ------------------------------------------------------------------


def _compare(ys, rows):
    """Failed count and worst passing relative error of outputs against rows.

    An output fails if it is non-finite or if max |y - ref| over the output
    exceeds ``TOL`` times max |ref| over the same reference output.
    """
    if not ys:
        return 0, 0.0
    try:
        y = np.stack(ys).astype(np.float64)
    except ValueError:
        return len(ys), 0.0
    if y.shape != rows.shape:
        return len(ys), 0.0
    y2 = y.reshape(len(y), -1)
    r2 = rows.reshape(len(rows), -1)
    with np.errstate(invalid="ignore"):
        delta = np.abs(y2 - r2).max(axis=1)
        scale = np.abs(r2).max(axis=1)
        rel = delta / np.where(scale > 0, scale, 1.0)
        bad = ~(rel <= TOL) | ~np.isfinite(y2).all(axis=1)
    good = rel[~bad]
    return int(bad.sum()), float(good.max()) if len(good) else 0.0


def check_outputs(models, reference, measurements) -> dict:
    """Check every step emission and sliding prediction against ``reference``,
    the offline ``forward`` of each model over the whole stream."""
    attempted = failed = 0
    worst = 0.0
    for i, m in enumerate(models):
        ref = reference[i].array.astype(np.float64)
        for meas in measurements:
            usable = len(ref) == meas.length - m.warmup
            for p in meas.passes:
                em = p["emissions"][i]
                steps = p["steps"]
                extra = sum(1 for t in range(min(m.warmup, steps)) if em[t] is not None)
                emitted = [t for t in range(m.warmup, steps) if em[t] is not None]
                missing = steps - m.warmup - len(emitted) if steps > m.warmup else 0
                attempted += extra + missing + len(emitted)
                failed += extra + missing
                if not usable:
                    failed += len(emitted)
                    continue
                bad, w = _compare([em[t].array for t in emitted],
                                  ref[np.asarray(emitted, dtype=np.int64) - m.warmup])
                failed += bad
                worst = max(worst, w)
            ys, idx = [], []
            for e, outs in meas.predictions:
                ya = outs[i].array
                if len(ya):
                    ys.append(ya[-1])
                    idx.append(e - m.warmup)
                else:
                    failed += 1
                attempted += 1
            if not usable:
                failed += len(ys)
                continue
            bad, w = _compare(ys, ref[np.asarray(idx, dtype=np.int64)] if idx else ref[:0])
            failed += bad
            worst = max(worst, w)
    return {"attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "worst_rel": worst, "tol": TOL}


# -- metrics -----------------------------------------------------------------------


def end_to_end(meas: Measurement, checked: dict) -> dict:
    return {
        "setup_s": meas.median_ns("setup") / 1e9,
        "steps_per_s": 1e9 / meas.median_ns("step"),
        "step_latency_p50_us": meas.latency_percentile(50) / 1e3,
        "step_latency_p99_us": meas.latency_percentile(99) / 1e3,
        "preds_per_s": 1e9 / meas.median_ns("slide"),
        "clip_frames_per_s": 1e9 / meas.median_ns("clip"),
        "state_bytes": float(sum(meas.steady_bytes.values())),
        "passed_share": 1.0 - checked["failed_share"],
    }


def per_config(models, meas: Measurement) -> dict:
    """Analytic FLOP ratio beside the measured wall ratio, per config."""
    out = {}
    for i, m in enumerate(models):
        step = count_flops(m.cfg, m.net, "step", m.rf)["total"]["flops"]
        pred = count_flops(m.cfg, m.net, "offline", m.rf)["total"]["flops"]
        steps_per_s = 1e9 / meas.median_ns("step", i)
        preds_per_s = 1e9 / meas.median_ns("slide", i)
        out[m.name] = {"step_flops": step, "pred_flops": pred, "flop_ratio": pred / step,
                       "steps_per_s": steps_per_s, "preds_per_s": preds_per_s,
                       "wall_ratio": steps_per_s / preds_per_s}
    return out


def per_layer(models, frame_shape, untraced: Measurement, traced: Measurement,
              tracer: spans.Tracer, configs: dict) -> dict:
    groups = spans.self_times(tracer)
    step, slide = groups["bench.step"], groups["bench.slide"]
    n_steps = step["roots"]
    # traced times at the reference host speed, like the untraced ones
    scale = {id(step): traced.median_scale("step"), id(slide): traced.median_scale("slide")}

    def us(group, fam, kinds=None):
        """Self time of a layer per workload step or per sliding prediction."""
        ns = sum(v for (f, k), v in group["self_ns"].items()
                 if f == fam and (kinds is None or k in kinds))
        return ns / group["roots"] / 1e3 * scale[id(group)]

    def counter(name):
        return tracer.counters.get(("bench.step", name), 0) / n_steps

    flops = {}
    for m in models:
        spans.step_flops_by_family(m.net, frame_shape, flops)
    owned = untraced.steady_bytes
    out = {}
    for fam in ("graph", "conv", "attention", "pool", "norm"):
        out[f"{fam}.step_us"] = us(step, fam)
        out[f"{fam}.clip_us"] = us(slide, fam)
    for fam in ("graph", "conv", "attention"):
        out[f"{fam}.step_flops"] = flops.get(fam, 0.0)
        t = out[f"{fam}.step_us"]
        out[f"{fam}.step_gflops"] = out[f"{fam}.step_flops"] / (t * 1e3) if t else 0.0
    out["graph.gc_us"] = us(step, "graph", {"gc"})
    out["attention.sda_full_us"] = us(step, "attention", {"sda_full"})
    out["graph.residual_bytes"] = float(owned.get("graph", 0))
    for fam in ("conv", "attention", "pool"):
        out[f"{fam}.cache_bytes"] = float(owned.get(fam, 0))
    out["attention.refreshes"] = counter("attention.refreshes")
    out["attention.clamp_events"] = float(untraced.clamp_events() + traced.clamp_events())
    out["pool.refreshes"] = counter("pool.refreshes")
    out["containers.step_self_us"] = us(step, "containers")
    out["tensor.wrap_calls"] = step["calls"].get(("tensor", "wrap"), 0) / n_steps
    out["tensor.wrap_copy_bytes"] = counter("tensor.wrap_copy_bytes")
    out["tensor.wrap_us"] = us(step, "tensor")
    out["config.build_s"] = statistics.median(
        build / items * untraced.scale(p) for p, items, _, build in untraced.units["setup"]) / 1e9
    step_flops = sum(c["step_flops"] for c in configs.values())
    pred_flops = sum(c["pred_flops"] for c in configs.values())
    out["cli.flop_ratio"] = pred_flops / step_flops
    out["cli.wall_ratio"] = untraced.median_ns("slide") / untraced.median_ns("step")
    out["trace.overhead_share"] = traced.median_ns("step") / untraced.median_ns("step") - 1.0
    out["trace.step_us"] = sum(traced.lat) / len(traced.lat) / 1e3 * scale[id(step)]
    out["trace.self_sum_us"] = sum(v for (f, _), v in step["self_ns"].items()
                                   if f != "bench") / n_steps / 1e3 * scale[id(step)]
    return {k: out[k] for k in LAYER_UNITS}


# -- environment ---------------------------------------------------------------------


def _blas_threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": int(fn()), "source": sym}
    return {"threads": None, "source": f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"}


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        return None


def _cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def environment(seed: int) -> dict:
    """Mirrors ``cinet.cli._environment()`` and adds what the timings depend on."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "commit": _commit(),
    }


# -- one run -----------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, steps: int | None = None) -> dict:
    """Measure one workload; ``steps`` shortens the stream (for tests)."""
    workload = WORKLOADS[name]
    models, (frame_shape, dtype) = load_models(workload)
    n = max(m.warmup for m in models) + (steps or workload.steps)
    stream = random_stream(seed, n, frame_shape, dtype)
    report = {"workload": name, "configs": [m.name for m in models], "stream_frames": n,
              "seconds": seconds, "trace": int(trace), "environment": environment(seed)}
    untraced = Measurement(models, stream, workload.slide_count)
    untraced.run(seconds / 2 if trace else seconds, SHARES)
    measurements = [untraced]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        traced = Measurement(models, stream, workload.slide_count, tracer)
        with spans.instrument([m.net for m in models], tracer):
            traced.run(seconds / 2, TRACED_SHARES)
        measurements.append(traced)
    checked = check_outputs(models, untraced.reference, measurements)
    configs = per_config(models, untraced)
    report["correctness"] = checked
    report["per_config"] = configs
    report["end_to_end"] = end_to_end(untraced, checked)
    report["samples"] = {
        **{f"{kind}_units": len(units) for kind, units in untraced.units.items()},
        "setups": sum(items for _, items, _, _ in untraced.units["setup"]),
        "steps": len(untraced.lat),
        "predictions": len(untraced.predictions),
        "passes": untraced.passes_done,
        "host_scale": untraced.median_scale("step"),
    }
    report["unscaled"] = {  # medians without the host-speed scaling, for reference
        "steps_per_s": 1e9 / statistics.median(
            sum(ns) / items for _, items, ns, _ in untraced.units["step"]),
        "preds_per_s": 1e9 / statistics.median(
            sum(ns) / items for _, items, ns, _ in untraced.units["slide"]),
    }
    if trace:
        report["per_layer"] = per_layer(models, frame_shape, untraced, traced, tracer, configs)
        report["traced_samples"] = {"steps": len(traced.lat),
                                    "predictions": len(traced.predictions),
                                    "spans": len(tracer)}
        report["tracer"] = tracer
    return report
