"""cinbench: offline/online equivalence checks, FLOP counting, throughput.

Subcommands
-----------
- ``check``: run ``forward`` and ``forward_steps`` on the same seeded random
  stream and report the maximum absolute/relative deviation.
- ``flops``: analytic MAC/FLOP counts, per stage of the built model (a
  ``batchnorm`` folded into the ``conv3d`` before it shares that conv's
  row, ``conv3d+batchnorm``) and total.  ``--mode step``
  reports steady-state cost per consumed input step; ``--mode offline``
  reports one full clip pass, i.e. the per-prediction cost of sliding-window
  processing.
- ``throughput``: wall-clock steps/s (step mode) or clips/s (offline mode),
  single stream, single thread, median over repeats.  Step mode times
  ``--length`` steps past warm-up: each repeat first advances a fresh state
  through ``warmup()`` steps untimed, so no timed step is a no-op.

Conventions (also embedded in every report): FLOPs = 2 * MACs for
multiply-accumulate work; exponential, division and comparison count as one
FLOP each.  Weight init and input streams come from the documented portable
generator so reports reproduce across machines.

Exit codes: 0 pass, 1 tolerance/measurement failure, 2 config error or
out-of-range argument.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import rng
from .config import build_model, load_config, random_stream, stage_types
from .containers import Sequential
from .errors import ConfigError
from .module import OpCount
from .tensor import Tensor

CONVENTIONS = {
    "flops_per_mac": 2,
    "unit_ops": "exp, division and comparison count as 1 FLOP",
    "maintenance": "periodic cache refreshes are excluded from counts",
}


def _environment() -> dict:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }


def _base_report(cfg: dict, mode: str, length: int, model: Sequential) -> dict:
    return {
        "model": cfg["name"],
        "mode": mode,
        "length": length,
        "prng": rng.ALGORITHM,
        "flop_conventions": CONVENTIONS,
        "temporal": {
            "delay": model.delay(),
            "warmup": model.warmup(),
            "receptive_field": model.receptive_field(),
            "stride": model.stride(),
        },
        "environment": _environment(),
    }


def _frame_shape(cfg: dict) -> tuple:
    shape = cfg.get("input", {}).get("shape")
    if not shape:
        raise ConfigError("input.shape", "required to run the benchmark")
    return tuple(shape)


def _nonnegative(flag: str, value) -> None:
    if not value >= 0:  # NaN fails too
        raise ConfigError(flag, f"must be >= 0, got {value}")


def _ops_dict(c: OpCount) -> dict:
    return {"macs": c.macs, "flops": c.flops}


def count_flops(cfg: dict, model: Sequential, mode: str, length: int) -> dict:
    _nonnegative("--length", length)
    frame = _frame_shape(cfg)
    report = _base_report(cfg, mode, length, model)
    costs = model._stage_costs(frame, None if mode == "step" else length)
    total = sum(costs, OpCount())
    report["layers"] = [{"type": kind, **_ops_dict(cost)}
                        for kind, cost in zip(stage_types(cfg["layers"]), costs, strict=True)]
    report["total"] = _ops_dict(total)
    if mode == "step":
        report["per_step"] = _ops_dict(total)
        report["stream_total"] = _ops_dict(total.scaled(length))
    else:
        outs = model.out_len(length)
        report["outputs"] = outs
        report["per_output"] = _ops_dict(total.scaled(1 / outs) if outs else OpCount())
    return report


def check_equivalence(cfg: dict, model: Sequential, length: int, seed: int,
                      tol: float) -> dict:
    _nonnegative("--tol", tol)
    frame = _frame_shape(cfg)
    if length <= model.warmup():
        raise ConfigError("--length", f"{length} steps is within the model warm-up "
                                      f"({model.warmup()}); nothing would be compared")
    x = random_stream(seed, length, frame, cfg.get("dtype", "f32"))
    offline = model.forward(x)
    online = model.forward_steps(model.init_state(), x)
    report = _base_report(cfg, "check", length, model)
    report["seed"] = seed
    report["tol"] = tol
    if offline.shape != online.shape:
        report["pass"] = False
        report["error"] = f"shape mismatch: {offline.shape} vs {online.shape}"
        return report
    if offline.size == 0:
        max_abs = max_rel = 0.0
    else:
        diff = np.abs(offline.array.astype(np.float64) - online.array.astype(np.float64))
        max_abs = float(diff.max())
        scale = float(np.abs(offline.array).max())
        max_rel = max_abs / scale if scale > 0 else max_abs
    report["outputs"] = int(offline.shape[0])
    report["max_abs"] = max_abs
    report["max_rel"] = max_rel
    report["pass"] = bool(max_rel <= tol)
    return report


def measure_throughput(cfg: dict, model: Sequential, mode: str, length: int,
                       warmup: int, repeats: int, seed: int = 0) -> dict:
    if repeats < 3:
        raise ConfigError("--repeats", "need at least 3 repeats")
    _nonnegative("--length", length)
    _nonnegative("--warmup", warmup)
    report = _base_report(cfg, mode, length, model)
    report["warmup_repeats"] = warmup
    report["repeats"] = repeats
    if length == 0:
        report["no_data"] = True
        return report
    frame = _frame_shape(cfg)
    lead = report["warmup_steps"] = model.warmup() if mode == "step" else 0
    x = random_stream(seed, lead + length, frame, cfg.get("dtype", "f32"))
    frames = [Tensor.wrap(f) for f in x.array]
    rates = []
    for r in range(warmup + repeats):
        if mode == "step":
            state = model.init_state()
            for f in frames[:lead]:
                model.forward_step(state, f)
            t0 = time.perf_counter()
            for f in frames[lead:]:
                model.forward_step(state, f)
        else:
            t0 = time.perf_counter()
            model.forward(x)
        elapsed = time.perf_counter() - t0
        if r >= warmup:
            rates.append((length if mode == "step" else 1) / elapsed)
    report["unit"] = "steps/s" if mode == "step" else "clips/s"
    report["throughput"] = float(np.median(rates))
    report["samples"] = rates
    return report


# -- command plumbing ----------------------------------------------------------


def _write_outputs(report: dict, args, csv_fields: list) -> None:
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    if args.csv:
        print(",".join(str(report.get(f, "")) for f in csv_fields))


def _cmd_check(args) -> int:
    cfg = load_config(args.model)
    model = build_model(cfg, Path(args.model).parent)
    report = check_equivalence(cfg, model, args.length, args.seed, args.tol)
    _write_outputs(report, args, ["model", "mode", "length", "max_abs", "max_rel", "tol", "pass"])
    if not args.csv:
        if "error" in report:
            print(f"{report['model']}: FAIL ({report['error']})")
        else:
            print(f"{report['model']}: max_abs={report['max_abs']:.3e} "
                  f"max_rel={report['max_rel']:.3e} tol={args.tol:.1e} "
                  f"-> {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _cmd_flops(args) -> int:
    cfg = load_config(args.model)
    model = build_model(cfg, Path(args.model).parent)
    report = count_flops(cfg, model, args.mode, args.length)
    report_total = report["total"]
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    if args.csv:
        print(f"{cfg['name']},{args.mode},{args.length},"
              f"{report_total['macs']},{report_total['flops']}")
    else:
        for i, row in enumerate(report["layers"]):
            print(f"  layer[{i}] {row['type']}: macs={row['macs']:.6g} flops={row['flops']:.6g}")
        print(f"{cfg['name']} ({args.mode}, T={args.length}): "
              f"macs={report_total['macs']:.6g} flops={report_total['flops']:.6g}")
    return 0


def _cmd_throughput(args) -> int:
    cfg = load_config(args.model)
    model = build_model(cfg, Path(args.model).parent)
    report = measure_throughput(cfg, model, args.mode, args.length,
                                args.warmup, args.repeats, args.seed)
    _write_outputs(report, args, ["model", "mode", "length", "throughput", "unit"])
    if not args.csv:
        if report.get("no_data"):
            print(f"{cfg['name']}: no data (T=0)")
        else:
            print(f"{cfg['name']} ({args.mode}): {report['throughput']:.2f} {report['unit']}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cinbench", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", required=True, help="model config JSON")
        sp.add_argument("--length", type=int, default=64, help="stream/clip length T")
        sp.add_argument("--report", help="write the full JSON report here")
        sp.add_argument("--csv", action="store_true", help="one-line CSV summary")

    c = sub.add_parser("check", help="offline/online equivalence")
    common(c)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tol", type=float, default=1e-4)
    c.set_defaults(fn=_cmd_check)

    f = sub.add_parser("flops", help="analytic MAC/FLOP counts")
    common(f)
    f.add_argument("--mode", choices=["step", "offline"], default="step")
    f.set_defaults(fn=_cmd_flops)

    t = sub.add_parser("throughput", help="wall-clock throughput")
    common(t)
    t.add_argument("--mode", choices=["step", "offline"], default="step")
    t.add_argument("--warmup", type=int, default=1)
    t.add_argument("--repeats", type=int, default=5)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=_cmd_throughput)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
