#!/usr/bin/env python3
"""Benchmark cinet's step mode against sliding-window recomputation.

    python3 perfbench/run.py --workload skeleton --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The full report, with the environment and per-config numbers,
goes to ``.bench_out/`` at the repository root, and a traced run's spans to
``.bench_out/<workload>-spans.npz``.
Exit status: 0 when every checked output passed, 1 when one failed, 2 when
the repository's sources or configs are missing.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("skeleton", "encoder", "video")


def _parser():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="seed of the input stream")
    p.add_argument("--seconds", type=int, required=True, help="measured time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    return p


def _print_report(report, metrics, units):
    env = report["environment"]
    print(f"workload {report['workload']} ({', '.join(report['configs'])}), "
          f"{report['stream_frames']} frames, seed {env['seed']}, "
          f"commit {env['commit'] or 'unknown (not a git checkout)'}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']['threads']}, nproc {env['nproc']}, {env['cpu']}")
    print("samples: " + ", ".join(f"{k} {v}" for k, v in report["samples"].items()))
    if "traced_samples" in report:
        print("traced: " + ", ".join(f"{k} {v}" for k, v in report["traced_samples"].items()))
    c = report["correctness"]
    print(f"outputs checked {c['attempted']}, failed {c['failed']}, "
          f"failed_share {c['failed_share']:.6g}, worst relative error {c['worst_rel']:.3g} "
          f"(tolerance {c['tol']:g})")
    for name, cfg in report["per_config"].items():
        print(f"  {name}: steps_per_s {cfg['steps_per_s']:.6g} 1/s, preds_per_s "
              f"{cfg['preds_per_s']:.6g} 1/s, cli.wall_ratio {cfg['wall_ratio']:.4g} x, "
              f"cli.flop_ratio {cfg['flop_ratio']:.4g} x")
    for name, value in metrics.items():
        print(f"{name:<26} {value:.6g} {units[name]}")
    if report["trace"]:
        print("norm inside StGcnBlock/EncoderBlock is called through _apply, so its time "
              "stays in graph/attention self time")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "cinet" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no cinet sources or configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import bench

    report = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, units = ((report["per_layer"], bench.LAYER_UNITS) if args.trace
                      else (report["end_to_end"], bench.E2E_UNITS))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:  # one spans file per workload, overwritten by each traced run
        tracer = report.pop("tracer")
        trace_file = out_dir / f"{args.workload}-spans.npz"
        # spans: rows of (name index, start ns, end ns, parent row or -1)
        np.savez(trace_file, spans=tracer.as_array(),
                 names=np.array([label for label, _, _ in tracer.names]))
        print(f"spans: {trace_file.relative_to(ROOT)}")
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report))
    _print_report(report, metrics, units)
    print(f"report: {out_file.relative_to(ROOT)}")
    c = report["correctness"]
    print(json.dumps({
        "correct": c["failed"] == 0,
        "attempted": c["attempted"],
        "failed": c["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if c["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
