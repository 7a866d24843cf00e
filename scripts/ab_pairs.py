#!/usr/bin/env python3
"""Alternating A/B pairs of ``perfbench/run.py`` on two checkouts.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --workload skeleton \\
        --pairs 10 --seconds 30 --seed0 301

Pair ``i`` runs the benchmark once in each checkout, one subprocess at a
time, with seed ``seed0 + i``: the parent first in even pairs, the change
first in odd ones.  Each run's last output line is the benchmark's JSON
result.  Per end-to-end metric the script prints both sides' medians and
quartile distances (numpy's linear quartiles), the ratio change / parent,
the pairs the change won (the direction is the metric's ``better`` in
``BENCHMARK.json``; ties count for neither side) and whether the gain rule
holds: the change won at least nine tenths of the pairs, and its
median differs from the parent's, for the better, by more than the parent's
quartile distance.  A metric is flagged as a regression when the change's
median is worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json``, a share of the parent's median.  A run that fails or
reports a failed output is shown and left out of the pairs.

``--out PATH`` also writes the run as JSON: the workload, pair count,
seconds and ``seed0``; per metric the summary above, with its ``bound``
and ``regression`` flag; the commit of each
checkout (``null`` outside git, ``dirty`` when tracked files differ from
it) and the environment of the machine.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict:
    """``{metric: value}`` of one run, read from its last non-empty line;
    ``{}`` when that line is not the benchmark's result or an output failed."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}
    if not isinstance(result, dict) or not result.get("correct"):
        return {}
    return {name: m["value"] for name, m in result.get("metrics", {}).items()}


def rules(bench: dict) -> tuple:
    """``({name: better}, {name: bound})`` of the end-to-end metrics of a
    parsed ``BENCHMARK.json``."""
    metrics = bench["end_to_end"]
    return {m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics}


def summarise(pairs: list, better: dict, bounds: dict | None = None) -> dict:
    """Per metric of ``better`` (``{name: "higher" | "lower"}``), the summary
    of ``pairs``, a list of ``(parent, change)`` result dicts.  A metric with
    a bound in ``bounds`` (``{name: share}``) gets a regression flag; one
    without gets ``None``."""
    bounds = bounds or {}
    out = {}
    for name, direction in better.items():
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        par, chg = np.array(both, dtype=float).T
        sign = 1.0 if direction == "higher" else -1.0
        q1, med_p, q3 = np.percentile(par, [25, 50, 75])
        c1, med_c, c3 = np.percentile(chg, [25, 50, 75])
        wins = int(np.sum(sign * (chg - par) > 0))
        gain = sign * (med_c - med_p)
        bound = bounds.get(name)
        out[name] = {
            "pairs": len(both), "parent_median": float(med_p), "parent_iqr": float(q3 - q1),
            "change_median": float(med_c), "change_iqr": float(c3 - c1),
            "ratio": med_c / med_p if med_p else math.nan,
            "wins": wins,
            "rule": bool(wins >= math.ceil(0.9 * len(both)) and gain > q3 - q1),
            "bound": bound,
            "regression": None if bound is None else bool(-gain > bound * abs(med_p)),
        }
    return out


def format_table(summary: dict) -> str:
    rows = [f"{'metric':<22} {'parent':>12} {'p.IQR':>10} {'change':>12} {'c.IQR':>10} "
            f"{'ratio':>7} {'wins':>6}  {'rule':<5}  regression"]
    flags = {None: "-", True: "YES", False: "no"}
    for name, s in summary.items():
        rows.append(f"{name:<22} {s['parent_median']:>12.6g} {s['parent_iqr']:>10.4g} "
                    f"{s['change_median']:>12.6g} {s['change_iqr']:>10.4g} {s['ratio']:>7.4f} "
                    f"{s['wins']:>3}/{s['pairs']:<2}  {'holds' if s['rule'] else 'no':<5}  "
                    f"{flags[s['regression']]}")
    return "\n".join(rows)


def record(workload: str, pairs: int, seconds: int, seed0: int, summary: dict,
           checkouts: dict, environment: dict) -> dict:
    """The JSON record of one ``ab_pairs`` run; ``pairs`` counts the pairs
    that both sides completed."""
    return {"workload": workload, "pairs": pairs, "seconds": seconds, "seed0": seed0,
            "metrics": summary, "checkouts": checkouts, "environment": environment}


def checkout_commit(checkout: Path) -> dict:
    """``{"commit", "dirty"}`` of a checkout; ``None`` for both outside git."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(checkout), *cmd], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    return {"commit": commit,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if commit else None}


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": 1}  # perfbench/run.py fixes one BLAS thread


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30, help="measured time of each run")
    p.add_argument("--seed0", type=int, default=301, help="seed of the first pair")
    p.add_argument("--out", type=Path, help="also write the run's JSON record here")
    args = p.parse_args(argv)
    better, bounds = rules(json.loads((ROOT / "BENCHMARK.json").read_text()))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(sides[side], args.workload, seed, args.seconds) for side in order}
        print(f"pair {i} seed {seed} ({order[0]} first): "
              + ", ".join(f"{side} {'failed' if not got[side] else 'ok'}" for side in order),
              flush=True)
        if got["parent"] and got["change"]:
            pairs.append((got["parent"], got["change"]))
    print(f"workload {args.workload}, {len(pairs)} of {args.pairs} pairs, "
          f"{args.seconds} s runs")
    summary = summarise(pairs, better, bounds)
    print(format_table(summary))
    if args.out:
        checkouts = {side: checkout_commit(path) for side, path in sides.items()}
        rec = record(args.workload, len(pairs), args.seconds, args.seed0, summary, checkouts,
                     environment())
        args.out.write_text(json.dumps(rec, indent=2) + "\n")
    return 0 if len(pairs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
