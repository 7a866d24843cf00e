#!/usr/bin/env python3
"""Write the reference outputs that ``tests/test_reference.py`` compares against.

    python3 scripts/make_reference.py [--out tests/data/reference.npz]
    python3 scripts/make_reference.py --compare [--out tests/data/reference.npz]

For each bundled config, in f32 and in f64, the file holds the step-mode
outputs (``forward_steps`` from a fresh state) and the clip-mode output
(``forward``) over one seeded ``STREAM``-frame stream, under the keys
``<config>/<dtype>/step`` and ``<config>/<dtype>/clip``.  ``STREAM`` is long
enough for ``toy_costgcn``, whose warm-up is 299 steps, to emit.

A change that moves outputs on purpose states the largest move it makes,
and regenerates the file when a move exceeds the test's tolerance.
``--compare`` prints, per key, ``bit-identical`` or the largest move
``max|d|/max|ref|`` of the current outputs against the file, and writes
nothing.  It exits 1 when a key is missing or cannot be compared, or when a
move exceeds ``TOLERANCE``, the gate of ``tests/test_reference.py``.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
STREAM = 400  # frames per stream
SEED = 11  # seed of every config's input stream
DTYPES = ("f32", "f64")
TOLERANCE = 1e-6  # largest move max|d|/max|ref| that keeps the file


def reference_outputs() -> dict:
    """``{"<config>/<dtype>/<mode>": output}`` of the cinet on the import path."""
    from cinet.config import build_model, load_config, random_stream

    out = {}
    for path in sorted(CONFIGS.glob("*.json")):
        for dtype in DTYPES:
            cfg = dict(load_config(path), dtype=dtype)
            model = build_model(cfg, CONFIGS)
            x = random_stream(SEED, STREAM, tuple(cfg["input"]["shape"]), dtype)
            key = f"{path.stem}/{dtype}"
            out[f"{key}/step"] = model.forward_steps(model.init_state(), x).array
            out[f"{key}/clip"] = model.forward(x).array
    return out


def compare(outputs: dict, reference: dict) -> dict:
    """Per key of either dict: ``"bit-identical"``, the largest move
    ``max|d|/max|ref|`` as a float, or why the two cannot be compared."""
    moves = {}
    for key in sorted(set(outputs) | set(reference)):
        if key not in reference or key not in outputs:
            moves[key] = "missing from the " + ("reference" if key in outputs else "outputs")
            continue
        y, ref = outputs[key], reference[key]
        if y.shape != ref.shape or y.dtype != ref.dtype:
            moves[key] = f"{y.shape} {y.dtype} against reference {ref.shape} {ref.dtype}"
        elif y.tobytes() == ref.tobytes():
            moves[key] = "bit-identical"
        else:
            diff = np.abs(y.astype(np.float64) - ref).max()
            scale = np.abs(ref.astype(np.float64)).max()
            moves[key] = float(diff / scale) if scale > 0 else float(diff)
    return moves


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "reference.npz")
    p.add_argument("--compare", action="store_true",
                   help="print each output's move against --out instead of writing it")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    outputs = reference_outputs()
    if args.compare:
        with np.load(args.out) as ref:
            moves = compare(outputs, dict(ref))
        for key, move in moves.items():
            print(f"{key}: {move:.2g}" if isinstance(move, float) else f"{key}: {move}")
        ok = all(move == "bit-identical" or (isinstance(move, float) and move <= TOLERANCE)
                 for move in moves.values())
        return 0 if ok else 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(args.out, **outputs)
    for key, a in outputs.items():
        print(f"{key}: {a.shape} {a.dtype}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
