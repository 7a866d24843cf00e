#!/usr/bin/env python3
"""Write the reference outputs that ``tests/test_reference.py`` compares against.

    python3 scripts/make_reference.py [--out tests/data/reference.npz]

For each bundled config, in f32 and in f64, the file holds the step-mode
outputs (``forward_steps`` from a fresh state) and the clip-mode output
(``forward``) over one seeded ``STREAM``-frame stream, under the keys
``<config>/<dtype>/step`` and ``<config>/<dtype>/clip``.  ``STREAM`` is long
enough for ``toy_costgcn``, whose warm-up is 299 steps, to emit.

A change that moves outputs on purpose regenerates the file and states the
largest move it makes.
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "reference.npz")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    outputs = reference_outputs()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(args.out, **outputs)
    for key, a in outputs.items():
        print(f"{key}: {a.shape} {a.dtype}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
