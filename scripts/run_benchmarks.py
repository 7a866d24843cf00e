#!/usr/bin/env python3
"""Equivalence + FLOP-ratio + throughput sweep over the bundled configs.

For each config: verify offline/online equivalence over ``LENGTHS`` frames
(300 for the skeleton network, the attention window for encoders, 64 for
plain conv stacks), then report the per-prediction cost of sliding-window
processing next to the steady per-step cost, their ratio, and measured
wall-clock throughput in both modes with their ratio (steps/s over
sliding-window predictions/s), and the frames/s of one clip-mode ``forward``
over a whole ``STREAM``-frame stream.  A prediction is a clip-mode
``forward`` over one receptive field, both where its FLOPs are counted and
where it is timed.  Steps/s times ``STEPS`` steps past warm-up (as
``cinbench throughput --mode step`` does), so a model with a long warm-up is
not timed on steps that emit nothing.
"""

import sys
from pathlib import Path

from cinet.cli import check_equivalence, count_flops, measure_throughput
from cinet.config import build_model, load_config

LENGTHS = {"toy_costgcn": 300, "encoder_one_block": 64, "encoder_two_block": 48}
STREAM = 400  # frames of the whole-stream clip pass
STEPS = 64  # timed steps per repeat


def bench(path: Path) -> bool:
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    t = LENGTHS.get(cfg["name"], 64)

    check = check_equivalence(cfg, model, length=t, seed=1, tol=1e-4)
    window = model.receptive_field()
    step = count_flops(cfg, model, "step", window)["total"]["flops"]
    offline = count_flops(cfg, model, "offline", window)["total"]["flops"]
    steps_per_s = measure_throughput(cfg, model, "step", STEPS, 1, 5)["throughput"]
    tp_off = measure_throughput(cfg, model, "offline", window, 1, 5)
    tp_clip = measure_throughput(cfg, model, "offline", STREAM, 1, 5)

    print(f"{cfg['name']:>20}  T={t:<4d} rf={window:<4d} "
          f"equiv={'ok' if check['pass'] else 'FAIL'} "
          f"(max_rel {check['max_rel']:.1e})  "
          f"flops/pred offline={offline:.3e} step={step:.3e} "
          f"ratio={offline / step:6.1f}x  "
          f"steps/s={steps_per_s:8.1f} "
          f"clip frames/s={tp_clip['throughput'] * STREAM:9.0f} "
          f"slide preds/s={tp_off['throughput']:8.1f} "
          f"wall ratio={steps_per_s / tp_off['throughput']:6.1f}x")
    return bool(check["pass"])


def main() -> int:
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    ok = True
    for path in sorted(config_dir.glob("*.json")):
        ok &= bench(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
