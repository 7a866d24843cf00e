"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are fixed here and nowhere else: equivalence 1e-4 relative (f32)
and 1e-9 (f64); FLOP-ratio bands as stated per criterion; soak deviation
1e-3; momentum identity exact and 1e-12 on the arithmetic case.
"""

import time

import numpy as np

from cinet.attention import RetroAttention, SingleAttention, sda_full
from cinet.cli import count_flops, measure_throughput
from cinet.config import build_model
from cinet.containers import Parallel, Residual, Sequential
from cinet.conv import TemporalConv
from cinet.norm import BatchNorm, step_momentum
from cinet.pool import TemporalPool
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor

SEEDS = range(16)
TOL = {"f32": 1e-4, "f64": 1e-9}


def tensors(rng, shape, dtype, scale=0.6):
    return rand_tensor(rng, shape, dtype=dtype, scale=scale)


def assert_equivalent(module, x, tol):
    offline = module.forward(x)
    online = module.forward_steps(module.init_state(), x)
    assert offline.shape == online.shape, (offline.shape, online.shape)
    assert offline.dtype == online.dtype == x.dtype  # no silent upcasts
    dev = max_rel_dev(online.array, offline.array)
    assert dev < tol, f"deviation {dev:.3e} over tol {tol:.0e}"


# -- 1. offline/online equivalence ------------------------------------------------


def test_ac1_equivalence_suite():
    started = time.perf_counter()
    for dtype in ("f32", "f64"):
        tol = TOL[dtype]
        # temporal convolutions over the full (K_T, D_T, P_T) grid
        for k_t in (1, 3, 9):
            for d_t in (1, 2):
                for p_t in range(k_t):
                    for seed in SEEDS:
                        rng = np.random.default_rng(1000 * k_t + 100 * d_t + 10 * p_t + seed)
                        conv = TemporalConv(
                            tensors(rng, (2, 2, k_t, 2, 2), dtype),
                            tensors(rng, (2,), dtype),
                            dilation=d_t, padding=p_t,
                        )
                        t = conv.receptive_field() + 6
                        assert_equivalent(conv, tensors(rng, (t, 2, 3, 3), dtype), tol)
        # pooling
        for pool in (TemporalPool("avg", 4), TemporalPool("avg", 8, padding=3),
                     TemporalPool("max", 4), TemporalPool("max", 8)):
            for seed in SEEDS:
                rng = np.random.default_rng(333 + seed)
                assert_equivalent(pool, tensors(rng, (20, 2, 3), dtype), tol)
        # spatio-temporal graph blocks on 25-node skeletons
        from test_graph import make_block
        for seed in SEEDS:
            rng = np.random.default_rng(777 + seed)
            block = make_block(rng, v=25, c_in=4, c_out=4)
            assert_equivalent(block, tensors(rng, (24, 4, 25), dtype), tol)
        # encoder blocks
        from test_attention import make_encoder
        for n in (4, 16, 64):
            for mode in ("retro", "single"):
                for seed in SEEDS:
                    rng = np.random.default_rng(100 * n + seed)
                    block = make_encoder(rng, mode, n=n, d=4)
                    assert_equivalent(block, tensors(rng, (n + 12, 4), dtype, 0.4), tol)
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"equivalence suite took {elapsed:.0f}s"
    print(f"\n[AC1] offline/online equivalence (conv/pool/graph/encoder, "
          f"16 seeds, f32+f64, {elapsed:.0f}s): PASS")


# -- 2. attention oracle -------------------------------------------------------------


def test_ac2_attention_oracle_with_negative_control():
    d = 4
    for n in (1, 2, 4, 8, 64):
        retro, single = RetroAttention(n, d), SingleAttention(n, d)
        rs, ss = retro.init_state(), single.init_state()
        rng = np.random.default_rng(n)
        q, k, v = (tensors(rng, (128, d), "f32") for _ in range(3))
        for t in range(128):
            args = tuple(Tensor.wrap(a.array[t]) for a in (q, k, v))
            r, s = retro.att_step(rs, *args), single.att_step(ss, *args)
            if t < n - 1:
                assert r is None and s is None
                continue
            win = slice(t - n + 1, t + 1)
            ref = sda_full(Tensor.wrap(q.array[win]), Tensor.wrap(k.array[win]),
                           Tensor.wrap(v.array[win]))
            assert max_rel_dev(r.array, ref.array) < 1e-4
            assert max_rel_dev(s.array, ref.array[-1]) < 1e-4
    # negative control: dropping the 1/sqrt(d) scaling in the incremental
    # updates must break window equality
    broken = RetroAttention(8, d, scale_updates=False)
    bs = broken.init_state()
    rng = np.random.default_rng(99)
    q, k, v = (tensors(rng, (64, d), "f32") for _ in range(3))
    worst = 0.0
    for t in range(64):
        out = broken.att_step(bs, Tensor.wrap(q.array[t]), Tensor.wrap(k.array[t]),
                              Tensor.wrap(v.array[t]))
        if out is None or t == 7:
            continue
        win = slice(t - 7, t + 1)
        ref = sda_full(Tensor.wrap(q.array[win]), Tensor.wrap(k.array[win]),
                       Tensor.wrap(v.array[win]))
        worst = max(worst, max_rel_dev(out.array, ref.array))
    assert worst > 1e-4, "unscaled updates unexpectedly matched the oracle"
    print("\n[AC2] retro/single attention == sda_full on every window "
          "(n in {1,2,4,8,64}, 128 steps) and scaling negative control: PASS")


# -- 3. ST-GCN FLOP ratio --------------------------------------------------------------


def toy_costgcn_cfg(t_total=300):
    blocks = [
        {"type": "stgcn_block", "v": 25, "partitions": 3, "c_in": 3, "c_out": 16,
         "tc_kernel": 9, "init": {"scheme": "uniform", "seed": 21}},
    ] + [
        {"type": "stgcn_block", "v": 25, "partitions": 3, "c_in": 16, "c_out": 16,
         "tc_kernel": 9, "init": {"scheme": "uniform", "seed": 22 + i}}
        for i in range(3)
    ]
    pool_window = t_total - 4 * 8  # remaining frames after four K_T=9 blocks
    head = {"type": "head", "pool_window": pool_window, "classes": 10,
            "init": {"scheme": "uniform", "seed": 30}}
    return {"name": "toy_costgcn", "dtype": "f32",
            "input": {"shape": [3, 25]}, "layers": blocks + [head]}


def test_ac3_stgcn_flop_ratio():
    t = 300
    cfg = toy_costgcn_cfg(t)
    model = build_model(cfg)
    step = count_flops(cfg, model, "step", t)
    offline = count_flops(cfg, model, "offline", t)
    measured = offline["total"]["flops"] / step["total"]["flops"]

    body_step = sum(r["flops"] for r in step["layers"][:-1])
    head_step = step["layers"][-1]["flops"]
    head_offline = offline["layers"][-1]["flops"]
    assert head_step <= 0.05 * body_step, "toy config must keep the head below 5%"
    analytic = (t * body_step + head_offline) / (body_step + head_step)

    assert abs(measured - analytic) <= 0.15 * analytic, (measured, analytic)
    assert measured > 40
    print(f"\n[AC3] ST-GCN sliding-window/per-step FLOP ratio at T={t}: "
          f"measured {measured:.1f}x vs analytic {analytic:.1f}x (within 15%), "
          f">40x: PASS")


# -- 4. transformer FLOP scaling --------------------------------------------------------


def encoder_cfg(n, name):
    return {"name": name, "dtype": "f32", "input": {"shape": [2]},
            "layers": [{"type": "co_encoder_block", "mode": "single", "n": n,
                        "d_model": 2, "heads": 1, "ff_dim": 2,
                        "init": {"scheme": "uniform", "seed": 41}}]}


def test_ac4_transformer_flop_scaling():
    per_step = {}
    per_clip = {}
    for n in (64, 128):
        cfg = encoder_cfg(n, f"encoder_n{n}")
        model = build_model(cfg)
        per_step[n] = count_flops(cfg, model, "step", n)["total"]["flops"]
        per_clip[n] = count_flops(cfg, model, "offline", n)["total"]["flops"]
    step_growth = per_step[128] / per_step[64]
    clip_growth = per_clip[128] / per_clip[64]
    ratio64 = per_clip[64] / per_step[64]
    assert 1.8 <= step_growth <= 2.2, step_growth
    assert 3.6 <= clip_growth <= 4.4, clip_growth
    assert ratio64 > 30, ratio64
    print(f"\n[AC4] one-block encoder: step growth x{step_growth:.2f} (linear), "
          f"offline growth x{clip_growth:.2f} (quadratic), "
          f"offline/step at n=64 = {ratio64:.0f}x > 30x: PASS")


# -- 5. conv FLOP proportionality ---------------------------------------------------------


def test_ac5_conv_zero_redundancy_is_exact():
    cfg = {"name": "conv_stack", "dtype": "f32", "input": {"shape": [4, 6, 6]},
           "layers": [
               {"type": "conv3d", "c_in": 4, "c_out": 8, "kernel": [3, 3, 3],
                "init": {"scheme": "uniform", "seed": 51}},
               {"type": "conv3d", "c_in": 8, "c_out": 8, "kernel": [5, 1, 1],
                "dilation": 2, "padding": 4,
                "init": {"scheme": "uniform", "seed": 52}},
               {"type": "conv3d", "c_in": 8, "c_out": 4, "kernel": [1, 1, 1],
                "init": {"scheme": "uniform", "seed": 53}},
           ]}
    model = build_model(cfg)
    t = 64
    step = count_flops(cfg, model, "step", t)
    offline = count_flops(cfg, model, "offline", t)
    t_layer = t
    for srow, orow, module in zip(step["layers"], offline["layers"], model.modules):
        outs = module.out_len(t_layer)
        assert srow["macs"] == int(srow["macs"])  # integral at stride 1
        assert orow["macs"] == srow["macs"] * outs  # exact, not approximate
        assert orow["flops"] == srow["flops"] * outs
        t_layer = outs
    # single layer: sliding-window ratio equals windows recomputed per clip
    single = {"name": "one_conv", "dtype": "f32", "input": {"shape": [4, 6, 6]},
              "layers": [cfg["layers"][0]]}
    smodel = build_model(single)
    sstep = count_flops(single, smodel, "step", t)["total"]["flops"]
    soff = count_flops(single, smodel, "offline", t)["total"]["flops"]
    assert soff / sstep == smodel.out_len(t)
    print("\n[AC5] stride-1 conv stacks: per-step FLOPs == offline "
          "per-output-frame FLOPs (integer equality): PASS")


# -- 6. delay/stride algebra over generated trees --------------------------------------------


def _random_tree(rng, depth=0):
    ch = 3
    kind = rng.choice(["leaf", "seq", "res", "par"]) if depth < 2 else "leaf"
    if kind == "leaf":
        which = rng.choice(["conv", "bn", "pool"])
        if which == "conv":
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 3))
            p = int(rng.integers(0, (k - 1) * d + 1))
            s = int(rng.integers(1, 3))
            return TemporalConv(
                rand_tensor(rng, (ch, ch, k, 1, 1), scale=0.4),
                rand_tensor(rng, (ch,), scale=0.4),
                dilation=d, padding=p, temporal_stride=s)
        if which == "bn":
            return BatchNorm(rand_tensor(rng, (ch,)), rand_tensor(rng, (ch,)),
                             rand_tensor(rng, (ch,)),
                             Tensor.wrap(np.abs(rng.normal(size=ch)).astype(np.float32) + 0.2))
        return TemporalPool("avg", int(rng.integers(1, 5)))
    if kind == "seq":
        return Sequential([_random_tree(rng, depth + 1)
                           for _ in range(int(rng.integers(1, 4)))])
    if kind == "res":
        inner = _random_tree(rng, depth + 1)
        if inner.stride() != 1:
            inner = TemporalPool("avg", 2)
        return Residual(inner)
    branches = [_random_tree(rng, depth + 1) for _ in range(2)]
    strides = {b.stride() for b in branches}
    phases = {(b.warmup() - b.delay()) % b.stride() for b in branches}
    if len(strides) != 1 or len(phases) != 1:
        branches = [_random_tree(np.random.default_rng(int(rng.integers(2**31))), 2)
                    for _ in range(2)]
        branches = [b if b.stride() == 1 else TemporalPool("avg", 2) for b in branches]
        branches = [b if b.warmup() == b.delay() else TemporalPool("avg", 2)
                    for b in branches]
    return Parallel(branches, reduce="sum")


def _expected_algebra(module):
    """Independent recursive recomputation of (delay, warmup, rf, stride)."""
    if isinstance(module, Sequential):
        delay = warm = 0
        rf = 1
        stride = 1
        for m in module.modules:
            d, w, r, s = _expected_algebra(m)
            delay += d * stride
            warm += w * stride
            rf += (r - 1) * stride
            stride *= s
        return delay, warm, rf, stride
    if isinstance(module, Residual):
        d, w, r, _ = _expected_algebra(module.inner)
        return d, d + max(w - d, 0), 1 + d + max(r - 1 - d, 0), 1
    if isinstance(module, Parallel):
        parts = [_expected_algebra(b) for b in module.branches]
        d = max(p[0] for p in parts)
        w = d + max(p[1] - p[0] for p in parts)
        rf = 1 + d + max(p[2] - 1 - p[0] for p in parts)
        return d, w, rf, parts[0][3]
    return module.delay(), module.warmup(), module.receptive_field(), module.stride()


def test_ac6_container_algebra_and_chunking():
    checked = 0
    for case in range(100):
        rng = np.random.default_rng(5000 + case)
        tree = _random_tree(rng)
        d, w, rf, s = _expected_algebra(tree)
        assert (tree.delay(), tree.warmup(), tree.receptive_field(), tree.stride()) \
            == (d, w, rf, s)
        t = w + 2 * s + 5
        x = rand_tensor(rng, (t, 3, 2, 2))
        whole = tree.forward_steps(tree.init_state(), x)
        assert whole.shape[0] == tree.out_len(t)
        offline = tree.forward(x)
        assert offline.shape == whole.shape
        assert max_rel_dev(whole.array, offline.array) < 1e-4
        state = tree.init_state()
        cuts = sorted(rng.integers(0, t + 1, size=2))
        pieces = []
        for lo, hi in zip((0, *cuts), (*cuts, t)):
            if hi > lo:
                out = tree.forward_steps(state, Tensor.wrap(x.array[lo:hi]))
                if out.shape[0]:
                    pieces.append(out.array)
        joined = np.concatenate(pieces) if pieces else whole.array[:0]
        assert np.array_equal(whole.array, joined)
        checked += 1
    assert checked == 100
    print("\n[AC6] 100 generated container trees: delay/stride/receptive-field "
          "integer algebra and chunk invariance: PASS")


# -- 7. momentum identity ---------------------------------------------------------------------


def test_ac7_momentum_identity():
    rng = np.random.default_rng(7)
    for m in rng.uniform(1e-6, 1.0, size=20):
        assert step_momentum(float(m), 1) == float(m)
    assert abs(step_momentum(0.1, 8) - 2 / 153) < 1e-12
    print("\n[AC7] step momentum: L=1 identity for 20 samples and "
          "step_momentum(0.1, 8) == 2/153 within 1e-12: PASS")


# -- 8. retro attention stability soak ---------------------------------------------------------


def test_ac8_retro_attention_soak():
    started = time.perf_counter()
    n, d, steps = 16, 8, 100_000
    retro = RetroAttention(n, d, refresh_interval=64)
    state = retro.init_state()
    rng = np.random.default_rng(88)
    q = rng.uniform(-1, 1, size=(steps, d)).astype(np.float32)
    k = rng.uniform(-1, 1, size=(steps, d)).astype(np.float32)
    v = rng.uniform(-1, 1, size=(steps, d)).astype(np.float32)
    worst = 0.0
    for t in range(steps):
        out = retro.att_step(state, Tensor.wrap(q[t]), Tensor.wrap(k[t]),
                             Tensor.wrap(v[t]))
        if out is None:
            continue
        if t % 7 == 0 or t < n + 70:  # dense early, sampled later
            win = slice(t - n + 1, t + 1)
            ref = sda_full(Tensor.wrap(q[win].astype(np.float64)),
                           Tensor.wrap(k[win].astype(np.float64)),
                           Tensor.wrap(v[win].astype(np.float64)))
            worst = max(worst, float(np.abs(out.array - ref.array).max()))
    elapsed = time.perf_counter() - started
    assert np.all(state.layer.d_mem > 0)
    assert worst < 1e-3, f"soak deviation {worst:.2e}"
    assert elapsed < 60, f"soak took {elapsed:.0f}s"
    print(f"\n[AC8] retro attention 1e5-step soak (refresh 64): max deviation "
          f"{worst:.2e} < 1e-3 in {elapsed:.0f}s: PASS")


# -- 9. throughput sanity ------------------------------------------------------------------------


def test_ac9_step_throughput_beats_sliding_window():
    cfg = {"name": "k8_stack", "dtype": "f32", "input": {"shape": [8, 12, 12]},
           "layers": [
               {"type": "conv3d", "c_in": 8, "c_out": 8, "kernel": [8, 3, 3],
                "init": {"scheme": "uniform", "seed": 91}},
               {"type": "conv3d", "c_in": 8, "c_out": 8, "kernel": [8, 1, 1],
                "init": {"scheme": "uniform", "seed": 92}},
           ]}
    model = build_model(cfg)
    window = model.receptive_field()
    step = measure_throughput(cfg, model, "step", 48, warmup=1, repeats=5)
    sliding = measure_throughput(cfg, model, "offline", window, warmup=1, repeats=5)
    ratio = step["throughput"] / sliding["throughput"]
    assert ratio >= 3, f"step/sliding throughput ratio {ratio:.2f}"
    print(f"\n[AC9] step-mode throughput vs per-prediction sliding window "
          f"(window {window}): {ratio:.1f}x >= 3x: PASS")
