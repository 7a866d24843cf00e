"""Benchmark CLI: equivalence checks, FLOP accounting, reports, exit codes."""

import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cinet import cli
from cinet.cli import check_equivalence, count_flops, main, max_deviation, measure_throughput
from cinet.config import build_model, load_config
from cinet.containers import Sequential
from cinet.errors import ConfigError
from cinet.tensor import Tensor

from conftest import rand_tensor


def write_cfg(tmp_path, cfg, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def conv_model_cfg(name="conv_demo", layers=None, shape=(2, 3, 3), dtype="f32"):
    layers = layers or [
        {"type": "conv3d", "c_in": 2, "c_out": 3, "kernel": [3, 2, 2],
         "init": {"scheme": "uniform", "seed": 1, "lo": -0.4, "hi": 0.4}},
        {"type": "batchnorm", "channels": 3, "init": {"scheme": "uniform", "seed": 2}},
        {"type": "conv3d", "c_in": 3, "c_out": 3, "kernel": [2, 1, 1], "padding": 1,
         "init": {"scheme": "uniform", "seed": 3, "lo": -0.4, "hi": 0.4}},
        {"type": "avgpool_t", "window": 3},
    ]
    return {"name": name, "dtype": dtype, "input": {"shape": list(shape)},
            "layers": layers}


# -- check -------------------------------------------------------------------------


def test_check_passes_on_conv_pool_stack():
    cfg = conv_model_cfg()
    report = check_equivalence(cfg, build_model(cfg), length=24, seed=5, tol=1e-4)
    assert report["pass"] and report["max_rel"] <= 1e-4
    assert report["outputs"] == 24 - build_model(cfg).warmup()


def test_check_stateless_model_deviation_exactly_zero():
    cfg = {"name": "bn_only", "dtype": "f32", "input": {"shape": [4, 2]},
           "layers": [{"type": "batchnorm", "channels": 4,
                       "init": {"scheme": "uniform", "seed": 7}}]}
    report = check_equivalence(cfg, build_model(cfg), length=10, seed=0, tol=1e-12)
    assert report["max_abs"] == 0.0 and report["pass"]


def test_max_deviation_is_relative_to_the_largest_reference_magnitude():
    ref = np.array([2.0, -4.0], np.float32)
    assert max_deviation(ref + np.float32(1), ref) == (1.0, 0.25)
    assert max_deviation(np.array([0.5, 0.0]), np.zeros(2)) == (0.5, 0.5)  # all-zero reference
    assert max_deviation(np.zeros((0, 3)), np.zeros((0, 3))) == (0.0, 0.0)


def test_check_rejects_length_within_warmup():
    cfg = conv_model_cfg()
    model = build_model(cfg)
    with pytest.raises(ConfigError):
        check_equivalence(cfg, model, length=model.warmup(), seed=0, tol=1e-4)


def test_end_padded_reference_is_detected_as_deviation():
    # negative control: an offline reference padded at the trailing edge
    # (acausal) must NOT match the causal stream outputs
    cfg = {"name": "neg", "dtype": "f32", "input": {"shape": [1, 1, 1]},
           "layers": [{"type": "conv3d", "c_in": 1, "c_out": 1, "kernel": [3, 1, 1],
                       "padding": 2,
                       "init": {"scheme": "uniform", "seed": 4}}]}
    model = build_model(cfg)
    conv = model.modules[0]
    x = rand_tensor(np.random.default_rng(0), (10, 1, 1, 1))
    online = model.forward_steps(model.init_state(), x).array
    # "same"-style split padding: one leading and one trailing zero frame
    xe = np.concatenate([np.zeros((1, 1, 1, 1), np.float32), x.array,
                         np.zeros((1, 1, 1, 1), np.float32)])
    w = conv.weights.array
    end_padded = np.stack([
        sum(w[:, :, k, 0, 0] @ xe[j + 2 - k, :, 0, 0] for k in range(3))
        + conv.bias.array
        for j in range(10)
    ])[:, :, None, None]
    deviation = np.abs(end_padded - online).max()
    assert deviation > 1e-3


# -- flops --------------------------------------------------------------------------


def test_pointwise_conv_mac_count():
    cfg = {"name": "pw", "dtype": "f32", "input": {"shape": [2, 1, 1]},
           "layers": [{"type": "conv3d", "c_in": 2, "c_out": 3, "kernel": [1, 1, 1],
                       "init": {"scheme": "uniform", "seed": 1}}]}
    report = count_flops(cfg, build_model(cfg), "step", 1)
    assert report["layers"][0]["macs"] == 6


def test_step_macs_equal_offline_per_output_macs():
    # zero-redundancy: for a stride-1 conv stack, the steady per-step cost of
    # each layer equals its offline cost divided by its emission count
    cfg = conv_model_cfg(layers=[
        {"type": "conv3d", "c_in": 2, "c_out": 4, "kernel": [3, 2, 2],
         "init": {"scheme": "uniform", "seed": 1}},
        {"type": "conv3d", "c_in": 4, "c_out": 4, "kernel": [4, 1, 1],
         "init": {"scheme": "uniform", "seed": 2}},
        {"type": "conv3d", "c_in": 4, "c_out": 2, "kernel": [1, 1, 1],
         "init": {"scheme": "uniform", "seed": 3}},
    ])
    model = build_model(cfg)
    t = 64
    step = count_flops(cfg, model, "step", t)
    offline = count_flops(cfg, model, "offline", t)
    t_layer = t
    for srow, orow, module in zip(step["layers"], offline["layers"], model.modules):
        outs = module.out_len(t_layer)
        assert orow["macs"] == srow["macs"] * outs
        t_layer = outs


def test_flop_totals_are_sums_and_deterministic():
    cfg = conv_model_cfg()
    model = build_model(cfg)
    a = count_flops(cfg, model, "offline", 32)
    b = count_flops(cfg, model, "offline", 32)
    a.pop("environment"), b.pop("environment")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["total"]["macs"] == sum(r["macs"] for r in a["layers"])
    assert a["total"]["flops"] == 2 * a["total"]["macs"] + sum(
        r["flops"] - 2 * r["macs"] for r in a["layers"])


@pytest.mark.parametrize("name,rows,macs", [
    ("conv_stack", ["conv3d+batchnorm", "conv3d", "avgpool_t"], 4224),
    ("toy_costgcn", ["stgcn_block"] * 4 + ["head"], 388585),
])
def test_flops_rows_follow_the_model_stages(name, rows, macs):
    # a batchnorm folded into its conv3d costs nothing of its own: the
    # totals are the unfolded ones (4288 and 390185 MACs) less its MACs
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = load_config(path)
    report = count_flops(cfg, build_model(cfg, path.parent), "step", 64)
    assert [r["type"] for r in report["layers"]] == rows
    assert sum(r["macs"] for r in report["layers"]) == report["total"]["macs"] == macs
    assert sum(r["flops"] for r in report["layers"]) == report["total"]["flops"]


def _uniform(seed):
    return {"scheme": "uniform", "seed": seed, "lo": -0.5, "hi": 0.5}


def _conv(c_in, c_out, k_t, seed):
    return {"type": "conv3d", "c_in": c_in, "c_out": c_out, "kernel": [k_t, 1, 1],
            "init": _uniform(seed)}


# a pointwise-shortcut residual, a summing and a concatenating parallel and an
# ST-GCN block with no shortcut, on (C, V) = (2, 5) node frames
BRANCHES = {"name": "branches", "dtype": "f64", "input": {"shape": [2, 5]}, "layers": [
    {"type": "residual", "shortcut": "pointwise", "init": _uniform(81),
     "inner": _conv(2, 4, 3, 82)},
    {"type": "parallel", "reduce": "sum", "branches": [_conv(4, 4, 2, 83), _conv(4, 4, 1, 84)]},
    {"type": "parallel", "reduce": "concat",
     "branches": [_conv(4, 2, 1, 85), _conv(4, 3, 3, 86)]},
    {"type": "stgcn_block", "v": 5, "partitions": 3, "c_in": 5, "c_out": 4, "tc_kernel": 3,
     "residual": "none", "init": _uniform(87)},
]}


def _flops_rows(tmp_path, mode, length):
    report = tmp_path / f"{mode}.json"
    assert main(["flops", "--model", str(write_cfg(tmp_path, BRANCHES)), "--mode", mode,
                 "--length", str(length), "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["layers"]
    return [(r["type"], r["macs"], r["flops"] - 2 * r["macs"]) for r in rows]


def test_flops_of_branches_and_shortcuts_match_hand_counts(tmp_path):
    # (type, MACs, other ops) per stage.  A conv emission of (c, 5) costs
    # 5*c*c_in*k_t MACs and 5*c bias adds; a summed branch 5*c adds; the
    # graph conv P*V*c_in*(V + c_out) MACs, then the no-shortcut block's
    # ReLU 5*c_out ops
    gc = 3 * 5 * 5 * (5 + 4)
    assert _flops_rows(tmp_path, "step", 16) == [
        ("residual", 20 * 2 * 3 + 2 * 4 * 5, 20 + 20),  # conv, shortcut; bias, sum
        ("parallel", 20 * 4 * 2 + 20 * 4, 20 + 20 + 20),
        ("parallel", 10 * 4 + 15 * 4 * 3, 10 + 15),  # concat adds nothing
        ("stgcn_block", gc + 20 * 4 * 3, 20 + 20),
    ]
    # over 16 frames the stages emit 14, 13, 11 and 9 frames; the shortcut
    # projects every input frame, the graph conv every frame it is handed
    assert _flops_rows(tmp_path, "offline", 16) == [
        ("residual", 14 * 20 * 2 * 3 + 16 * 2 * 4 * 5, 14 * (20 + 20)),
        ("parallel", 13 * 20 * 4 * 2 + 14 * 20 * 4, 13 * 20 + 14 * 20 + 13 * 20),
        ("parallel", 13 * 10 * 4 + 11 * 15 * 4 * 3, 13 * 10 + 11 * 15),
        ("stgcn_block", 11 * gc + 9 * 20 * 4 * 3, 9 * (20 + 20)),
    ]


def test_check_passes_on_branches_and_shortcuts():
    model = build_model(BRANCHES)
    report = check_equivalence(BRANCHES, model, length=24, seed=9, tol=1e-12)
    assert report["pass"] and report["outputs"] == 24 - model.warmup() == 17


# -- throughput ----------------------------------------------------------------------


def test_throughput_zero_length_reports_no_data():
    cfg = conv_model_cfg()
    report = measure_throughput(cfg, build_model(cfg), "step", 0, 1, 3)
    assert report["no_data"] is True


def test_throughput_median_is_reproducible():
    cfg = conv_model_cfg(shape=(8, 12, 12), layers=[
        {"type": "conv3d", "c_in": 8, "c_out": 8, "kernel": [6, 3, 3],
         "init": {"scheme": "uniform", "seed": 1}}])
    model = build_model(cfg)
    # wall-clock medians on shared hardware can take a transient hit;
    # allow a bounded number of re-measurements before judging stability
    medians = [measure_throughput(cfg, model, "step", 96, 2, 9)["throughput"]]
    for _ in range(3):
        medians.append(measure_throughput(cfg, model, "step", 96, 2, 9)["throughput"])
        a, b = medians[-2], medians[-1]
        if abs(a - b) <= 0.2 * max(a, b):
            return
    raise AssertionError(f"medians never stabilized within 20%: {medians}")


def test_step_throughput_times_only_steps_past_warmup(monkeypatch):
    """encoder_one_block emits nothing for 63 steps; a 64-step timing that
    started on a fresh state would time 63 no-ops and one emission."""
    path = Path(__file__).resolve().parent.parent / "configs" / "encoder_one_block.json"
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    timing = [False]  # each clock read opens or closes a timed span
    timed = []  # per timed forward_step: did it emit?

    def clock():
        timing[0] = not timing[0]
        return time.perf_counter()

    def forward_step(state, x_t):
        y = type(model).forward_step(model, state, x_t)
        if timing[0]:
            timed.append(y is not None)
        return y

    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=clock, strftime=time.strftime))
    monkeypatch.setattr(model, "forward_step", forward_step)
    report = measure_throughput(cfg, model, "step", 64, 1, 3)
    assert report["warmup_steps"] == model.warmup() == 63
    assert len(timed) == (1 + 3) * 64 and all(timed)


def test_throughput_requires_three_repeats():
    cfg = conv_model_cfg()
    with pytest.raises(ConfigError):
        measure_throughput(cfg, build_model(cfg), "step", 8, 0, 2)


# -- CLI surface -----------------------------------------------------------------------


def test_cli_check_writes_report_and_exits_zero(tmp_path, capsys):
    p = write_cfg(tmp_path, conv_model_cfg())
    out = tmp_path / "report.json"
    code = main(["check", "--model", str(p), "--length", "20", "--seed", "1",
                 "--tol", "1e-4", "--report", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] and "environment" in report
    assert "PASS" in capsys.readouterr().out


def test_cli_check_fails_with_exit_one(tmp_path):
    p = write_cfg(tmp_path, conv_model_cfg())
    # f32 rounding cannot hit 1e-12: tolerance failure, not config error
    assert main(["check", "--model", str(p), "--length", "20", "--tol", "1e-12"]) == 1


def test_cli_bad_config_exits_two(tmp_path, capsys):
    p = write_cfg(tmp_path, {"name": "broken", "layers": [{"type": "mystery"}]})
    assert main(["check", "--model", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("kernel", 3), ("c_in", "2"), ("stirde", 2), ("init", {"scheme": "blob", "path": "no.bin"}),
])
def test_cli_malformed_field_exits_two(tmp_path, capsys, field, value):
    cfg = conv_model_cfg()
    cfg["layers"][0][field] = value
    p = write_cfg(tmp_path, cfg)
    assert main(["check", "--model", str(p)]) == 2
    assert f"layers[0].{field}" in capsys.readouterr().err


def test_cli_missing_model_file_exits_two(tmp_path, capsys):
    assert main(["check", "--model", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_cli_missing_input_shape_exits_two(tmp_path):
    cfg = conv_model_cfg()
    cfg.pop("input")
    p = write_cfg(tmp_path, cfg)
    assert main(["flops", "--model", str(p)]) == 2


def test_cli_flops_csv_line(tmp_path, capsys):
    p = write_cfg(tmp_path, conv_model_cfg())
    assert main(["flops", "--model", str(p), "--mode", "offline",
                 "--length", "16", "--csv"]) == 0
    line = capsys.readouterr().out.strip()
    fields = line.split(",")
    assert fields[0] == "conv_demo" and fields[1] == "offline" and fields[2] == "16"


@pytest.mark.parametrize("argv,fields", [
    (["check", "--length", "20"], ["model", "mode", "length", "max_abs", "max_rel", "tol", "pass"]),
    (["throughput", "--length", "16", "--repeats", "3"],
     ["model", "mode", "length", "throughput", "unit"]),
    (["throughput", "--length", "0", "--repeats", "3"],
     ["model", "mode", "length", "throughput", "unit"]),
], ids=["check", "throughput", "throughput-no-data"])
def test_cli_csv_line_holds_the_report_fields(tmp_path, capsys, argv, fields):
    # the one line --csv prints is the report's fields, an absent one blank
    p = write_cfg(tmp_path, conv_model_cfg())
    out = tmp_path / "report.json"
    assert main([*argv, "--model", str(p), "--report", str(out), "--csv"]) == 0
    report = json.loads(out.read_text())
    assert capsys.readouterr().out == ",".join(str(report.get(f, "")) for f in fields) + "\n"
    assert report["model"] == "conv_demo" and report["length"] == int(argv[2])


def test_cli_throughput_of_no_steps_says_so(tmp_path, capsys):
    p = write_cfg(tmp_path, conv_model_cfg())
    assert main(["throughput", "--model", str(p), "--length", "0", "--repeats", "3"]) == 0
    assert capsys.readouterr().out == "conv_demo: no data (T=0)\n"


def test_cli_check_fails_a_model_whose_modes_emit_other_shapes(tmp_path, capsys, monkeypatch):
    # only a model that breaks its contract gets here: step mode drops an emission
    steps = Sequential.forward_steps
    monkeypatch.setattr(Sequential, "forward_steps",
                        lambda self, state, x: Tensor.wrap(steps(self, state, x).array[1:]))
    p = write_cfg(tmp_path, conv_model_cfg())
    out = tmp_path / "report.json"
    assert main(["check", "--model", str(p), "--length", "20", "--report", str(out)]) == 1
    report = json.loads(out.read_text())
    n = report["length"] - build_model(conv_model_cfg()).warmup()
    assert report["error"] == f"shape mismatch: ({n}, 3, 2, 2) vs ({n - 1}, 3, 2, 2)"
    assert not report["pass"] and "max_abs" not in report
    assert capsys.readouterr().out == f"conv_demo: FAIL ({report['error']})\n"
    assert main(["check", "--model", str(p), "--length", "20", "--csv"]) == 1
    assert capsys.readouterr().out == "conv_demo,check,20,,,0.0001,False\n"


def test_cli_throughput_runs(tmp_path, capsys):
    p = write_cfg(tmp_path, conv_model_cfg())
    assert main(["throughput", "--model", str(p), "--length", "16",
                 "--repeats", "3", "--warmup", "1"]) == 0
    assert "steps/s" in capsys.readouterr().out


def test_cli_offline_throughput_under_receptive_field_exits_two(tmp_path, capsys):
    # a clip shorter than the receptive field emits nothing, so its rate is
    # no prediction rate; one full receptive field is timed
    cfg = conv_model_cfg()
    rf = build_model(cfg).receptive_field()
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "report.json"
    assert main(["throughput", "--model", str(p), "--mode", "offline", "--length", str(rf - 1),
                 "--repeats", "3", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --length:" in err and f"receptive field ({rf})" in err
    assert not out.exists()
    assert main(["throughput", "--model", str(p), "--mode", "offline", "--length", str(rf),
                 "--repeats", "3", "--warmup", "0"]) == 0
    assert "clips/s" in capsys.readouterr().out


@pytest.mark.parametrize("argv,flag", [
    (["throughput", "--length", "-3"], "--length"),
    (["throughput", "--mode", "offline", "--length", "-2"], "--length"),
    (["flops", "--mode", "offline", "--length", "-5"], "--length"),
    (["flops", "--mode", "step", "--length", "-5"], "--length"),
    (["throughput", "--length", "8", "--repeats", "3", "--warmup", "-1"], "--warmup"),
    (["check", "--length", "20", "--tol", "-1"], "--tol"),
    (["check", "--length", "20", "--tol", "nan"], "--tol"),
])
def test_cli_out_of_range_argument_exits_two(tmp_path, capsys, argv, flag):
    p = write_cfg(tmp_path, conv_model_cfg())
    out = tmp_path / "report.json"
    assert main([*argv, "--model", str(p), "--report", str(out)]) == 2
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


# two ST-GCN blocks, the second strided with a pointwise shortcut, and a head
MINI_STGCN = {"name": "mini_stgcn", "dtype": "f32", "input": {"shape": [3, 25]},
              "layers": [
                  {"type": "stgcn_block", "v": 25, "partitions": 3, "c_in": 3,
                   "c_out": 8, "tc_kernel": 9,
                   "init": {"scheme": "uniform", "seed": 61, "lo": -0.3, "hi": 0.3}},
                  {"type": "stgcn_block", "v": 25, "partitions": 3, "c_in": 8,
                   "c_out": 8, "tc_kernel": 9, "tc_stride": 2,
                   "init": {"scheme": "uniform", "seed": 62, "lo": -0.3, "hi": 0.3}},
                  {"type": "head", "pool_window": 8, "classes": 6,
                   "init": {"scheme": "uniform", "seed": 63}},
              ]}


def test_cli_check_on_graph_network(tmp_path):
    p = write_cfg(tmp_path, MINI_STGCN)
    assert main(["check", "--model", str(p), "--length", "64", "--tol", "1e-4"]) == 0


def test_cli_check_on_encoder_stack(tmp_path):
    cfg = {"name": "two_block_encoder", "dtype": "f32", "input": {"shape": [4]},
           "layers": [
               {"type": "co_encoder_block", "mode": "retro", "n": 8, "d_model": 4,
                "ff_dim": 8, "init": {"scheme": "uniform", "seed": 71}},
               {"type": "co_encoder_block", "mode": "single", "n": 8, "d_model": 4,
                "ff_dim": 8, "init": {"scheme": "uniform", "seed": 72}},
           ]}
    p = write_cfg(tmp_path, cfg)
    assert main(["check", "--model", str(p), "--length", "32", "--tol", "1e-4"]) == 0


def test_cli_check_f64_at_tight_tolerance(tmp_path):
    cfg = conv_model_cfg(name="conv_f64", dtype="f64")
    p = write_cfg(tmp_path, cfg)
    assert main(["check", "--model", str(p), "--length", "24", "--tol", "1e-9"]) == 0


def test_cli_heads_must_divide_width(tmp_path):
    cfg = {"name": "bad_heads", "dtype": "f32", "input": {"shape": [5]},
           "layers": [{"type": "co_encoder_block", "mode": "single", "n": 4,
                       "d_model": 5, "heads": 2, "ff_dim": 4,
                       "init": {"scheme": "uniform", "seed": 1}}]}
    p = write_cfg(tmp_path, cfg)
    assert main(["check", "--model", str(p), "--length", "8"]) == 2
