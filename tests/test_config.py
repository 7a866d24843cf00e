"""Config schema, deterministic builds, blob-backed weights."""

import json
from pathlib import Path

import numpy as np
import pytest

from cinet import cli, config
from cinet.attention import EncoderBlock, RecyclingPositionalEncoding
from cinet.config import (build_model, canonical_json, load_config, random_stream,
                          stage_types, validate_config)
from cinet.containers import Parallel, Residual, Sequential
from cinet.conv import TemporalConv
from cinet.errors import ConfigError
from cinet.norm import BatchNorm
from cinet.pool import TemporalPool
from cinet.tensor import Tensor, save_blob

from conftest import ConvThenBn, max_rel_dev, unfolded

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def conv_cfg(seed=11, **kw):
    entry = {"type": "conv3d", "c_in": 2, "c_out": 3, "kernel": [3, 1, 1],
             "init": {"scheme": "uniform", "seed": seed}}
    entry.update(kw)
    return entry


def bn_cfg(channels=3, seed=5):
    return {"type": "batchnorm", "channels": channels,
            "init": {"scheme": "uniform", "seed": seed}}


def base_cfg(layers, shape=(2, 2, 2), dtype="f32"):
    return {"name": "t", "dtype": dtype, "input": {"shape": list(shape)},
            "layers": layers}


def collect_weights(module):
    found = []
    stack = [module]
    while stack:
        m = stack.pop()
        stack.extend(m.children())
        for attr in ("weights", "bias", "gamma", "beta", "w_q", "ff_w1", "weight", "table"):
            t = getattr(m, attr, None)
            if isinstance(t, Tensor):
                found.append(t.array.tobytes())
    return found


def test_round_trip_is_byte_identical(tmp_path):
    cfg = base_cfg([conv_cfg()])
    blob = canonical_json(cfg)
    again = canonical_json(json.loads(blob))
    assert blob == again
    p = tmp_path / "m.json"
    p.write_text(blob)
    assert canonical_json(load_config(p)) == blob


def test_identical_configs_build_identical_weights():
    stacks = [
        base_cfg([
            conv_cfg(),
            {"type": "batchnorm", "channels": 3,
             "init": {"scheme": "uniform", "seed": 5}},
        ]),
        base_cfg([
            {"type": "co_encoder_block", "mode": "single", "n": 4, "d_model": 3,
             "ff_dim": 6, "init": {"scheme": "uniform", "seed": 9}},
        ], shape=(3,)),
    ]
    for cfg in stacks:
        a = collect_weights(build_model(cfg))
        b = collect_weights(build_model(json.loads(canonical_json(cfg))))
        assert a and a == b


def test_layer_order_does_not_shift_seeded_weights():
    lone = build_model(base_cfg([conv_cfg(seed=77)]))
    stacked = build_model(base_cfg([
        {"type": "avgpool_t", "window": 2}, conv_cfg(seed=77)]))
    w1 = lone.modules[0].weights.array
    w2 = stacked.modules[1].weights.array
    assert np.array_equal(w1, w2)


INVALID = [
    ({"name": "x"}, "layers"),
    ({"name": "x", "layers": [{"type": "nope"}]}, "layers[0].type"),
    ({"name": "x", "layers": [{"type": "conv3d"}]}, "layers[0].c_in"),
    ({"name": "x", "dtype": "f16", "layers": [{"type": "maxpool_t", "window": 2}]}, "dtype"),
    ({"name": "x", "layers": [{"type": "conv3d", "c_in": 1, "c_out": 1,
                               "kernel": [2, 1, 1],
                               "init": {"scheme": "gaussian"}}]}, "init.scheme"),
    # malformed values and unknown fields are named, not left to fail later
    (base_cfg([conv_cfg()]) | {"input": [2, 2, 2]}, "input"),
    (base_cfg([conv_cfg(init=5)]), "layers[0].init"),
    (base_cfg([conv_cfg(kernel=3)]), "layers[0].kernel"),
    (base_cfg([conv_cfg(c_in="2")]), "layers[0].c_in"),
    (base_cfg([{"type": "avgpool_t", "window": 2.5}]), "layers[0].window"),
    (base_cfg([conv_cfg(stirde=2)]), "layers[0].stirde"),
    (base_cfg([conv_cfg(form="auto")]), "layers[0].form"),
    (base_cfg([{"type": "co_encoder_block", "mode": "retro", "n": 4, "d_model": 2,
                "ff_dim": 4, "refresh_interval": 8}], shape=(2,)), "layers[0].refresh_interval"),
    (base_cfg([conv_cfg(init={"scheme": "uniform", "seed": 1, "hi": "x"})]),
     "layers[0].init.hi"),
    (base_cfg([conv_cfg()]) | {"dtpye": "f64"}, "dtpye"),
]


@pytest.mark.parametrize("cfg,path_fragment", INVALID)
def test_validation_errors_point_at_field(cfg, path_fragment):
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert path_fragment in str(err.value)


@pytest.mark.parametrize("cfg,path_fragment", INVALID)
def test_build_model_rejects_an_invalid_config_at_the_same_field(cfg, path_fragment):
    with pytest.raises(ConfigError) as err:
        build_model(cfg)
    assert path_fragment in str(err.value)


def test_each_build_validates_once(tmp_path, monkeypatch):
    calls = []
    validate = config.validate_config
    monkeypatch.setattr(config, "validate_config", lambda cfg: calls.append(cfg) or validate(cfg))
    p = tmp_path / "m.json"
    p.write_text(json.dumps(base_cfg([conv_cfg(), bn_cfg()])))
    build_model(load_config(p), tmp_path)
    assert len(calls) == 1
    for command in ("check", "flops", "throughput"):
        calls.clear()
        assert cli.main([command, "--model", str(p), "--length", "8"]) == 0
        assert len(calls) == 1, command


def test_build_error_carries_layer_path(tmp_path):
    for entry, fragment in [
        (conv_cfg(padding=99), "layers[0]"),
        (conv_cfg(init={"scheme": "blob", "path": "missing.bin"}), "layers[0].init.path"),
    ]:
        with pytest.raises(ConfigError) as err:
            build_model(base_cfg([entry]), tmp_path)
        assert fragment in str(err.value)


def test_constant_init():
    cfg = base_cfg([conv_cfg() | {"init": {"scheme": "constant", "value": 0.25}}])
    conv = build_model(cfg).modules[0]
    assert np.all(conv.weights.array == 0.25)


def test_blob_init_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    w = Tensor.wrap(rng.normal(size=(3, 2, 3, 1, 1)).astype(np.float32))
    b = Tensor.wrap(rng.normal(size=(3,)).astype(np.float32))
    save_blob(tmp_path / "w.bin", [w, b])
    cfg = base_cfg([conv_cfg() | {"init": {"scheme": "blob", "path": "w.bin"}}])
    (tmp_path / "m.json").write_text(json.dumps(cfg))
    model = build_model(load_config(tmp_path / "m.json"), tmp_path)
    conv = model.modules[0]
    assert np.array_equal(conv.weights.array, w.array)
    assert np.array_equal(conv.bias.array, b.array)


def test_blob_too_short_at_offset_is_a_config_error(tmp_path, capsys):
    # 18 weights + 3 biases stored; from offset 1 the bias finds only 2 values
    save_blob(tmp_path / "w.bin", [Tensor.zeros((3, 2, 3, 1, 1)), Tensor.zeros((3,))])
    cfg = base_cfg([conv_cfg() | {"init": {"scheme": "blob", "path": "w.bin", "offset": 1}}])
    p = tmp_path / "m.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        build_model(load_config(p), tmp_path)
    assert err.value.path == "layers[0]" and "too short" in str(err.value)
    assert cli.main(["flops", "--model", str(p)]) == 2
    assert "config error: layers[0]:" in capsys.readouterr().err


def test_nested_containers_build():
    cfg = base_cfg([
        {"type": "residual",
         "inner": {"type": "sequential", "layers": [conv_cfg(c_out=2, seed=1)]},
         "shortcut": "identity"},
        {"type": "parallel", "reduce": "sum",
         "branches": [conv_cfg(seed=2), conv_cfg(seed=3)]},
    ])
    model = build_model(cfg)
    assert isinstance(model.modules[0], Residual)
    assert model.delay() == 2 + 2


def test_stgcn_and_head_infer_channels():
    cfg = base_cfg([
        {"type": "stgcn_block", "v": 9, "partitions": 3, "c_in": 2, "c_out": 5,
         "tc_kernel": 3, "init": {"scheme": "uniform", "seed": 4}},
        {"type": "head", "pool_window": 4, "classes": 7,
         "init": {"scheme": "uniform", "seed": 5}},
    ], shape=(2, 9))
    model = build_model(cfg)
    assert model.out_frame_shape((2, 9)) == (7,)


def test_retro_then_single_encoder_stack_uses_window_input():
    cfg = base_cfg([
        {"type": "co_encoder_block", "mode": "retro", "n": 4, "d_model": 3,
         "ff_dim": 4, "init": {"scheme": "uniform", "seed": 6}},
        {"type": "co_encoder_block", "mode": "single", "n": 4, "d_model": 3,
         "ff_dim": 4, "init": {"scheme": "uniform", "seed": 7}},
    ], shape=(3,))
    model = build_model(cfg)
    assert model.modules[1].window_input
    assert model.out_frame_shape((3,)) == (3,)


def encoder_cfg(mode, n, seed=6):
    return {"type": "co_encoder_block", "mode": mode, "n": n, "d_model": 8, "ff_dim": 4,
            "init": {"scheme": "uniform", "seed": seed}}


@pytest.mark.parametrize("layers,shape", [
    # a frame narrower than the block's tokens, or than a LayerNorm's d
    ([encoder_cfg("single", 4)], (6,)),
    ([encoder_cfg("retro", 4)], (6,)),
    ([{"type": "layernorm", "d": 8}], (6,)),
    # (4, 8) windows of a retroactive block reach a token-input block, as a
    # window-input block takes only windows of its own length
    ([encoder_cfg("retro", 4), encoder_cfg("single", 5, seed=7)], (8,)),
], ids=["single-token", "retro-token", "layernorm", "retro-window-into-token-block"])
def test_encoder_frame_of_another_shape_is_refused_at_build(layers, shape):
    # these built before, and failed only at their first forward_step
    with pytest.raises(ConfigError) as err:
        build_model(base_cfg(layers, shape=shape))
    assert err.value.path == f"layers[{len(layers) - 1}]"
    assert "rejected" in str(err.value)


def test_encoder_entries_compose_the_positional_encoding_as_a_stage():
    enc = {"type": "co_encoder_block", "n": 4, "d_model": 3, "ff_dim": 4}
    model = build_model(base_cfg([dict(enc, mode="retro"), dict(enc, mode="single")],
                                 shape=(3,)))
    first, second = model.modules
    # a token block with an encoding (rpe_period defaults to n) is a Sequential
    assert isinstance(first, Sequential) and len(first.modules) == 2
    rpe, block = first.modules
    assert isinstance(rpe, RecyclingPositionalEncoding) and rpe.period == 4
    assert isinstance(block, EncoderBlock) and not block.window_input
    # the window-input block is bare and keeps no stream state
    assert isinstance(second, EncoderBlock) and second.window_input
    assert second.init_state() is None
    bare = build_model(base_cfg([dict(enc, mode="single", rpe_period=0)], shape=(3,)))
    assert isinstance(bare.modules[0], EncoderBlock) and not bare.modules[0].window_input
    with pytest.raises(ConfigError) as err:
        build_model(base_cfg([dict(enc, mode="both")], shape=(3,)))
    assert err.value.path == "layers[0]"


def test_batchnorm_after_a_conv3d_folds_at_any_depth():
    def seq(*layers):
        return {"type": "sequential", "layers": list(layers)}

    cfg = base_cfg([
        conv_cfg(), bn_cfg(),
        seq(conv_cfg(c_in=3, seed=2), bn_cfg(seed=6)),
        {"type": "residual", "inner": seq(conv_cfg(c_in=3, seed=3), bn_cfg(seed=7))},
        {"type": "parallel", "branches": [seq(conv_cfg(c_in=3, seed=4), bn_cfg(seed=8)),
                                          conv_cfg(c_in=3, seed=9)]},
    ])
    model = build_model(cfg)
    assert [type(m) for m in model.modules] == [TemporalConv, Sequential, Residual, Parallel]
    assert [type(m) for m in model.modules[1].modules] == [TemporalConv]
    assert [type(m) for m in model.modules[2].inner.modules] == [TemporalConv]
    assert [type(m) for m in model.modules[3].branches[0].modules] == [TemporalConv]
    assert stage_types(cfg["layers"]) == ["conv3d+batchnorm", "sequential", "residual",
                                          "parallel"]
    # the folded conv carries the f64 fold of the drawn weights
    oracle = unfolded(lambda: build_model(cfg))
    assert isinstance(oracle.modules[0], ConvThenBn)
    first = oracle.modules[0]
    assert np.array_equal(model.modules[0].weights.array,
                          first.weights.array * first.bn.scale[:, None, None, None, None])
    for dtype, tol in (("f32", 1e-6), ("f64", 1e-12)):
        x = random_stream(2, 24, (2, 2, 2), dtype)
        want = oracle.forward(x).array
        assert max_rel_dev(model.forward(x).array, want) < tol
        assert max_rel_dev(model.forward_steps(model.init_state(), x).array, want) < tol


def test_batchnorm_without_a_conv3d_before_it_stays_a_stage():
    cfg = base_cfg([bn_cfg(channels=2), {"type": "avgpool_t", "window": 2},
                    bn_cfg(channels=2), conv_cfg(), {"type": "sequential", "layers": [bn_cfg()]}])
    model = build_model(cfg)
    assert [type(m) for m in model.modules] == [BatchNorm, TemporalPool, BatchNorm,
                                                TemporalConv, Sequential]
    assert [type(m) for m in model.modules[4].modules] == [BatchNorm]
    assert stage_types(cfg["layers"]) == ["batchnorm", "avgpool_t", "batchnorm", "conv3d",
                                          "sequential"]


@pytest.mark.parametrize("layers,path", [
    ([conv_cfg(), bn_cfg(channels=4)], "layers[1]"),
    ([{"type": "sequential", "layers": [conv_cfg(), bn_cfg(channels=2)]}], "layers[0].layers[1]"),
])
def test_fold_with_other_channel_counts_names_the_batchnorm(layers, path):
    with pytest.raises(ConfigError) as err:
        build_model(base_cfg(layers))
    assert err.value.path == path


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-6), ("f64", 1e-12)])
@pytest.mark.parametrize("name,folds", [("conv_stack", 1), ("toy_costgcn", 4)])
def test_bundled_configs_match_their_unfolded_oracle(name, folds, dtype, tol):
    path = CONFIGS / f"{name}.json"
    cfg = load_config(path) | {"dtype": dtype}
    model = build_model(cfg, path.parent)
    oracle = unfolded(lambda: build_model(cfg, path.parent))
    found = [m for m in _walk(oracle) if isinstance(m, ConvThenBn)]
    assert len(found) == folds
    assert not any(isinstance(m, BatchNorm) for m in _walk(model))
    x = random_stream(3, model.receptive_field() + 24, tuple(cfg["input"]["shape"]), dtype)
    want = oracle.forward(x).array
    assert len(want) >= 25
    assert max_rel_dev(model.forward(x).array, want) < tol
    assert max_rel_dev(model.forward_steps(model.init_state(), x).array, want) < tol


def _walk(module):
    """``module`` and every module under it, a StGcnBlock's conv included."""
    yield module
    for m in module.children() + [getattr(module, "tc", None)]:
        if m is not None:
            yield from _walk(m)


def test_sequential_top_level_always():
    model = build_model(base_cfg([conv_cfg()]))
    assert isinstance(model, Sequential) and len(model.modules) == 1
