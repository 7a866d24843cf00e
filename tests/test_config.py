"""Config schema, deterministic builds, blob-backed weights."""

import json

import numpy as np
import pytest

from cinet.attention import EncoderBlock, RecyclingPositionalEncoding
from cinet.config import build_model, canonical_json, load_config, validate_config
from cinet.containers import Residual, Sequential
from cinet.errors import ConfigError
from cinet.tensor import Tensor, save_blob


def conv_cfg(seed=11, **kw):
    entry = {"type": "conv3d", "c_in": 2, "c_out": 3, "kernel": [3, 1, 1],
             "init": {"scheme": "uniform", "seed": seed}}
    entry.update(kw)
    return entry


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


@pytest.mark.parametrize("cfg,path_fragment", [
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
])
def test_validation_errors_point_at_field(cfg, path_fragment):
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert path_fragment in str(err.value)


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


def test_sequential_top_level_always():
    model = build_model(base_cfg([conv_cfg()]))
    assert isinstance(model, Sequential) and len(model.modules) == 1
