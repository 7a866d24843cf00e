"""Arranged weights: a layer is left unchanged by the streams it serves.

Every weight-holding layer arranges its weights in both stream dtypes at
construction, so one instance serves f32 and f64 streams side by side, each
bit for bit as a run of that dtype alone, and running a stream writes
nothing to the layer.  ``TemporalConv._layouts``, keyed by the frame shape
a stream brings, is the one table a stream may fill.
"""

from pathlib import Path

import numpy as np
import pytest

from cinet.attention import EncoderBlock, MultiheadAttention, RecyclingPositionalEncoding
from cinet.config import build_model, load_config, random_stream
from cinet.containers import Pointwise
from cinet.conv import TemporalConv
from cinet.graph import GlobalAverageHead, SkeletonGraph, StGcnBlock
from cinet.module import CoModule
from cinet.norm import BatchNorm, LayerNorm
from cinet.tensor import Tensor

from conftest import rand_tensor

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def w64(rng, *shape, scale=0.5):
    # f64 weights: a stream served weights rounded to the other dtype would show
    return rand_tensor(rng, shape, dtype="f64", scale=scale)


def _bn(rng, c):
    return BatchNorm(w64(rng, c), w64(rng, c), w64(rng, c),
                     Tensor.wrap(rng.uniform(0.5, 1.5, c)))


def _ln(rng, d):
    return LayerNorm(w64(rng, d), w64(rng, d))


def _mha(rng, mode, n=5, d=4):
    return MultiheadAttention(mode, n, w64(rng, d, d), w64(rng, d, d), w64(rng, d, d),
                              w64(rng, d, d), heads=2)


def _encoder(rng, mode, window_input=False, d=4, ff=6):
    return EncoderBlock(_mha(rng, mode, d=d), w64(rng, d, ff), w64(rng, ff),
                        w64(rng, ff, d), w64(rng, d), _ln(rng, d), _ln(rng, d),
                        window_input=window_input)


def _stgcn(rng):
    tc = TemporalConv(w64(rng, 4, 4, 3, 1, 1), w64(rng, 4), padding=1)
    return StGcnBlock(SkeletonGraph.chain(6, partitions=3), [w64(rng, 3, 4) for _ in range(3)],
                      tc, _bn(rng, 4), residual="pointwise", res_weight=w64(rng, 3, 4))


# name -> (layer from a seeded rng, its frame shape); the two convs are a
# dilated one whose 6 output channels outnumber its 2 inputs and a padded
# one with 1, named for the step arrangement each took while the conv had two
LAYERS = {
    "pointwise": (lambda rng: Pointwise(w64(rng, 3, 5)), (3, 7)),
    "batchnorm": (lambda rng: _bn(rng, 4), (4, 5)),
    "layernorm": (lambda rng: _ln(rng, 6), (3, 6)),
    "conv_pre": (lambda rng: TemporalConv(w64(rng, 6, 2, 3, 2, 2), w64(rng, 6), dilation=2),
                 (2, 4, 4)),
    "conv_post": (lambda rng: TemporalConv(w64(rng, 1, 2, 3, 2, 2), w64(rng, 1), padding=1),
                  (2, 4, 4)),
    "stgcn_block": (_stgcn, (3, 6)),
    "head": (lambda rng: GlobalAverageHead(3, w64(rng, 4, 3), w64(rng, 3)), (4, 5)),
    "mha_retro": (lambda rng: _mha(rng, "retro"), (4,)),
    "mha_single": (lambda rng: _mha(rng, "single"), (4,)),
    "encoder_retro": (lambda rng: _encoder(rng, "retro"), (4,)),
    "encoder_single": (lambda rng: _encoder(rng, "single"), (4,)),
    "encoder_window": (lambda rng: _encoder(rng, "single", window_input=True), (5, 4)),
    "positional_encoding": (lambda rng: RecyclingPositionalEncoding(w64(rng, 7, 4)), (4,)),
}


def make(name):
    factory, frame = LAYERS[name]
    return factory(np.random.default_rng(sorted(LAYERS).index(name))), frame


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_interleaved_dtypes_match_runs_of_one_dtype(name):
    shared, frame = make(name)
    rng = np.random.default_rng(99)
    xs = {dt: rand_tensor(rng, (24,) + frame, dtype=dt) for dt in ("f32", "f64")}
    states = {dt: shared.init_state() for dt in xs}
    outs = {dt: [] for dt in xs}
    for t in range(24):
        for dt, x in xs.items():
            y = shared.forward_step(states[dt], Tensor.wrap(x.array[t]))
            if y is not None:
                outs[dt].append(y.array)
            if t == 12:  # a clip of each dtype in the middle of both streams
                shared.forward(x)
    for dt, x in xs.items():
        alone, _ = make(name)
        want = alone.forward_steps(alone.init_state(), x).array
        assert want.dtype == x.array.dtype and len(outs[dt]) == len(want) > 0
        assert np.array_equal(np.stack(outs[dt]), want)
        assert np.array_equal(shared.forward(x).array, alone.forward(x).array)


def _modules(root: CoModule) -> list:
    """Every module reachable from ``root`` through attributes, lists and tuples."""
    found, stack = {}, [root]
    while stack:
        m = stack.pop()
        if id(m) not in found:
            found[id(m)] = m
            for v in vars(m).values():
                stack.extend(e for e in (v if isinstance(v, (list, tuple)) else [v])
                             if isinstance(e, CoModule))
    return list(found.values())


def _attributes(m: CoModule) -> dict:
    """Each attribute of ``m`` with the objects a dict or list of it holds."""
    return {k: (v, [*v.keys(), *v.values()] if isinstance(v, dict) else
                list(v) if isinstance(v, list) else None)
            for k, v in vars(m).items() if not (isinstance(m, TemporalConv) and k == "_layouts")}


def _assert_untouched(root: CoModule, run) -> None:
    before = [(m, _attributes(m)) for m in _modules(root)]
    run()
    for m, attrs in before:
        now = _attributes(m)
        assert now.keys() == attrs.keys(), type(m).__name__
        for k, (v, items) in attrs.items():
            v_now, items_now = now[k]
            assert v_now is v, f"{type(m).__name__}.{k} replaced"
            if items is not None:
                assert len(items_now) == len(items), f"{type(m).__name__}.{k} grew"
                assert all(a is b for a, b in zip(items_now, items)), \
                    f"{type(m).__name__}.{k} changed"


def _run_both_dtypes(model: CoModule, frame: tuple, length: int):
    def run():
        for dt in ("f32", "f64"):
            x = random_stream(5, length, frame, dt)
            model.forward(x)
            model.forward_steps(model.init_state(), x)
    return run


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_streams_leave_each_layer_untouched(name):
    layer, frame = make(name)
    _assert_untouched(layer, _run_both_dtypes(layer, frame, 16))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_streams_leave_each_bundled_model_untouched(path):
    cfg = load_config(path)
    model = build_model(cfg, path.parent)
    frame = tuple(cfg["input"]["shape"])
    _assert_untouched(model, _run_both_dtypes(model, frame, model.receptive_field() + 8))
