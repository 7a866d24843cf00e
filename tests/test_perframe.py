"""The per-frame contract: layers that map each frame on their own.

``BatchNorm``, ``LayerNorm``, ``Pointwise`` and ``Identity`` share
``PerFrame``'s timing, state and clip cost, and run one kernel in both modes,
so a stream of steps must be exactly the clip.
"""

import numpy as np
import pytest

from cinet.attention import RecyclingPositionalEncoding
from cinet.containers import Identity, Pointwise
from cinet.errors import DimensionError
from cinet.module import OpCount, PerFrame
from cinet.norm import BatchNorm, LayerNorm
from cinet.tensor import Tensor

from conftest import rand_tensor


def make_bn(rng, c):
    return BatchNorm(rand_tensor(rng, (c,)), rand_tensor(rng, (c,)), rand_tensor(rng, (c,)),
                     Tensor.wrap(np.abs(rng.normal(size=c)).astype(np.float32) + 0.1))


# (id, layer factory, frame shape)
CASES = [
    ("bn-chw", lambda rng: make_bn(rng, 3), (3, 4, 5)),
    ("bn-cv", lambda rng: make_bn(rng, 3), (3, 7)),
    ("ln", lambda rng: LayerNorm(rand_tensor(rng, (6,)), rand_tensor(rng, (6,))), (6,)),
    ("pw-c", lambda rng: Pointwise(rand_tensor(rng, (4, 3))), (4,)),
    ("pw-cv", lambda rng: Pointwise(rand_tensor(rng, (4, 3))), (4, 7)),
    ("pw-chw", lambda rng: Pointwise(rand_tensor(rng, (4, 3))), (4, 2, 5)),
    ("identity", lambda rng: Identity(), (3, 4)),
]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("make,frame", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_steps_are_exactly_the_clip(make, frame, dtype):
    rng = np.random.default_rng(17)
    layer = make(rng)
    x = rand_tensor(rng, (9,) + frame, dtype=dtype)
    clip = layer.forward(x).array
    steps = layer.forward_steps(layer.init_state(), x).array
    assert clip.dtype == steps.dtype == x.array.dtype
    assert clip.shape == (9,) + layer.out_frame_shape(frame)
    assert np.array_equal(steps, clip)
    assert clip.flags.c_contiguous and steps.flags.c_contiguous


@pytest.mark.parametrize("make,frame", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_timing_state_and_clip_cost(make, frame):
    layer = make(np.random.default_rng(18))
    assert isinstance(layer, PerFrame)
    assert layer.delay() == 0 and layer.warmup() == 0
    assert layer.receptive_field() == 1 and layer.stride() == 1
    state = layer.init_state()  # a stream, bound by its first frame to no layer state
    layer.forward_step(state, Tensor.zeros(frame))
    assert state.shape == frame and state.layer is None
    for t in (0, 1, 13):
        assert layer.out_len(t) == t
        assert layer.clip_cost(frame, t) == layer.step_cost(frame).scaled(t)


def test_pointwise_step_cost_is_one_mac_per_weight_and_position():
    pw = Pointwise(rand_tensor(np.random.default_rng(19), (4, 3)))
    assert pw.step_cost((4, 2, 5)) == OpCount(macs=4 * 3 * 10)
    assert pw.out_frame_shape((4, 2, 5)) == (3, 2, 5)


@pytest.mark.parametrize("make,frame", [
    (lambda rng: Pointwise(rand_tensor(rng, (4, 3))), (5, 7)),
    (lambda rng: Pointwise(rand_tensor(rng, (4, 3))), (2,)),
    (lambda rng: Pointwise(rand_tensor(rng, (4, 3))), (8,)),
    (lambda rng: make_bn(rng, 3), (4, 2, 2)),
], ids=["pw-wide", "pw-narrow", "pw-foldable", "bn"])
def test_wrong_channel_count_raises_in_both_modes(make, frame):
    """A reshape could fold a wrong channel count into the columns; the
    root's frame check (``out_frame_shape``) names the mismatch first, in
    clip mode as in step mode, before any kernel runs."""
    rng = np.random.default_rng(20)
    layer = make(rng)
    x = rand_tensor(rng, (3,) + frame)
    with pytest.raises(DimensionError):
        layer.forward(x)
    with pytest.raises(DimensionError):
        layer.forward_step(layer.init_state(), Tensor.wrap(x.array[0]))


def test_identity_step_hands_back_its_input():
    x_t = rand_tensor(np.random.default_rng(21), (3,))
    ident = Identity()
    assert ident.forward_step(ident.init_state(), x_t).array is x_t.array


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("make,frame", [c[1:] for c in CASES] + [
    (lambda rng: RecyclingPositionalEncoding(rand_tensor(rng, (5, 6))), (6,))],
    ids=[c[0] for c in CASES] + ["rpe"])
def test_clip_emission_bits_do_not_depend_on_the_clip(make, frame, dtype):
    # every frame is mapped on its own, so its output has the same bits in a
    # clip that starts q frames later or ends sooner; the positional encoding
    # indexes its table from the clip's start, so its clips start a whole
    # number of periods in
    rng = np.random.default_rng(19)
    layer = make(rng)
    align = getattr(layer, "period", 1)
    x = rand_tensor(rng, (80,) + frame, dtype=dtype).array
    whole = layer._clip(x)
    for q in (1, 3, 7):
        for length in (1, 9, 40):
            part = layer._clip(x[q * align:q * align + length])
            assert np.array_equal(part, whole[q * align:q * align + length])
