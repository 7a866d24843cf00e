"""Normalization layers and the sequence-to-step momentum conversion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cinet.containers import Sequential
from cinet.conv import TemporalConv
from cinet.errors import DimensionError
from cinet.norm import BatchNorm, LayerNorm, step_momentum
from cinet.tensor import Tensor

from conftest import max_rel_dev, rand_tensor


def make_bn(rng, c, identity=False):
    if identity:
        return BatchNorm(
            Tensor.wrap(np.ones(c, dtype=np.float32)),
            Tensor.zeros((c,)),
            Tensor.zeros((c,)),
            Tensor.wrap(np.ones(c, dtype=np.float32)),
            eps=1e-12,
        )
    return BatchNorm(
        rand_tensor(rng, (c,)),
        rand_tensor(rng, (c,)),
        rand_tensor(rng, (c,)),
        Tensor.wrap(np.abs(rng.normal(size=c)).astype(np.float32) + 0.1),
    )


def test_bn_identity_params():
    bn = make_bn(None, 3, identity=True)
    x = rand_tensor(np.random.default_rng(0), (3, 4, 4))
    assert np.allclose(bn.forward_step(bn.init_state(), x).array, x.array, atol=1e-5)


def test_bn_constant_input_gives_beta():
    c = 4
    beta = rand_tensor(np.random.default_rng(1), (c,))
    mean = Tensor.full((c,), 1.5)
    bn = BatchNorm(Tensor.wrap(np.ones(c, dtype=np.float32)), beta, mean,
                   Tensor.wrap(np.ones(c, dtype=np.float32)))
    x = Tensor.full((c, 2, 2), 1.5)
    out = bn.forward_step(bn.init_state(), x).array
    assert np.allclose(out, beta.array[:, None, None], atol=1e-5)


def test_bn_vs_scalar_formula_oracle():
    rng = np.random.default_rng(2)
    bn = make_bn(rng, 3)
    x = rand_tensor(rng, (3, 2, 2))
    got = bn.forward_step(bn.init_state(), x).array
    for c in range(3):
        for i in range(2):
            for j in range(2):
                want = (float(x.array[c, i, j]) - float(bn.running_mean.array[c])) \
                    / np.sqrt(float(bn.running_var.array[c]) + bn.eps) \
                    * float(bn.gamma.array[c]) + float(bn.beta.array[c])
                assert got[c, i, j] == pytest.approx(want, rel=1e-5)


def test_bn_channel_mismatch():
    bn = make_bn(np.random.default_rng(3), 3)
    with pytest.raises(DimensionError):
        bn.forward_step(bn.init_state(), Tensor.zeros((4, 2, 2)))
    with pytest.raises(DimensionError):
        bn.forward(Tensor.zeros((5, 4, 2, 2)))


def test_bn_rejects_negative_variance():
    c = 2
    with pytest.raises(ValueError):
        BatchNorm(Tensor.zeros((c,)), Tensor.zeros((c,)), Tensor.zeros((c,)),
                  Tensor([-1.0, 1.0]))


def _bn(gamma=(3,), beta=(3,), mean=(3,), var=(3,), eps=1e-5):
    rng = np.random.default_rng(8)
    return BatchNorm(*(rand_tensor(rng, s) for s in (gamma, beta, mean)),
                     Tensor.wrap(np.ones(var, np.float32)), eps=eps)


@pytest.mark.parametrize("make,match", [
    (lambda: _bn(beta=(4,)), "not one"),
    (lambda: _bn(var=(3, 1)), "not one"),
    # a gamma of another rank failed only in forward, as a broadcast or index error
    (lambda: _bn(gamma=(3, 1)), "not one"),
    (lambda: _bn(gamma=(), beta=(), mean=(), var=()), "not one"),
    (lambda: _bn(eps=0.0), "eps"),
    (lambda: LayerNorm(Tensor.zeros((3,)), Tensor.zeros((4,))), "equal rank-1"),
    (lambda: LayerNorm(Tensor.zeros((3, 1)), Tensor.zeros((3, 1))), "equal rank-1"),
    (lambda: LayerNorm(Tensor.zeros((3,)), Tensor.zeros((3,)), eps=-1.0), "eps"),
], ids=["bn-beta", "bn-var-rank", "bn-gamma-rank-2", "bn-rank-0", "bn-eps", "ln-beta",
        "ln-rank", "ln-eps"])
def test_norms_refuse_what_cannot_run(make, match):
    with pytest.raises(ValueError, match=match) as err:
        make()
    assert isinstance(err.value, DimensionError) == (match != "eps")


def test_bn_scale_and_shift_are_computed_in_f64():
    bn = make_bn(np.random.default_rng(5), 4)
    g, b, m, v = (t.array.astype(np.float64)
                  for t in (bn.gamma, bn.beta, bn.running_mean, bn.running_var))
    assert bn.scale.dtype == bn.shift.dtype == np.float64
    assert np.array_equal(bn.scale, g / np.sqrt(v + bn.eps))
    assert np.array_equal(bn.shift, b - m * bn.scale)


@pytest.mark.parametrize("dtype,tol", [("f32", 1e-6), ("f64", 1e-12)])
@pytest.mark.parametrize("kernel,dilation,padding,stride", [
    ((3, 1, 1), 1, 0, 1), ((3, 2, 2), 1, 2, 2), ((3, 1, 1), 2, 2, 1), ((2, 3, 3), 2, 0, 2)])
def test_bn_folded_into_a_conv_matches_conv_then_bn(kernel, dilation, padding, stride,
                                                     dtype, tol):
    rng = np.random.default_rng(6)
    conv = TemporalConv(rand_tensor(rng, (4, 3) + kernel, dtype=dtype),
                        rand_tensor(rng, (4,), dtype=dtype), dilation=dilation,
                        padding=padding, temporal_stride=stride)
    bn = make_bn(rng, 4)
    oracle, folded = Sequential([conv, bn]), conv.folded(bn)
    x = rand_tensor(rng, (20, 3, 5, 5), dtype=dtype)
    want = oracle.forward(x).array
    assert len(want) > 0
    for got in (folded.forward(x), folded.forward_steps(folded.init_state(), x)):
        assert got.shape == want.shape and got.array.dtype == want.dtype
        assert max_rel_dev(got.array, want) < tol
    assert folded.step_cost((3, 5, 5)) == conv.step_cost((3, 5, 5))


def test_bn_fold_rejects_other_channel_counts():
    rng = np.random.default_rng(7)
    conv = TemporalConv(rand_tensor(rng, (4, 3, 2, 1, 1)), rand_tensor(rng, (4,)))
    with pytest.raises(DimensionError):
        conv.folded(make_bn(rng, 3))


def test_ln_constant_vector_gives_beta():
    d = 5
    beta = rand_tensor(np.random.default_rng(4), (d,))
    ln = LayerNorm(rand_tensor(np.random.default_rng(5), (d,)), beta)
    out = ln.forward_step(ln.init_state(), Tensor.full((d,), 3.0)).array
    assert np.allclose(out, beta.array, atol=1e-3)


def test_ln_statistics_oracle():
    d = 64
    gamma = 1.7
    ln = LayerNorm(Tensor.full((d,), gamma), Tensor.full((d,), 0.25))
    x = rand_tensor(np.random.default_rng(6), (d,), scale=3.0)
    out = ln.forward_step(ln.init_state(), x).array
    assert out.mean() == pytest.approx(0.25, abs=1e-4)
    assert out.std() == pytest.approx(abs(gamma), rel=1e-3)


def test_ln_idempotent_when_affine_is_identity():
    d = 8
    ln = LayerNorm(Tensor.wrap(np.ones(d, dtype=np.float32)), Tensor.zeros((d,)))
    x = rand_tensor(np.random.default_rng(7), (3, d))
    once = ln.forward(x)
    twice = ln.forward(once)
    assert np.allclose(twice.array, once.array, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8,), (16, 8), (3, 5, 7)])
def test_ln_bit_identical_to_mean_var_formula(shape, dtype):
    rng = np.random.default_rng(12)
    d = shape[-1]
    gamma = Tensor.wrap(rng.normal(size=d).astype(dtype))
    beta = Tensor.wrap(rng.normal(size=d).astype(dtype))
    ln = LayerNorm(gamma, beta)
    for _ in range(20):
        xa = (rng.normal(size=shape) * rng.uniform(0.01, 100) + rng.uniform(-50, 50)).astype(dtype)
        mean = xa.mean(axis=-1, keepdims=True)
        var = xa.var(axis=-1, keepdims=True)
        want = (xa - mean) / np.sqrt(var + dtype(ln.eps)) * gamma.array + beta.array
        # a (d,) token runs as a one-frame clip
        assert np.array_equal(ln.forward(Tensor.wrap(np.atleast_2d(xa))).array.reshape(shape), want)


def test_norms_step_equals_clip():
    rng = np.random.default_rng(8)
    bn = make_bn(rng, 4)
    ln = LayerNorm(rand_tensor(rng, (6,)), rand_tensor(rng, (6,)))
    x_bn = rand_tensor(rng, (10, 4, 3))
    x_ln = rand_tensor(rng, (10, 6))
    for mod, x in ((bn, x_bn), (ln, x_ln)):
        offline = mod.forward(x)
        online = mod.forward_steps(mod.init_state(), x)
        assert np.array_equal(offline.array, online.array)


# -- step momentum ----------------------------------------------------------------


def test_step_momentum_examples():
    assert step_momentum(0.1, 1) == 0.1
    assert step_momentum(0.1, 8) == pytest.approx(2 / 153, abs=1e-15)
    assert step_momentum(1.0, 3) == 0.5


@given(st.floats(min_value=1e-6, max_value=1.0))
def test_step_momentum_length_one_identity(m):
    assert step_momentum(m, 1) == m


def test_step_momentum_rejects_bad_args():
    for m, length in ((0.0, 1), (1.2, 1), (-0.1, 2), (0.5, 0)):
        with pytest.raises(ValueError):
            step_momentum(m, length)
