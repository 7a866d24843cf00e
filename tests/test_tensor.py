"""Tensor ops against hand values and independent loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinet.errors import DimensionError
from cinet.tensor import Tensor, conv_spatial, load_blob, matmul, reduce, save_blob

from conftest import rand_tensor


# -- oracles (kept deliberately dumb and loop-based) -------------------------


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += float(a[i, l]) * float(b[l, j])
    return out


def conv_oracle(x, w, pad):
    c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    ph, pw = pad
    xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw))
    xp[:, ph : ph + h, pw : pw + wd] = x
    oh, ow = h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += float(w[o, c, a, b]) * float(xp[c, i + a, j + b])
                out[o, i, j] = acc
    return out


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = rand_tensor(np.random.default_rng(0), (3, 3))
    eye = Tensor.wrap(np.eye(3, dtype=np.float32))
    assert np.array_equal(matmul(eye, a).array, a.array)


def test_matmul_zero():
    a = Tensor([[1, 2], [3, 4]], dtype="f32")
    z = Tensor.zeros((2, 1))
    assert np.array_equal(matmul(a, z).array, np.zeros((2, 1), dtype=np.float32))


def test_matmul_vs_loop_oracle_seed7():
    rng = np.random.default_rng(7)
    a = rand_tensor(rng, (5, 4))
    b = rand_tensor(rng, (4, 3))
    got = matmul(a, b).array
    want = matmul_oracle(a.array, b.array)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        matmul(Tensor.zeros((2, 3)), Tensor.zeros((2, 3)))


def test_matmul_associativity_f32():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a, b, c = (rand_tensor(rng, (8, 8)) for _ in range(3))
        left = matmul(matmul(a, b), c).array
        right = matmul(a, matmul(b, c)).array
        assert np.allclose(left, right, rtol=1e-5, atol=1e-5)


# -- conv_spatial ----------------------------------------------------------------


def test_conv_identity_kernel():
    x = rand_tensor(np.random.default_rng(1), (1, 4, 4))
    w = Tensor.wrap(np.ones((1, 1, 1, 1), dtype=np.float32))
    assert np.allclose(conv_spatial(x, w).array, x.array)


def test_conv_counting_case():
    x = Tensor.wrap(np.ones((1, 4, 4), dtype=np.float32))
    w = Tensor.wrap(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = conv_spatial(x, w, (0, 0))
    assert out.shape == (1, 2, 2)
    assert np.all(out.array == 9)


def test_conv_vs_loop_oracle_seed11():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (3, 6, 5))
    w = rand_tensor(rng, (2, 3, 3, 2))
    for pad in ((0, 0), (1, 1), (2, 0)):
        got = conv_spatial(x, w, pad).array
        want = conv_oracle(x.array, w.array, pad)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


def test_conv_pad_equals_explicit_zero_pad():
    rng = np.random.default_rng(5)
    x = rand_tensor(rng, (2, 5, 5))
    w = rand_tensor(rng, (2, 2, 3, 3))
    padded = np.zeros((2, 9, 7), dtype=np.float32)
    padded[:, 2:7, 1:6] = x.array
    a = conv_spatial(x, w, (2, 1)).array
    b = conv_spatial(Tensor.wrap(padded), w, (0, 0)).array
    assert np.array_equal(a, b)


def test_conv_kernel_too_large():
    with pytest.raises(DimensionError):
        conv_spatial(Tensor.zeros((1, 2, 2)), Tensor.zeros((1, 1, 3, 3)), (0, 0))


# -- reduce ----------------------------------------------------------------


def test_reduce_sum_example():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(reduce("sum", x, 1).array, np.array([3.0, 7.0], dtype=np.float32))


def test_reduce_mean_constant():
    x = Tensor.full((3, 4), 2.5)
    for axis in (0, 1):
        assert np.allclose(reduce("mean", x, axis).array, 2.5)


def test_reduce_max_vs_sort_oracle():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (4, 6))
    got = reduce("max", x, 1).array
    want = np.sort(x.array, axis=1)[:, -1]
    assert np.array_equal(got, want)


def test_reduce_axis_out_of_range():
    with pytest.raises(DimensionError):
        reduce("sum", Tensor.zeros((2, 2)), 2)


# -- immutability, blobs --------------------------------------------------------


def test_tensor_invariants_and_immutability():
    x = Tensor([[1.0, 2.0]], dtype="f64")
    assert x.dtype == "f64" and len(x.data) == int(np.prod(x.shape))
    with pytest.raises(ValueError):
        x.array[0, 0] = 5.0
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0], shape=(3,))


@settings(max_examples=30)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
def test_tensor_roundtrip_data(values):
    t = Tensor(values, dtype="f64")
    assert t.tolist() == pytest.approx(values)


def test_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    tensors = [rand_tensor(rng, (2, 3)), rand_tensor(rng, (4,))]
    path = tmp_path / "weights.bin"
    manifest = save_blob(path, tensors)
    assert manifest["format"] == "f32-le"
    for entry, t in zip(manifest["entries"], tensors):
        back = load_blob(path, entry["shape"], entry["offset"])
        assert np.array_equal(back.array, t.array)
