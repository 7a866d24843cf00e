"""Tensor construction, immutability and f32 weight-blob round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinet.errors import DimensionError
from cinet.tensor import Tensor, load_blob, save_blob

from conftest import rand_tensor


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
