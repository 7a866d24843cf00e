"""Tensor construction, immutability and f32 weight-blob round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinet.errors import DimensionError
from cinet.pool import TemporalPool
from cinet.tensor import Tensor, load_blob, save_blob

from conftest import rand_tensor


def test_tensor_invariants_and_immutability():
    x = Tensor([[1.0, 2.0]], dtype="f64")
    assert x.dtype == "f64" and len(x.data) == int(np.prod(x.shape))
    with pytest.raises(ValueError):
        x.array[0, 0] = 5.0
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0], shape=(3,))


def test_tensor_copies_a_writeable_caller_array_and_leaves_it_writeable():
    # the caller may go on writing its array: the tensor neither freezes it
    # nor aliases it, reshaped or not; a converted input is the tensor's own
    for shape in (None, (2, 3)):
        x = np.zeros(6, np.float32)
        t = Tensor(x, shape)
        x[0] = 1.0
        assert t.array.reshape(-1)[0] == 0.0 and not t.array.flags.writeable
    x64 = np.zeros(6)
    t = Tensor(x64)
    assert t.array.dtype == np.float32 and t.array.base is None and x64.flags.writeable


def test_rank_zero_tensors_keep_rank_zero():
    assert Tensor(2.0, ()).shape == () and Tensor(2.0, ()).item() == 2.0
    assert Tensor.wrap(np.array(3.0)).shape == ()
    assert Tensor.wrap(np.array(3.0, np.float32)).rank == 0
    strided = np.arange(6.0).reshape(2, 3)[:, ::2]  # not contiguous: copied
    assert Tensor.wrap(strided).array.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.int32, np.float16, ">f4", ">f8"])
def test_wrap_refuses_an_array_of_another_dtype(dtype):
    with pytest.raises(ValueError, match="unsupported ndarray dtype"):
        Tensor.wrap(np.zeros((2, 3), dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wrap_copies_a_writeable_array_and_leaves_it_writeable(dtype):
    x = np.arange(6, dtype=dtype).reshape(2, 3)
    t = Tensor.wrap(x)
    assert t.array is not x and not np.shares_memory(t.array, x)
    assert x.flags.writeable and not t.array.flags.writeable
    x[0, 0] = 9.0
    assert t.array[0, 0] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wrap_shares_a_read_only_contiguous_array(dtype):
    x = np.arange(6, dtype=dtype).reshape(2, 3)
    x.flags.writeable = False
    t = Tensor.wrap(x)
    assert t.array is x and t.dtype == {np.float32: "f32", np.float64: "f64"}[dtype]


@pytest.mark.parametrize("mode", ["forward", "forward_steps"])
def test_a_rank_zero_clip_is_refused_for_its_missing_time_axis(mode):
    layer = TemporalPool("avg", 2)  # any frame shape, a () frame too
    x = Tensor(1.0, ())
    with pytest.raises(DimensionError, match="time axis"):
        if mode == "forward":
            layer.forward(x)
        else:
            layer.forward_steps(layer.init_state(), x)


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
