"""Temporal pooling: hand cases, window-recompute oracle, long streams."""

import numpy as np
import pytest

from cinet.errors import DimensionError
from cinet.pool import TemporalPool
from cinet.tensor import DTYPES, Tensor

from conftest import max_rel_dev, rand_tensor


def scalar_stream(values):
    return [Tensor(np.array([v], dtype=np.float32)) for v in values]


def window_oracle(kind, x, window, padding):
    """Recompute each output over its explicit (zero-prefixed) window."""
    xe = np.concatenate([np.zeros((padding,) + x.shape[1:]), x.astype(np.float64)])
    outs = []
    for end in range(window, xe.shape[0] + 1):
        win = xe[end - window : end]
        outs.append(win.mean(axis=0) if kind == "avg" else win.max(axis=0))
    return np.array(outs)


def test_avg_window4_hand_sums():
    pool = TemporalPool("avg", 4)
    state = pool.init_state()
    outs = [pool.forward_step(state, f) for f in scalar_stream([1, 2, 3, 4, 5])]
    ready = [float(o.array[0]) for o in outs if o is not None]
    assert ready == pytest.approx([2.5, 3.5])


def test_max_window3_hand_maxima():
    pool = TemporalPool("max", 3)
    state = pool.init_state()
    outs = [pool.forward_step(state, f) for f in scalar_stream([1, 3, 2, 5, 4])]
    ready = [float(o.array[0]) for o in outs if o is not None]
    assert ready == [3, 5, 5]


@pytest.mark.parametrize("kind,window,padding", [
    ("avg", 5, 0), ("avg", 5, 3), ("avg", 1, 0), ("max", 4, 0), ("max", 1, 0),
])
def test_step_vs_window_recompute_oracle(kind, window, padding):
    rng = np.random.default_rng(20 + window)
    pool = TemporalPool(kind, window, padding)
    x = rand_tensor(rng, (30, 2, 3))
    want = window_oracle(kind, x.array, window, padding)
    got = pool.forward_steps(pool.init_state(), x).array
    assert got.shape == want.shape
    if kind == "max":
        assert np.array_equal(got, want.astype(np.float32))
    else:
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


def test_forward_window1_is_identity():
    x = rand_tensor(np.random.default_rng(3), (7, 2))
    for kind in ("avg", "max"):
        assert np.allclose(TemporalPool(kind, 1).forward(x).array, x.array)


def test_forward_matches_steps():
    rng = np.random.default_rng(4)
    for spec in (TemporalPool("avg", 6, 2), TemporalPool("max", 5)):
        x = rand_tensor(rng, (25, 3))
        offline = spec.forward(x)
        online = spec.forward_steps(spec.init_state(), x)
        assert offline.shape == online.shape
        assert max_rel_dev(online.array, offline.array) < 1e-6


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("window,padding", [
    (1, 0), (4, 0), (4, 3), (7, 2), (2, 1), (3, 0), (8, 7), (9, 4), (268, 100),
])
def test_avg_forward_equals_window_sums(window, padding, dtype):
    # each window summed on its own in f64, then divided
    x = rand_tensor(np.random.default_rng(13), (40 + window, 3, 5), dtype).array
    want = window_oracle("avg", x, window, padding)
    got = TemporalPool("avg", window, padding=padding).forward(Tensor.wrap(x)).array
    assert got.shape == want.shape and got.dtype == x.dtype
    if dtype == "f64":
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    else:
        want32 = want.astype(np.float32)
        assert (np.abs(got - want32) <= np.spacing(np.abs(want32))).all()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 268])
def test_max_clip_bit_identical_to_sliding_max(window, dtype):
    x = rand_tensor(np.random.default_rng(window), (window + 30, 2, 3), dtype).array
    want = np.lib.stride_tricks.sliding_window_view(x, window, axis=0).max(axis=-1)
    got = TemporalPool("max", window).forward(Tensor.wrap(x)).array
    assert got.dtype == x.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("kind", ["avg", "max"])
@pytest.mark.parametrize("window", [1, 2, 3, 5, 8, 9, 268])
def test_clip_emission_bits_do_not_depend_on_the_clip(window, kind, dtype):
    # an output folds the same doubling spans of its own frames wherever it
    # falls, so a clip that starts q frames later or ends sooner gives its bits;
    # with padding, the windows compared lie wholly on real frames
    x = rand_tensor(np.random.default_rng(50 + window), (3 * window + 20, 2, 3), dtype).array
    paddings = sorted({p for p in (0, 1, window // 2, window - 1) if p < window}
                      if kind == "avg" else {0})
    for pad in paddings:
        pool = TemporalPool(kind, window, pad)
        whole = pool._clip(x)
        for q in (1, 7, window + 3):
            for length in (window, window + 5, 2 * window + 11):
                part = pool._clip(x[q:q + length])
                assert len(part) > pad
                assert np.array_equal(part[pad:], whole[q + pad:q + len(part)])


def test_clip_nonfinite_frame_poisons_exactly_its_windows():
    # a non-finite frame reaches exactly the outputs whose window holds it,
    # in clip and step mode alike; -inf is no poison to a maximum
    rng = np.random.default_rng(29)
    for _ in range(120):
        kind = ("avg", "max")[rng.integers(2)]
        window = int(rng.choice([1, 2, 3, 4, 5, 7, 8, 9, 16]))
        padding = int(rng.integers(window)) if kind == "avg" else 0
        length = window + int(rng.integers(3, 30))
        x = rand_tensor(rng, (length, 2), ("f32", "f64")[rng.integers(2)]).array.copy()
        bad = rng.choice(length, size=int(rng.integers(1, 4)), replace=False)
        values = [np.nan, np.inf, -np.inf] if kind == "avg" else [np.nan, np.inf]
        x[bad] = rng.choice(values, size=len(bad))[:, None]
        pool = TemporalPool(kind, window, padding)
        with np.errstate(invalid="ignore"):  # +inf and -inf in one window sum to NaN
            out = pool.forward(Tensor.wrap(x)).array
            steps = pool.forward_steps(pool.init_state(), Tensor.wrap(x)).array
            want = window_oracle(kind, x, window, padding)
        assert out.shape[0] == length + padding - window + 1
        for j in range(out.shape[0]):
            start = j - padding  # first real frame of the window
            poisoned = any(start <= s < start + window for s in bad)
            assert np.isfinite(out[j]).all() == (not poisoned)
            if poisoned:
                assert np.array_equal(out[j], want[j].astype(x.dtype), equal_nan=True)
            else:
                assert np.allclose(out[j], want[j], rtol=1e-6, atol=1e-6)
        if kind == "max":
            assert np.array_equal(steps, out, equal_nan=True)
        else:
            assert np.allclose(steps, out, rtol=1e-6, atol=1e-6, equal_nan=True)


def test_constant_input_avg_gives_constant():
    pool = TemporalPool("avg", 4)
    x = Tensor.full((10, 3), 2.25)
    out = pool.forward(x)
    assert np.allclose(out.array, 2.25)


def test_ready_count_law():
    for kind, window, padding in [("avg", 4, 0), ("avg", 4, 2), ("max", 3, 0)]:
        pool = TemporalPool(kind, window, padding)
        for t_in in (0, 2, window, 11):
            x = rand_tensor(np.random.default_rng(t_in), (t_in, 2))
            got = pool.forward_steps(pool.init_state(), x)
            assert got.shape[0] == max(0, t_in - (window - 1 - padding))


def test_max_rejects_padding():
    with pytest.raises(ValueError):
        TemporalPool("max", 3, padding=1)


def test_shape_drift_rejected():
    pool = TemporalPool("avg", 3)
    state = pool.init_state()
    pool.forward_step(state, Tensor.zeros((2, 2)))
    with pytest.raises(DimensionError):
        pool.forward_step(state, Tensor.zeros((3, 2)))


@pytest.mark.parametrize("drift", ["shape", "dtype"])
@pytest.mark.parametrize("kind", ["avg", "max"])
def test_frame_drift_rejected(kind, drift):
    pool = TemporalPool(kind, 3)
    state = pool.init_state()
    pool.forward_step(state, Tensor.zeros((2, 2)))
    bad = Tensor.zeros((3, 2)) if drift == "shape" else Tensor.zeros((2, 2), dtype="f64")
    with pytest.raises(DimensionError):
        pool.forward_step(state, bad)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("kind,window,padding", [
    ("avg", 1, 0), ("avg", 2, 1), ("avg", 8, 5), ("avg", 268, 100),
    ("max", 1, 0), ("max", 2, 0), ("max", 8, 0), ("max", 268, 0),
])
def test_long_stream_steps_match_window_oracle(kind, window, padding, dtype):
    # 24 blocks: each output is rebuilt from one window's partials, so the
    # error does not grow with the stream
    rng = np.random.default_rng(window + padding)
    x = rand_tensor(rng, (24 * window + 7, 2), dtype).array
    pool = TemporalPool(kind, window, padding)
    got = pool.forward_steps(pool.init_state(), Tensor.wrap(x)).array
    want = window_oracle(kind, x, window, padding)
    assert got.shape == want.shape and got.dtype == x.dtype
    if kind == "max":
        assert np.array_equal(got, want.astype(x.dtype))
    else:
        assert np.abs(got - want).max() <= 1e-6


def mixed_dtype_avg_steps(x: np.ndarray, window: int, padding: int) -> np.ndarray:
    """The average's step emissions by the kernel's block scheme, with its
    f64 sums fed stream-dtype operands directly: ``prefix + frame`` and
    ``slot + prefix`` as mixed-dtype ufunc calls.  A cast to f64 is exact, so
    a kernel that casts first must give these bits."""
    w = window
    ring = np.zeros((w - 1,) + x.shape[1:], x.dtype)
    prefix = np.zeros(x.shape[1:], np.float64)
    outs = []
    for t, frame in enumerate(x):
        r = (t + padding) % w
        if r:
            np.add(prefix, frame, out=prefix)
            ring[w - 1 - r] = frame
        else:
            prefix[...] = frame
        if r < w - 1:
            if t < w - 1 - padding:
                continue
            y = np.add(ring[w - 2 - r], prefix)
        else:
            y = prefix.copy()
            ring[...] = np.add.accumulate(ring, axis=0, dtype=np.float64)
        y /= w
        outs.append(y.astype(x.dtype))
    return np.stack(outs)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("window,padding,frame", [
    (1, 0, (4, 4, 4)), (4, 0, (4, 4, 4)), (4, 3, (4, 4, 4)), (4, 1, (10,)),
    (268, 0, (10,)), (268, 131, (10,)),
])
def test_avg_steps_equal_the_mixed_dtype_sums(window, padding, frame, dtype):
    # five blocks and a part, so the stream crosses at least four rebuilds of
    # the partials; magnitudes spread over six decades, so that a sum rounded
    # in f32 shows on the long windows
    rng = np.random.default_rng(60 + window + padding)
    length = 5 * window + 3
    scale = 10.0 ** rng.uniform(-3, 3, (length,) + frame)
    x = (rng.normal(size=(length,) + frame) * scale).astype(DTYPES[dtype])
    pool = TemporalPool("avg", window, padding)
    got = pool.forward_steps(pool.init_state(), Tensor.wrap(x)).array
    want = mixed_dtype_avg_steps(x, window, padding)
    assert got.shape == want.shape == (length - window + 1 + padding,) + frame
    assert np.array_equal(got, want)
