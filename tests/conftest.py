import numpy as np
import pytest

from cinet.conv import TemporalConv
from cinet.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_tensor(rng, shape, dtype="f32", scale=1.0):
    return Tensor.wrap((rng.normal(size=shape) * scale).astype(
        np.float32 if dtype == "f32" else np.float64))


def max_rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Global relative deviation: max |a-b| over the magnitude of b."""
    if a.size == 0:
        return 0.0
    diff = np.abs(a.astype(np.float64) - b.astype(np.float64)).max()
    scale = np.abs(b.astype(np.float64)).max()
    return float(diff / scale) if scale > 0 else float(diff)


class ConvThenBn(TemporalConv):
    """The unfolded oracle of ``conv.folded(bn)``: the conv as given, then
    ``BatchNorm._apply`` on each of its emissions."""

    def __init__(self, conv, bn):
        vars(self).update(vars(conv))
        self.bn = bn

    def _step(self, state, xa):
        y = super()._step(state, xa)
        return None if y is None else self.bn._apply(y, 0)

    def _clip(self, xa):
        return self.bn._apply(super()._clip(xa), 1)


def unfolded(build):
    """``build()`` with every BatchNorm fold replaced by its oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TemporalConv, "folded", lambda conv, bn: ConvThenBn(conv, bn))
        return build()
