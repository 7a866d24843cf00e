"""Inference-mode normalization layers and the step-momentum helper.

Both layers are ``PerFrame``: stateless, one kernel for step and clip mode,
so the two modes agree by construction.  Batch normalization uses frozen
running statistics (training is out of scope) on the channel axis; layer
normalization standardizes the last axis whatever the channel axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .module import OpCount, PerFrame, per_dtype
from .tensor import Tensor


def step_momentum(m_seq: float, length: int) -> float:
    """Convert a full-sequence normalization momentum to its per-step value.

    ``length`` is the number of steps the layer observes per sequence; the
    conversion keeps the running statistics equivalent between stepwise and
    full-sequence processing: ``2 / (L * (2 / m_seq - 1) + 1)``.
    """
    if not 0.0 < m_seq <= 1.0:
        raise ValueError(f"sequence momentum {m_seq} outside (0, 1]")
    if length < 1:
        raise ValueError(f"sequence length {length} must be >= 1")
    if length == 1:
        return float(m_seq)  # exact algebraic identity; skip double rounding
    return 2.0 / (length * (2.0 / m_seq - 1.0) + 1.0)


class BatchNorm(PerFrame):
    """Per-channel affine normalization with frozen running statistics."""

    def __init__(self, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                 running_var: Tensor, eps: float = 1e-5):
        c = gamma.shape[0]
        for name, t in (("beta", beta), ("running_mean", running_mean),
                        ("running_var", running_var)):
            if t.shape != (c,):
                raise DimensionError(f"{name} shape {t.shape} != ({c},)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        if np.any(running_var.array < 0):
            raise ValueError("running_var must be nonnegative")
        self.channels = c
        self.eps = eps
        # the per-channel affine map y = x * scale + shift, in f64: applying
        # it is one MAC per element, and a conv before it folds it in
        # (``TemporalConv.folded``)
        var = running_var.array.astype(np.float64)
        self.scale = gamma.array / np.sqrt(var + eps)
        self.shift = beta.array - running_mean.array * self.scale
        self._w = per_dtype(lambda dt: (self.scale.astype(dt), self.shift.astype(dt)))
        self.gamma, self.beta = gamma, beta
        self.running_mean, self.running_var = running_mean, running_var

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape[:1]) != (self.channels,):
            raise DimensionError(f"frame {tuple(frame_shape)} does not lead with "
                                 f"{self.channels} channels")
        return tuple(frame_shape)

    def _apply(self, xa: np.ndarray, channel_axis: int) -> np.ndarray:
        scale, shift = self._w[xa.dtype]
        if xa.ndim > channel_axis + 1:  # broadcast over the axes after the channels
            tail = (-1,) + (1,) * (xa.ndim - channel_axis - 1)
            scale, shift = scale.reshape(tail), shift.reshape(tail)
        return xa * scale + shift

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return OpCount(macs=int(np.prod(frame_shape)))


class LayerNorm(PerFrame):
    """Standardize the last axis with sample statistics, then affine."""

    def __init__(self, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
        if gamma.shape != beta.shape or gamma.rank != 1:
            raise DimensionError(f"gamma/beta must be equal rank-1, got {gamma.shape}/{beta.shape}")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.d = gamma.shape[0]
        self.eps = eps
        self.gamma, self.beta = gamma, beta
        # eps and d as 0-d arrays: a ufunc takes them faster than scalars,
        # and computes the same bits
        self._w = per_dtype(lambda dt: (gamma.array.astype(dt), beta.array.astype(dt),
                                        np.array(eps, dt), np.array(self.d, dt)))

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape[-1:]) != (self.d,):
            raise DimensionError(f"last extent of frame {tuple(frame_shape)} != {self.d}")
        return tuple(frame_shape)

    def _apply(self, xa: np.ndarray, channel_axis: int = -1) -> np.ndarray:
        """Normalize the last axis; ``channel_axis`` is not read."""
        gamma, beta, eps, d = self._w[xa.dtype]
        # the arithmetic of xa.mean and xa.var, with the mean and the
        # centred array computed once instead of once each; the divide,
        # scale and shift then run in place on the fresh centred array
        c = xa - np.add.reduce(xa, -1, keepdims=True) / d
        var = np.add.reduce(c * c, -1, keepdims=True) / d
        c /= np.sqrt(var + eps)
        c *= gamma
        c += beta
        return c

    def step_cost(self, frame_shape: tuple) -> OpCount:
        n = int(np.prod(frame_shape))
        tokens = n // self.d
        return OpCount(macs=2 * n, other=2 * n + 2 * tokens)
