"""Continual-inference network building blocks.

Layers in this package process a temporal stream one step at a time with
zero recomputation while producing outputs identical to running the same
weights over the full clip at once.  Every layer exposes three call modes:

- ``forward(x)``          -- offline clip mode over a whole sequence,
- ``forward_step(s, x)``  -- consume one step, emit a ready output or ``None``,
- ``forward_steps(s, x)`` -- repeated ``forward_step`` over a sequence.

State is created per stream with ``init_state()`` and owned exclusively by
that stream; the layer objects themselves are immutable and shareable.
"""

from .errors import ConfigError, DimensionError
from .tensor import Tensor, matmul, conv_spatial, reduce
from .module import CoModule
from .conv import TemporalConv
from .pool import TemporalPool
from .norm import BatchNorm, LayerNorm, step_momentum
from .attention import (
    sda_full,
    RetroAttention,
    SingleAttention,
    MultiheadAttention,
    RecyclingPositionalEncoding,
    EncoderBlock,
)
from .graph import SkeletonGraph, graph_conv, StGcnBlock, GlobalAverageHead
from .containers import Sequential, Residual, Parallel

__all__ = [
    "ConfigError",
    "DimensionError",
    "Tensor",
    "matmul",
    "conv_spatial",
    "reduce",
    "CoModule",
    "TemporalConv",
    "TemporalPool",
    "BatchNorm",
    "LayerNorm",
    "step_momentum",
    "sda_full",
    "RetroAttention",
    "SingleAttention",
    "MultiheadAttention",
    "RecyclingPositionalEncoding",
    "EncoderBlock",
    "SkeletonGraph",
    "graph_conv",
    "StGcnBlock",
    "GlobalAverageHead",
    "Sequential",
    "Residual",
    "Parallel",
]
