"""Continual spatio-temporal graph convolution over a fixed skeleton.

Each step applies a spatial graph convolution (stateless, per frame), then a
continual temporal convolution, batch normalization, a residual delayed to
land on the aligned time-step, and ReLU:

    out_t = ReLU( Delay(Res(x_t)) + BN(CoTC(GC(x_t))) )

The block steps on ``(C, V)`` frames: its 1x1 temporal conv takes them as
they are, with no unit spatial axis.  A stream keeps the conv's ring alone,
made when the stream binds (``cinet.module.Stream``).  The shortcut is
linear, so ``Delay`` needs no ring of its own: the conv's ring holds one
partial sum per pending emission, and an input's shortcut is added into
the slot of the emission aligned with it as the input arrives
(``TemporalConv._step``'s lagged term).  A strided block hands in only the
inputs an emission aligns with, every ``stride``-th, so its shortcut
projects no frame that no emission uses.  Every block's step is graph
conv, temporal conv, ReLU.

Inference batch normalization is a fixed affine map per channel, so the
config builder folds it into the temporal convolution's taps and bias
(``TemporalConv.folded``) and picks the shortcut before it builds the
block: the block gets ``BN(CoTC(.))`` as one conv, and runs what it gets.

The skeleton is a set of normalized adjacency partitions; each partition is
normalized symmetrically as ``D^-1/2 (A) D^-1/2`` at construction (with the
self-loop added before normalization for single-partition graphs).  The
graph convolution ``sum_p W_p^T x A_p`` runs as one ``x @ A_cat``, all
partitions side by side, and one channel mix with the stacked ``W_p``, on a
frame in step mode and on the whole clip in clip mode.  The block stacks its
weights in both stream dtypes at construction; the ``graph_conv`` reference
stacks them per call.

The classifier head averages over time and nodes, then applies a linear
map.  All three are linear, so it takes the node mean and the classifier
weight on each frame and averages the ``(classes,)`` logits over time,
adding the bias last: a stream keeps a ring of logits, not of frames, in
step and clip mode alike.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .conv import TemporalConv
from .errors import DimensionError
from .module import CoModule, OpCount, PerFrame, per_dtype
from .pool import TemporalPool
from .tensor import Tensor, _shared


def _sym_normalize(a: np.ndarray) -> np.ndarray:
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv[:, None] * a * inv[None, :]


class SkeletonGraph:
    """Fixed skeleton with one or more normalized adjacency partitions."""

    def __init__(self, partitions: Sequence[Tensor]):
        if not partitions:
            raise DimensionError("need at least one adjacency partition")
        v = partitions[0].shape[0]
        for p in partitions:
            if p.shape != (v, v):
                raise DimensionError(f"partition shape {p.shape} != ({v},{v})")
        self.v = v
        self.partitions = list(partitions)

    @staticmethod
    def from_edges(v: int, edges: Sequence[tuple], partitions: int = 1,
                   root: int = 0, dtype: str = "f64") -> "SkeletonGraph":
        """Build from undirected edges between nodes ``0 .. v-1``; 1
        partition (normalized A+I) or the 3-way split into self, centripetal
        and centrifugal neighbors of ``root``.  An edge or a root naming
        another node is refused."""
        if not 0 <= root < v:
            raise DimensionError(f"root {root} outside [0, {v})")
        a = np.zeros((v, v))
        for i, j in edges:
            if not (0 <= i < v and 0 <= j < v):
                raise DimensionError(f"edge {(i, j)} has a node outside [0, {v})")
            a[i, j] = a[j, i] = 1.0
        if partitions == 1:
            mats = [_sym_normalize(a + np.eye(v))]
        elif partitions == 3:
            dist = _bfs_distance(a, root)
            # edge (i, j) points toward the root when j is nearer to it than i
            toward = ((a > 0) & (dist[None] < dist[:, None])).astype(a.dtype)
            away = ((a > 0) & (dist[None] > dist[:, None])).astype(a.dtype)
            mats = [np.eye(v), _sym_normalize(toward), _sym_normalize(away)]
        else:
            raise ValueError(f"unsupported partition count {partitions}")
        return SkeletonGraph([Tensor(m, dtype=dtype) for m in mats])

    @staticmethod
    def chain(v: int, partitions: int = 1, dtype: str = "f64") -> "SkeletonGraph":
        """Simple path graph 0-1-...-(v-1); a deterministic test skeleton."""
        return SkeletonGraph.from_edges(
            v, [(i, i + 1) for i in range(v - 1)], partitions, dtype=dtype
        )


def _bfs_distance(a: np.ndarray, root: int) -> np.ndarray:
    v = a.shape[0]
    dist = np.full(v, np.inf)
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(a[i])[0]:
                if dist[j] == np.inf:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return dist


def _stacked(graph: SkeletonGraph, w_gc: Sequence[Tensor], dtype: np.dtype) -> tuple:
    """``A_cat`` (v, P*v), the partitions side by side, and ``W`` (c_out,
    c_in*P), column ``c*P + p`` holding ``W_p[c]``, in ``dtype``."""
    a_cat = np.concatenate([a.array for a in graph.partitions], axis=1).astype(dtype)
    w = np.stack([w.array for w in w_gc], axis=1)  # (c_in, P, c_out)
    return a_cat, np.ascontiguousarray(w.reshape(-1, w.shape[-1]).T, dtype=dtype)


def _gc(xa: np.ndarray, a_cat: np.ndarray, w_cat: np.ndarray) -> np.ndarray:
    """Graph convolution of (..., c_in, v) frames: every partition's
    aggregation in one ``x @ A_cat``, whose rows read as (c_in*P, v) per
    frame, then one channel mix with the stacked weights."""
    v = xa.shape[-1]
    if xa.ndim == 2:  # a step's frame
        return np.dot(w_cat, np.dot(xa, a_cat).reshape(w_cat.shape[1], v))
    y = xa.reshape(-1, v) @ a_cat
    return w_cat @ y.reshape(xa.shape[:-2] + (w_cat.shape[1], v))


def graph_conv(x_t: Tensor, graph: SkeletonGraph, w_gc: Sequence[Tensor]) -> Tensor:
    """Spatial graph convolution of one (c_in, v) frame.

    Sums ``W_p^T x A_p`` over partitions: channel mix, then neighborhood
    aggregation with the partition's normalized adjacency.
    """
    if x_t.rank != 2 or x_t.shape[1] != graph.v:
        raise DimensionError(f"frame must be (c_in, {graph.v}), got {x_t.shape}")
    if len(w_gc) != len(graph.partitions):
        raise DimensionError(
            f"{len(w_gc)} weight sets for {len(graph.partitions)} partitions"
        )
    return _shared(_gc(x_t.array, *_stacked(graph, w_gc, x_t.array.dtype)))


class StGcnBlock(CoModule):
    """The graph conv ``w_gc``, one (c_in, c_out) weight per partition of
    ``graph``; ``tc``, a 1x1 c_out -> c_out temporal conv with its BatchNorm
    folded in; and ``shortcut``, ``None`` or a per-frame map of (c_in, V)
    frames to (c_out, V), ``Identity`` or ``Pointwise``; then the ReLU."""

    def __init__(self, graph: SkeletonGraph, w_gc: Sequence[Tensor], tc: TemporalConv,
                 shortcut: Optional[PerFrame] = None):
        if tc.k_h != 1 or tc.k_w != 1:
            raise DimensionError("block temporal conv must be pointwise spatially")
        if len(w_gc) != len(graph.partitions):
            raise DimensionError(f"{len(w_gc)} weight sets for {len(graph.partitions)} partitions")
        self.graph = graph
        self.w_gc = list(w_gc)
        self.c_in = w_gc[0].shape[0]
        self.c_out = w_gc[0].shape[1]
        for w in w_gc:
            if w.shape != (self.c_in, self.c_out):
                raise DimensionError(f"gc weight shape {w.shape}")
        if tc.c_in != self.c_out or tc.c_out != self.c_out:
            raise DimensionError(
                f"temporal conv is {tc.c_in}->{tc.c_out}, expected {self.c_out}->{self.c_out}"
            )
        self._frame = (self.c_in, graph.v)
        self._frame_out = (self.c_out, graph.v)
        if shortcut is not None and (not isinstance(shortcut, PerFrame)
                                     or shortcut.out_frame_shape(self._frame) != self._frame_out):
            raise DimensionError(f"shortcut must map {self._frame} frames to {self._frame_out}")
        self.tc = tc
        self.shortcut = shortcut
        # (A_cat, W), and ReLU's 0 as a 0-d array
        self._w = per_dtype(lambda dt: _stacked(graph, self.w_gc, dt) + (np.zeros((), dt),))

    def delay(self) -> int:
        return self.tc.delay()

    def receptive_field(self) -> int:
        return self.tc.receptive_field()

    def stride(self) -> int:
        return self.tc.stride()

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape) != self._frame:
            raise DimensionError(f"frame {tuple(frame_shape)} != {self._frame}")
        return self._frame_out

    def _state(self, frame_shape: tuple, dtype: np.dtype):
        return self.tc._state(self._frame_out, dtype)  # the block itself keeps nothing

    def _step(self, state, xa: np.ndarray) -> Optional[np.ndarray]:
        # the shortcut of an input an emission aligns with rides in the
        # conv's ring to that emission; the conv's output is a fresh array
        # that no state holds, so the ReLU runs in place on it
        a_cat, w_cat, zero = self._w[xa.dtype]
        lagged = None
        if self.shortcut is not None and state.t % self.tc.temporal_stride == 0:
            lagged = self.shortcut._apply(xa, 0)
        y = self.tc._step(state, _gc(xa, a_cat, w_cat), lagged)
        return y if y is None else np.maximum(y, zero, out=y)

    def _clip(self, xa: np.ndarray) -> np.ndarray:
        # a fresh array, as in step mode: the epilogue runs in place
        a_cat, w_cat, zero = self._w[xa.dtype]
        y = self.tc._clip(_gc(xa, a_cat, w_cat))
        if self.shortcut is not None:
            # emission j lands on input j*stride, as in step mode
            y += self.shortcut._apply(xa[:y.shape[0] * self.stride():self.stride()], 1)
        return np.maximum(y, zero, out=y)

    # -- analytic cost -------------------------------------------------------------

    def _gc_cost(self) -> OpCount:
        # in ``_gc``'s order: ``x @ A_cat``, then the mix, whose contraction
        # over ``c_in*P`` sums the partitions
        p, v = len(self.graph.partitions), self.graph.v
        return OpCount(macs=p * v * self.c_in * (v + self.c_out))

    def _per_emission(self) -> OpCount:
        v = self.graph.v
        cost = self.tc._per_emission(self._frame_out)
        if self.shortcut is None:
            return cost + OpCount(other=self.c_out * v)  # relu
        cost = cost + self.shortcut.step_cost((self.c_in, v))
        return cost + OpCount(other=2 * self.c_out * v)  # add + relu

    def step_cost(self, frame_shape: tuple) -> OpCount:
        return self._gc_cost() + self._per_emission().per_input(self.stride())

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        return self._gc_cost().scaled(t) + self._per_emission().scaled(self.out_len(t))


class GlobalAverageHead(CoModule):
    """Running global average over time and nodes, then a linear classifier,
    taken as per-frame logits averaged over time, then the bias."""

    def __init__(self, pool_window: int, weight: Tensor, bias: Tensor):
        self.pool = TemporalPool("avg", pool_window)
        if weight.rank != 2 or bias.shape != weight.shape[1:]:
            raise DimensionError(f"weight {weight.shape} and bias {bias.shape} are not "
                                 "(channels, classes) and (classes,)")
        self.channels, self.classes = weight.shape
        self.weight = weight
        self.bias = bias
        self._w = per_dtype(lambda dt: (weight.array.astype(dt), bias.array.astype(dt)))

    def delay(self) -> int:
        return self.pool.delay()

    def receptive_field(self) -> int:
        return self.pool.window

    def out_frame_shape(self, frame_shape: tuple) -> tuple:
        if tuple(frame_shape[:1]) != (self.channels,):
            raise DimensionError(f"frame {tuple(frame_shape)} does not lead with "
                                 f"{self.channels} channels")
        return (self.classes,)

    def _state(self, frame_shape: tuple, dtype: np.dtype):
        return self.pool._state((self.classes,), dtype)  # the head itself keeps nothing

    def _step(self, state, a: np.ndarray) -> Optional[np.ndarray]:
        w, b = self._w[a.dtype]
        nodes = a if a.ndim == 2 else a.reshape(self.channels, -1)
        pooled = self.pool._step(state, np.dot(self._node_mean(nodes), w))
        return None if pooled is None else pooled + b

    def _clip(self, a: np.ndarray) -> np.ndarray:
        w, b = self._w[a.dtype]
        nodes = a.reshape(a.shape[0], self.channels, math.prod(a.shape[2:]))
        return self.pool._clip(self._node_mean(nodes) @ w) + b

    @staticmethod
    def _node_mean(a: np.ndarray) -> np.ndarray:
        """Mean over the last axis, as ``a.mean(-1)`` computes it: the sum,
        then one in-place divide, without ``mean``'s dispatch."""
        m = np.add.reduce(a, axis=-1)
        m /= a.shape[-1]
        return m

    def _frame_cost(self, frame_shape: tuple) -> OpCount:
        """Node mean and classifier of one input frame."""
        n = int(np.prod(frame_shape))  # (n - C) node sums and C divides
        return OpCount(macs=self.channels * self.classes, other=n)

    def step_cost(self, frame_shape: tuple) -> OpCount:
        bias = OpCount(other=self.classes)
        return self._frame_cost(frame_shape) + self.pool.step_cost((self.classes,)) + bias

    def clip_cost(self, frame_shape: tuple, t: int) -> OpCount:
        bias = OpCount(other=self.classes).scaled(self.out_len(t))
        return (self._frame_cost(frame_shape).scaled(t)
                + self.pool.clip_cost((self.classes,), t) + bias)
