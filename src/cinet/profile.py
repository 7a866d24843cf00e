"""Per-layer step profile of one stream, taken inside the package.

``profile(model, x, steps)`` runs a fresh stream of ``model`` for ``steps``
steps over the frames of the ``(T, ...)`` clip ``x``, step ``t`` taking
frame ``t mod T``, and returns one row per module that recursing
``children()`` from ``model`` reaches, each module before its children.  For
the call's duration each of those modules' ``_step`` is wrapped on the
instance, not on its class, so other instances run unwrapped; the wrappers
are removed when the call returns or raises.  A module that two paths reach
gets one row, at the first.  A row holds:

- ``path``: ``"root"``, then ``".i"`` for a module's ``i``-th child;
- ``kind``: the module's class name;
- ``step_us``: self time per step in µs, the time in the module's ``_step``
  less the time in its children's, summed over the run and divided by
  ``steps``, so the rows sum to the root's time per step.  A wrapper's own
  timer calls land in its parent's self time;
- ``step_cost``: ``step_cost(frame).flops``, the analytic FLOPs per input
  step of the module, its children's included, for the frame shape its
  ``_step`` was handed; ``None`` when no step reached it;
- ``state_bytes``: bytes of the arrays in the state the module's ``_step``
  was handed that no child's state holds, so the rows sum to the stream's
  state bytes;
- ``delay`` and ``warmup``: the module's ``delay()`` and ``warmup()``.

A layer that its parent runs other than as a child (a block's conv, norm or
shortcut) has no row: its time, cost and state are its parent's.  The
wrappers sit on shared instances, so profile a model that no other thread
steps meanwhile.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import List

import numpy as np

from .module import CoModule, _frame_shape
from .tensor import Tensor


def _state_arrays(state) -> dict:
    """``{id: nbytes}`` of the arrays reachable from a layer state through
    lists, tuples and slotted state objects."""
    found, stack = {}, [state]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            found[id(v)] = v.nbytes
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        else:
            stack.extend(getattr(v, name, None)
                         for cls in type(v).__mro__ for name in getattr(cls, "__slots__", ()))
    return found


def _timed(step, rec: list, open_ns: list):
    """``step`` adding its self time to ``rec[0]`` and its whole time to the
    caller's entry of ``open_ns``; its first call keeps its state and frame
    shape in ``rec[1:]``."""
    def run(state, a, *rest):
        if rec[2] is None:
            rec[1:] = state, a.shape
        open_ns.append(0)
        t0 = perf_counter_ns()
        y = step(state, a, *rest)
        ns = perf_counter_ns() - t0
        rec[0] += ns - open_ns.pop()
        open_ns[-1] += ns
        return y
    return run


def profile(model: CoModule, x: Tensor, steps: int) -> List[dict]:
    """Rows of a ``steps``-step stream of ``model`` over ``x``'s frames
    (see the module docstring)."""
    xa = x.array
    if steps < 1 or len(xa) == 0:
        raise ValueError(f"need steps >= 1 and a frame, got {steps} steps of {len(xa)} frames")
    found, stack = {}, [("root", model)]
    while stack:
        path, m = stack.pop()
        if id(m) not in found:
            found[id(m)] = (path, m, [0, None, None])
            stack.extend((f"{path}.{i}", c) for i, c in reversed(list(enumerate(m.children()))))
    layer = model.init_state().bind(model, _frame_shape(xa), xa.dtype)
    open_ns = [0]
    try:
        for _, m, rec in found.values():
            m._step = _timed(m._step, rec, open_ns)
        for t in range(steps):
            model._step(layer, xa[t % len(xa)])
    finally:
        for _, m, _ in found.values():
            del m._step
    rows = []
    for path, m, (ns, state, shape) in found.values():
        own = _state_arrays(state)
        for c in m.children():
            for k in _state_arrays(found[id(c)][2][1]):
                own.pop(k, None)
        rows.append({"path": path, "kind": type(m).__name__, "step_us": ns / steps / 1e3,
                     "step_cost": None if shape is None else float(m.step_cost(shape).flops),
                     "state_bytes": sum(own.values()), "delay": m.delay(),
                     "warmup": m.warmup()})
    return rows
