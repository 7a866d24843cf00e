"""Spans around calls into cinet modules, recorded from outside the package.

``instrument`` replaces, for the duration of a ``with`` block, the
``forward_step``, ``forward`` and ``att_step`` methods of every module instance
in a built tree, plus ``cinet.graph.graph_conv``, ``cinet.attention.sda_full``
and ``Tensor.wrap``, with wrappers that record a span per call: name, start,
end and the span that was open when the call began.  Nothing inside cinet
changes; on exit every original is restored.

Norm layers called through ``_apply`` by ``StGcnBlock`` and ``EncoderBlock``
are not method calls this can see, so their time stays in the caller's self
time (``graph`` or ``attention``).
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import cinet.attention
import cinet.graph
from cinet.attention import RetroAttention
from cinet.containers import Parallel, Residual, Sequential
from cinet.graph import GlobalAverageHead, StGcnBlock
from cinet.module import CoModule
from cinet.pool import TemporalPool
from cinet.tensor import Tensor

from statebytes import layer as family

TRACED_METHODS = ("forward_step", "forward", "att_step")


class Tracer:
    """Spans in memory, four int64 per span: name id, start ns, end ns and
    the parent's span index (-1 for a root).

    ``names[i]`` is ``(label, family, kind)``.  Counters are kept per root
    label, so a count made inside a timed workload step is told apart from
    one made during untimed warm-up.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = array("q")
        self.stack = []
        self.counters = defaultdict(int)

    def __len__(self):
        return len(self.spans) // 4

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)

    def name_id(self, label: str, fam: str, kind: str) -> int:
        key = (label, fam, kind)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def begin(self, nid: int) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans) // 4)
        self.spans.extend((nid, time.perf_counter_ns(), 0, parent))

    def end(self) -> None:
        self.spans[4 * self.stack.pop() + 2] = time.perf_counter_ns()

    def count(self, counter: str, amount: int = 1) -> None:
        root = self.names[self.spans[4 * self.stack[0]]][0] if self.stack else None
        self.counters[(root, counter)] += amount

    def wrap(self, fn, label: str, fam: str, kind: str, before=None):
        nid = self.name_id(label, fam, kind)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced


def walk_modules(roots):
    """``(label, module)`` for every distinct CoModule reachable from ``roots``
    through attributes, lists and tuples; a shared instance appears once."""
    seen = set()
    out = []
    stack = [(f"m{i}", m) for i, m in reversed(list(enumerate(roots)))]
    while stack:
        label, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append((label, obj))
        found = []
        for attr, value in vars(obj).items():
            if isinstance(value, CoModule):
                found.append((f"{label}.{attr}", value))
            elif isinstance(value, (list, tuple)):
                found.extend((f"{label}.{attr}[{j}]", v) for j, v in enumerate(value)
                             if isinstance(v, CoModule))
        stack.extend(reversed(found))
    return out


def _refresh_hook(module, tracer):
    """Count cache refreshes from the stream state's step counter, read before
    the call: every ``refresh_interval`` warm steps for retroactive attention,
    every ``refresh_interval`` steps for a running average."""
    if isinstance(module, RetroAttention) and module.refresh_interval:
        first, every = module.n - 1, module.refresh_interval

        def before(args):
            t = args[0].t
            if t >= first and (t - first) % every == 0:
                tracer.count("attention.refreshes")
        return before
    if isinstance(module, TemporalPool) and module.kind == "avg" and module.refresh_interval:
        every = module.refresh_interval

        def before(args):
            t = args[0].t
            if t and t % every == 0:
                tracer.count("pool.refreshes")
        return before
    return None


@contextmanager
def instrument(roots, tracer: Tracer):
    """Record spans for calls into every module reachable from ``roots``."""
    patched = []
    functions = [
        (cinet.graph, "graph_conv", "graph", "gc"),
        (cinet.attention, "sda_full", "attention", "sda_full"),
    ]
    saved_functions = [(mod, name, getattr(mod, name)) for mod, name, _, _ in functions]
    saved_wrap = Tensor.__dict__["wrap"]
    original_wrap = saved_wrap.__func__

    def counted_wrap(arr):
        t = original_wrap(arr)
        if t.array is not arr:
            tracer.count("tensor.wrap_copy_bytes", arr.nbytes)
        return t

    try:
        for label, module in walk_modules(roots):
            for meth in TRACED_METHODS:
                if not hasattr(module, meth):
                    continue
                kind = "clip" if meth == "forward" else "step"
                hook = _refresh_hook(module, tracer) if meth != "forward" else None
                wrapped = tracer.wrap(getattr(module, meth), f"{label}.{meth}",
                                      family(module), kind, before=hook)
                setattr(module, meth, wrapped)
                patched.append((module, meth))
        for mod, name, fam, kind in functions:
            setattr(mod, name, tracer.wrap(getattr(mod, name), f"{fam}.{name}", fam, kind))
        Tensor.wrap = staticmethod(tracer.wrap(counted_wrap, "Tensor.wrap", "tensor", "wrap"))
        yield tracer
    finally:
        Tensor.wrap = saved_wrap
        for mod, name, fn in saved_functions:
            setattr(mod, name, fn)
        for module, meth in patched:
            delattr(module, meth)  # the class method shows through again


def self_times(tracer: Tracer) -> dict:
    """Aggregate spans under each bench root label.

    Returns ``{root label: {"roots": n, "total_ns": sum of root durations,
    "self_ns": {(family, kind): ns}, "calls": {(family, kind): n}}}``.
    Self time is a span's duration minus the durations of its direct
    children, so summing it over a root's subtree gives the root's duration.
    Spans under no bench root (untimed warm-up) are left out.
    """
    if not len(tracer):
        return {}
    arr = tracer.as_array()
    nid, start, end, parent = arr.T
    dur = end - start
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
    own = dur - child_ns
    root = np.arange(len(arr))
    for i in np.nonzero(has_parent)[0].tolist():  # parents precede children
        root[i] = root[parent[i]]
    n_names = len(tracer.names)
    key = nid[root] * n_names + nid
    own_sum = np.bincount(key, weights=own, minlength=n_names * n_names)
    calls = np.bincount(key, minlength=n_names * n_names)
    is_root = ~has_parent
    root_total = np.bincount(nid[is_root], weights=dur[is_root], minlength=n_names)
    root_count = np.bincount(nid[is_root], minlength=n_names)
    out = {}
    for r, (label, fam, _) in enumerate(tracer.names):
        if fam != "bench":
            continue
        group = {"roots": int(root_count[r]), "total_ns": float(root_total[r]),
                 "self_ns": defaultdict(float), "calls": defaultdict(int)}
        for k in range(n_names):
            if calls[r * n_names + k]:
                _, kfam, kkind = tracer.names[k]
                group["self_ns"][(kfam, kkind)] += float(own_sum[r * n_names + k])
                group["calls"][(kfam, kkind)] += int(calls[r * n_names + k])
        out[label] = group
    return out


def _parts(module, frame):
    """Sub-modules whose step cost is part of ``module.step_cost(frame)``."""
    if isinstance(module, Sequential):
        out = []
        for m in module.modules:
            out.append((m, frame))
            frame = m.out_frame_shape(frame)
        return out
    if isinstance(module, (Residual, Parallel)):
        return [(c, frame) for c in module.children()]
    if isinstance(module, StGcnBlock):
        return [(module.tc, (module.c_out, frame[1], 1))]
    if isinstance(module, GlobalAverageHead):
        return [(module.pool, frame)]
    return []


def step_flops_by_family(module, frame, out=None) -> dict:
    """Analytic FLOPs per input step (cinet's ``step_cost``), split by layer
    the same way traced self time is: a module keeps what its parts do not."""
    out = {} if out is None else out
    own = module.step_cost(frame).flops
    for part, part_frame in _parts(module, frame):
        own -= part.step_cost(part_frame).flops
        step_flops_by_family(part, part_frame, out)
    out[family(module)] = out.get(family(module), 0.0) + own
    return out
