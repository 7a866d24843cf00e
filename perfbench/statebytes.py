"""Bytes of arrays reachable from a stream state, found by walking it from outside.

The walk knows containers and object layouts, not cinet's state classes, so a
new state representation (ring buffers, say) is measured without editing it.
Each array is counted once however many references reach it; a view counts
the bytes it spans, which is what the state keeps alive for the stream.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

_CONTAINERS = (list, tuple, deque, set, frozenset)


def _attributes(obj):
    """Attribute values of an object with ``__dict__`` and/or ``__slots__``."""
    values = list(getattr(obj, "__dict__", {}).values())
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                values.append(getattr(obj, name))
            except AttributeError:  # slot never assigned
                pass
    return values


def layer(obj) -> str:
    """Short name of the module defining ``obj``'s class (``cinet.conv`` -> ``conv``)."""
    return type(obj).__module__.rsplit(".", 1)[-1]


def walk(root):
    """Yield ``(object, owner)`` for everything reachable from ``root`` once.

    ``owner`` is the module of the nearest enclosing object that is not a
    plain container: arrays held in a list, deque or dict are charged to the
    object holding that container, and those reachable from no object go to
    ``"root"``.
    """
    seen = set()
    stack = [(root, "root")]
    while stack:
        obj, owner = stack.pop()
        if obj is None or isinstance(obj, (int, float, str, bytes, bool)):
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj, owner
        if isinstance(obj, (np.ndarray, np.generic)):
            continue
        if isinstance(obj, dict):
            stack.extend((v, owner) for v in obj.values())
            stack.extend((k, owner) for k in obj.keys())
        elif isinstance(obj, _CONTAINERS):
            stack.extend((v, owner) for v in obj)
        else:
            # a Tensor is a value, not a piece of state: its array stays
            # charged to whatever holds the Tensor
            child_owner = owner if layer(obj) == "tensor" else layer(obj)
            stack.extend((v, child_owner) for v in _attributes(obj))


def array_bytes_by_owner(root) -> dict:
    """Bytes of arrays reachable from ``root``, keyed by owner (see ``walk``)."""
    out = defaultdict(int)
    for obj, owner in walk(root):
        if isinstance(obj, (np.ndarray, np.generic)):
            out[owner] += int(obj.nbytes)
    return dict(out)


def state_bytes(root) -> int:
    """Total bytes of arrays reachable from ``root``."""
    return sum(array_bytes_by_owner(root).values())
