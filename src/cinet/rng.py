"""Deterministic, portable random number generation for weight init.

Weight initialization must reproduce bit-identically from a config seed,
independent of platform and library versions, so we use a fixed, documented
generator instead of ``numpy.random``: xoshiro256++ with its state seeded
from splitmix64, producing doubles via the usual 53-bit mantissa path.
The identifier below is embedded in benchmark reports.
"""

from __future__ import annotations

import numpy as np

ALGORITHM = "xoshiro256++/splitmix64"

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


class Xoshiro256pp:
    """xoshiro256++ seeded via splitmix64, per the reference construction."""

    def __init__(self, seed: int):
        s = seed & _MASK
        state = []
        for _ in range(4):
            s, out = _splitmix64(s)
            state.append(out)
        self._s = state

    def _draw(self, n: int) -> list:
        """The next n 64-bit outputs, advancing the state past them."""
        s0, s1, s2, s3 = self._s
        out = [0] * n
        for i in range(n):
            x = (s0 + s3) & _MASK
            out[i] = (((x << 23) | (x >> 41)) + s0) & _MASK  # rotl(s0 + s3, 23) + s0
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK) | (s3 >> 19)  # rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def next_u64(self) -> int:
        return self._draw(1)[0]

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n doubles in [lo, hi), each from one 64-bit draw (53-bit mantissa)."""
        u = (np.array(self._draw(n), dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
        return lo + u * (1.0 / (1 << 53)) * (hi - lo)
