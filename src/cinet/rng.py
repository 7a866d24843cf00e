"""Deterministic, portable random number generation for weight init.

Weight initialization must reproduce bit-identically from a config seed,
independent of platform and library versions, so we use a fixed, documented
generator instead of ``numpy.random``: xoshiro256++ with its state seeded
from splitmix64, producing doubles via the usual 53-bit mantissa path.
The identifier below is embedded in benchmark reports.

A request of fewer than ``LANE_THRESHOLD`` draws runs the scalar loop of the
reference construction.  A larger request of ``n`` draws runs as ``L`` lanes
of ``J`` consecutive outputs each (``J`` a power of two near ``n ** (1/3)``,
``L = ceil(n / J)``), stepped together in numpy ``uint64``:

- The state transition ``M`` is linear over GF(2) on the 256 state bits
  (Blackman & Vigna, *Scrambled Linear Pseudorandom Number Generators*), so
  lane ``i`` starts at ``M^(i J) s``.  The lane starts come from doubling:
  lanes ``[m, 2m)`` are lanes ``[0, m)`` jumped by ``M^(m J)``, and ``m J``
  is a power of two.
- ``M^(2^k)`` is kept as a byte table: entry ``(v, p)`` is the XOR of the
  matrix columns that byte ``p`` of a state selects when it holds ``v``.
  Applying a matrix to a batch of states is then 32 gathers and their XOR.
  The smallest power comes from stepping the 256 unit states through the
  transition itself; each larger one squares the one below by applying its
  table to its own columns.  The tables are built on first use, once per
  process, and cached in this module.  Everything is integer shifts, masks
  and XORs on whole words, so no result depends on byte order.
- Lane ``i``'s outputs are draws ``[i J, (i + 1) J)``, so the lanes read out
  lane by lane are the scalar stream, and the state left behind is the last
  lane's after ``n - (L - 1) J`` steps: exactly where the scalar loop stops.

The lanes change how the stream is computed, not the stream: every draw and
every state equals the scalar loop's, so ``ALGORITHM`` and every weight
built from a seed stay the same.  The threshold is a measured constant: below
it the lanes' fixed per-call cost exceeds what they save.
"""

from __future__ import annotations

import numpy as np

ALGORITHM = "xoshiro256++/splitmix64"

# requests of at least this many draws run as lanes: the two paths cost the
# same near 290 draws (2-core x86 VM, numpy 2.4, tables built)
LANE_THRESHOLD = 320

_MASK = (1 << 64) - 1
_U64 = np.uint64
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=_U64)[:, None]  # (8, 1): byte k of a word
_BYTE_INDEX = np.arange(32)[:, None]  # (32, 1): byte p = 8 w + k of a state
_UNIT_BITS = 1 << np.arange(8)  # the table rows that hold single columns


def _lane_bits(n: int) -> int:
    """log2 of the lane length for a request of n draws: near the cube root of
    n, where the steps' per-call cost and the jumps' per-lane cost balance."""
    return int(n).bit_length() // 3


_LANE_BITS_MIN = _lane_bits(LANE_THRESHOLD)


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def _step(s: np.ndarray, tmp: np.ndarray, out: np.ndarray | None = None) -> None:
    """One xoshiro256++ step of every lane of ``s``, a ``(4, lanes)`` uint64
    state, in place; the lanes' outputs go to ``out`` when it is given."""
    s0, s1, s2, s3 = s
    if out is not None:
        np.add(s0, s3, out=out)
        np.left_shift(out, _U64(23), out=tmp)
        out >>= _U64(41)
        out |= tmp
        out += s0  # rotl(s0 + s3, 23) + s0
    np.left_shift(s1, _U64(17), out=tmp)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= tmp
    np.left_shift(s3, _U64(45), out=tmp)
    s3 >>= _U64(19)
    s3 |= tmp  # rotl(s3, 45)


def _table(cols: np.ndarray) -> np.ndarray:
    """The byte table of the matrix whose column ``j`` is state ``cols[:, j]``:
    row ``v * 32 + p`` is the XOR of columns ``8 p + i`` over the bits ``i``
    of ``v``."""
    by_byte = cols.T.reshape(32, 8, 4)  # [p, i]: column 8 p + i
    t = np.empty((256, 32, 4), dtype=_U64)
    t[0] = 0
    for i in range(8):
        np.bitwise_xor(t[: 1 << i], by_byte[:, i], out=t[1 << i: 2 << i])
    return t.reshape(256 * 32, 4)


def _columns(table: np.ndarray) -> np.ndarray:
    """The matrix of ``table`` as ``(4, 256)`` states, column ``j`` in ``[:, j]``."""
    return table.reshape(256, 32, 4)[_UNIT_BITS].transpose(1, 0, 2).reshape(256, 4).T


def _apply(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrix of ``table`` times each state of ``x``, a ``(4, B)`` uint64
    array; returns ``(4, B)``."""
    v = ((x[:, None, :] >> _BYTE_SHIFTS) & _U64(255)).reshape(32, -1).astype(np.intp)
    v *= 32
    v += _BYTE_INDEX
    return np.bitwise_xor.reduce(table.take(v, axis=0), axis=0).T  # over the 32 bytes


_JUMPS: dict = {}  # k -> byte table of M^(2^k), built on first use


def _jump(k: int) -> np.ndarray:
    """The byte table of ``M^(2^k)``, for ``k >= _LANE_BITS_MIN``."""
    table = _JUMPS.get(k)
    if table is None:
        if k == _LANE_BITS_MIN:
            j = np.arange(256)
            cols = np.zeros((4, 256), dtype=_U64)
            cols[j // 64, j] = _U64(1) << (j % 64).astype(_U64)
            tmp = np.empty(256, dtype=_U64)
            for _ in range(1 << k):
                _step(cols, tmp)
        else:
            half = _jump(k - 1)
            cols = _apply(half, _columns(half))
        # a racing thread builds the same table, so whichever lands is right
        table = _JUMPS.setdefault(k, _table(cols))
    return table


class Xoshiro256pp:
    """xoshiro256++ seeded via splitmix64, per the reference construction."""

    def __init__(self, seed: int):
        s = seed & _MASK
        state = []
        for _ in range(4):
            s, out = _splitmix64(s)
            state.append(out)
        self._s = state

    def _scalar(self, n: int) -> list:
        """The next n 64-bit outputs, one at a time, advancing the state past them."""
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

    def _lanes(self, n: int) -> np.ndarray:
        """The next n outputs as lanes (see the module docstring)."""
        bits = _lane_bits(n)
        length = 1 << bits
        lanes = -(-n // length)
        s = np.empty((4, lanes), dtype=_U64)
        s[:, 0] = self._s
        m = 1
        while m < lanes:
            w = min(m, lanes - m)
            s[:, m: m + w] = _apply(_jump(bits), s[:, :w])
            m *= 2
            bits += 1
        out = np.empty((length, lanes), dtype=_U64)
        tmp = np.empty(lanes, dtype=_U64)
        last = n - (lanes - 1) * length  # draws taken from the last lane
        for t in range(length):
            _step(s, tmp, out[t])
            if t + 1 == last:
                self._s = [int(w) for w in s[:, -1]]
        return out.T.reshape(-1)[:n]

    def _draw(self, n: int) -> np.ndarray:
        """The next n 64-bit outputs as uint64, advancing the state past them."""
        if n >= LANE_THRESHOLD:
            return self._lanes(n)
        return np.array(self._scalar(n), dtype=_U64)

    def next_u64(self) -> int:
        return self._scalar(1)[0]

    def uniform(self, n: int, lo=0.0, hi=1.0) -> np.ndarray:
        """n doubles in [lo, hi), each from one 64-bit draw (53-bit mantissa).
        ``lo`` and ``hi`` may be length-n arrays, one range per draw."""
        u = (self._draw(n) >> _U64(11)).astype(np.float64)
        return lo + u * (1.0 / (1 << 53)) * (hi - lo)
