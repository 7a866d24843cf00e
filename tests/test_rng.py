"""Portable generator: reference vectors, pinned streams, determinism, uniform range."""

import hashlib
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinet import rng
from cinet.config import build_model, load_config, random_stream
from cinet.rng import LANE_THRESHOLD, Xoshiro256pp, _lane_bits, _splitmix64

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_splitmix64_reference_vector():
    # first outputs of the reference splitmix64 stream seeded with 0
    state, out = _splitmix64(0)
    assert out == 0xE220A8397B1DCDAF
    state, out = _splitmix64(state)
    assert out == 0x6E789E6AA1B965F4
    state, out = _splitmix64(state)
    assert out == 0x06C45D188009454F


def test_deterministic_streams():
    a = Xoshiro256pp(99)
    b = Xoshiro256pp(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_seeds_differ():
    a = Xoshiro256pp(1)
    b = Xoshiro256pp(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_range_and_mean():
    u = Xoshiro256pp(7).uniform(4000, -1.0, 1.0)
    assert u.min() >= -1.0 and u.max() < 1.0
    assert abs(u.mean()) < 0.05
    assert np.std(u) > 0.5  # roughly 1/sqrt(3) for uniform(-1, 1)


# first outputs of the generator, pinned: a faster generator must keep the stream
KNOWN_ANSWERS = {
    0: [0x53175D61490B23DF, 0x61DA6F3DC380D507, 0x5C0FDF91EC9A7BFC, 0x02EEBF8C3BBE5E1A,
        0x7ECA04EBAF4A5EEA, 0x0543C37757F08D9A, 0xDB7490C75AB5026E, 0xD87343E6464BC959],
    99: [0x2C768082A975FE84, 0xCCC4218DAA89F206, 0x7D1DFA2025CF86C4, 0x0B0690577E943B05,
         0xA9155C4DF02AD3DC, 0x85B0B1EA8238AAC6, 0xF6A5AF026D1BD162, 0xC98C4C1548FB5442],
}


@pytest.mark.parametrize("seed", sorted(KNOWN_ANSWERS))
def test_known_answers(seed):
    g = Xoshiro256pp(seed)
    assert [g.next_u64() for _ in range(8)] == KNOWN_ANSWERS[seed]


def test_uniform_doubles_come_from_the_top_53_bits():
    g = Xoshiro256pp(0)
    u = g.uniform(8, -2.0, 3.0)
    want = [-2.0 + (x >> 11) * (1.0 / (1 << 53)) * 5.0 for x in KNOWN_ANSWERS[0]]
    assert u.tolist() == want


def test_uniform_split_across_calls_equals_one_call():
    whole = Xoshiro256pp(5)
    split = Xoshiro256pp(5)
    # scalar and lane calls interleaved; the whole runs on the lanes
    sizes = (0, 1, 7, LANE_THRESHOLD - 1, LANE_THRESHOLD, 2, 5 * LANE_THRESHOLD + 3)
    parts = [split.uniform(n, -1.0, 1.0) for n in sizes]
    assert np.array_equal(np.concatenate(parts), whole.uniform(sum(sizes), -1.0, 1.0))
    assert split.next_u64() == whole.next_u64()


# sha256 of every value the generator draws while building each bundled
# config, in draw order, as little-endian f64: the weights of the four
# configs are pinned bit for bit
WEIGHT_DRAWS = {
    "conv_stack": (288, "556ebb650679298569c8922d0e2172cc9c1f9d54d1fd17a707b109b9e7258ca8"),
    "encoder_one_block": (1080, "90edfe81a69e14d725026be824b56a4aa9f4a25dc255adaa06b7d3991ad4cdea"),
    "encoder_two_block": (1392, "69aa0df84b9e59e4d0c6394af7a3847f531dbbf9aa6549d0539e0aa44998511b"),
    "toy_costgcn": (12202, "1b8684ccf4114947cf145a9b9599f38eca05b4c0cc88752cec0fd2a2e95221ac"),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_DRAWS))
def test_bundled_config_weights_are_pinned(name, monkeypatch):
    draws = []
    uniform = Xoshiro256pp.uniform

    def recording(self, n, lo=0.0, hi=1.0):
        draws.append(uniform(self, n, lo, hi))
        return draws[-1]

    monkeypatch.setattr(Xoshiro256pp, "uniform", recording)
    path = CONFIGS / f"{name}.json"
    build_model(load_config(path), path.parent)
    values = np.concatenate(draws).astype("<f8")
    assert (values.size, hashlib.sha256(values.tobytes()).hexdigest()) == WEIGHT_DRAWS[name]


def reference_draws(state: list, n: int) -> tuple:
    """n outputs of the reference xoshiro256++ step from ``state``, one at a
    time, and the state after them."""
    mask = (1 << 64) - 1
    s0, s1, s2, s3 = state
    out = []
    for _ in range(n):
        x = (s0 + s3) & mask
        out.append((((x << 23) | (x >> 41)) + s0) & mask)
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & mask) | (s3 >> 19)
    return out, [s0, s1, s2, s3]


def seeded_state(seed: int) -> list:
    s, state = seed, []
    for _ in range(4):
        s, out = _splitmix64(s)
        state.append(out)
    return state


# both sides of the lane threshold, requests that fill their last lane
# (45 lanes of 8, 300 lanes of 16) and a long one
LANE_SIZES = (0, 1, LANE_THRESHOLD - 1, LANE_THRESHOLD, LANE_THRESHOLD + 1, 45 * 8, 300 * 16,
              10**5)


@pytest.mark.parametrize("n", LANE_SIZES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_lanes_equal_the_scalar_loop(n, seed):
    g = Xoshiro256pp(seed)
    want, state = reference_draws(seeded_state(seed), n)
    assert g._draw(n).tolist() == want
    # the state carries on from where the reference loop stopped
    assert g.next_u64() == reference_draws(state, 1)[0][0]


def test_full_lane_sizes_fill_their_last_lane():
    assert 45 * 8 % (1 << _lane_bits(45 * 8)) == 0
    assert 300 * 16 % (1 << _lane_bits(300 * 16)) == 0


def test_requests_from_the_threshold_up_run_as_lanes(monkeypatch):
    calls = []
    lanes = Xoshiro256pp._lanes
    monkeypatch.setattr(Xoshiro256pp, "_lanes", lambda self, n: calls.append(n) or lanes(self, n))
    g = Xoshiro256pp(3)
    for n in (1, LANE_THRESHOLD - 1, LANE_THRESHOLD, 10**5):
        g.uniform(n)
    assert calls == [LANE_THRESHOLD, 10**5]


def test_threads_building_the_jump_tables_agree(monkeypatch):
    # every thread starts from an empty table cache, so they race to build it
    monkeypatch.setattr(rng, "_JUMPS", {})
    want = reference_draws(seeded_state(11), 5000)[0]
    got = [None] * 6

    def draw(i):
        got[i] = Xoshiro256pp(11)._draw(5000)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None and g.tolist() == want for g in got)


def test_long_stream_is_pinned():
    # 330,000 draws in one call, on the lanes; the digest was taken with the
    # scalar loop alone
    x = random_stream(1, 4400, (3, 25), "f32").array
    assert hashlib.sha256(x.astype("<f4").tobytes()).hexdigest() == (
        "c0bba6c22b559d4091e71bbd1d2f391398dcb8362cbf5dc1138939c9b00a2266")
