"""Portable generator: reference vectors, pinned streams, determinism, uniform range."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cinet.config import build_model, load_config
from cinet.rng import Xoshiro256pp, _splitmix64

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
    parts = [split.uniform(n, -1.0, 1.0) for n in (0, 1, 7, 300, 2)]
    assert np.array_equal(np.concatenate(parts), whole.uniform(310, -1.0, 1.0))
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
