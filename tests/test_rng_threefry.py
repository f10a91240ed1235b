"""Threefry cipher: known-answer vectors, scalar/vector parity, statistics."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng.threefry import THREEFRY_DEFAULT_ROUNDS, threefry2x64_vec
from tests.oracle import threefry2x64

U64 = st.integers(min_value=0, max_value=2**64 - 1)

# Known-answer vectors from the Random123 distribution (kat_vectors file):
# (rounds, counter, key) -> expected output.
KAT = [
    (20, (0, 0), (0, 0), (0xC2B6E3A8C2C69865, 0x6F81ED42F350084D)),
    (
        20,
        (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF),
        (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF),
        (0xE02CB7C4D95D277A, 0xD06633D0893B8B68),
    ),
    (
        20,
        (0x243F6A8885A308D3, 0x13198A2E03707344),
        (0xA4093822299F31D0, 0x082EFA98EC4E6C89),
        (0x263C7D30BB0F0AF1, 0x56BE8361D3311526),
    ),
    (13, (0, 0), (0, 0), (0xF167B032C3B480BD, 0xE91F9FEE4B7A6FB5)),
    (
        13,
        (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF),
        (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF),
        (0xCCDEC5C917A874B1, 0x4DF53ABCA26CEB01),
    ),
]


@pytest.mark.parametrize("rounds,counter,key,expected", KAT)
def test_known_answer_vectors(rounds, counter, key, expected):
    assert threefry2x64(counter, key, rounds) == expected


@pytest.mark.parametrize("rounds,counter,key,expected", KAT)
def test_known_answer_vectors_vectorised(rounds, counter, key, expected):
    v0, v1 = threefry2x64_vec(
        np.uint64(counter[0]),
        np.uint64(counter[1]),
        np.uint64(key[0]),
        np.uint64(key[1]),
        rounds,
    )
    assert (int(v0), int(v1)) == expected


@given(c0=U64, c1=U64, k0=U64, k1=U64)
@settings(max_examples=200, deadline=None)
def test_vector_matches_scalar(c0, c1, k0, k1):
    s = threefry2x64((c0, c1), (k0, k1))
    v0, v1 = threefry2x64_vec(
        np.uint64(c0), np.uint64(c1), np.uint64(k0), np.uint64(k1)
    )
    assert s == (int(v0), int(v1))


def test_vectorised_batch_matches_scalar_elementwise():
    rng = np.random.default_rng(3)
    c0 = rng.integers(0, 2**64, 256, dtype=np.uint64)
    c1 = rng.integers(0, 2**64, 256, dtype=np.uint64)
    k0 = rng.integers(0, 2**64, 256, dtype=np.uint64)
    k1 = rng.integers(0, 2**64, 256, dtype=np.uint64)
    v0, v1 = threefry2x64_vec(c0, c1, k0, k1)
    for i in range(256):
        expect = threefry2x64((int(c0[i]), int(c1[i])), (int(k0[i]), int(k1[i])))
        assert expect == (int(v0[i]), int(v1[i]))


@pytest.mark.parametrize("per_lane_key", [False, True])
def test_vectorised_broadcast_block_matches_scalar(per_lane_key):
    """A ``(k, n)`` counter block against ``(n,)`` keys — the shape a
    k-draw stream call hands the cipher — equals the scalar cipher."""
    rng = np.random.default_rng(5)
    k, n = 4, 33
    base = rng.integers(0, 2**64, n, dtype=np.uint64)
    base[0] = 2**64 - 2  # the counter block wraps in this lane
    c0 = base + np.arange(k, dtype=np.uint64)[:, None]
    k0 = rng.integers(0, 2**64, n, dtype=np.uint64) if per_lane_key else np.uint64(7)
    k1 = rng.integers(0, 2**64, n, dtype=np.uint64)
    v0, v1 = threefry2x64_vec(c0, np.uint64(0), k0, k1)
    assert v0.shape == v1.shape == (k, n)
    for j in range(k):
        for i in range(n):
            key0 = int(k0[i]) if per_lane_key else int(k0)
            expect = threefry2x64((int(c0[j, i]), 0), (key0, int(k1[i])))
            assert expect == (int(v0[j, i]), int(v1[j, i]))


def test_vectorised_scalar_keys_over_array_counters():
    c0 = np.arange(2**64 - 3, 2**64, dtype=np.uint64)
    v0, v1 = threefry2x64_vec(c0, np.uint64(9), np.uint64(1), np.uint64(2))
    for i, c in enumerate(c0):
        assert threefry2x64((int(c), 9), (1, 2)) == (int(v0[i]), int(v1[i]))


#: Per operand (c0, c1, k0, k1), a (2, 3) grid of words with 2**64 - 1 and
#: its neighbours in it; an operand's form takes its corner, its first row
#: or the whole grid.
_GRIDS = [np.array(rows, dtype=np.uint64) for rows in (
    [[2**64 - 1, 0, 7], [2**64 - 2, 1, 2**63]],
    [[2**64 - 1, 5, 0], [3, 2**64 - 1, 2**32]],
    [[11, 2**64 - 1, 0], [2**64 - 1, 9, 1]],
    [[0, 2**63 - 1, 2**64 - 1], [4, 2**64 - 1, 8]],
)]
_FORMS = {
    "scalar": lambda g: np.uint64(g[0, 0]),
    "0-d": lambda g: np.array(g[0, 0], dtype=np.uint64),
    "(m,)": lambda g: g[0].copy(),
    "(k, m)": lambda g: g.copy(),
}


def _word(form, grid, a, b):
    """The word of lane ``(a, b)`` of an operand of ``form``."""
    if form in ("scalar", "0-d"):
        return int(grid[0, 0])
    return int(grid[0, b] if form == "(m,)" else grid[a, b])


@pytest.mark.parametrize("forms", itertools.product(_FORMS, repeat=4),
                         ids="/".join)
def test_every_operand_form_matches_the_scalar_oracle(forms):
    """Scalar, 0-d, ``(m,)`` and ``(k, m)`` operands, in every mix over
    ``(c0, c1, k0, k1)``, broadcast to one result whose every lane is the
    scalar cipher of that lane's words — counters at 2**64 - 1 included."""
    args = [_FORMS[f](g) for f, g in zip(forms, _GRIDS)]
    x0, x1 = threefry2x64_vec(*args)
    shape = np.broadcast(*args).shape
    assert x0.shape == x1.shape == shape
    for a, b in np.ndindex(2, 3):
        c0, c1, k0, k1 = (_word(f, g, a, b) for f, g in zip(forms, _GRIDS))
        lane = (a, b)[2 - len(shape):]
        assert (int(x0[lane]), int(x1[lane])) == threefry2x64((c0, c1),
                                                              (k0, k1))


def test_vectorised_allocates_only_its_state():
    """The rounds run in place: at 2**14 counters the peak is the two
    returned state words and one scratch buffer, not a temporary per op."""
    n = 1 << 14
    counters = np.arange(n, dtype=np.uint64)
    ids = np.arange(n, dtype=np.uint64)
    threefry2x64_vec(counters, np.uint64(0), np.uint64(7), ids)  # warm up
    tracemalloc.start()
    try:
        threefry2x64_vec(counters, np.uint64(0), np.uint64(7), ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 8


def test_counter_sensitivity():
    """Adjacent counters produce unrelated outputs (avalanche)."""
    a = threefry2x64((0, 0), (1, 2))
    b = threefry2x64((1, 0), (1, 2))
    # At least a quarter of the 128 bits should differ.
    diff = bin((a[0] ^ b[0]) | ((a[1] ^ b[1]) << 64)).count("1")
    assert diff > 32


def test_key_sensitivity():
    a = threefry2x64((5, 6), (0, 0))
    b = threefry2x64((5, 6), (1, 0))
    diff = bin((a[0] ^ b[0]) | ((a[1] ^ b[1]) << 64)).count("1")
    assert diff > 32


def test_rounds_validation():
    with pytest.raises(ValueError):
        threefry2x64((0, 0), (0, 0), rounds=33)
    with pytest.raises(ValueError):
        threefry2x64_vec(np.uint64(0), np.uint64(0), np.uint64(0), np.uint64(0), -1)


def test_default_rounds_is_twenty():
    assert THREEFRY_DEFAULT_ROUNDS == 20
    assert threefry2x64((0, 0), (0, 0)) == threefry2x64((0, 0), (0, 0), 20)


def test_output_uniformity_gross():
    """Crude uniformity: mean of 64-bit outputs near 2**63."""
    ids = np.arange(10000, dtype=np.uint64)
    v0, _ = threefry2x64_vec(ids, np.uint64(0), np.uint64(42), ids)
    mean = v0.astype(np.float64).mean()
    assert abs(mean / 2**63 - 1.0) < 0.05
