"""Per-particle streams: reproducibility, lock-step, uniform conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng.stream import VectorParticleRNG, uniform_from_bits
from tests.oracle import ParticleRNG, stream_of


def test_reproducible_stream():
    a = ParticleRNG(seed=1, particle_id=9)
    b = ParticleRNG(seed=1, particle_id=9)
    assert [a.next_uniform() for _ in range(10)] == [
        b.next_uniform() for _ in range(10)
    ]


def test_distinct_particles_distinct_streams():
    a = ParticleRNG(seed=1, particle_id=0)
    b = ParticleRNG(seed=1, particle_id=1)
    assert a.next_uniform() != b.next_uniform()


def test_distinct_seeds_distinct_streams():
    a = ParticleRNG(seed=1, particle_id=0)
    b = ParticleRNG(seed=2, particle_id=0)
    assert a.next_uniform() != b.next_uniform()


def test_counter_resume():
    """A stream restored mid-way continues identically (census restart)."""
    a = ParticleRNG(seed=3, particle_id=4)
    first = [a.next_uniform() for _ in range(5)]
    resumed = ParticleRNG(seed=3, particle_id=4, counter=3)
    assert [resumed.next_uniform(), resumed.next_uniform()] == first[3:]


def test_clone_preserves_position():
    a = ParticleRNG(seed=3, particle_id=4)
    a.next_uniform()
    b = a.clone()
    assert a.next_uniform() == b.next_uniform()


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        ParticleRNG(seed=-1, particle_id=0)
    with pytest.raises(ValueError):
        ParticleRNG(seed=0, particle_id=-2)


def test_uniform_range():
    rng = ParticleRNG(seed=11, particle_id=0)
    draws = [rng.next_uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def test_uniform_from_bits_extremes():
    assert uniform_from_bits(0) == 0.0
    assert uniform_from_bits(2**64 - 1) < 1.0
    # Top-53-bit resolution: bit 11 is the lowest that matters.
    assert uniform_from_bits(1 << 11) > 0.0
    assert uniform_from_bits((1 << 11) - 1) == 0.0


@given(bits=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_uniform_from_bits_vector_parity(bits):
    scalar = uniform_from_bits(bits)
    vec = uniform_from_bits(np.array([bits], dtype=np.uint64))
    assert scalar == vec[0]
    assert 0.0 <= scalar < 1.0


def test_vector_stream_matches_scalar_streams():
    ids = np.arange(17, dtype=np.uint64)
    vec = VectorParticleRNG(seed=5, particle_ids=ids)
    scalars = [ParticleRNG(5, int(i)) for i in ids]
    for _ in range(4):
        draws = vec.next_uniform()
        expected = [s.next_uniform() for s in scalars]
        assert np.array_equal(draws, np.array(expected))


def test_vector_stream_masked_draws():
    """Masked draws advance only the selected counters."""
    ids = np.arange(8, dtype=np.uint64)
    vec = VectorParticleRNG(seed=5, particle_ids=ids)
    mask = np.zeros(8, dtype=bool)
    mask[[1, 4, 6]] = True
    draws = vec.next_uniform(mask)
    assert draws.shape == (3,)
    assert np.array_equal(vec.counters[mask], np.ones(3, dtype=np.uint64))
    assert np.array_equal(vec.counters[~mask], np.zeros(5, dtype=np.uint64))
    # The masked draws equal the scalar streams' first draws.
    for j, i in enumerate([1, 4, 6]):
        assert draws[j] == ParticleRNG(5, i).next_uniform()


_BLOCK = 1 << 14
_WRAP = 2**64 - 2


def _twin_streams(n, per_lane_seed):
    """Two identical vector streams over ``n`` lanes; every fifth lane sits
    at counter 2**64 - 2, so a multi-draw wraps its counter mid-call."""
    lane = np.arange(n, dtype=np.uint64)
    seed = lane * np.uint64(3) + np.uint64(11) if per_lane_seed else 5
    counters = np.where(lane % 5 == 0, np.uint64(_WRAP), lane % np.uint64(97))
    ids = lane * np.uint64(7) + np.uint64(2)
    return (VectorParticleRNG(seed, ids, counters),
            VectorParticleRNG(seed, ids, counters))


@pytest.mark.parametrize("per_lane_seed", [False, True])
@pytest.mark.parametrize("select", ["mask", "index", "all"])
@pytest.mark.parametrize("n", [0, 1, 64, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("k", [1, 3, 4, 6])
def test_k_draws_equal_k_single_draws(k, n, select, per_lane_seed):
    """One ``next_uniform(sel, k)`` is ``k`` successive single-draw calls:
    same bits row by row, same counters after — across the lane-block
    boundary and the counter wrap."""
    multi, single = _twin_streams(n, per_lane_seed)
    mask = np.arange(n) % 4 != 1
    sel = {"mask": mask, "index": np.nonzero(mask)[0], "all": None}[select]
    lanes = np.arange(n) if sel is None else np.nonzero(mask)[0]
    streams = [stream_of(multi, i) for i in lanes[::997]] + (
        [stream_of(multi, lanes[-1])] if lanes.size else []
    )
    draws = multi.next_uniform(sel, k)
    rows = [single.next_uniform(sel) for _ in range(k)]
    assert draws.shape == ((lanes.size,) if k == 1 else (k, lanes.size))
    expected = np.array(rows).reshape(k, lanes.size)
    assert np.array_equal(np.reshape(draws, (k, lanes.size)), expected)
    assert np.array_equal(multi.counters, single.counters)
    # Anchored to the scalar streams (every 997th selected lane and the
    # last), so a shared fault of both vector paths cannot hide.
    for j, s in zip(list(range(0, lanes.size, 997)) + [lanes.size - 1], streams):
        assert list(expected[:, j]) == [s.next_uniform() for _ in range(k)]


def test_k_draws_wrap_like_the_scalar_stream():
    vec = VectorParticleRNG(seed=9, particle_ids=np.arange(3, dtype=np.uint64),
                            counters=np.full(3, _WRAP, dtype=np.uint64))
    draws = vec.next_uniform(np.array([0, 2]), 4)
    for j, i in enumerate([0, 2]):
        scalar = ParticleRNG(9, i, counter=_WRAP)
        assert list(draws[:, j]) == [scalar.next_uniform() for _ in range(4)]
    assert list(vec.counters) == [2, _WRAP, 2]


def test_vector_scalar_stream_extraction():
    ids = np.arange(4, dtype=np.uint64)
    vec = VectorParticleRNG(seed=9, particle_ids=ids)
    vec.next_uniform()
    s = stream_of(vec, 2)
    t = ParticleRNG(9, 2, counter=1)
    assert s.next_uniform() == t.next_uniform() == vec.next_uniform()[2]


def test_vector_counter_shape_validation():
    with pytest.raises(ValueError):
        VectorParticleRNG(
            seed=1,
            particle_ids=np.arange(4, dtype=np.uint64),
            counters=np.zeros(3, dtype=np.uint64),
        )


def test_uniform_statistics():
    """Mean and variance of pooled draws agree with U(0,1)."""
    ids = np.arange(20000, dtype=np.uint64)
    vec = VectorParticleRNG(seed=123, particle_ids=ids)
    u = vec.next_uniform()
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_serial_correlation_within_stream():
    """Consecutive draws of one stream are uncorrelated (lag-1 Pearson)."""
    ids = np.zeros(1, dtype=np.uint64)
    vec = VectorParticleRNG(seed=77, particle_ids=np.arange(1, dtype=np.uint64))
    draws = np.array([vec.next_uniform()[0] for _ in range(4000)])
    a, b = draws[:-1] - 0.5, draws[1:] - 0.5
    corr = float((a * b).mean() / np.sqrt((a * a).mean() * (b * b).mean()))
    assert abs(corr) < 0.06  # ~3.8/sqrt(n)


def test_cross_correlation_between_adjacent_streams():
    """Streams of adjacent particle ids are mutually uncorrelated."""
    ids = np.arange(2, dtype=np.uint64)
    vec = VectorParticleRNG(seed=77, particle_ids=ids)
    draws = np.array([vec.next_uniform() for _ in range(4000)])
    a, b = draws[:, 0] - 0.5, draws[:, 1] - 0.5
    corr = float((a * b).mean() / np.sqrt((a * a).mean() * (b * b).mean()))
    assert abs(corr) < 0.06


def test_chi_square_uniformity():
    """χ² goodness-of-fit of pooled draws against U(0,1), 20 bins."""
    from scipy import stats

    ids = np.arange(50_000, dtype=np.uint64)
    vec = VectorParticleRNG(seed=5, particle_ids=ids)
    u = vec.next_uniform()
    observed, _ = np.histogram(u, bins=20, range=(0, 1))
    expected = len(u) / 20
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 19 dof: reject only far beyond the 99.9th percentile (~43.8)
    assert chi2 < 50.0
    assert stats.chi2.sf(chi2, df=19) > 1e-4


def test_pair_equidistribution():
    """(u_i, u_{i+1}) pairs fill the unit square uniformly (4×4 cells) —
    the classic lattice test that congruential generators fail."""
    vec = VectorParticleRNG(seed=9, particle_ids=np.arange(1, dtype=np.uint64))
    draws = np.array([vec.next_uniform()[0] for _ in range(8000)])
    x, y = draws[:-1], draws[1:]
    hist, _, _ = np.histogram2d(x, y, bins=4, range=[[0, 1], [0, 1]])
    expected = (len(draws) - 1) / 16
    assert np.all(np.abs(hist - expected) < 5 * np.sqrt(expected))
