"""Tallies: atomic accounting, scatter-add semantics, privatisation."""

import numpy as np
import pytest

from repro.mesh.tally import EnergyDepositionTally, PrivatizedTally, flat_view


def test_flush_accumulates():
    t = EnergyDepositionTally(4, 4)
    t.flush(1, 2, 5.0)
    t.flush(1, 2, 3.0)
    assert t.deposition[2, 1] == 8.0
    assert t.flushes == 2
    assert t.flush_counts[2, 1] == 2


def test_zero_deposit_still_counts_flush():
    """The mini-app's atomic happens unconditionally at each facet."""
    t = EnergyDepositionTally(2, 2)
    t.flush(0, 0, 0.0)
    assert t.flushes == 1
    assert t.total() == 0.0


def test_flush_vec_repeated_indices():
    """np.add.at semantics: repeated cells accumulate, like atomics."""
    t = EnergyDepositionTally(4, 4)
    ix = np.array([1, 1, 1, 2])
    iy = np.array([0, 0, 0, 3])
    e = np.array([1.0, 2.0, 3.0, 10.0])
    t.flush_vec(ix, iy, e)
    assert t.deposition[0, 1] == 6.0
    assert t.deposition[3, 2] == 10.0
    assert t.flushes == 4
    assert t.flush_counts[0, 1] == 3


def test_flush_vec_is_a_scalar_flush_loop_bitwise():
    """The flat-index scatter-add accumulates in lane order: many lanes on
    few cells, magnitudes far apart so any other order rounds differently."""
    rng = np.random.default_rng(15)
    n = 5000
    ix = rng.integers(0, 3, n)
    iy = rng.integers(0, 2, n)
    e = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
    vec = EnergyDepositionTally(7, 5)
    seq = EnergyDepositionTally(7, 5)
    vec.flush_vec(ix, iy, e)
    for i in range(n):
        seq.flush(int(ix[i]), int(iy[i]), float(e[i]))
    assert vec.deposition.tobytes() == seq.deposition.tobytes()
    assert np.array_equal(vec.flush_counts, seq.flush_counts)
    assert vec.flushes == seq.flushes == n


def test_flat_view_shares_memory_or_refuses():
    t = EnergyDepositionTally(4, 3)
    for field in (t.deposition, t.flush_counts):
        flat = flat_view(field)
        assert flat.shape == (12,) and np.shares_memory(flat, field)
    with pytest.raises(ValueError, match="C-contiguous"):
        flat_view(t.deposition.T)


def test_total():
    t = EnergyDepositionTally(3, 3)
    t.flush(0, 0, 1.5)
    t.flush(2, 2, 2.5)
    assert t.total() == pytest.approx(4.0)


def test_conflict_probability_uniform():
    """Uniform flushes over k cells → conflict probability 1/k."""
    t = EnergyDepositionTally(2, 2)
    for ix in range(2):
        for iy in range(2):
            t.flush(ix, iy, 1.0)
    assert t.conflict_probability() == pytest.approx(0.25)


def test_conflict_probability_concentrated():
    """All flushes to one cell → conflict probability 1 (scatter problem)."""
    t = EnergyDepositionTally(8, 8)
    for _ in range(10):
        t.flush(3, 3, 1.0)
    assert t.conflict_probability() == pytest.approx(1.0)


def test_conflict_probability_empty():
    assert EnergyDepositionTally(4, 4).conflict_probability() == 0.0


def test_reset():
    t = EnergyDepositionTally(2, 2)
    t.flush(0, 0, 1.0)
    t.reset()
    assert t.total() == 0.0
    assert t.flushes == 0


def test_invalid_dims():
    with pytest.raises(ValueError):
        EnergyDepositionTally(0, 4)


# ---------------------------------------------------------------------------
# PrivatizedTally (§VI-F)
# ---------------------------------------------------------------------------

def test_privatized_merge_equals_shared():
    shared = EnergyDepositionTally(4, 4)
    priv = PrivatizedTally(4, 4, nthreads=3)
    deposits = [(0, 1, 2, 4.0), (1, 1, 2, 6.0), (2, 3, 0, 1.0), (0, 3, 0, 2.0)]
    for thread, ix, iy, e in deposits:
        priv.flush(thread, ix, iy, e)
        shared.flush(ix, iy, e)
    assert np.allclose(priv.merged(), shared.deposition)


def test_privatized_memory_scales_with_threads():
    """The paper's 0.3 GB → 31 GB blow-up at 256 threads, in miniature."""
    one = PrivatizedTally(100, 100, nthreads=1)
    many = PrivatizedTally(100, 100, nthreads=256)
    assert many.nbytes() == 256 * one.nbytes()


def test_privatized_merge_flops():
    p = PrivatizedTally(10, 10, nthreads=4)
    assert p.merge_flops() == 3 * 100


def test_privatized_thread_validation():
    with pytest.raises(ValueError):
        PrivatizedTally(4, 4, nthreads=0)
