"""Tallies: atomic accounting, scatter-add semantics, privatisation — the
one tally in 2-D and 3-D."""

import numpy as np
import pytest

from repro.mesh.structured import StructuredMesh
from repro.mesh.tally import EnergyDepositionTally, PrivatizedTally, flat_view


#: Tally shapes (cells per axis, x first) every dimension-generic test runs.
SHAPES = ((7, 5), (4, 3, 5))


def test_flush_accumulates():
    t = EnergyDepositionTally(4, 4)
    t.flush(1, 2, 5.0)
    t.flush(1, 2, 3.0)
    assert t.deposition[2, 1] == 8.0
    assert t.flushes == 2
    assert t.flush_counts[2, 1] == 2
    # In 3-D the cell takes one more index and the field one more axis,
    # stored last axis first; scalar and batched flushes accumulate alike.
    t = EnergyDepositionTally(3, 3, 3)
    t.flush(1, 2, 0, 5.0)
    t.flush_vec(np.array([1, 1]), np.array([2, 2]), np.array([0, 0]),
                np.array([1.0, 2.0]))
    assert t.deposition.shape == (3, 3, 3)
    assert t.deposition[0, 2, 1] == 8.0
    assert t.flush_counts[0, 2, 1] == 3
    assert t.flushes == 3


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
    few cells (offset from the origin on every axis), magnitudes far apart
    so any other order rounds differently — in 2-D and 3-D."""
    rng = np.random.default_rng(15)
    n = 5000
    # Per axis, the [lo, hi) cell range the lanes pile onto.
    ranges = {(7, 5): ((0, 3), (0, 2)), (4, 3, 5): ((0, 2), (1, 3), (3, 5))}
    for shape in SHAPES:
        cells = [rng.integers(lo, hi, n) for lo, hi in ranges[shape]]
        e = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
        vec = EnergyDepositionTally(*shape)
        seq = EnergyDepositionTally(*shape)
        vec.flush_vec(*cells, e)
        for i in range(n):
            seq.flush(*(int(c[i]) for c in cells), float(e[i]))
        assert vec.deposition.tobytes() == seq.deposition.tobytes(), shape
        assert np.array_equal(vec.flush_counts, seq.flush_counts)
        assert vec.flushes == seq.flushes == n
        # The flat rule is the mesh's (x fastest, Horner order).
        flat = np.bincount(StructuredMesh.grid(shape, (1.0,) * len(shape))
                           .flat_index(*cells), minlength=vec.flush_counts.size)
        assert np.array_equal(vec.flush_counts.ravel(), flat)


@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
def test_flush_vec_skips_zero_deposits_exactly(stacked):
    """A zero deposit is counted but not scattered: zeros, non-zeros and
    repeated cells mixed, ``deposition`` is bytewise an all-lanes
    ``np.add.at``, every lane counts in ``flush_counts`` / ``flushes``,
    and the returned positions are the non-zero lanes, in order.  Stacked,
    the last axis is the replica (stored slowest), as the books flush."""
    rng = np.random.default_rng(42)
    n = 4000
    shape = (7, 5, 3) if stacked else (7, 5)
    cells = [rng.integers(0, k, n) for k in shape]
    e = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
    e[rng.random(n) < 0.7] = 0.0
    e[:3] = 0.0  # a run of zeros at the start
    t = EnergyDepositionTally(*shape)
    hot = t.flush_vec(*cells, e)
    assert np.array_equal(hot, np.flatnonzero(e))
    cell = StructuredMesh.grid(shape, (1.0,) * len(shape)).flat_index(*cells)
    ref = np.zeros(t.deposition.size)
    np.add.at(ref, cell, e)
    assert t.deposition.tobytes() == ref.reshape(t.deposition.shape).tobytes()
    assert np.array_equal(
        t.flush_counts.ravel(), np.bincount(cell, minlength=ref.size)
    )
    assert t.flushes == n
    # All-zero batches still count every lane and scatter nothing.
    zero = EnergyDepositionTally(*shape)
    assert zero.flush_vec(*cells, np.zeros(n)).size == 0
    assert not zero.deposition.any() and zero.flushes == n
    assert zero.flush_counts.sum() == n


def test_conflict_probability_is_an_exact_ratio_without_blas(monkeypatch):
    """``sum(c**2) / total**2`` of the flush histogram, rounded once, with
    no ``np.dot`` (a BLAS call: unpinned, its threads cost more than the
    sum)."""
    def refuse(*args, **kwargs):
        raise AssertionError("conflict_probability called np.dot")

    monkeypatch.setattr(np, "dot", refuse)
    rng = np.random.default_rng(3)
    for shape in SHAPES + ((256, 256),):
        t = EnergyDepositionTally(*shape)
        cells = [rng.integers(0, k, 20000) for k in shape]
        t.flush_vec(*cells, rng.uniform(0.0, 1.0, 20000))
        counts = [int(c) for c in t.flush_counts.ravel()]
        exact = sum(c * c for c in counts) / sum(counts) ** 2
        assert t.conflict_probability() == exact
    # Past the int64 range of sum(c**2) the ratio stays exact.
    big = EnergyDepositionTally(2, 2)
    big.flush_counts[...] = [[2 ** 32, 3], [0, 5]]
    assert big.conflict_probability() == (
        (2 ** 64 + 9 + 25) / (2 ** 32 + 8) ** 2
    )
    # The stacked tally's rows and their sum use the same formula.
    stack = EnergyDepositionTally(4, 3, 2)
    stack.flush_vec(*(rng.integers(0, k, 500) for k in (4, 3, 2)),
                    np.ones(500))
    for row in stack.rows():
        counts = row.flush_counts.ravel().tolist()
        assert row.conflict_probability() == (
            sum(c * c for c in counts) / sum(counts) ** 2
        )


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
    with pytest.raises(ValueError):
        EnergyDepositionTally(0, 1, 1)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{len(s)}d")
def test_merge_adds_deposits_and_histogram(shape):
    """The reduce of privatise-then-reduce, in any dimension: deposits,
    the flush histogram and the flush count all add."""
    rng = np.random.default_rng(len(shape))
    parts = [EnergyDepositionTally(*shape) for _ in range(2)]
    for t in parts:
        t.flush_vec(*(rng.integers(0, n, 50) for n in shape),
                    rng.uniform(0.0, 1.0, 50))
    whole = EnergyDepositionTally(*shape)
    for t in parts:
        whole.merge(t)
    assert np.array_equal(whole.deposition,
                          parts[0].deposition + parts[1].deposition)
    assert np.array_equal(whole.flush_counts,
                          parts[0].flush_counts + parts[1].flush_counts)
    assert whole.flushes == 100
    assert whole.conflict_probability() > 0.0


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
