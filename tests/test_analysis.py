"""Analysis utilities: batch statistics, multiplication, ASCII rendering."""

import numpy as np
import pytest

from repro.analysis import (
    batch_statistics,
    estimate_multiplication,
    render_heatmap,
)
from repro.core import Scheme, Simulation, csp3_problem, scatter_problem


# ---------------------------------------------------------------------------
# Batch statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stats_small():
    cfg = scatter_problem(nx=32, nparticles=60, ntimesteps=2)
    return batch_statistics(cfg, nbatches=4)


def test_batch_statistics_shapes(stats_small):
    assert stats_small.mean.shape == (32, 32)
    assert stats_small.stderr.shape == (32, 32)
    assert stats_small.nbatches == 4
    assert stats_small.total_mean > 0
    assert stats_small.total_stderr >= 0


def test_batch_statistics_mean_matches_single_runs(stats_small):
    """The batch mean is the average of the individual batch totals, so it
    lands near any single run's total."""
    cfg = scatter_problem(nx=32, nparticles=60, ntimesteps=2)
    one = Simulation(cfg).run(Scheme.OVER_EVENTS).tally.total()
    assert stats_small.total_mean == pytest.approx(one, rel=0.1)


def test_relative_error_shrinks_with_batches():
    """CLT: doubling the batch count shrinks the standard error ~1/√2.
    (Statistical: assert a decrease, not the exact factor.)"""
    cfg = scatter_problem(nx=32, nparticles=40, ntimesteps=2)
    few = batch_statistics(cfg, nbatches=3)
    many = batch_statistics(cfg, nbatches=9)
    assert many.max_relative_error() < few.max_relative_error() * 1.05
    assert many.total_stderr < few.total_stderr * 1.2


def test_relative_error_fields(stats_small):
    rel = stats_small.relative_error()
    assert rel.shape == stats_small.mean.shape
    assert np.all(rel >= 0)
    assert stats_small.max_relative_error() >= 0


def test_batch_statistics_validation():
    cfg = scatter_problem(nx=16, nparticles=10)
    with pytest.raises(ValueError):
        batch_statistics(cfg, nbatches=1)


def test_batch_statistics_matches_manual_aggregation():
    """The batch aggregation is exactly the textbook formulas over the
    per-seed single runs — mean, per-cell stderr with the (B−1)
    denominator, and the mesh-integrated totals."""
    cfg = scatter_problem(nx=16, nparticles=20, ntimesteps=1)
    nb = 3
    stats = batch_statistics(cfg, nbatches=nb, base_seed=11)
    singles = np.stack([
        Simulation(cfg.with_(seed=11 + 1000 * b))
        .run(Scheme.OVER_EVENTS).tally.deposition
        for b in range(nb)
    ])
    np.testing.assert_array_equal(stats.mean, singles.mean(axis=0))
    np.testing.assert_array_equal(
        stats.stderr, singles.std(axis=0, ddof=1) / np.sqrt(nb)
    )
    totals = singles.sum(axis=(1, 2))
    assert stats.total_mean == float(totals.mean())
    assert stats.total_stderr == float(totals.std(ddof=1) / np.sqrt(nb))


def test_batch_statistics_totals_integrate_every_axis_in_3d():
    """In 3-D a batch total is the deposition summed over all three mesh
    axes: ``total_mean`` is the mean of the batch totals, and the per-cell
    mean and stderr are those of the per-seed single runs."""
    cfg = csp3_problem(8, nparticles=20)
    nb = 4
    stats = batch_statistics(cfg, nbatches=nb)
    singles = np.stack([
        Simulation(cfg.with_(seed=cfg.seed + 1000 * b))
        .run(Scheme.OVER_EVENTS).tally.deposition
        for b in range(nb)
    ])
    assert stats.mean.shape == (8, 8, 8)
    np.testing.assert_array_equal(stats.mean, singles.mean(axis=0))
    np.testing.assert_array_equal(
        stats.stderr, singles.std(axis=0, ddof=1) / np.sqrt(nb)
    )
    totals = singles.sum(axis=(1, 2, 3))
    assert stats.total_mean == float(totals.mean())
    assert stats.total_stderr == float(totals.std(ddof=1) / np.sqrt(nb))


def test_batch_statistics_deterministic_rerun(stats_small):
    """Same config, same seeds — the whole aggregate is reproducible."""
    cfg = scatter_problem(nx=32, nparticles=60, ntimesteps=2)
    again = batch_statistics(cfg, nbatches=4)
    np.testing.assert_array_equal(stats_small.mean, again.mean)
    np.testing.assert_array_equal(stats_small.stderr, again.stderr)
    assert stats_small.total_mean == again.total_mean


def test_relative_error_floor_suppresses_empty_cells():
    from repro.analysis.statistics import BatchStatistics

    mean = np.array([[0.0, 2.0], [1e-9, 4.0]])
    stderr = np.array([[1.0, 1.0], [1.0, 1.0]])
    s = BatchStatistics(
        mean=mean, stderr=stderr, nbatches=2,
        total_mean=float(mean.sum()), total_stderr=0.0,
    )
    rel = s.relative_error(floor=1e-6)
    assert rel[0, 0] == 0.0          # exactly-zero cell suppressed
    assert rel[1, 0] == 0.0          # below-floor cell suppressed
    assert rel[0, 1] == pytest.approx(0.5)
    assert rel[1, 1] == pytest.approx(0.25)


def test_max_relative_error_edge_cases():
    from repro.analysis.statistics import BatchStatistics

    zeros = np.zeros((2, 2))
    empty = BatchStatistics(
        mean=zeros, stderr=zeros, nbatches=2,
        total_mean=0.0, total_stderr=0.0,
    )
    assert empty.max_relative_error() == 0.0  # no deposition at all

    mean = np.array([[1e-12, 0.0], [0.0, 0.0]])
    faint = BatchStatistics(
        mean=mean, stderr=np.ones((2, 2)), nbatches=2,
        total_mean=1e-12, total_stderr=0.0,
    )
    # The only nonzero cell is *the* total, so it is significant.
    assert faint.max_relative_error() == pytest.approx(1e12)
    # Raising the significance bar above every cell empties the mask.
    assert faint.max_relative_error(significance=2.0) == 0.0


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def test_estimate_multiplication():
    from tests.test_extensions import _fission_cfg

    r = Simulation(_fission_cfg()).run(Scheme.OVER_EVENTS)
    est = estimate_multiplication(r)
    assert est.secondaries_per_source == pytest.approx(
        r.counters.secondaries_banked / 80
    )
    assert 0.0 <= est.k_effective < 1.0
    assert est.subcritical
    assert est.fissions == r.counters.fissions


def test_multiplication_zero_without_fission():
    r = Simulation(scatter_problem(nx=16, nparticles=10)).run(Scheme.OVER_EVENTS)
    est = estimate_multiplication(r)
    assert est.secondaries_per_source == 0.0
    assert est.k_effective == 0.0


def test_multiplication_geometric_sum_algebra():
    """k = M/(1+M) exactly, for a hand-built ledger: 20 source neutrons
    banking 30 secondaries is M = 1.5 progeny per source, so the implied
    per-generation multiplication is 1.5/2.5 = 0.6."""
    from types import SimpleNamespace

    r = SimpleNamespace(
        counters=SimpleNamespace(secondaries_banked=30, fissions=12),
        config=SimpleNamespace(nparticles=20),
    )
    est = estimate_multiplication(r)
    assert est.secondaries_per_source == 1.5
    assert est.k_effective == pytest.approx(0.6, abs=0)
    assert est.fissions == 12
    assert est.subcritical


def test_multiplication_guards_empty_source():
    """A degenerate zero-particle config must not divide by zero."""
    from types import SimpleNamespace

    r = SimpleNamespace(
        counters=SimpleNamespace(secondaries_banked=5, fissions=5),
        config=SimpleNamespace(nparticles=0),
    )
    est = estimate_multiplication(r)
    assert est.secondaries_per_source == 5.0
    assert est.k_effective == pytest.approx(5.0 / 6.0)


# ---------------------------------------------------------------------------
# ASCII rendering
# ---------------------------------------------------------------------------

def test_heatmap_basic():
    field = np.zeros((40, 40))
    field[20, 20] = 100.0
    out = render_heatmap(field, width=20, height=10, title="peak")
    lines = out.splitlines()
    assert lines[0] == "peak"
    assert len(lines) == 11
    assert all(len(l) == 20 for l in lines[1:])
    assert "@" in out  # the peak reaches the top of the ramp


def test_heatmap_uniform_field():
    out = render_heatmap(np.ones((8, 8)), width=8, height=8)
    assert set(out.replace("\n", "")) == {_first_ramp_char()}


def _first_ramp_char():
    from repro.analysis.viz import _RAMP

    return _RAMP[0]


def test_heatmap_validation():
    with pytest.raises(ValueError):
        render_heatmap(np.zeros(5))
    with pytest.raises(ValueError):
        render_heatmap(np.zeros((4, 4)), width=0)


def test_heatmap_orientation():
    """Row 0 of the field renders at the bottom (y upward)."""
    field = np.zeros((10, 10))
    field[0, :] = 50.0  # bottom row hot
    out = render_heatmap(field, width=10, height=10, log=False)
    lines = out.splitlines()
    assert "@" in lines[-1]
    assert "@" not in lines[0]
