"""Cross-section tables: construction, interpolation, determinism."""

import numpy as np
import pytest

from repro.kernels.xs import interpolate_at_bins
from repro.xs.tables import (
    CrossSectionTable,
    DEFAULT_NENTRIES,
    make_capture_table,
    make_scatter_table,
)


def test_tables_are_deterministic():
    a = make_capture_table()
    b = make_capture_table()
    assert np.array_equal(a.energy, b.energy)
    assert np.array_equal(a.value, b.value)


def test_default_sizes():
    assert len(make_capture_table()) == DEFAULT_NENTRIES
    assert len(make_scatter_table()) == DEFAULT_NENTRIES


def test_energy_grid_strictly_increasing():
    for t in (make_capture_table(), make_scatter_table()):
        assert np.all(np.diff(t.energy) > 0)


def test_values_positive():
    for t in (make_capture_table(), make_scatter_table()):
        assert np.all(t.value > 0)


def test_capture_has_one_over_v_tail():
    """Capture rises steeply toward low energy (1/√E shape)."""
    t = make_capture_table()
    assert t.value[0] > 100 * t.value[-1]


def test_scatter_roughly_flat():
    """Scatter varies within a factor of a few across the whole grid."""
    t = make_scatter_table()
    assert t.value.max() / t.value.min() < 5.0


def test_interpolation_endpoints():
    t = make_scatter_table(nentries=16)
    for b in range(len(t) - 1):
        assert t.interpolate_at_bin(float(t.energy[b]), b) == pytest.approx(
            float(t.value[b])
        )
        assert t.interpolate_at_bin(float(t.energy[b + 1]), b) == pytest.approx(
            float(t.value[b + 1])
        )


def test_interpolation_midpoint():
    t = CrossSectionTable(energy=np.array([1.0, 3.0]), value=np.array([2.0, 6.0]))
    assert t.interpolate_at_bin(2.0, 0) == pytest.approx(4.0)


def test_interpolation_vec_matches_scalar():
    t = make_capture_table(nentries=64)
    rng = np.random.default_rng(0)
    e = rng.uniform(t.energy[0], t.energy[-1], 100)
    bins = np.searchsorted(t.energy, e, side="right") - 1
    bins = np.clip(bins, 0, len(t) - 2)
    vec = interpolate_at_bins(t, e, bins)
    for i in range(100):
        assert vec[i] == t.interpolate_at_bin(float(e[i]), int(bins[i]))


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        CrossSectionTable(energy=np.array([1.0]), value=np.array([1.0]))
    with pytest.raises(ValueError):
        CrossSectionTable(energy=np.array([1.0, 1.0]), value=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CrossSectionTable(energy=np.array([2.0, 1.0]), value=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CrossSectionTable(energy=np.array([1.0, 2.0]), value=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        CrossSectionTable(energy=np.array([1.0, 2.0]), value=np.array([1.0]))


def test_nbytes_representative():
    """Tables are sized like real nuclear data: tens of kB per reaction."""
    t = make_capture_table()
    assert t.nbytes() == t.energy.nbytes + t.value.nbytes
    assert t.nbytes() >= 2 * 2500 * 8
