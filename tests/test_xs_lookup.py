"""Energy-bin search: binary vs cached-linear agreement, probe accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import xs as kxs
from repro.xs.lookup import LookupStats
from repro.xs.tables import CrossSectionTable, make_capture_table
from tests.oracle import binary_search_bin, cached_linear_search_bin


@pytest.fixture(scope="module")
def table():
    return make_capture_table(nentries=128)


def _bracket_ok(table, e, b):
    if e <= table.energy[0]:
        return b == 0
    if e >= table.energy[-1]:
        return b == len(table) - 2
    return table.energy[b] <= e < table.energy[b + 1]


@given(e=st.floats(min_value=1e-6, max_value=3e7, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_binary_search_brackets(e):
    t = make_capture_table(nentries=128)
    b = binary_search_bin(t, e)
    assert _bracket_ok(t, e, b)


@given(
    e=st.floats(min_value=1e-6, max_value=3e7, allow_nan=False),
    start=st.integers(min_value=0, max_value=126),
)
@settings(max_examples=300, deadline=None)
def test_cached_linear_matches_binary(e, start):
    t = make_capture_table(nentries=128)
    assert cached_linear_search_bin(t, e, start) == binary_search_bin(t, e)


def test_grid_points_land_in_their_bin(table):
    for k in range(len(table) - 1):
        e = float(table.energy[k])
        assert binary_search_bin(table, e) == k
        assert cached_linear_search_bin(table, e, 64) == k


def test_clamping_below_and_above(table):
    lo = float(table.energy[0]) / 10
    hi = float(table.energy[-1]) * 10
    assert binary_search_bin(table, lo) == 0
    assert binary_search_bin(table, hi) == len(table) - 2
    assert cached_linear_search_bin(table, lo, 50) == 0
    assert cached_linear_search_bin(table, hi, 50) == len(table) - 2


def test_vectorised_binary_matches_scalar(table):
    rng = np.random.default_rng(1)
    e = rng.uniform(1e-6, 3e7, 500)
    bins = kxs.search_bins(table, e)
    for i in range(500):
        assert bins[i] == binary_search_bin(table, float(e[i]))


def test_linear_probe_count_zero_when_cached_bin_correct(table):
    stats = LookupStats()
    e = float(table.energy[40]) * 1.0001
    b = binary_search_bin(table, e)
    cached_linear_search_bin(table, e, b, stats)
    assert stats.lookups == 1
    assert stats.linear_probes == 0


def test_linear_probe_count_matches_distance(table):
    """Walking k bins costs ~k probes — the locality the paper exploits."""
    stats = LookupStats()
    target = float(table.energy[50]) * 1.0001
    cached_linear_search_bin(table, target, 45, stats)
    assert 4 <= stats.linear_probes <= 6


def test_binary_probe_count_logarithmic(table):
    stats = LookupStats()
    binary_search_bin(table, float(table.energy[40]) * 1.0001, stats)
    assert 1 <= stats.binary_probes <= int(np.ceil(np.log2(len(table)))) + 1


def test_stats_merge():
    a = LookupStats(lookups=2, binary_probes=5, linear_probes=1)
    b = LookupStats(lookups=3, binary_probes=0, linear_probes=7)
    a.merge(b)
    assert (a.lookups, a.binary_probes, a.linear_probes) == (5, 5, 8)
    assert a.probes_per_lookup() == pytest.approx(13 / 5)


def test_probes_per_lookup_empty():
    assert LookupStats().probes_per_lookup() == 0.0


def test_tiny_table():
    t = CrossSectionTable(energy=np.array([1.0, 2.0]), value=np.array([1.0, 1.0]))
    assert binary_search_bin(t, 1.5) == 0
    assert cached_linear_search_bin(t, 1.5, 0) == 0
