"""Facet crossing logic and variance-reduction termination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import batch
from repro.mesh.structured import StructuredMesh
from repro.physics.variance import DEFAULT_ENERGY_CUTOFF_EV, DEFAULT_WEIGHT_CUTOFF
from tests.oracle import (
    cross_facet,
    russian_roulette,
    should_terminate,
    speed_from_energy_ev,
)


@pytest.fixture
def mesh():
    return StructuredMesh(4, 4)


# ---------------------------------------------------------------------------
# Facet crossing
# ---------------------------------------------------------------------------

def test_interior_crossing_moves_cell(mesh):
    cx, cy, ox, oy, refl, esc = cross_facet((1, 1), (1.0, 0.0), 0, mesh.shape)
    assert (cx, cy) == (2, 1)
    assert not refl and not esc
    cx, cy, ox, oy, refl, esc = cross_facet((1, 1), (0.0, -1.0), 1, mesh.shape)
    assert (cx, cy) == (1, 0)
    assert not refl and not esc


def test_boundary_reflects_and_stays(mesh):
    cx, cy, ox, oy, refl, esc = cross_facet((3, 1), (1.0, 0.0), 0, mesh.shape)
    assert (cx, cy) == (3, 1)
    assert refl and ox == -1.0 and not esc
    cx, cy, ox, oy, refl, esc = cross_facet((0, 1), (-1.0, 0.0), 0, mesh.shape)
    assert refl and ox == 1.0
    cx, cy, ox, oy, refl, esc = cross_facet((1, 3), (0.0, 1.0), 1, mesh.shape)
    assert refl and oy == -1.0
    cx, cy, ox, oy, refl, esc = cross_facet((1, 0), (0.0, -1.0), 1, mesh.shape)
    assert refl and oy == 1.0


def test_reflection_only_flips_hit_axis(mesh):
    ox0, oy0 = 0.6, 0.8
    cx, cy, ox, oy, refl, esc = cross_facet((3, 1), (ox0, oy0), 0, mesh.shape)
    assert refl and not esc
    assert ox == -ox0 and oy == oy0


@given(
    cx=st.integers(min_value=0, max_value=3),
    cy=st.integers(min_value=0, max_value=3),
    theta=st.floats(min_value=0.01, max_value=2 * np.pi - 0.01),
    axis=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=300, deadline=None)
def test_crossing_never_leaves_mesh(cx, cy, theta, axis):
    mesh = StructuredMesh(4, 4)
    ox, oy = np.cos(theta), np.sin(theta)
    ncx, ncy, nox, noy, refl, esc = cross_facet((cx, cy), (ox, oy), axis,
                                                mesh.shape)
    assert 0 <= ncx < 4 and 0 <= ncy < 4
    assert nox**2 + noy**2 == pytest.approx(ox**2 + oy**2)


def test_cross_facet_vec_matches_scalar(mesh):
    rng = np.random.default_rng(2)
    n = 200
    cx = rng.integers(0, 4, n)
    cy = rng.integers(0, 4, n)
    th = rng.uniform(0.01, 2 * np.pi, n)
    ox, oy = np.cos(th), np.sin(th)
    axis = rng.integers(0, 2, n)
    vcx, vcy, vox, voy, vre, ves = batch.cross_facet(cx, cy, ox, oy, axis, mesh)
    for i in range(n):
        scx, scy, sox, soy, sre, ses = cross_facet(
            (int(cx[i]), int(cy[i])), (float(ox[i]), float(oy[i])),
            int(axis[i]), mesh.shape,
        )
        assert (scx, scy, sox, soy, sre, ses) == (
            vcx[i], vcy[i], vox[i], voy[i], bool(vre[i]), bool(ves[i])
        )


# ---------------------------------------------------------------------------
# Speed
# ---------------------------------------------------------------------------

def test_speed_one_mev():
    """1 MeV neutron: ≈1.383e7 m/s."""
    assert speed_from_energy_ev(1.0e6) == pytest.approx(1.383e7, rel=1e-3)


def test_speed_thermal():
    """0.0253 eV thermal neutron: ≈2200 m/s (the classic number)."""
    assert speed_from_energy_ev(0.0253) == pytest.approx(2200.0, rel=1e-2)


def test_speed_vec_parity():
    e = np.array([1.0, 1e3, 1e6])
    v = batch.speed_from_energy(e)
    for i in range(3):
        assert v[i] == speed_from_energy_ev(float(e[i]))


def test_speed_negative_raises():
    with pytest.raises(ValueError):
        speed_from_energy_ev(-1.0)


# ---------------------------------------------------------------------------
# Variance reduction
# ---------------------------------------------------------------------------

def test_termination_thresholds():
    assert should_terminate(1e-3, 1.0)  # low energy
    assert should_terminate(1e6, 1e-4)  # low weight
    assert not should_terminate(1e6, 1.0)


def test_termination_vec_parity():
    e = np.array([1e-3, 1e6, 1e6])
    w = np.array([1.0, 1e-4, 1.0])
    mask, deferred = batch.apply_cutoffs(
        e, w, DEFAULT_ENERGY_CUTOFF_EV, DEFAULT_WEIGHT_CUTOFF, False
    )
    assert list(mask) == [True, True, False] and not deferred.any()
    assert list(mask) == [should_terminate(*ew) for ew in zip(e, w)]


def test_roulette_above_cutoff_untouched():
    w, killed = russian_roulette(0.5, u=0.0, weight_cutoff=1e-3)
    assert w == 0.5 and not killed


def test_roulette_survivor_restored():
    w, killed = russian_roulette(5e-4, u=0.0, weight_cutoff=1e-3)
    assert not killed and w == pytest.approx(1e-2)


def test_roulette_loser_killed():
    w, killed = russian_roulette(5e-4, u=0.999, weight_cutoff=1e-3)
    assert killed and w == 0.0


def test_roulette_unbiased():
    """Expected post-roulette weight equals the pre-roulette weight."""
    w0 = 4e-4
    us = (np.arange(100000) + 0.5) / 100000
    total = sum(russian_roulette(w0, float(u))[0] for u in us[::100])
    assert total / 1000 == pytest.approx(w0, rel=0.05)
