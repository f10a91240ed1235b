"""Collision physics: kinematics, conservation, termination, parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import batch
from tests.oracle import collide, elastic_scatter_kinematics

UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
MU = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

@given(mu=MU, a=st.floats(min_value=1.0, max_value=240.0))
@settings(max_examples=300, deadline=None)
def test_energy_fraction_in_physical_range(mu, a):
    e_frac, mu_lab, sin_lab = elastic_scatter_kinematics(mu, a)
    e_min = ((a - 1.0) / (a + 1.0)) ** 2
    assert -1e-12 <= e_frac <= 1.0 + 1e-12
    assert e_frac >= e_min - 1e-12
    assert -1.0 <= mu_lab <= 1.0
    assert 0.0 <= sin_lab <= 1.0
    assert mu_lab * mu_lab + sin_lab * sin_lab == pytest.approx(1.0, abs=1e-12)


def test_forward_scatter_no_energy_loss():
    e_frac, mu_lab, _ = elastic_scatter_kinematics(1.0, 12.0)
    assert e_frac == pytest.approx(1.0)
    assert mu_lab == pytest.approx(1.0)


def test_backscatter_max_energy_loss():
    e_frac, _, _ = elastic_scatter_kinematics(-1.0, 12.0)
    assert e_frac == pytest.approx((11.0 / 13.0) ** 2)


def test_hydrogen_backscatter_degenerate_point():
    """A=1, μ=−1 stops the neutron dead; guarded, not NaN."""
    e_frac, mu_lab, sin_lab = elastic_scatter_kinematics(-1.0, 1.0)
    assert e_frac == 0.0
    assert mu_lab == 0.0
    assert not np.isnan(sin_lab)


def test_heavy_target_small_energy_loss():
    """Scattering off A=238: at most ~1.7% energy loss."""
    e_frac, _, _ = elastic_scatter_kinematics(-1.0, 238.0)
    assert e_frac > 0.98


def test_hydrogen_mean_energy_fraction_is_half():
    """<E'/E> = 1/2 for A=1 with isotropic CM scattering."""
    mu = np.linspace(-0.9999, 0.9999, 20001)
    e_frac, _, _ = batch.elastic_scatter_kinematics(mu, 1.0)
    assert e_frac.mean() == pytest.approx(0.5, abs=1e-3)


@given(mu=MU, a=st.floats(min_value=1.0, max_value=240.0))
@settings(max_examples=200, deadline=None)
def test_kinematics_vec_matches_scalar(mu, a):
    s = elastic_scatter_kinematics(mu, a)
    v = batch.elastic_scatter_kinematics(np.array([mu]), a)
    assert s[0] == v[0][0] and s[1] == v[1][0] and s[2] == v[2][0]


# ---------------------------------------------------------------------------
# Full collision
# ---------------------------------------------------------------------------

def _collide(u1=0.7, u2=0.3, u3=0.5, sigma_a=1.0, sigma_t=10.0, **kw):
    defaults = dict(
        energy=1.0e6, weight=1.0, omega=(1.0, 0.0),
        sigma_a=sigma_a, sigma_t=sigma_t, a_ratio=1.0,
        u_angle=u1, u_turn=u2, u_mfp=u3,
        energy_cutoff_ev=1e-2, weight_cutoff=1e-3,
    )
    defaults.update(kw)
    return collide(**defaults)


@given(u1=UNIT, u2=UNIT, u3=UNIT)
@settings(max_examples=300, deadline=None)
def test_collision_conserves_weighted_energy(u1, u2, u3):
    out = _collide(u1, u2, u3)
    total_after = out.deposit + out.weight * out.energy
    assert total_after == pytest.approx(1.0e6, rel=1e-12)


@given(u1=UNIT, u2=UNIT, u3=UNIT)
@settings(max_examples=300, deadline=None)
def test_collision_direction_stays_unit(u1, u2, u3):
    out = _collide(u1, u2, u3)
    ox, oy = out.omega
    assert ox**2 + oy**2 == pytest.approx(1.0, abs=1e-9)


def test_pure_scatterer_deposits_only_recoil():
    out = _collide(sigma_a=0.0, sigma_t=10.0)
    assert out.weight == 1.0  # no implicit capture
    assert out.deposit == pytest.approx(1.0e6 - out.energy)


def test_pure_absorber_reduces_weight_fully():
    out = _collide(sigma_a=10.0, sigma_t=10.0)
    assert out.terminated  # weight hits zero < cutoff
    assert out.deposit == pytest.approx(1.0e6, rel=1e-12)


def test_weight_cutoff_terminates_and_deposits_remainder():
    out = _collide(weight=1.5e-3, sigma_a=9.0, sigma_t=10.0)
    # weight drops to 1.5e-4 < 1e-3 cutoff
    assert out.terminated
    assert out.weight == 0.0


def test_energy_cutoff_terminates():
    out = _collide(energy=1.5e-2, u1=0.0)  # μ=-1 backscatter on A=1 → E'=0
    assert out.terminated


def test_rotation_sense_from_second_draw():
    a = _collide(u1=0.7, u2=0.1)
    b = _collide(u1=0.7, u2=0.9)
    assert a.omega[0] == b.omega[0]  # same deflection cosine
    assert a.omega[1] == pytest.approx(-b.omega[1])  # mirrored sense


def test_mfp_resampled_from_third_draw():
    out = _collide(u3=0.5)
    assert out.mfp_to_collision == pytest.approx(float(-np.log(0.5)))


@given(u1=UNIT, u2=UNIT, u3=UNIT, w=st.floats(min_value=1e-2, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_collide_vec_bit_identical_to_scalar(u1, u2, u3, w):
    s = _collide(u1, u2, u3, weight=w)
    arr = lambda v: np.array([v], dtype=np.float64)
    e, wt, ox, oy, mfp, dep, term, below = batch.collide(
        arr(1.0e6), arr(w), arr(1.0), arr(0.0), arr(1.0), arr(10.0),
        1.0, arr(u1), arr(u2), arr(u3), 1e-2, 1e-3,
    )
    assert s.energy == e[0]
    assert s.weight == wt[0]
    assert s.omega == (ox[0], oy[0])
    assert s.mfp_to_collision == mfp[0]
    assert s.deposit == dep[0]
    assert s.terminated == bool(term[0])
    assert s.below_weight_cutoff == bool(below[0])


def test_zero_sigma_t_no_absorption():
    out = _collide(sigma_a=0.0, sigma_t=0.0)
    assert out.weight == 1.0
