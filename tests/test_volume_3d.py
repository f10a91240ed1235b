"""3-D transport extension: kinematics, geometry, schemes, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import batch3
from repro.mesh.boundary import BoundaryCondition
from repro.volume import (
    StructuredMesh3D,
    Tally3D,
    csp3_problem,
    energy_balance_error_3d,
    population_accounted_3d,
    run_over_events_3d,
    run_over_particles_3d,
    scatter3_problem,
    stream3_problem,
)
from repro.volume.events3 import distance_to_facet_3d
from repro.volume.facet3 import cross_facet_3d
from repro.volume.kinematics3 import (
    rotate_direction,
    sample_isotropic_direction_3d,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

@given(u1=UNIT, u2=UNIT)
@settings(max_examples=200, deadline=None)
def test_isotropic_3d_unit_norm(u1, u2):
    x, y, z = sample_isotropic_direction_3d(u1, u2)
    assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)
    vx, vy, vz = batch3.sample_isotropic_direction_3d(np.array([u1]), np.array([u2]))
    assert (x, y, z) == (vx[0], vy[0], vz[0])


def test_isotropic_3d_statistics():
    u = np.random.default_rng(0).uniform(0, 1, (2, 50000))
    x, y, z = batch3.sample_isotropic_direction_3d(u[0], u[1])
    for comp in (x, y, z):
        assert abs(comp.mean()) < 0.02
        assert abs(np.abs(comp).mean() - 0.5) < 0.02  # E|Ω_i| = 1/2
    assert abs((np.abs(x) + np.abs(y) + np.abs(z)).mean() - 1.5) < 0.03


@given(
    u1=UNIT, u2=UNIT,
    mu=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(max_examples=300, deadline=None)
def test_rotation_preserves_norm_and_deflection(u1, u2, mu, phi):
    u, v, w = sample_isotropic_direction_3d(u1, u2)
    nu, nv, nw = rotate_direction(u, v, w, mu, phi)
    assert nu * nu + nv * nv + nw * nw == pytest.approx(1.0, abs=1e-9)
    # The deflection cosine is honoured; the standard rotation formula
    # loses a few digits near the polar axis (1/√(1−w²) amplification),
    # which is physically irrelevant at ~1e-6 of a cosine.
    assert nu * u + nv * v + nw * w == pytest.approx(mu, abs=5e-5)


def test_rotation_vec_matches_scalar():
    rng = np.random.default_rng(1)
    n = 300
    u1, u2 = rng.uniform(0, 1, (2, n))
    u, v, w = batch3.sample_isotropic_direction_3d(u1, u2)
    mu = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    nu, nv, nw = batch3.rotate_direction(u, v, w, mu, phi)
    for i in range(n):
        s = rotate_direction(u[i], v[i], w[i], mu[i], phi[i])
        assert s == (nu[i], nv[i], nw[i])


def test_rotation_polar_special_case():
    nu, nv, nw = rotate_direction(0.0, 0.0, 1.0, 0.5, 1.0)
    assert nu * nu + nv * nv + nw * nw == pytest.approx(1.0, abs=1e-12)
    assert nw == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def test_mesh3_indexing():
    m = StructuredMesh3D(4, 5, 6)
    assert m.ncells == 120
    assert m.cell_of_point(0.999, 0.999, 0.999) == (3, 4, 5)
    with pytest.raises(ValueError):
        m.cell_of_point(1.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        StructuredMesh3D(0, 4, 4)


def test_facet_distance_3d_axes():
    b = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    d, ax = distance_to_facet_3d(0.5, 0.5, 0.5, 0.0, 0.0, 1.0, *b)
    assert (d, ax) == (pytest.approx(0.5), 2)
    d, ax = distance_to_facet_3d(0.2, 0.5, 0.5, -1.0, 0.0, 0.0, *b)
    assert (d, ax) == (pytest.approx(0.2), 0)


@given(
    x=st.floats(min_value=0.01, max_value=0.99),
    y=st.floats(min_value=0.01, max_value=0.99),
    z=st.floats(min_value=0.01, max_value=0.99),
    u1=UNIT, u2=UNIT,
)
@settings(max_examples=200, deadline=None)
def test_facet_3d_scalar_vec_parity(x, y, z, u1, u2):
    ox, oy, oz = sample_isotropic_direction_3d(u1, u2)
    b = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    ds, as_ = distance_to_facet_3d(x, y, z, ox, oy, oz, *b)
    arr = lambda v: np.array([v])
    dv, av = batch3.distance_to_facet_3d(
        arr(x), arr(y), arr(z), arr(ox), arr(oy), arr(oz),
        arr(0.0), arr(1.0), arr(0.0), arr(1.0), arr(0.0), arr(1.0),
    )
    assert ds == dv[0] and as_ == av[0]
    assert ds > 0


def test_cross_facet_3d_reflect_and_escape():
    m = StructuredMesh3D(4, 4, 4)
    out = cross_facet_3d(3, 1, 1, 1.0, 0.0, 0.0, 0, m)
    assert out[:3] == (3, 1, 1) and out[3] == -1.0 and out[6] and not out[7]
    out = cross_facet_3d(3, 1, 1, 1.0, 0.0, 0.0, 0, m, BoundaryCondition.VACUUM)
    assert out[7] and not out[6]
    out = cross_facet_3d(1, 1, 1, 0.0, 0.0, -1.0, 2, m)
    assert out[:3] == (1, 1, 0)


def test_cross_facet_3d_vec_parity():
    m = StructuredMesh3D(4, 4, 4)
    rng = np.random.default_rng(2)
    n = 200
    cx, cy, cz = rng.integers(0, 4, (3, n))
    u1, u2 = rng.uniform(0, 1, (2, n))
    ox, oy, oz = batch3.sample_isotropic_direction_3d(u1, u2)
    axis = rng.integers(0, 3, n)
    vec = batch3.cross_facet_3d(cx, cy, cz, ox, oy, oz, axis, m)
    for i in range(n):
        s = cross_facet_3d(
            int(cx[i]), int(cy[i]), int(cz[i]),
            float(ox[i]), float(oy[i]), float(oz[i]), int(axis[i]), m,
        )
        got = tuple(v[i] for v in vec[:6]) + (bool(vec[6][i]), bool(vec[7][i]))
        assert s == got


def test_tally3():
    t = Tally3D(3, 3, 3)
    t.flush(1, 2, 0, 5.0)
    t.flush_vec(np.array([1, 1]), np.array([2, 2]), np.array([0, 0]),
                np.array([1.0, 2.0]))
    assert t.deposition[0, 2, 1] == 8.0
    assert t.flushes == 3
    with pytest.raises(ValueError):
        Tally3D(0, 1, 1)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

FACTORIES = (stream3_problem, scatter3_problem, csp3_problem)


@pytest.fixture(scope="module", params=[f.__name__ for f in FACTORIES])
def pair(request):
    factory = {f.__name__: f for f in FACTORIES}[request.param]
    cfg = factory(n=16, nparticles=25)
    return run_over_particles_3d(cfg), run_over_events_3d(cfg)


def test_3d_conservation(pair):
    a, b = pair
    assert energy_balance_error_3d(a) < 1e-12
    assert energy_balance_error_3d(b) < 1e-12
    assert population_accounted_3d(a)
    assert population_accounted_3d(b)


def test_3d_schemes_bit_identical(pair):
    a, b = pair
    for f in ("x", "y", "z", "energy", "weight", "rng_counter"):
        assert np.array_equal(a.arena[f], b.arena[f]), f
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)
    assert a.counters.collisions == b.counters.collisions
    assert a.counters.facets == b.counters.facets


def test_3d_problem_extremes():
    s = run_over_events_3d(stream3_problem(n=16, nparticles=25))
    sc = run_over_events_3d(scatter3_problem(n=16, nparticles=25))
    assert s.counters.collisions == 0
    assert s.counters.mean_facets_per_particle() > 10
    assert sc.counters.mean_collisions_per_particle() > 5
    assert sc.counters.facets < sc.counters.collisions


def test_3d_vacuum_boundaries():
    cfg = stream3_problem(n=16, nparticles=25, boundary=BoundaryCondition.VACUUM)
    r = run_over_events_3d(cfg)
    assert r.counters.escapes == 25
    assert energy_balance_error_3d(r) < 1e-12


def test_3d_facet_rate_matches_closed_form():
    """Per timestep: crossings ≈ v·dt·E[|Ωx|+|Ωy|+|Ωz|]/Δ with the
    isotropic-3D mean 3/2 — the same arithmetic that gave the paper its
    ≈7000 facets per particle in 2-D (with 4/π)."""
    n = 16
    cfg = stream3_problem(n=n, nparticles=60)
    r = run_over_events_3d(cfg)
    v = 1.3832e7
    expected = v * cfg.dt * 1.5 / (1.0 / n)
    measured = r.counters.mean_facets_per_particle()
    assert measured == pytest.approx(expected, rel=0.08)


def test_3d_config_validation():
    with pytest.raises(ValueError):
        stream3_problem(n=8, nparticles=0)
    cfg = stream3_problem(n=8, nparticles=5)
    with pytest.raises(ValueError):
        cfg.with_(density=np.zeros((4, 4, 4)))
