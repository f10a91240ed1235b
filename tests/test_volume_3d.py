"""3-D transport extension: kinematics, geometry, schemes, conservation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Scheme,
    Simulation,
    csp3_problem,
    scatter3_problem,
    stream3_problem,
)
from repro.core.books import ReplicaBooks
from repro.core.stepper import run_stepped
from repro.ensemble.volume import population_fingerprint_3d
from repro.kernels import batch
from repro.mesh.boundary import BoundaryCondition
from repro.parallel import ScheduleKind
from repro.particles.arena import ParticleArena3
from repro.particles.source import sample_source
from repro.volume import (
    StructuredMesh3D,
    Tally3D,
    energy_balance_error_3d,
    population_accounted_3d,
    run_over_events_3d,
)
from repro.xs.materials import fissile_fuel, hydrogenous_moderator
from tests.oracle import (
    collide,
    cross_facet,
    distance_to_facet,
    rotate_direction,
    sample_isotropic_direction,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

@given(u1=UNIT, u2=UNIT)
@settings(max_examples=200, deadline=None)
def test_isotropic_3d_unit_norm(u1, u2):
    x, y, z = sample_isotropic_direction(u1, u2)
    assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)
    vx, vy, vz = batch.sample_isotropic_direction_3d(np.array([u1]), np.array([u2]))
    assert (x, y, z) == (vx[0], vy[0], vz[0])


def test_isotropic_3d_statistics():
    u = np.random.default_rng(0).uniform(0, 1, (2, 50000))
    x, y, z = batch.sample_isotropic_direction_3d(u[0], u[1])
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
    u, v, w = sample_isotropic_direction(u1, u2)
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
    u, v, w = batch.sample_isotropic_direction_3d(u1, u2)
    mu = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    nu, nv, nw = batch.rotate_direction(u, v, w, mu, phi)
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


LO, HI = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)


def test_facet_distance_3d_axes():
    d, ax = distance_to_facet((0.5, 0.5, 0.5), (0.0, 0.0, 1.0), LO, HI)
    assert (d, ax) == (pytest.approx(0.5), 2)
    d, ax = distance_to_facet((0.2, 0.5, 0.5), (-1.0, 0.0, 0.0), LO, HI)
    assert (d, ax) == (pytest.approx(0.2), 0)


@given(
    x=st.floats(min_value=0.01, max_value=0.99),
    y=st.floats(min_value=0.01, max_value=0.99),
    z=st.floats(min_value=0.01, max_value=0.99),
    u1=UNIT, u2=UNIT,
)
@settings(max_examples=200, deadline=None)
def test_facet_3d_scalar_vec_parity(x, y, z, u1, u2):
    ox, oy, oz = sample_isotropic_direction(u1, u2)
    ds, as_ = distance_to_facet((x, y, z), (ox, oy, oz), LO, HI)
    arr = lambda v: np.array([v])
    dv, av = batch.distance_to_facet(
        arr(x), arr(y), arr(z), arr(ox), arr(oy), arr(oz),
        arr(0.0), arr(1.0), arr(0.0), arr(1.0), arr(0.0), arr(1.0),
    )
    assert ds == dv[0] and as_ == av[0]
    assert ds > 0


def test_tally3d_flush_vec_is_a_scalar_flush_loop_bitwise():
    """Repeated cells accumulate in lane order on the flat cell index."""
    rng = np.random.default_rng(16)
    n = 5000
    ix, iy, iz = rng.integers(0, 2, (3, n))
    e = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
    vec = Tally3D(4, 3, 5)
    seq = Tally3D(4, 3, 5)
    vec.flush_vec(ix, iy + 1, iz + 3, e)
    for i in range(n):
        seq.flush(int(ix[i]), int(iy[i]) + 1, int(iz[i]) + 3, float(e[i]))
    assert vec.deposition.tobytes() == seq.deposition.tobytes()
    assert np.array_equal(vec.flush_counts, seq.flush_counts)
    assert vec.flushes == seq.flushes == n


def test_cross_facet_3d_reflect_and_escape():
    shape = StructuredMesh3D(4, 4, 4).shape
    out = cross_facet((3, 1, 1), (1.0, 0.0, 0.0), 0, shape)
    assert out[:3] == (3, 1, 1) and out[3] == -1.0 and out[6] and not out[7]
    out = cross_facet((3, 1, 1), (1.0, 0.0, 0.0), 0, shape,
                      BoundaryCondition.VACUUM)
    assert out[7] and not out[6]
    out = cross_facet((1, 1, 1), (0.0, 0.0, -1.0), 2, shape)
    assert out[:3] == (1, 1, 0)


def test_cross_facet_3d_vec_parity():
    m = StructuredMesh3D(4, 4, 4)
    rng = np.random.default_rng(2)
    n = 200
    cx, cy, cz = rng.integers(0, 4, (3, n))
    u1, u2 = rng.uniform(0, 1, (2, n))
    ox, oy, oz = batch.sample_isotropic_direction_3d(u1, u2)
    axis = rng.integers(0, 3, n)
    vec = batch.cross_facet(cx, cy, cz, ox, oy, oz, axis, m)
    for i in range(n):
        s = cross_facet(
            (int(cx[i]), int(cy[i]), int(cz[i])),
            (float(ox[i]), float(oy[i]), float(oz[i])), int(axis[i]), m.shape,
        )
        got = tuple(v[i] for v in vec[:6]) + (bool(vec[6][i]), bool(vec[7][i]))
        assert s == got


def test_collide3_vec_parity():
    """The batch 3-D collision kernel against the scalar oracle, lane by
    lane, cutoffs included, the deferred weight cutoff too."""
    rng = np.random.default_rng(3)
    n = 300
    energy = 10.0 ** rng.uniform(-1.0, 6.0, n)
    weight = 10.0 ** rng.uniform(-4.0, 0.0, n)
    ox, oy, oz = batch.sample_isotropic_direction_3d(*rng.uniform(0, 1, (2, n)))
    sigma_t = rng.uniform(0.1, 50.0, n)
    sigma_a = sigma_t * rng.uniform(0.0, 1.0, n)
    u = rng.uniform(0, 1, (3, n))
    vec = batch.collide(
        energy, weight, ox, oy, oz, sigma_a, sigma_t, 1.0, *u, 1.0, 1.0e-3,
    )
    assert not vec[8].any()  # nothing deferred without Russian roulette
    deferred = batch.collide(
        energy, weight, ox, oy, oz, sigma_a, sigma_t, 1.0, *u, 1.0, 1.0e-3,
        defer_weight_cutoff=True,
    )
    assert deferred[8].any() and not (deferred[7] & deferred[8]).any()
    for defer, out in ((False, vec), (True, deferred)):
        for i in range(n):
            s = collide(
                energy[i], weight[i], (ox[i], oy[i], oz[i]), sigma_a[i],
                sigma_t[i], 1.0, u[0][i], u[1][i], u[2][i], 1.0, 1.0e-3,
                defer_weight_cutoff=defer,
            )
            assert (
                s.energy, s.weight, *s.omega, s.mfp_to_collision,
                s.deposit, s.terminated, s.below_weight_cutoff,
            ) == tuple(v[i] for v in out), (i, defer)


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

#: The physics counters both schemes must agree on, event for event.
PHYSICS_COUNTERS = (
    "collisions", "facets", "census_events", "terminations", "escapes",
    "reflections", "density_reads", "rng_draws", "tally_flushes",
)


@pytest.fixture(scope="module", params=[f.__name__ for f in FACTORIES])
def pair(request):
    factory = {f.__name__: f for f in FACTORIES}[request.param]
    cfg = factory(n=16, nparticles=25)
    return (Simulation(cfg).run(Scheme.OVER_PARTICLES),
            run_over_events_3d(cfg))


def test_3d_conservation(pair):
    a, b = pair
    assert energy_balance_error_3d(a) < 1e-12
    assert energy_balance_error_3d(b) < 1e-12
    assert population_accounted_3d(a)
    assert population_accounted_3d(b)


def test_3d_schemes_bit_identical(pair):
    a, b = pair
    for name, _ in type(a.arena).FIELDS:
        assert np.array_equal(
            getattr(a.arena, name), getattr(b.arena, name)
        ), name
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)
    for name in PHYSICS_COUNTERS:
        assert getattr(a.counters, name) == getattr(b.counters, name), name


# Captured from the commit before the 3-D drivers moved onto the census
# stepper (n=12, 40 histories, 2 timesteps): population fingerprint,
# PHYSICS_COUNTERS, sha256 of the tally.  Both schemes produced every value
# below, with one exception: that commit's one-history-at-a-time Over
# Particles tracker accumulated scatter3's tally history-major, which sums
# the same deposits to the same total in another order (ead51f53… for CE,
# dfddd605… for multigroup); the blocked Over Particles driver accumulates
# pass-major, like Over Events.
GOLDEN_3D = {
    ("csp3", "ce", "reflective"): (
        "d80ed17f4ebfbd6328142ab981ccf6de81bad5f31c1ae26a7c6f543500ab2c83",
        (156, 1887, 79, 1, 0, 176, 1711, 708, 1967),
        "4ec85f8fc64464e8392e86d8a905612720175ee2aa4b16823f07004387e78f1f",
    ),
    ("csp3", "ce", "vacuum"): (
        "393c36a9da8d9af148d89ade01a113fc040479d1eb35e96837e0bc0cff33294d",
        (28, 128, 1, 0, 40, 0, 88, 324, 129),
        "fa9498a13313f803623be6d6bd217a5f5e139e3462965ccaab8442e1b1be0f6b",
    ),
    ("csp3", "multigroup", "reflective"): (
        "d55050f9502febbbc096c0fd8a04901424f26da6e6d1ae09caab02b2935adbc1",
        (135, 1683, 78, 2, 0, 157, 1526, 645, 1763),
        "de26733b4d185383db560892c7714127a6cdc8475d1c2cd61e76f048c90d3077",
    ),
    ("csp3", "multigroup", "vacuum"): (
        "0fbd2399d70eabc46f30dab1313d07bb228c407559ec2bf082c552e0199fd98d",
        (17, 113, 2, 0, 39, 0, 74, 291, 115),
        "6620031592dc59f10389d6791d1d3ad91dcaa6c3e446d522ee22c4462bd70030",
    ),
    ("scatter3", "ce", "reflective"): (
        "746cb93972509d1449ee16238475f91892ed83f7e617a1ed1815c54da392b458",
        (1753, 82, 0, 40, 0, 0, 82, 5499, 122),
        "2e5f7cdae13e12c4cf22ae2293a7afc37cb4151939b587a9e02a2522760dad26",
    ),
    ("scatter3", "ce", "vacuum"): (
        "746cb93972509d1449ee16238475f91892ed83f7e617a1ed1815c54da392b458",
        (1753, 82, 0, 40, 0, 0, 82, 5499, 122),
        "2e5f7cdae13e12c4cf22ae2293a7afc37cb4151939b587a9e02a2522760dad26",
    ),
    ("scatter3", "multigroup", "reflective"): (
        "923eed5a678eeed9707d82b9bfc14eb14df7a1e7660713edd5f0238f656e556f",
        (697, 4, 36, 28, 0, 0, 4, 2331, 68),
        "b3fa800cd4c2d55879c3c72c49ead3d8497f57a0a73a5e55d1c00387725c76a3",
    ),
    ("scatter3", "multigroup", "vacuum"): (
        "923eed5a678eeed9707d82b9bfc14eb14df7a1e7660713edd5f0238f656e556f",
        (697, 4, 36, 28, 0, 0, 4, 2331, 68),
        "b3fa800cd4c2d55879c3c72c49ead3d8497f57a0a73a5e55d1c00387725c76a3",
    ),
    ("stream3", "ce", "reflective"): (
        "1e6d1f4ed0dfb6cd4e323ea263da337380b1c3ace62834b3a05a3287f2d3981e",
        (0, 2013, 80, 0, 0, 162, 1851, 240, 2093),
        "299407adb3f1bd645191cfecb3c33a47510b1dfba3c0a936d741bdd8513526c0",
    ),
    ("stream3", "ce", "vacuum"): (
        "e2c7c2ee801e34f2f95dcfd4d36e0f2575a7850940fdb932a7666a8e59543251",
        (0, 471, 0, 0, 40, 0, 431, 240, 471),
        "299407adb3f1bd645191cfecb3c33a47510b1dfba3c0a936d741bdd8513526c0",
    ),
    ("stream3", "multigroup", "reflective"): (
        "1e6d1f4ed0dfb6cd4e323ea263da337380b1c3ace62834b3a05a3287f2d3981e",
        (0, 2013, 80, 0, 0, 162, 1851, 240, 2093),
        "299407adb3f1bd645191cfecb3c33a47510b1dfba3c0a936d741bdd8513526c0",
    ),
    ("stream3", "multigroup", "vacuum"): (
        "e2c7c2ee801e34f2f95dcfd4d36e0f2575a7850940fdb932a7666a8e59543251",
        (0, 471, 0, 0, 40, 0, 431, 240, 471),
        "299407adb3f1bd645191cfecb3c33a47510b1dfba3c0a936d741bdd8513526c0",
    ),
}


def _tally_sha(tally) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(tally.deposition).tobytes()
    ).hexdigest()


#: The schemes the goldens reproduce under, by the ids of the per-scheme
#: 3-D drivers they were first pinned through.
GOLDEN_SCHEMES = {"run_over_particles_3d": Scheme.OVER_PARTICLES,
                  "run_over_events_3d": Scheme.OVER_EVENTS}


@pytest.mark.parametrize("scheme", list(GOLDEN_SCHEMES.values()),
                         ids=list(GOLDEN_SCHEMES))
@pytest.mark.parametrize("key", sorted(GOLDEN_3D), ids="-".join)
def test_3d_goldens_reproduce(key, scheme):
    name, xs_mode, boundary = key
    factory = {f.__name__: f for f in FACTORIES}[name + "_problem"]
    cfg = factory(
        n=12, nparticles=40, ntimesteps=2, xs_mode=xs_mode,
        boundary=BoundaryCondition(boundary),
    )
    result = Simulation(cfg).run(scheme)
    fingerprint, counters, tally = GOLDEN_3D[key]
    assert population_fingerprint_3d(result.arena) == fingerprint
    assert tuple(
        getattr(result.counters, c) for c in PHYSICS_COUNTERS
    ) == counters
    assert _tally_sha(result.tally) == tally


@pytest.mark.parametrize("scheme", [Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS])
def test_3d_fused_member_matches_standalone(scheme):
    """Four members fused into one arena — three differ in seed only, one
    also in weight cutoff and timestep (the books carry both per lane):
    every member's population, counters and tally equal its standalone
    run's, under either scheme."""
    base = csp3_problem(n=8, nparticles=30, ntimesteps=2)
    members = [base.with_(seed=base.seed + 5 * r) for r in range(3)]
    members.append(base.with_(seed=base.seed + 15, weight_cutoff=0.3,
                              dt=0.6 * base.dt))
    mesh = base.build_mesh()
    fused = ParticleArena3.fuse([
        sample_source(mesh, m.source, m.nparticles, m.seed, m.dt)
        for m in members
    ])
    rep = np.repeat(np.arange(len(members)), base.nparticles)
    books = ReplicaBooks(members, rep, base.build_tally)
    result = run_stepped(base, scheme, arena=fused, books=books)
    for r, member in enumerate(members):
        solo = Simulation(member).run(scheme)
        part = result.arena.subset(np.nonzero(rep == r)[0])
        for name, _ in ParticleArena3.FIELDS:
            assert np.array_equal(
                getattr(part, name), getattr(solo.arena, name)
            ), (r, name)
        for name in PHYSICS_COUNTERS:
            assert getattr(books.counters[r], name) == getattr(
                solo.counters, name
            ), (r, name)
        assert np.array_equal(
            books.tallies[r].deposition, solo.tally.deposition
        )


def test_3d_conflict_probability_is_measured():
    """A 3-D run keeps the tally's flush histogram, so its conflict
    probability is Σp² over that histogram — measured, not 0.0."""
    r = run_over_events_3d(csp3_problem(n=12, nparticles=40))
    counts = r.tally.flush_counts
    assert counts.shape == (12, 12, 12)
    assert counts.sum() == r.tally.flushes == r.counters.tally_flushes
    p = counts.ravel() / counts.sum()
    assert r.counters.tally_conflict_probability == pytest.approx(
        float(np.dot(p, p)), rel=1e-12
    )
    assert r.counters.tally_conflict_probability > 0.0


def test_3d_fissile_run_banks_children():
    """A fissile 3-D medium multiplies: its children are banked per axis,
    born with a 3-D direction (two draws), an energy and a first optical
    distance — four draws each — identically under either scheme."""
    from repro.xs.ce import default_ce_materials

    cfg = csp3_problem(n=8, nparticles=50, xs_mode="ce",
                       ce_materials=(default_ce_materials(2)[1],))
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert population_fingerprint_3d(a.arena) == population_fingerprint_3d(
        b.arena
    )
    assert _tally_sha(a.tally) == _tally_sha(b.tally)
    for r in (a, b):
        c = r.counters
        assert energy_balance_error_3d(r) < 1e-12
        assert population_accounted_3d(r)
        assert c.secondaries_banked > 0
        assert c.nparticles == len(r.arena) == 50 + c.secondaries_banked
        # Every collision is in the fissile fuel: three collision draws
        # and one yield draw; every birth six (source) or four (child).
        assert c.rng_draws == (
            cfg.BIRTH_DRAWS * 50 + 4 * c.collisions + 4 * c.secondaries_banked
        )
    children = a.arena.particle_id >= 50
    norm = sum(o[children] ** 2 for o in a.arena.omega)
    assert np.allclose(norm, 1.0, atol=1e-12)


POOL_SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS, Scheme.AUTO)
POOL_SCHEDULES = (ScheduleKind.STATIC, ScheduleKind.DYNAMIC)


@pytest.fixture(scope="module")
def pooled_3d():
    """Serial and two-worker runs of 3-D csp per backend, scheme and
    schedule: the pool takes a 3-D config unchanged."""
    out = {}
    for xs_mode in ("multigroup", "ce"):
        sim = Simulation(csp3_problem(n=8, nparticles=30, ntimesteps=2,
                                      xs_mode=xs_mode))
        for scheme in POOL_SCHEMES:
            out[xs_mode, scheme, None] = sim.run(scheme)
            for schedule in POOL_SCHEDULES:
                out[xs_mode, scheme, schedule] = sim.run(
                    scheme, nworkers=2, schedule=schedule, chunk=4,
                )
    return out


@pytest.mark.parametrize("schedule", POOL_SCHEDULES, ids=lambda k: k.value)
@pytest.mark.parametrize("scheme", POOL_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("xs_mode", ["multigroup", "ce"])
def test_3d_pooled_run_matches_serial(pooled_3d, xs_mode, scheme, schedule):
    """A pooled 3-D run is a reordering of the serial one: the same final
    population, physics counters and flush histogram, and the tally to
    accumulation-order rounding."""
    serial = pooled_3d[xs_mode, scheme, None]
    pooled = pooled_3d[xs_mode, scheme, schedule]
    assert pooled.pool.nworkers == 2
    assert population_fingerprint_3d(pooled.arena) == (
        population_fingerprint_3d(serial.arena))
    for name in PHYSICS_COUNTERS:
        assert getattr(pooled.counters, name) == getattr(
            serial.counters, name), name
    assert np.array_equal(pooled.tally.flush_counts, serial.tally.flush_counts)
    np.testing.assert_allclose(pooled.tally.deposition,
                               serial.tally.deposition, rtol=1e-12, atol=0)
    assert energy_balance_error_3d(pooled) < 1e-12
    assert population_accounted_3d(pooled)


def _vr3(kind):
    """3-D csp with one variance-reduction or multi-material extension."""
    if kind == "roulette":
        return scatter3_problem(n=8, nparticles=40, ntimesteps=2,
                                use_russian_roulette=True, weight_cutoff=0.05)
    base = csp3_problem(n=8, nparticles=40, ntimesteps=2)
    if kind == "importance":
        imap = np.ones((8, 8, 8))
        imap[:, :, 4:] = 4.0  # x ≥ 0.5 matters four times as much
        return base.with_(importance_map=imap)
    mmap = np.zeros((8, 8, 8), dtype=np.int64)
    mmap[3:5, 3:5, 3:5] = 1  # the dense cube is fissile fuel
    return base.with_(
        material_map=mmap,
        materials=(hydrogenous_moderator(2500), fissile_fuel(2500)),
    )


#: The counter each extension must move for its case to mean anything.
VR_ENGAGED = {"roulette": "roulette_kills", "importance": "splits",
              "materials": "fissions"}


@pytest.mark.parametrize("kind", sorted(VR_ENGAGED))
def test_3d_extensions_agree_across_schemes_and_conserve(kind):
    """Roulette, an importance map and a two-material map run in 3-D: both
    schemes give the same population and tally, the energy ledger closes
    and every history is accounted for."""
    cfg = _vr3(kind)
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert getattr(a.counters, VR_ENGAGED[kind]) > 0
    assert population_fingerprint_3d(a.arena) == population_fingerprint_3d(
        b.arena)
    for name in PHYSICS_COUNTERS:
        assert getattr(a.counters, name) == getattr(b.counters, name), name
    np.testing.assert_allclose(a.tally.deposition, b.tally.deposition,
                               rtol=1e-12, atol=0)
    for r in (a, b):
        assert energy_balance_error_3d(r) < 1e-12
        assert population_accounted_3d(r)


def _facet3(kind):
    """3-D csp runs that take the facet handler's extension branches: an
    importance map (the departure-cell ratio read, splits and roulette),
    or a two-material map with a vacuum boundary — a fuel slab across
    the source corner's path in a uniform medium dense enough to collide
    in, so crossings change material (the cached cross sections refresh,
    and a run without that refresh ends differently) and histories
    escape."""
    if kind == "importance":
        return _vr3("importance")
    mmap = np.zeros((8, 8, 8), dtype=np.int64)
    mmap[:, :, 1:3] = 1
    return csp3_problem(
        n=8, nparticles=40, ntimesteps=2,
        boundary=BoundaryCondition.VACUUM, material_map=mmap,
        materials=(hydrogenous_moderator(2500), fissile_fuel(2500)),
    ).with_(density=np.ones((8, 8, 8)))


# Captured at the commit before the facet handler's gather-once rewrite,
# per scheme (OP ≡ OE parity cannot see a facet-handler bug: both schemes
# run the one handler): population fingerprint, PHYSICS_COUNTERS, sha256
# of the tally.  The importance run's children join in a scheme-specific
# order, so its tally sums the same deposits in another order.
GOLDEN_3D_FACET = {
    ("importance", "over_particles"): (
        "137e6ec55c12fb19a068758ef2b7da5e80deb87debbe44499a865c47a6e7f496",
        (281, 2360, 195, 53, 0, 299, 2061, 1181, 2559),
        "94bc916588ba5f2ceeac912030f89fa1de7a4351f330ee62cad36331e04994ce",
    ),
    ("importance", "over_events"): (
        "137e6ec55c12fb19a068758ef2b7da5e80deb87debbe44499a865c47a6e7f496",
        (281, 2360, 195, 53, 0, 299, 2061, 1181, 2559),
        "67f63b678d73c0d1eb59f8391f7d41f0309a15ada0ae30080fd17df6b6feec10",
    ),
    ("materials", "over_particles"): (
        "802c67c027e33288242663ef105d2c9a86320c4fed4e88fdcd8075cf1ea1a7e2",
        (25, 69, 4, 0, 38, 0, 31, 315, 73),
        "e64a2022fbea3fb1749fc501bc2f9a10f3e9af88b3d68da02924835e527482e3",
    ),
    ("materials", "over_events"): (
        "802c67c027e33288242663ef105d2c9a86320c4fed4e88fdcd8075cf1ea1a7e2",
        (25, 69, 4, 0, 38, 0, 31, 315, 73),
        "e64a2022fbea3fb1749fc501bc2f9a10f3e9af88b3d68da02924835e527482e3",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_3D_FACET), ids="-".join)
def test_3d_facet_goldens_reproduce(key):
    kind, scheme = key
    result = Simulation(_facet3(kind)).run(Scheme(scheme))
    fingerprint, counters, tally = GOLDEN_3D_FACET[key]
    assert population_fingerprint_3d(result.arena) == fingerprint
    assert tuple(
        getattr(result.counters, c) for c in PHYSICS_COUNTERS
    ) == counters
    assert _tally_sha(result.tally) == tally


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


def test_3d_config_refuses_out_of_range_seeds():
    """The 3-D config refuses a seed that is not a 64-bit Threefry key
    word, as the 2-D one does."""
    for seed in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            stream3_problem(n=8, nparticles=5, seed=seed)
    assert stream3_problem(n=8, nparticles=5, seed=2**64 - 1).seed == 2**64 - 1
