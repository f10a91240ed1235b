"""Kernel-layer parity: batch kernels ≡ the scalar oracle, and the
blocked Over Particles driver ≡ the classic depth-first traversal.

Two families of guarantees:

* every batch kernel in :mod:`repro.kernels` is *element-wise bit-equal*
  to its per-history reference in ``tests/oracle`` (same floats, same
  ints, same booleans — not merely close), in 2-D and 3-D;
* the blocked Over Particles driver produces bit-identical final particle
  states and counters for every block size (1 reproduces the classic
  one-history-at-a-time order; tallies agree to accumulation-order
  rounding because flushes batch differently).
"""

import numpy as np
import pytest

from repro.core import Scheme, csp_problem, scatter_problem, stream_problem
from repro.core.config import SearchStrategy
from repro.core.stepper import run_stepped
from repro.kernels import Workspace, batch
from repro.kernels import xs as kxs
from repro.kernels.audit import audit_pass_allocations
from repro.kernels.dispatch import KERNEL_TABLES, PASS_KERNELS
from repro.mesh.boundary import BoundaryCondition
from repro.mesh.structured import StructuredMesh
from repro.physics.fission import expected_secondaries, realised_secondaries
from repro.physics.importance import split_count
from repro.xs.lookup import LookupStats
from repro.xs.tables import make_capture_table, make_scatter_table
from tests.oracle import (
    binary_search_bin,
    cached_linear_search_bin,
    collide as collide_scalar,
    cross_facet as cross_facet_scalar,
    distance_to_census,
    distance_to_collision,
    distance_to_facet,
    russian_roulette,
    select_event,
    speed_from_energy_ev,
)

RNG = np.random.default_rng(20170905)  # CLUSTER'17
N = 257  # odd, larger than any vector width


# ---------------------------------------------------------------------------
# Batch kernels vs. the scalar physics they replaced
# ---------------------------------------------------------------------------

def _directions(n):
    theta = RNG.uniform(0.0, 2.0 * np.pi, n)
    return np.cos(theta), np.sin(theta)


def test_collide_matches_scalar():
    energy = RNG.uniform(1e-4, 1e6, N)
    weight = RNG.uniform(1e-6, 2.0, N)
    ox, oy = _directions(N)
    sigma_t = RNG.uniform(0.0, 500.0, N)
    sigma_t[:5] = 0.0  # void lanes
    sigma_a = sigma_t * RNG.uniform(0.0, 1.0, N)
    u1, u2, u3 = RNG.random(N), RNG.random(N), RNG.random(N)
    for defer in (False, True):
        out = batch.collide(
            energy, weight, ox, oy, sigma_a, sigma_t, 1.0079,
            u1, u2, u3, 1e-2, 1e-3, defer_weight_cutoff=defer,
        )
        for i in range(N):
            ref = collide_scalar(
                energy[i], weight[i], (ox[i], oy[i]), sigma_a[i], sigma_t[i],
                1.0079, u1[i], u2[i], u3[i], 1e-2, 1e-3,
                defer_weight_cutoff=defer,
            )
            got = (
                ref.energy, ref.weight, *ref.omega,
                ref.mfp_to_collision, ref.deposit, ref.terminated,
                ref.below_weight_cutoff,
            )
            for field, (b, s) in enumerate(zip(out, got)):
                assert b[i] == s, (i, field, defer)


def test_cross_facet_matches_scalar():
    mesh = StructuredMesh(7, 5, 1.0, 1.0, np.full((5, 7), 10.0))
    cellx = RNG.integers(0, 7, N)
    celly = RNG.integers(0, 5, N)
    ox, oy = _directions(N)
    axis = RNG.integers(0, 2, N)
    for bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.VACUUM):
        out = batch.cross_facet(cellx, celly, ox, oy, axis, mesh, bc)
        for i in range(N):
            ref = cross_facet_scalar(
                (int(cellx[i]), int(celly[i])), (float(ox[i]), float(oy[i])),
                int(axis[i]), mesh.shape, bc,
            )
            for field, (b, s) in enumerate(zip(out, ref)):
                assert b[i] == s, (i, field, bc)


def test_select_events_matches_scalar():
    d_coll = RNG.uniform(0.0, 1.0, N)
    d_facet = RNG.uniform(0.0, 1.0, N)
    d_census = RNG.uniform(0.0, 1.0, N)
    # Exercise the tie-breaks explicitly.
    d_facet[:10] = d_coll[:10]
    d_census[10:20] = d_facet[10:20]
    d_census[20:30] = d_coll[20:30]
    event = batch.select_events(d_coll, d_facet, d_census)
    for i in range(N):
        assert event[i] == int(
            select_event(d_coll[i], d_facet[i], d_census[i])
        ), i


def test_census_matches_scalar():
    x = RNG.uniform(0.0, 1.0, N)
    y = RNG.uniform(0.0, 1.0, N)
    ox, oy = _directions(N)
    mfp = RNG.uniform(0.0, 5.0, N)
    sigma_t = RNG.uniform(0.0, 500.0, N)
    d = RNG.uniform(0.0, 0.1, N)
    new_x, new_y, new_mfp = batch.census(x, y, ox, oy, mfp, sigma_t, d)
    for i in range(N):
        assert new_x[i] == x[i] + d[i] * ox[i]
        assert new_y[i] == y[i] + d[i] * oy[i]
        assert new_mfp[i] == max(0.0, mfp[i] - d[i] * sigma_t[i])


def test_roulette_matches_scalar():
    cutoff = 1e-3
    weight = RNG.uniform(0.0, cutoff, N)
    u = RNG.random(N)
    survive, restored = batch.roulette(weight, u, cutoff)
    for i in range(N):
        new_weight, killed = russian_roulette(weight[i], u[i], cutoff)
        assert survive[i] == (not killed), i
        if not killed:
            assert restored == new_weight, i


def test_fission_yield_matches_scalar():
    weight = RNG.uniform(0.0, 2.0, N)
    nu = np.full(N, 2.43)
    sigma_t = RNG.uniform(1.0, 500.0, N)
    sigma_f = sigma_t * RNG.uniform(0.0, 0.5, N)
    u = RNG.random(N)
    counts = batch.fission_yield(weight, nu, sigma_f, sigma_t, u)
    for i in range(N):
        expected = expected_secondaries(weight[i], nu[i], sigma_f[i], sigma_t[i])
        assert counts[i] == realised_secondaries(expected, u[i]), i


def test_split_counts_matches_scalar():
    ratio = RNG.uniform(0.1, 12.0, N)
    ratio[:20] = RNG.uniform(0.1, 1.0, 20)  # no-split lanes
    u = RNG.random(N)
    counts = batch.split_counts(ratio, u)
    for i in range(N):
        assert counts[i] == split_count(ratio[i], u[i]), i


# ---------------------------------------------------------------------------
# Branch-free geometry kernels: the edge-lane table
# ---------------------------------------------------------------------------

_EPS = batch.PARALLEL_EPS
#: Direction components on and around every predicate of the geometry
#: kernels: the sign test at zero and the parallel cutoff at ±PARALLEL_EPS.
_EDGE_OMEGAS = (
    0.0, -0.0, _EPS, -_EPS,
    float(np.nextafter(_EPS, 1.0)), -float(np.nextafter(_EPS, 1.0)),
    float(np.nextafter(_EPS, 0.0)), -float(np.nextafter(_EPS, 0.0)),
    5e-324, -5e-324, 1.0, -1.0, 0.6, -0.6,
)
_NCELLS = 5  # per axis over a unit extent: δ = 0.2 is inexact in binary


def _edge_lanes(ndim):
    """``(cells, offsets, omegas, sigma_t)`` rows covering: every edge
    direction component on every axis; exact nearest-facet ties between
    each pair of adjacent axes (same cell index, offset and direction on
    both, so both axes do literally the same arithmetic) and across all
    axes; every corner cell flying outward, inward and along each facet,
    and with −0.0 on every axis (+0.0 is the along-facet rows' off-axis
    component); Σt = 0."""
    rows = []
    for ax in range(ndim):
        for w in _EDGE_OMEGAS:
            omega = [0.37] * ndim
            omega[ax] = w
            rows.append(([1 + ax] * ndim, [0.3] * ndim, omega, 2.5))
    for ax in range(ndim - 1):
        for w in (0.5, -0.5):
            omega = [1e-3] * ndim
            omega[ax] = omega[ax + 1] = w
            rows.append(([2] * ndim, [0.25] * ndim, omega, 2.5))
    for w in (0.5, -0.5):
        rows.append(([3] * ndim, [0.75] * ndim, [w] * ndim, 2.5))
    for corner in np.ndindex(*(2,) * ndim):
        cell = [c * (_NCELLS - 1) for c in corner]
        outward = [1.0 if c else -1.0 for c in corner]
        for scale in (0.5, -0.5):
            rows.append((cell, [0.5] * ndim, [scale * o for o in outward], 2.5))
        for ax in range(ndim):
            omega = [0.0] * ndim
            omega[ax] = outward[ax]
            rows.append((cell, [0.5] * ndim, omega, 0.0))
        rows.append((cell, [0.5] * ndim, [-0.0] * ndim, 2.5))
    return rows


@pytest.mark.parametrize("ndim", (2, 3))
@pytest.mark.parametrize("width", (1, 64, 16384))
def test_geometry_kernels_edge_lanes(ndim, width):
    """The dispatched geometry kernels, bit-for-bit against the scalar
    oracle on the edge-lane table, with floating-point errors raised:
    a lane a predicate masks off must not have been computed."""
    mesh = StructuredMesh.grid((_NCELLS,) * ndim, (1.0,) * ndim)
    table = KERNEL_TABLES[ndim]
    names = PASS_KERNELS[ndim]
    rows = _edge_lanes(ndim)
    # Batches of ``width`` lanes that together cover the table, cycling it.
    batches = [
        [rows[(start + i) % len(rows)] for i in range(width)]
        for start in range(0, len(rows), width)
    ]
    ws = Workspace()
    for lanes in batches:
        n = len(lanes)
        cells = [np.array([r[0][a] for r in lanes]) for a in range(ndim)]
        pos = [
            (cells[a] + np.array([r[1][a] for r in lanes])) * mesh.deltas[a]
            for a in range(ndim)
        ]
        omega = [np.array([r[2][a] for r in lanes]) for a in range(ndim)]
        sigma_t = np.array([r[3] for r in lanes])
        energy = np.linspace(1.0, 2.0e6, n)
        mfp = np.linspace(0.1, 3.0, n)
        dt = np.full(n, 1.0e-9)
        with np.errstate(all="raise"):
            dist = table[names["distances"]](
                ws, energy, mfp, sigma_t, *pos, *omega, *cells, *mesh.deltas, dt
            )
            event = batch.select_events(
                dist.d_collision, dist.d_facet, dist.d_census
            )
            crossed = {
                (bc, ax): table[names["cross_facet"]](
                    *cells, *omega, np.full(n, ax), mesh, bc
                )
                for bc in BoundaryCondition for ax in range(ndim)
            }
        for i in range(n):
            cell = [int(c[i]) for c in cells]
            p = [float(v[i]) for v in pos]
            o = [float(v[i]) for v in omega]
            bounds = mesh.cell_bounds(*cell)
            d_facet, axis = distance_to_facet(p, o, bounds[0::2], bounds[1::2])
            assert dist.d_facet[i] == d_facet and dist.axis[i] == axis, lanes[i]
            for a in range(ndim):
                assert dist.face[a][i] == bounds[2 * a + (o[a] > 0.0)]
            d_coll = distance_to_collision(float(mfp[i]), float(sigma_t[i]))
            speed = speed_from_energy_ev(float(energy[i]))
            d_census = distance_to_census(float(dt[i]), speed)
            assert dist.d_collision[i] == d_coll
            assert dist.speed[i] == speed and dist.d_census[i] == d_census
            assert event[i] == int(select_event(d_coll, d_facet, d_census))
            for (bc, ax), out in crossed.items():
                ref = cross_facet_scalar(cell, o, ax, mesh.shape, bc)
                for got, want in zip(out, ref):
                    assert got[i] == want, (lanes[i], bc, ax)
                    # −0.0 == 0.0: a reflection must flip the sign bit too.
                    assert np.signbit(got[i]) == np.signbit(want)


def test_workspace_views_count_and_alias_like_fresh_slices():
    """A hand-out from the cached view counts as the fresh slice it
    replaces: across grows, shrinks and re-grows of one name, interleaved
    with a second name, ``allocations`` and ``reuses`` follow the
    get-or-grow rule; a view after a growth aliases the new buffer, and
    two names never alias."""
    ws = Workspace()
    capacity, last = {}, {}
    allocations = reuses = 0
    for name, n in [("a", 64), ("a", 64), ("b", 64), ("a", 100), ("a", 100),
                    ("b", 100), ("a", 32), ("a", 32), ("b", 32), ("a", 128),
                    ("a", 129), ("a", 64), ("b", 64), ("a", 0), ("a", 64)]:
        view = (ws.f64 if name == "a" else ws.i64)(name, n)
        grew = capacity.get(name, -1) < n
        if grew:
            capacity[name] = max(n, 2 * capacity.get(name, n // 2))
            allocations += 1
        else:
            reuses += 1
        assert (ws.allocations, ws.reuses) == (allocations, reuses)
        assert view.shape == (n,)
        assert view.dtype == (np.float64 if name == "a" else np.int64)
        if n and name in last:
            assert np.shares_memory(view, last[name]) != grew, (name, n)
        other = last.get("b" if name == "a" else "a")
        assert other is None or not n or not np.shares_memory(view, other)
        if n:
            last[name] = view
    assert capacity == {"a": 256, "b": 128}


@pytest.mark.parametrize("ndim", (2, 3))
def test_distance_pipeline_allocates_nothing_after_first_call(ndim):
    """ROADMAP 3's allocation audit: from the second call on one
    workspace, ``distances`` + ``select_events`` take no new workspace
    buffer and allocate no full-length numpy temporary — the same check
    ``python -m repro.kernels --check`` runs."""
    assert audit_pass_allocations(ndim) == []


# ---------------------------------------------------------------------------
# Cross-section search kernels: bins, values, and exact probe accounting
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    return make_scatter_table(404)  # non-power-of-two: data-dependent probes


def _energies(table, n):
    lo, hi = table.energy[0], table.energy[-1]
    e = np.exp(RNG.uniform(np.log(lo), np.log(hi), n))
    e[:4] = [lo / 10.0, lo, hi, hi * 10.0]  # clamped lanes
    return e


def test_search_bins_matches_scalar_binary(table):
    e = _energies(table, N)
    bins = kxs.search_bins(table, e)
    for i in range(N):
        assert bins[i] == binary_search_bin(table, e[i]), i


def test_search_bins_matches_scalar_cached_linear(table):
    e = _energies(table, N)
    cached = RNG.integers(-3, len(table) + 3, N)
    bins = kxs.search_bins(table, e)
    for i in range(N):
        assert bins[i] == cached_linear_search_bin(
            table, e[i], int(cached[i])
        ), i


def test_xs_lookup_values_match_scalar(table):
    e = _energies(table, N)
    bins, vals = kxs.xs_lookup(table, e)
    for i in range(N):
        b = binary_search_bin(table, e[i])
        assert vals[i] == table.interpolate_at_bin(e[i], b), i


def test_bisection_probes_match_scalar(table):
    e = _energies(table, N)
    probes = kxs.bisection_probes(table, e)
    for i in range(N):
        stats = LookupStats()
        binary_search_bin(table, e[i], stats)
        assert probes[i] == stats.binary_probes, i


def test_linear_walk_probes_match_scalar(table):
    e = _energies(table, N)
    cached = RNG.integers(-3, len(table) + 3, N)
    bins = kxs.search_bins(table, e)
    probes = kxs.linear_walk_probes(table, e, cached, bins)
    for i in range(N):
        stats = LookupStats()
        cached_linear_search_bin(table, e[i], int(cached[i]), stats)
        assert probes[i] == stats.linear_probes, i


def test_capture_table_parity_too():
    t = make_capture_table(404)
    e = _energies(t, 64)
    bins, vals = kxs.xs_lookup(t, e)
    for i in range(64):
        b = binary_search_bin(t, e[i])
        assert bins[i] == b and vals[i] == t.interpolate_at_bin(e[i], b)


# ---------------------------------------------------------------------------
# Blocked Over Particles: block size changes nothing but the interleaving
# ---------------------------------------------------------------------------

_PROBLEMS = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}


def _final_state(result):
    return [
        (p.particle_id, p.x, p.y, p.omega_x, p.omega_y, p.energy, p.weight,
         p.cellx, p.celly, p.dt_to_census, p.mfp_to_collision,
         p.rng_counter, p.alive)
        for p in result.arena.to_particles()
    ]


@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_op_block_size_invariance(problem):
    cfg = _PROBLEMS[problem](nx=48, nparticles=25)
    reference = None
    for block in (1, 7, 64, cfg.nparticles + 3):
        result = run_stepped(cfg.with_(op_block_size=block), Scheme.OVER_PARTICLES)
        state = _final_state(result)
        snapshot = result.counters.snapshot()
        deposition = result.tally.deposition
        if reference is None:
            reference = (state, snapshot, deposition.copy())
            continue
        assert state == reference[0], f"{problem} block={block}"
        assert snapshot == reference[1], f"{problem} block={block}"
        # Flush batching changes only the accumulation order.
        np.testing.assert_allclose(
            deposition, reference[2], rtol=1e-10, atol=0.0
        )


def test_op_block_size_invariance_binary_search():
    cfg = scatter_problem(nx=48, nparticles=25).with_(
        search=SearchStrategy.BINARY
    )
    runs = [
        run_stepped(cfg.with_(op_block_size=block), Scheme.OVER_PARTICLES)
        for block in (1, 64)
    ]
    assert _final_state(runs[0]) == _final_state(runs[1])
    assert runs[0].counters.snapshot() == runs[1].counters.snapshot()
    assert runs[0].counters.xs_binary_probes > 0
    assert runs[0].counters.xs_linear_probes == 0


def test_op_multi_timestep_block_invariance():
    cfg = stream_problem(nx=48, nparticles=25).with_(ntimesteps=3)
    a = run_stepped(cfg.with_(op_block_size=1), Scheme.OVER_PARTICLES)
    b = run_stepped(cfg.with_(op_block_size=64), Scheme.OVER_PARTICLES)
    assert _final_state(a) == _final_state(b)
    assert a.counters.snapshot() == b.counters.snapshot()


def test_op_kernel_profile_attached():
    cfg = scatter_problem(nx=48, nparticles=25)
    result = run_stepped(cfg, Scheme.OVER_PARTICLES)
    profile = result.counters.kernel_profile
    assert {"distances", "select_events", "collide", "xs_lookup"} <= set(profile)
    for calls, items, seconds in profile.values():
        assert calls > 0 and items > 0 and seconds >= 0.0
