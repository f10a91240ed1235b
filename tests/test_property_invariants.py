"""Property-based tests (hypothesis) on the core invariants.

Beyond the per-module properties tested alongside each component, these
run whole-system properties over randomised inputs: conservation and
scheme equivalence for arbitrary problem configurations, store round-trips
for arbitrary particle states, tally accumulation semantics, and the
workload-rescaling algebra.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Scheme, Simulation, TransportResult, csp_problem
from repro.core.config import SimulationConfig
from repro.core.counters import Counters
from repro.core.validation import energy_balance_error, population_accounted
from repro.ensemble import EnsembleSpec, SweepSpec, run_ensemble
from repro.parallel import (
    DelayShard,
    FaultPlan,
    KillWorker,
    RaiseInShard,
    ScheduleKind,
)
from repro.parallel import pool as pool_mod
from repro.mesh.boundary import BoundaryCondition
from repro.mesh.tally import EnergyDepositionTally
from repro.particles.arena import ParticleArena
from repro.particles.particle import Particle
from repro.particles.source import SourceRegion
from tests.oracle import from_particles

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Whole-system: conservation + scheme equivalence over random configs
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**31),
    log_density=st.floats(min_value=-3.0, max_value=3.5),
    boundary=st.sampled_from(list(BoundaryCondition)),
    src_x=st.floats(min_value=0.05, max_value=0.75),
)
@SLOW
def test_random_problem_conserves_and_schemes_agree(
    seed, log_density, boundary, src_x
):
    nx = 16
    cfg = SimulationConfig(
        name="random",
        nx=nx, ny=nx, width=1.0, height=1.0,
        density=np.full((nx, nx), 10.0**log_density),
        source=SourceRegion(
            x0=src_x, x1=src_x + 0.2, y0=0.4, y1=0.6, energy_ev=1e6
        ),
        nparticles=8,
        dt=2.0e-8,
        seed=seed,
        boundary=boundary,
        xs_nentries=512,
    )
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert energy_balance_error(a) < 1e-10
    assert energy_balance_error(b) < 1e-10
    assert population_accounted(a)
    assert a.counters.collisions == b.counters.collisions
    assert a.counters.facets == b.counters.facets
    assert a.counters.escapes == b.counters.escapes
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)
    assert np.array_equal(a.arena.x, b.arena.x)
    assert np.array_equal(a.arena.energy, b.arena.energy)
    assert np.array_equal(a.arena.rng_counter, b.arena.rng_counter)


@given(seed=st.integers(min_value=0, max_value=2**31))
@SLOW
def test_weights_and_energies_stay_physical(seed):
    nx = 16
    cfg = SimulationConfig(
        name="phys",
        nx=nx, ny=nx, width=1.0, height=1.0,
        density=np.full((nx, nx), 100.0),
        source=SourceRegion(x0=0.4, x1=0.6, y0=0.4, y1=0.6, energy_ev=1e6),
        nparticles=10,
        dt=5.0e-8,
        seed=seed,
        xs_nentries=512,
    )
    r = Simulation(cfg).run(Scheme.OVER_EVENTS)
    st_ = r.arena
    assert np.all(st_.weight >= 0.0)
    assert np.all(st_.weight <= 1.0 + 1e-12)
    assert np.all(st_.energy >= 0.0)
    assert np.all(st_.energy <= 1e6 + 1e-6)  # elastic scattering only loses
    norms = st_.omega_x**2 + st_.omega_y**2
    assert np.allclose(norms, 1.0, atol=1e-9)
    assert np.all(st_.x >= 0.0) and np.all(st_.x <= 1.0)
    assert np.all(st_.y >= 0.0) and np.all(st_.y <= 1.0)
    assert np.all(r.tally.deposition >= 0.0)


# ---------------------------------------------------------------------------
# ParticleArena AoS round-trip
# ---------------------------------------------------------------------------

particle_strategy = st.builds(
    Particle,
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    omega_x=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    omega_y=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    energy=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    weight=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    cellx=st.integers(min_value=0, max_value=4000),
    celly=st.integers(min_value=0, max_value=4000),
    particle_id=st.integers(min_value=0, max_value=2**63),
    dt_to_census=st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
    mfp_to_collision=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    rng_counter=st.integers(min_value=0, max_value=2**40),
)


@given(particles=st.lists(particle_strategy, min_size=0, max_size=20))
@settings(max_examples=50, deadline=None)
def test_store_roundtrip_property(particles):
    store = from_particles(particles)
    back = store.to_particles()
    assert len(back) == len(particles)
    for a, b in zip(particles, back):
        for f in Particle.__slots__:
            assert getattr(a, f) == getattr(b, f), f


@given(
    n1=st.integers(min_value=0, max_value=10),
    n2=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=50, deadline=None)
def test_store_extend_property(n1, n2):
    a = ParticleArena(n1)
    b = ParticleArena(n2)
    b.particle_id += np.uint64(1000)
    a.extend(b)
    assert len(a) == n1 + n2
    assert a.x.shape == (n1 + n2,)
    if n2:
        assert int(a.particle_id[n1]) == 1000


# ---------------------------------------------------------------------------
# Tally accumulation semantics
# ---------------------------------------------------------------------------

@given(
    flushes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
        min_size=0,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_tally_vec_equals_sequential(flushes):
    """One scatter-add is exactly a loop of atomic adds."""
    seq = EnergyDepositionTally(8, 8)
    vec = EnergyDepositionTally(8, 8)
    for ix, iy, e in flushes:
        seq.flush(ix, iy, e)
    if flushes:
        ix, iy, e = (np.array(v) for v in zip(*flushes))
        vec.flush_vec(ix.astype(np.int64), iy.astype(np.int64), e.astype(float))
    assert np.allclose(seq.deposition, vec.deposition, rtol=1e-12)
    assert np.array_equal(seq.flush_counts, vec.flush_counts)
    assert seq.flushes == vec.flushes


@given(
    counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30)
)
@settings(max_examples=100, deadline=None)
def test_conflict_probability_bounds(counts):
    t = EnergyDepositionTally(6, 5)
    flat = np.zeros(30, dtype=np.int64)
    flat[: len(counts)] = counts
    t.flush_counts = flat.reshape(5, 6)
    p = t.conflict_probability()
    assert 0.0 <= p <= 1.0
    if sum(counts) > 0:
        nonzero = sum(1 for c in counts if c)
        assert p >= 1.0 / max(nonzero, 1) - 1e-12  # ≥ uniform over used cells


# ---------------------------------------------------------------------------
# Workload rescaling algebra
# ---------------------------------------------------------------------------

@given(
    nx2=st.integers(min_value=16, max_value=512),
    n2=st.integers(min_value=10, max_value=10**7),
)
@settings(max_examples=50, deadline=None)
def test_workload_scaling_invertible(nx2, n2):
    from repro.bench import measured_workload

    w = measured_workload("csp")
    there = w.scaled(n2, nx2)
    back = there.scaled(w.nparticles, w.mesh_nx)
    assert back.facets_pp == pytest.approx(w.facets_pp, rel=1e-9)
    assert back.collisions_pp == pytest.approx(w.collisions_pp, rel=1e-9)
    assert back.density_reads_pp == pytest.approx(w.density_reads_pp, rel=1e-9)
    assert back.conflict_probability == pytest.approx(
        w.conflict_probability, rel=1e-9
    )

# ---------------------------------------------------------------------------
# Fault tolerance: invariants under randomised fault plans
# ---------------------------------------------------------------------------

_FAULT_N = 36


def _fault_reference(scheme):
    """Serial reference for the fault-plan properties (computed once)."""
    if scheme not in _fault_reference.cache:
        cfg = csp_problem(nx=32, nparticles=_FAULT_N)
        _fault_reference.cache[scheme] = Simulation(cfg).run(scheme)
    return _fault_reference.cache[scheme]


_fault_reference.cache = {}

fault_strategy = st.one_of(
    st.builds(
        KillWorker,
        worker=st.integers(min_value=0, max_value=1),
        after_chunks=st.integers(min_value=0, max_value=2),
        mid_shard=st.booleans(),
    ),
    st.builds(
        RaiseInShard,
        shard=st.integers(min_value=0, max_value=7),
        attempts=st.integers(min_value=1, max_value=2),
    ),
    st.builds(
        DelayShard,
        shard=st.integers(min_value=0, max_value=7),
        seconds=st.sampled_from((0.01, 0.05)),
    ),
)


@pytest.mark.chaos
@given(
    faults=st.lists(fault_strategy, min_size=0, max_size=3),
    scheme=st.sampled_from([Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS]),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_fault_plans_preserve_invariants(faults, scheme):
    """No fault plan — kills, injected exceptions, delays, in any
    combination — may change the merged population size, the particle-id
    sort order, or the history/counter totals of a pooled run."""
    serial = _fault_reference(scheme)
    cfg = csp_problem(nx=32, nparticles=_FAULT_N)
    faulted = Simulation(cfg).run(
        scheme, nworkers=2, schedule=ScheduleKind.DYNAMIC, chunk=5,
        fault_plan=FaultPlan(tuple(faults)),
    )
    ids = [int(i) for i in faulted.arena.particle_id]
    assert len(ids) == _FAULT_N
    assert ids == sorted(ids)
    assert len(set(ids)) == _FAULT_N  # no shard merged twice
    assert faulted.counters.nparticles == serial.counters.nparticles
    assert sum(w.histories for w in faulted.pool.workers) == _FAULT_N
    assert faulted.counters.snapshot() == pytest.approx(
        serial.counters.snapshot(), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Counter merging: any disjoint partition reduces to the serial totals
# ---------------------------------------------------------------------------

def _partitioned_counters(cuts, scheme):
    """Run one problem partitioned at ``cuts``, merging shard counters."""
    cfg = csp_problem(nx=32, nparticles=_FAULT_N)
    run_config = cfg.with_(materials=cfg.resolved_materials())
    population = pool_mod.sample_source(
        cfg.build_mesh(), cfg.source, cfg.nparticles, cfg.seed, cfg.dt,
        provider=run_config.resolved_provider(),
    )
    bounds = [0, *sorted(cuts), _FAULT_N]
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    merged = Counters()
    for lo, hi in ranges:
        shard = pool_mod._run_shard(
            (run_config,), (0, _FAULT_N), scheme, population, lo, hi
        )
        merged.merge_disjoint(shard["counters"])
    return merged


@given(
    cuts=st.lists(
        st.integers(min_value=1, max_value=_FAULT_N - 1),
        unique=True,
        min_size=0,
        max_size=6,
    ),
    scheme=st.sampled_from([Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS]),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_merge_disjoint_partition_equals_serial(cuts, scheme):
    """``Counters.merge_disjoint`` over *any* contiguous partition of the
    histories reproduces the serial counters — the algebraic property the
    shard-retry recovery leans on."""
    serial = _fault_reference(scheme)
    merged = _partitioned_counters(cuts, scheme)
    assert merged.snapshot() == pytest.approx(
        serial.counters.snapshot(), rel=1e-12
    )
    assert merged.nparticles == _FAULT_N


# ---------------------------------------------------------------------------
# Ensemble engine: fused-run properties over random replica sets
# ---------------------------------------------------------------------------

_ENSEMBLE_SWEEPS = (
    None,
    ("weight_cutoff", 0.05, 0.3, 3),
    ("energy_cutoff_ev", 50.0, 400.0, 4),
)


@given(
    nreplicas=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    seed_stride=st.integers(min_value=1, max_value=7),
    sweep=st.sampled_from(_ENSEMBLE_SWEEPS),
    scheme=st.sampled_from([Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS]),
)
@SLOW
def test_random_ensemble_conserves_per_replica(
    nreplicas, seed, seed_stride, sweep, scheme
):
    """Fusing replicas must not bend any single replica's physics: each
    replica of a random ensemble still passes the whole-system energy and
    population ledgers that a standalone run would."""
    base = csp_problem(nx=16, nparticles=16, ntimesteps=2, seed=seed)
    sweeps = () if sweep is None else (SweepSpec(*sweep),)
    spec = EnsembleSpec(
        base, nreplicas, seed_stride=seed_stride, sweeps=sweeps
    )
    ens = run_ensemble(spec, scheme)
    assert len(ens.replicas) == nreplicas
    for rr in ens.replicas:
        assert len(rr.arena) == rr.counters.nparticles
        as_result = TransportResult(
            config=rr.config, scheme=scheme, tally=rr.tally,
            counters=rr.counters, arena=rr.arena, wallclock_s=0.0,
        )
        assert energy_balance_error(as_result) < 1e-10
        assert population_accounted(as_result)
    assert ens.counters.nparticles == len(ens.arena) == sum(
        rr.counters.nparticles for rr in ens.replicas
    )


@given(
    cuts=st.lists(
        st.integers(min_value=1, max_value=4),
        unique=True,
        min_size=0,
        max_size=3,
    ),
    scheme=st.sampled_from([Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS]),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_ensemble_counters_merge_over_any_replica_partition(cuts, scheme):
    """``Counters.merge_disjoint`` over *any* contiguous partition of the
    replicas reproduces the fused ensemble counters — the same algebra the
    replica-block pool reduction leans on, stated at replica granularity."""
    nrep = 5
    base = csp_problem(nx=16, nparticles=16, ntimesteps=2)
    ens = run_ensemble(
        EnsembleSpec(base, nrep, seed_stride=3), scheme
    )
    bounds = [0, *sorted(cuts), nrep]
    merged = Counters()
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        block = Counters()
        for rr in ens.replicas[lo:hi]:
            block.merge_disjoint(rr.counters)
        merged.merge_disjoint(block)
    assert merged.snapshot() == pytest.approx(
        ens.counters.snapshot(), rel=1e-12
    )
    assert merged.nparticles == ens.counters.nparticles
    assert np.array_equal(
        merged.collisions_per_particle,
        ens.counters.collisions_per_particle,
    )
