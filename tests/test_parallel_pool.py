"""The shared-memory worker pool: parity with serial execution.

The load-bearing property of the pool is that real parallel execution is a
pure reordering: for every problem, scheme, and schedule, an N-worker run
must produce bit-identical final particle states, identical integer event
counts, and tallies equal to accumulation-order rounding.
"""

import numpy as np
import pytest

from repro.core import (
    Scheme,
    Simulation,
    SimulationConfig,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.counters import Counters
from repro.core.validation import energy_balance_error, population_accounted
from repro.parallel import PoolOptions, ScheduleKind, run_pool
from repro.particles.source import SourceRegion
from repro.xs.materials import fissile_fuel, hydrogenous_moderator

NWORKERS = 3

PROBLEMS = {
    "stream": lambda: stream_problem(nx=32, nparticles=36),
    "scatter": lambda: scatter_problem(nx=32, nparticles=36),
    "csp": lambda: csp_problem(nx=32, nparticles=36),
}
SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)
SCHEDULES = (ScheduleKind.STATIC, ScheduleKind.DYNAMIC)

INT_COUNTERS = (
    "collisions", "facets", "census_events", "terminations", "reflections",
    "escapes", "roulette_kills", "roulette_survivals", "fissions",
    "secondaries_banked", "splits", "clones_banked", "tally_flushes",
    "density_reads", "xs_lookups", "xs_binary_probes", "xs_linear_probes",
    "rng_draws", "nparticles",
)
FLOAT_COUNTERS = (
    "escaped_energy", "roulette_loss_energy", "roulette_gain_energy",
    "fission_injected_energy",
)
STATE_FIELDS = (
    "x", "y", "omega_x", "omega_y", "energy", "weight", "rng_counter",
    "alive", "cellx", "celly",
)


def _states_by_id(result):
    """particle_id → state tuple, from the result arena."""
    s = result.arena
    return {
        int(s.particle_id[i]): tuple(
            getattr(s, f)[i].item() for f in STATE_FIELDS
        )
        for i in range(len(s))
    }


@pytest.fixture(scope="module")
def runs():
    """Serial and pooled runs for every problem × scheme × schedule."""
    out = {}
    for name, factory in PROBLEMS.items():
        cfg = factory()
        sim = Simulation(cfg)
        for scheme in SCHEMES:
            out[name, scheme, "serial"] = sim.run(scheme)
            for schedule in SCHEDULES:
                out[name, scheme, schedule] = sim.run(
                    scheme, nworkers=NWORKERS, schedule=schedule, chunk=5
                )
    return out


ALL_CASES = [
    (name, scheme, schedule)
    for name in PROBLEMS
    for scheme in SCHEMES
    for schedule in SCHEDULES
]


@pytest.mark.parametrize("name,scheme,schedule", ALL_CASES)
def test_final_states_bit_identical(runs, name, scheme, schedule):
    serial = runs[name, scheme, "serial"]
    pooled = runs[name, scheme, schedule]
    assert _states_by_id(pooled) == _states_by_id(serial)


@pytest.mark.parametrize("name,scheme,schedule", ALL_CASES)
def test_tally_within_accumulation_rounding(runs, name, scheme, schedule):
    serial = runs[name, scheme, "serial"]
    pooled = runs[name, scheme, schedule]
    assert np.allclose(
        serial.tally.deposition, pooled.tally.deposition,
        rtol=1e-10, atol=1e-30,
    )
    # Flush addresses are integers: the reduction must preserve them exactly.
    assert np.array_equal(serial.tally.flush_counts, pooled.tally.flush_counts)
    assert serial.tally.flushes == pooled.tally.flushes


@pytest.mark.parametrize("name,scheme,schedule", ALL_CASES)
def test_counters_match_serial(runs, name, scheme, schedule):
    cs = runs[name, scheme, "serial"].counters
    cp = runs[name, scheme, schedule].counters
    for f in INT_COUNTERS:
        assert getattr(cs, f) == getattr(cp, f), f
    for f in FLOAT_COUNTERS:
        assert getattr(cp, f) == pytest.approx(getattr(cs, f), rel=1e-12)
    # No fission in the standard problems, so the population is primaries
    # only and the pool's id-sorted order equals the serial birth order.
    assert np.array_equal(cs.collisions_per_particle, cp.collisions_per_particle)
    assert np.array_equal(cs.facets_per_particle, cp.facets_per_particle)
    assert cs.tally_conflict_probability == cp.tally_conflict_probability


@pytest.mark.parametrize("name,scheme,schedule", ALL_CASES)
def test_pooled_runs_conserve(runs, name, scheme, schedule):
    pooled = runs[name, scheme, schedule]
    assert energy_balance_error(pooled) < 1e-10
    assert population_accounted(pooled)


@pytest.mark.parametrize("name,scheme,schedule", ALL_CASES)
def test_worker_reports_account_for_everything(runs, name, scheme, schedule):
    pooled = runs[name, scheme, schedule]
    info = pooled.pool
    assert info is not None and info.nworkers == NWORKERS
    assert sum(w.histories for w in info.workers) == 36
    assert sum(w.events for w in info.workers) == pooled.counters.total_events
    assert sum(w.final_histories for w in info.workers) == len(pooled.arena)
    if schedule is ScheduleKind.STATIC:
        assert all(w.chunks <= 1 for w in info.workers)
    else:
        assert info.chunks_dispatched() == (36 + 4) // 5  # ceil(36 / 5)
    assert len(info.shard_attempts) == info.chunks_dispatched()
    assert info.event_imbalance() >= 1.0
    assert info.busy_imbalance() >= 1.0


def test_worker_count_does_not_change_result_order():
    """nworkers=1 and nworkers=4 are bit-comparable element by element —
    the acceptance shape of `repro run --workers N`.  Cut into the same
    shards, the in-process run and the pool give the same bits: every
    shard ships one payload and one reduce folds them."""
    cfg = csp_problem(nx=32, nparticles=30)
    sim = Simulation(cfg)
    one = sim.run(Scheme.OVER_PARTICLES, nworkers=1)
    four = sim.run(
        Scheme.OVER_PARTICLES, nworkers=4,
        schedule=ScheduleKind.DYNAMIC, chunk=4,
    )
    assert np.array_equal(one.arena.particle_id, four.arena.particle_id)
    for f in STATE_FIELDS:
        assert np.array_equal(
            getattr(one.arena, f), getattr(four.arena, f)
        ), f
    assert np.allclose(one.tally.deposition, four.tally.deposition, rtol=1e-10)

    sim = Simulation(scatter_problem(nx=32, nparticles=400))
    one, two = (
        sim.run(Scheme.OVER_EVENTS, nworkers=n,
                schedule=ScheduleKind.DYNAMIC, chunk=8)
        for n in (1, 2)
    )
    assert np.array_equal(one.tally.deposition, two.tally.deposition)
    assert np.array_equal(one.tally.flush_counts, two.tally.flush_counts)
    assert one.counters.snapshot() == two.counters.snapshot()
    for r in (one, two):
        assert len(r.pool.shard_attempts) == r.pool.chunks_dispatched() == 50


def _fission_cfg(**kw):
    """Moderated source streaming into a fissile block (population grows)."""
    nx = 32
    density = np.full((nx, nx), 1e-30)
    density[12:20, 12:20] = 400.0
    mmap = np.zeros((nx, nx), dtype=np.int64)
    mmap[12:20, 12:20] = 1
    return SimulationConfig(
        name="fission",
        nx=nx, ny=nx, width=1.0, height=1.0,
        density=density,
        material_map=mmap,
        materials=(hydrogenous_moderator(2500), fissile_fuel(2500)),
        source=SourceRegion(x0=0.05, x1=0.15, y0=0.45, y1=0.55, energy_ev=1e6),
        nparticles=40, dt=1e-7, ntimesteps=2, seed=3,
        xs_nentries=2500, **kw,
    )


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_fission_population_growth_parity(schedule):
    """Secondaries born inside a shard match the serial run's, and the
    merged per-particle work distribution covers the grown population."""
    cfg = _fission_cfg()
    sim = Simulation(cfg)
    serial = sim.run(Scheme.OVER_PARTICLES)
    pooled = sim.run(
        Scheme.OVER_PARTICLES, nworkers=NWORKERS, schedule=schedule, chunk=7
    )
    assert serial.counters.secondaries_banked > 0
    assert _states_by_id(pooled) == _states_by_id(serial)
    assert pooled.counters.nparticles == serial.counters.nparticles
    assert pooled.counters.collisions_per_particle.size == len(pooled.arena)
    assert np.allclose(
        serial.tally.deposition, pooled.tally.deposition, rtol=1e-10
    )
    assert energy_balance_error(pooled) < 1e-10


@pytest.mark.parametrize("case", ["children join", "AUTO compacts"])
def test_inline_shard_writes_only_its_rows(case):
    """Without workers a shard advances its rows of the caller's private
    population in place, through a view — no copy — and writes no row
    outside them, when children join the arena and when AUTO compacts it.
    Its payload is the payload of the same shard run on a copy."""
    from repro.obs.spans import Recorder
    from repro.parallel.pool import _run_shard, start_run
    from repro.particles.source import sample_source

    if case == "children join":
        cfg, scheme = _fission_cfg(), Scheme.OVER_PARTICLES
    else:
        cfg = scatter_problem(nx=16, nparticles=60, ntimesteps=6)
        scheme = Scheme.AUTO
    (member,), provider = start_run((cfg,), scheme, 1, None, mode="pool")
    population = sample_source(cfg.build_mesh(), cfg.source, cfg.nparticles,
                               cfg.seed, cfg.dt, provider=provider)
    bounds, lo, hi = (0, cfg.nparticles), 10, cfg.nparticles - 10
    before = population.copy()
    reference = _run_shard((member,), bounds, scheme, population.copy(),
                           lo, hi)
    rec = Recorder()
    out = _run_shard((member,), bounds, scheme, population, lo, hi,
                     recorder=rec)
    if case == "children join":
        assert out["counters"].secondaries_banked > 0
    else:
        assert any(e.name == "compaction" for e in rec.events)
    fields = [name for name, _ in type(population).FIELDS]
    for name in fields:
        now, was = getattr(population, name), getattr(before, name)
        assert now[:lo].tobytes() == was[:lo].tobytes(), name
        assert now[hi:].tobytes() == was[hi:].tobytes(), name
    # Advanced in place: the shard's own rows moved on.
    assert not np.array_equal(population.rng_counter[lo:hi],
                              before.rng_counter[lo:hi])
    for name in fields:
        assert (getattr(out["arena"], name).tobytes()
                == getattr(reference["arena"], name).tobytes()), name
    assert out["counters"].snapshot() == reference["counters"].snapshot()
    assert out["tally"].deposition.tobytes() == \
        reference["tally"].deposition.tobytes()


def test_multi_timestep_parity():
    cfg = scatter_problem(nx=32, nparticles=25, ntimesteps=3)
    sim = Simulation(cfg)
    serial = sim.run(Scheme.OVER_PARTICLES)
    pooled = sim.run(Scheme.OVER_PARTICLES, nworkers=2)
    assert _states_by_id(pooled) == _states_by_id(serial)
    assert pooled.counters.census_events == serial.counters.census_events


def test_more_workers_than_histories():
    cfg = stream_problem(nx=32, nparticles=5)
    sim = Simulation(cfg)
    serial = sim.run(Scheme.OVER_EVENTS)
    pooled = sim.run(Scheme.OVER_EVENTS, nworkers=9)
    assert _states_by_id(pooled) == _states_by_id(serial)
    assert sum(w.histories for w in pooled.pool.workers) == 5


def test_pool_options_validation():
    with pytest.raises(ValueError):
        PoolOptions(nworkers=0)
    with pytest.raises(ValueError):
        PoolOptions(nworkers=2, chunk=0)
    with pytest.raises(ValueError):
        PoolOptions(nworkers=2, schedule=ScheduleKind.GUIDED)


def test_run_pool_default_options():
    cfg = stream_problem(nx=32, nparticles=8)
    r = run_pool(cfg)
    assert r.pool.nworkers == 1
    assert r.pool.start_method == "inline"
    assert population_accounted(r)


# ---------------------------------------------------------------------------
# Counters.merge_disjoint (the pool's shard reduction)
# ---------------------------------------------------------------------------

def test_merge_disjoint_concatenates():
    a = Counters(
        nparticles=2,
        facets=1,
        collisions_per_particle=np.array([1, 2], dtype=np.int64),
        facets_per_particle=np.array([0, 1], dtype=np.int64),
    )
    b = Counters(
        nparticles=1,
        facets=2,
        collisions_per_particle=np.array([7], dtype=np.int64),
        facets_per_particle=np.array([3], dtype=np.int64),
    )
    a.merge_disjoint(b)
    assert a.nparticles == 3
    assert a.facets == 3
    assert np.array_equal(a.collisions_per_particle, [1, 2, 7])
    assert np.array_equal(a.facets_per_particle, [0, 1, 3])
