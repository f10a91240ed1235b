"""Storage-layer parity suite for the canonical :class:`ParticleArena`.

Four guarantees, one per section:

* the vectorised arena source emission is *bit-identical* to the scalar
  AoS sampler of the test oracle, draw for draw (same Threefry streams);
* a one-history view is a lossless, mutable window — reads match the
  field arrays, writes land in the arena — and the AoS records
  round-trip every field;
* shared-memory shard views are zero-copy and re-attachable: a worker's
  ``(name, n_total, lo, hi)`` handle reaches the same bytes as the
  parent's slice, a re-attach sees the same pristine state (the basis of
  bit-identical fault retry), and the handle is orders of magnitude
  smaller than a pickled particle list;
* compaction and the energy/cell sorts are physics-invariant: per-history
  final states keyed by ``particle_id`` do not change, serial or pooled.

This file is the CI ``arena-parity`` job; the fault-plan cases are also
``chaos``-marked so the chaos job re-runs them.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    Scheme,
    Simulation,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.stepper import run_stepped
from repro.mesh.structured import StructuredMesh
from repro.parallel import FaultPlan, KillWorker, ScheduleKind
from repro.particles.arena import ParticleArena, shard_handle_nbytes
from repro.particles.source import SourceRegion, sample_source
from repro.xs.materials import hydrogenous_moderator
from repro.xs.provider import MultigroupProvider
from tests.oracle import from_particles, sample_source_aos

PROBLEMS = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}
SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)
STATE_FIELDS = (
    "x", "y", "omega_x", "omega_y", "energy", "weight", "rng_counter",
    "alive", "cellx", "celly",
)

FIELD_NAMES = tuple(name for name, _ in ParticleArena.FIELDS)


def _states_by_id(arena):
    """particle_id → full state tuple (the bit-identity currency)."""
    return {
        int(arena.particle_id[i]): tuple(
            getattr(arena, f)[i].item() for f in STATE_FIELDS
        )
        for i in range(len(arena))
    }


# ---------------------------------------------------------------------------
# Source emission: vectorised arena path ≡ scalar AoS reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_tables", (False, True))
@pytest.mark.parametrize("start_id", (0, 1000))
def test_source_arena_matches_scalar_reference(with_tables, start_id):
    mesh = StructuredMesh(16, 16, density=np.full((16, 16), 5.0))
    region = SourceRegion(x0=0.2, x1=0.7, y0=0.1, y1=0.9, energy_ev=1e6)
    provider, tables = None, {}
    if with_tables:
        mat = hydrogenous_moderator(500)
        provider = MultigroupProvider((mat,))
        tables = {"scatter_table": mat.scatter, "capture_table": mat.capture}
    arena = sample_source(mesh, region, 97, seed=42, dt=1e-7,
                          start_id=start_id, provider=provider)
    reference = sample_source_aos(mesh, region, 97, seed=42, dt=1e-7,
                                  start_id=start_id, **tables)
    assert len(arena) == len(reference)
    assert arena.backed_by_single_buffer()
    for i, p in enumerate(reference):
        for name in FIELD_NAMES:
            got = getattr(arena, name)[i].item()
            want = getattr(p, name, None)
            if want is None:  # censused is SoA-only; AoS births are active
                assert got is False, name
            else:
                assert got == want, (i, name)


def test_source_draw_budget_matches_scalar():
    """Both paths consume exactly DRAWS_PER_BIRTH draws per history."""
    from repro.particles.source import DRAWS_PER_BIRTH

    mesh = StructuredMesh(8, 8, density=np.zeros((8, 8)))
    region = SourceRegion(x0=0.4, x1=0.6, y0=0.4, y1=0.6, energy_ev=1e6)
    arena = sample_source(mesh, region, 10, seed=7, dt=1e-7)
    assert np.all(arena.rng_counter == DRAWS_PER_BIRTH)


# ---------------------------------------------------------------------------
# One-history views and the AoS records
# ---------------------------------------------------------------------------

def _small_arena():
    mesh = StructuredMesh(16, 16, density=np.full((16, 16), 2.0))
    region = SourceRegion(x0=0.1, x1=0.9, y0=0.1, y1=0.9, energy_ev=2e5)
    return sample_source(mesh, region, 23, seed=3, dt=1e-7)


def test_proxy_reads_and_writes_round_trip():
    """A one-history view reads the arena's fields and writes through."""
    arena = _small_arena()
    p = arena.view(5, 6)
    for name in FIELD_NAMES:
        assert getattr(p, name)[0] == getattr(arena, name)[5], name
    p.energy[0] = 123.5
    p.cellx[0] = 9
    p.alive[0] = False
    assert arena.energy[5] == 123.5
    assert arena.cellx[5] == 9
    assert not arena.alive[5]
    # Detached copies do NOT write back.
    (detached,) = arena.view(6, 7).to_particles()
    detached.energy = -1.0
    assert arena.energy[6] != -1.0
    with pytest.raises(ValueError):
        arena.view(len(arena), len(arena) + 1)


def test_as_particles_record_round_trip():
    """arena → AoS records → packed arenas, appended → identical fields."""
    arena = _small_arena()
    records = arena.to_particles()
    rebuilt = ParticleArena(0)
    rebuilt.extend(from_particles(records[:9]), from_particles(records[9:]))
    assert len(rebuilt) == len(arena)
    for name in FIELD_NAMES:
        if name == "censused":  # not represented in the AoS record
            continue
        assert np.array_equal(getattr(rebuilt, name), getattr(arena, name)), name
    assert rebuilt.backed_by_single_buffer()


# ---------------------------------------------------------------------------
# Shared-memory shard views: zero-copy, re-attachable, tiny hand-off
# ---------------------------------------------------------------------------

def test_shared_shard_views_are_zero_copy_and_reattachable():
    arena = _small_arena()
    shared = arena.to_shared()
    try:
        assert shared.shm_name is not None
        lo, hi = 7, 19
        handle = (shared.shm_name, len(shared), lo, hi)

        attached = ParticleArena.attach(*handle)
        try:
            for name in FIELD_NAMES:
                assert np.array_equal(
                    getattr(attached, name), getattr(shared, name)[lo:hi]
                ), name
            # Zero-copy: a write through the attachment is visible in the
            # owner's view of the block.
            attached.energy[0] = 777.0
            assert shared.energy[lo] == 777.0
        finally:
            attached.close()

        # Fault-retry basis: a re-attach of the same handle reaches the
        # same (now-mutated) slice — same bytes, no private copy.
        again = ParticleArena.attach(*handle)
        try:
            assert again.energy[0] == 777.0
        finally:
            again.close()

        # The hand-off payload is the handle, not the particles.
        aos_payload = len(pickle.dumps(
            arena.view(lo, hi).to_particles(), pickle.HIGHEST_PROTOCOL
        ))
        assert shard_handle_nbytes(handle) < aos_payload / 50
    finally:
        shared.close(unlink=True)


def test_attach_validates_shard_bounds():
    arena = ParticleArena(4)
    shared = arena.to_shared()
    try:
        with pytest.raises(ValueError):
            ParticleArena.attach(shared.shm_name, 4, 3, 9)
        with pytest.raises(ValueError):
            ParticleArena.attach(shared.shm_name, 4, -1, 2)
    finally:
        shared.close(unlink=True)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_pooled_shm_shards_match_serial(name, scheme):
    """The zero-copy shard pool reproduces the serial run bit-for-bit."""
    cfg = PROBLEMS[name](nx=32, nparticles=30)
    serial = Simulation(cfg).run(scheme)
    pooled = Simulation(cfg).run(scheme, nworkers=3)
    assert _states_by_id(pooled.arena) == _states_by_id(serial.arena)
    assert pooled.counters.collisions == serial.counters.collisions
    assert pooled.counters.facets == serial.counters.facets
    assert pooled.counters.census_events == serial.counters.census_events
    np.testing.assert_allclose(
        pooled.tally.deposition, serial.tally.deposition,
        rtol=1e-10, atol=1e-30,
    )


@pytest.mark.chaos
@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_kill_retry_reattaches_pristine_shard(name, scheme):
    """A killed worker's shard is re-attached and re-run bit-identically
    — the shared slice is read-only until a shard *completes*, so the
    retry sees exactly the bytes the first attempt saw."""
    cfg = PROBLEMS[name](nx=32, nparticles=30)
    serial = Simulation(cfg).run(scheme)
    faulted = Simulation(cfg).run(
        scheme, nworkers=3, schedule=ScheduleKind.DYNAMIC, chunk=5,
        fault_plan=FaultPlan((KillWorker(worker=1, after_chunks=0),)),
    )
    assert faulted.pool.retries >= 1
    assert _states_by_id(faulted.arena) == _states_by_id(serial.arena)
    assert faulted.counters.collisions == serial.counters.collisions


# ---------------------------------------------------------------------------
# Compaction and sorting: reordering is invisible to the physics
# ---------------------------------------------------------------------------

def test_sort_and_compact_preserve_states():
    result = Simulation(scatter_problem(nx=32, nparticles=40)).run(
        Scheme.OVER_EVENTS
    )
    arena = result.arena
    arena.alive[::4] = False  # ensure a mixed population
    reference = _states_by_id(arena)

    for key in ("energy", "cell", "particle_id"):
        order = arena.sort_by(key)
        assert sorted(order.tolist()) == list(range(len(arena)))
        assert _states_by_id(arena) == reference
        assert arena.backed_by_single_buffer()

    removed = arena.compact()
    assert removed == int(sum(1 for s in reference.values() if not s[7]))
    assert np.all(arena.alive)
    live_reference = {pid: s for pid, s in reference.items() if s[7]}
    assert _states_by_id(arena) == live_reference
    with pytest.raises(ValueError):
        arena.sort_by("colour")


def test_over_particles_step_gathers_nothing(monkeypatch):
    """An Over Particles block is a zero-copy window of the run arena: a
    run with no children and no compaction copies no arena rows."""
    from repro.particles.arena import _FieldArena

    calls = []
    subset = _FieldArena.subset

    def spy(self, indices):
        calls.append(len(indices))
        return subset(self, indices)

    monkeypatch.setattr(_FieldArena, "subset", spy)
    result = run_stepped(
        csp_problem(nx=32, nparticles=200, ntimesteps=2),
        Scheme.OVER_PARTICLES,
    )
    assert result.counters.census_events > 0
    assert result.counters.secondaries_banked == 0
    assert calls == []


@pytest.mark.parametrize("key", ("energy", "cell"))
def test_sort_between_timesteps_is_physics_invariant(key):
    """Reordering the population between census steps changes batching
    only: per-history final states are bit-identical (counter-based RNG),
    integer event counts agree exactly."""
    cfg = scatter_problem(nx=32, nparticles=30).with_(ntimesteps=1)

    def run_steps(sort_key=None):
        population = None
        result = None
        for _ in range(3):
            result = run_stepped(
                cfg, Scheme.OVER_EVENTS, arena=population
            )
            population = result.arena
            population.dt_to_census[population.alive] = cfg.dt
            if sort_key is not None:
                population.sort_by(sort_key)
        return result

    plain = run_steps()
    sorted_run = run_steps(key)
    assert _states_by_id(sorted_run.arena) == _states_by_id(plain.arena)
    assert sorted_run.counters.collisions == plain.counters.collisions
    assert sorted_run.counters.facets == plain.counters.facets
    np.testing.assert_allclose(
        sorted_run.tally.deposition, plain.tally.deposition,
        rtol=1e-10, atol=1e-30,
    )
