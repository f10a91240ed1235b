"""Ensemble parity suite: N fused replicas == N standalone runs, bit for bit.

The mega-batch engine's contract is absolute: fusing N replica runs into
one :class:`EnsembleArena` — one kernel dispatch per event per census
step across ``replicas × histories`` lanes — must change *nothing* about
any individual replica's physics.  Every section here compares fused
per-replica books against looped ``Simulation.run`` baselines:

* per-replica counters (every scalar field), per-particle work arrays,
  tally deposition, and population fingerprints — across three problems,
  both schemes, serial and pooled (replica-block shards), including a
  pooled run with a deterministic worker kill injected (chaos-marked);
  serially also under an every-step OP↔OE switch plan and on a
  two-replica ensemble (different seeds *and* weight cutoffs) that
  exercises fission, Russian roulette and importance splitting at once;
* invariance knobs: the Over Particles block size must not leak into
  results, and neither may the order members are listed in;
* the spec layer: sweep expansion, fusibility validation, and the fused
  totals equalling the per-replica sums;
* the one execution path: a one-replica ensemble *is* the plain run
  (every deterministic fact, 2-D and 3-D), AUTO and adversarial switch
  plans run under an ensemble, pooled totals keep their kernel profile,
  and the audit that no driver forks on having books stays clean;
* replicas are a tally axis: an R = 16 Over Events run flushes once per
  event kind per pass, the replica tallies are views of one stacked
  tally, and the books' per-pass verbs carry no replica loop (audited).

This file is the CI ``ensemble-parity`` job; the fault-plan cases are
also ``chaos``-marked so the chaos job re-runs them.
"""

import numpy as np
import pytest

from repro.core import (
    Scheme,
    Simulation,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.config import SimulationConfig
from repro.core.books import ReplicaBooks
from repro.core.counters import Counters
from repro.core.stepper import StepDecision
from repro.ensemble import (
    EnsembleSpec,
    SweepSpec,
    population_fingerprint,
    run_ensemble,
    run_ensemble_looped,
    validate_members,
)
from repro.kernels import EVENT_KERNELS
from repro.kernels.audit import audit as audit_single_path
from repro.kernels.audit import audit_facet_transient
from repro.mesh.tally import EnergyDepositionTally
from repro.parallel import FaultPlan, KillWorker
from repro.particles.source import SourceRegion
from repro.xs.materials import fissile_fuel, hydrogenous_moderator
from tests.plans import ScriptedPlan

PROBLEMS = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}
SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)

#: Small enough that 3 problems × 2 schemes × 3 execution modes stay in
#: CI budget, large enough that csp forks fission chains and variance
#: reduction splits/roulettes across replicas.
NX = 24
NPARTICLES = 60
NREPLICAS = 5
TIMESTEPS = 2


#: Switch scheme at every census boundary (no population maintenance, so
#: every deterministic fact of a replica must survive fusion).
EVERY_STEP_SWITCH = ScriptedPlan(tuple(
    StepDecision(scheme=SCHEMES[step % 2]) for step in range(3)
))


def _spec(problem: str) -> EnsembleSpec:
    if problem == "vr":
        # Every §IX extension at once: a fissile block, Russian roulette
        # and an importance map that splits (clone ids are seeded per
        # replica) and roulettes; two replicas that share neither seed
        # nor weight cutoff.
        imap = np.ones((32, 32))
        imap[:, 8:16] = 2.0
        imap[:, 16:24] = 4.0
        imap[:, 24:] = 0.5
        base = _fissile_problem(importance_map=imap,
                                use_russian_roulette=True)
        return EnsembleSpec(
            base, 2, seed_stride=3,
            sweeps=(SweepSpec("weight_cutoff", 0.05, 0.2, 2),),
        )
    base = PROBLEMS[problem](
        nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS
    )
    return EnsembleSpec(base, NREPLICAS, seed_stride=3)


def _assert_replica_parity(fused, looped):
    """Every replica of the fused run bit-identical to its looped twin."""
    assert len(fused.replicas) == len(looped.results)
    for rr, solo in zip(fused.replicas, looped.results):
        for fname in Counters._SCALAR_FIELDS:
            assert getattr(rr.counters, fname) == getattr(
                solo.counters, fname
            ), (rr.replica, fname)
        assert np.array_equal(
            rr.counters.collisions_per_particle,
            solo.counters.collisions_per_particle,
        ), (rr.replica, "collisions_per_particle")
        assert np.array_equal(
            rr.counters.facets_per_particle,
            solo.counters.facets_per_particle,
        ), (rr.replica, "facets_per_particle")
        assert np.array_equal(
            rr.tally.deposition, solo.tally.deposition
        ), (rr.replica, "tally")
        assert np.array_equal(
            rr.tally.flush_counts, solo.tally.flush_counts
        ), (rr.replica, "flush_counts")
        assert population_fingerprint(rr.arena) == population_fingerprint(
            solo.arena
        ), (rr.replica, "fingerprint")


# ---------------------------------------------------------------------------
# Serial fused vs looped — (3 problems + every extension) × (2 schemes +
# switching every step)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem", sorted(PROBLEMS) + ["vr"])
@pytest.mark.parametrize(
    "scheme", SCHEMES + (EVERY_STEP_SWITCH,),
    ids=lambda s: getattr(s, "value", "switch-every-step"),
)
def test_serial_fused_matches_looped(problem, scheme):
    spec = _spec(problem)
    fused = run_ensemble(spec, scheme)
    looped = run_ensemble_looped(spec, scheme)
    _assert_replica_parity(fused, looped)
    if problem == "vr":
        cuts = {m.weight_cutoff for m in spec.members()}
        assert len(cuts) == 2
        for rr in fused.replicas:
            c = rr.counters
            assert c.clones_banked and c.secondaries_banked
            assert c.roulette_kills and c.roulette_survivals


# ---------------------------------------------------------------------------
# Pooled fused (replica-block shards) vs looped
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_pooled_fused_matches_looped(problem, scheme):
    spec = _spec(problem)
    fused = run_ensemble(spec, scheme, nworkers=3)
    looped = run_ensemble_looped(spec, scheme)
    _assert_replica_parity(fused, looped)


@pytest.mark.chaos
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_pooled_fused_survives_worker_kill(scheme):
    """A worker hard-killed mid-ensemble is retried bit-identically."""
    spec = _spec("csp")
    fused = run_ensemble(
        spec, scheme, nworkers=3,
        fault_plan=FaultPlan((KillWorker(worker=1, after_chunks=0),)),
    )
    looped = run_ensemble_looped(spec, scheme)
    _assert_replica_parity(fused, looped)


@pytest.mark.chaos
def test_pooled_kill_retry_matches_clean_pooled():
    """Chaos and clean pooled runs agree with each other, not just with
    the looped baseline (same shards, same bytes re-read on retry)."""
    spec = _spec("scatter")
    clean = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=2)
    chaoticed = run_ensemble(
        spec, Scheme.OVER_EVENTS, nworkers=2,
        fault_plan=FaultPlan((KillWorker(worker=0, after_chunks=0),)),
    )
    for a, b in zip(clean.replicas, chaoticed.replicas):
        assert population_fingerprint(a.arena) == population_fingerprint(
            b.arena
        )
        assert a.counters.collisions == b.counters.collisions


@pytest.mark.chaos
def test_pooled_ensemble_reports_its_pool():
    """A pooled ensemble is a pool run: its result carries the shared
    reduce's ``PoolRunInfo`` — worker reports and the recovery ledger of
    a mid-shard kill — and an in-process ensemble, like
    ``Simulation.run(nworkers=1)``, carries the inline one."""
    spec = _spec("csp")
    faulted = run_ensemble(
        spec, Scheme.OVER_EVENTS, nworkers=2,
        fault_plan=FaultPlan((KillWorker(worker=0, after_chunks=0),)),
    )
    pool = faulted.pool
    assert pool.workers_lost >= 1
    assert pool.retries >= 1
    assert pool.nworkers == 2 and len(pool.shard_attempts) == 2
    assert sum(w.histories for w in pool.workers) == NREPLICAS * NPARTICLES
    assert sum(w.final_histories for w in pool.workers) == len(faulted.arena)
    _assert_replica_parity(faulted, run_ensemble_looped(spec, Scheme.OVER_EVENTS))
    inline = run_ensemble(spec, Scheme.OVER_EVENTS).pool
    assert inline.start_method == "inline" and inline.nworkers == 1
    assert len(inline.shard_attempts) == 1


def test_one_replica_pooled_ensemble_is_a_pooled_run():
    """``run_ensemble`` launches through ``run_sharded`` at every replica
    and worker count: one replica on two workers is the pooled plain run,
    history shards and all."""
    cfg = csp_problem(nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS)
    ens = run_ensemble(EnsembleSpec(cfg, 1), Scheme.OVER_EVENTS, nworkers=2)
    plain = Simulation(cfg).run(Scheme.OVER_EVENTS, nworkers=2)
    assert ens.pool.nworkers == 2 and len(ens.pool.shard_attempts) == 2
    assert ens.replicas[0].fingerprint() == population_fingerprint(
        plain.arena
    )
    assert np.array_equal(ens.tally.deposition, plain.tally.deposition)
    assert ens.counters.snapshot() == plain.counters.snapshot()


@pytest.mark.parametrize("nworkers", [0, -3])
def test_ensemble_refuses_fewer_than_one_worker(nworkers):
    with pytest.raises(ValueError, match="at least one worker"):
        run_ensemble(_spec("stream"), Scheme.OVER_EVENTS, nworkers=nworkers)


def test_in_process_multi_range_matches_pooled_shards():
    """In-process, every replica range is a shard that runs the one shard
    body and ships its own payload, as a worker's shard does, and the one
    reduce folds them in shard-id order; so the in-process result equals
    the pooled run over the same ranges bit for bit — tally, counters,
    population in shard order and every replica's books."""
    from repro.parallel.pool import PoolOptions, run_sharded
    from repro.parallel.schedule import ScheduleKind
    from repro.particles.arena import EnsembleArena
    from repro.particles.source import sample_source

    spec = _spec("csp")
    members = spec.members()
    provider = members[0].resolved_provider()
    run_members = tuple(m.with_(materials=provider.materials) for m in members)
    mesh = members[0].build_mesh()
    arenas = [
        sample_source(mesh, m.source, m.nparticles, m.seed, m.dt,
                      provider=provider)
        for m in run_members
    ]
    bounds = (0, *np.cumsum([len(a) for a in arenas]).tolist())
    inline, books = run_sharded(
        run_members, bounds, Scheme.OVER_EVENTS, EnsembleArena.fuse(arenas),
        PoolOptions(nworkers=1, schedule=ScheduleKind.DYNAMIC, chunk=1), 0.0,
    )
    pooled = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=NREPLICAS)
    assert inline.pool.start_method == "inline"
    assert inline.pool.workers[0].chunks == NREPLICAS
    assert len(inline.pool.shard_attempts) == NREPLICAS
    assert len(pooled.pool.shard_attempts) == NREPLICAS
    assert np.array_equal(inline.tally.deposition, pooled.tally.deposition)
    assert np.array_equal(inline.tally.flush_counts, pooled.tally.flush_counts)
    assert inline.counters.snapshot() == pooled.counters.snapshot()
    assert inline.counters.oe_passes == pooled.counters.oe_passes
    assert _kernel_totals(inline.counters) == _kernel_totals(pooled.counters)
    for name, _ in EnsembleArena.FIELDS:
        assert np.array_equal(
            getattr(inline.arena, name), getattr(pooled.arena, name)
        ), name
    for (counters, tally), rr in zip(books, pooled.replicas):
        assert counters.snapshot() == rr.counters.snapshot()
        assert np.array_equal(tally.deposition, rr.tally.deposition)
        assert np.array_equal(tally.flush_counts, rr.tally.flush_counts)


# ---------------------------------------------------------------------------
# Invariance knobs
# ---------------------------------------------------------------------------

def test_op_block_size_invariance():
    """The fused Over Particles segment scheduler must hide block
    boundaries exactly as the standalone driver does."""
    base = csp_problem(nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS)
    prints = []
    for block in (7, 32, 1024):
        spec = EnsembleSpec(
            base.with_(op_block_size=block), NREPLICAS, seed_stride=3
        )
        fused = run_ensemble(spec, Scheme.OVER_PARTICLES)
        prints.append([
            population_fingerprint(rr.arena) for rr in fused.replicas
        ])
    assert prints[0] == prints[1] == prints[2]


def test_replica_order_permutation_invariance():
    """Each member's result depends only on its own config, not on where
    it sits in the fused arena."""
    base = scatter_problem(nx=NX, nparticles=NPARTICLES)
    members = EnsembleSpec(base, 4, seed_stride=5).members()
    forward = run_ensemble(members, Scheme.OVER_EVENTS)
    perm = [2, 0, 3, 1]
    shuffled = run_ensemble(
        tuple(members[i] for i in perm), Scheme.OVER_EVENTS
    )
    for slot, orig in enumerate(perm):
        a = shuffled.replicas[slot]
        b = forward.replicas[orig]
        assert a.config.seed == b.config.seed
        assert population_fingerprint(a.arena) == population_fingerprint(
            b.arena
        )
        assert a.counters.collisions == b.counters.collisions
        assert np.array_equal(a.tally.deposition, b.tally.deposition)


def test_worker_count_invariance():
    """1, 2, and 5 workers produce identical per-replica results."""
    spec = _spec("csp")
    prints = []
    for nworkers in (1, 2, 5):
        fused = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=nworkers)
        prints.append([
            population_fingerprint(rr.arena) for rr in fused.replicas
        ])
    assert prints[0] == prints[1] == prints[2]


# ---------------------------------------------------------------------------
# Fused totals and the spec layer
# ---------------------------------------------------------------------------

def test_fused_totals_equal_replica_sums():
    spec = _spec("csp")
    fused = run_ensemble(spec, Scheme.OVER_EVENTS)
    for fname in ("collisions", "facets", "census_events", "rng_draws",
                  "terminations", "escapes", "nparticles"):
        assert getattr(fused.counters, fname) == sum(
            getattr(rr.counters, fname) for rr in fused.replicas
        ), fname
    summed = sum(rr.tally.deposition for rr in fused.replicas)
    np.testing.assert_allclose(fused.tally.deposition, summed, rtol=1e-12)


def test_sweep_expansion_assigns_cyclically():
    base = csp_problem(nx=NX, nparticles=NPARTICLES)
    spec = EnsembleSpec(
        base, 5, sweeps=(SweepSpec("weight_cutoff", 0.1, 0.3, 3),)
    )
    cuts = [m.weight_cutoff for m in spec.members()]
    assert cuts == [0.1, 0.2, 0.3, 0.1, 0.2]
    seeds = [m.seed for m in spec.members()]
    assert seeds == [base.seed + r for r in range(5)]


def test_sweep_source_param_touches_only_source():
    base = csp_problem(nx=NX, nparticles=NPARTICLES)
    spec = EnsembleSpec(
        base, 2, sweeps=(SweepSpec("source.energy_ev", 1e5, 2e5, 2),)
    )
    members = spec.members()
    assert members[0].source.energy_ev == 1e5
    assert members[1].source.energy_ev == 2e5
    assert members[0].weight_cutoff == members[1].weight_cutoff


def test_validate_members_rejects_non_fusible_mismatch():
    """One fusibility rule for every config type, 2-D and 3-D: the
    FUSIBLE_FIELDS (seed, cutoffs, timestep, source) may differ, any other
    field may not — the number of axes included."""
    from repro.core import csp3_problem

    for base in (csp_problem(nx=NX, nparticles=NPARTICLES),
                 csp3_problem(n=8, nparticles=40)):
        validate_members([
            base, base.with_(seed=base.seed + 1),
            base.with_(weight_cutoff=0.2, dt=0.5 * base.dt),
        ])
        with pytest.raises(ValueError, match="nparticles"):
            validate_members([base, base.with_(nparticles=base.nparticles + 1)])
    flat = csp_problem(nx=8, nparticles=40).with_(name=base.name)
    with pytest.raises(ValueError, match="must agree on 'density'"):
        validate_members([flat, base])


def test_sweep_spec_parse_rejects_bad_forms():
    with pytest.raises(ValueError, match="expected param=lo:hi:steps"):
        SweepSpec.parse("weight_cutoff=0.1:0.3")
    with pytest.raises(ValueError, match="cannot sweep"):
        SweepSpec.parse("nparticles=10:20:2")


def test_replica_id_column_survives_the_run():
    """The fused arena keeps a coherent replica_id the whole way —
    children inherit their parent's replica."""
    spec = _spec("csp")
    fused = run_ensemble(spec, Scheme.OVER_EVENTS)
    rep = fused.arena.replica_id
    assert rep.min() >= 0 and rep.max() < NREPLICAS
    for rr in fused.replicas:
        assert len(rr.arena) == rr.counters.nparticles


# ---------------------------------------------------------------------------
# 3-D volume fusion (seed-only lanes)
# ---------------------------------------------------------------------------

def test_ensemble_3d_seed_fusion_matches_standalone():
    """Seed-only 3-D fusion: every replica's counters, tally, and
    population fingerprint bit-identical to its own standalone run, and
    the fused tally is exactly the replica sum."""
    from repro.core import csp3_problem
    from repro.ensemble.volume import population_fingerprint_3d

    base = csp3_problem(n=8, nparticles=40, ntimesteps=2)
    members = [base.with_(seed=base.seed + 7 * r) for r in range(4)]
    ens = run_ensemble(members)
    assert len(ens.replicas) == 4
    for rr, m in zip(ens.replicas, members):
        solo = Simulation(m).run(Scheme.OVER_EVENTS)
        for fname in Counters._SCALAR_FIELDS:
            assert getattr(rr.counters, fname) == getattr(
                solo.counters, fname
            ), (rr.replica, fname)
        assert np.array_equal(rr.tally.deposition, solo.tally.deposition)
        assert rr.fingerprint() == population_fingerprint_3d(solo.arena)
    summed = sum(rr.tally.deposition for rr in ens.replicas)
    np.testing.assert_allclose(
        ens.tally.deposition, summed, rtol=1e-12
    )


def test_validate_members_3d_is_seed_only():
    """3-D members go through the one ``validate_members`` rule: a seed
    difference is accepted, an ``nparticles`` difference is not."""
    from repro.core import csp3_problem

    base = csp3_problem(n=8, nparticles=40)
    validate_members([base, base.with_(seed=base.seed + 1)])
    with pytest.raises(ValueError, match="nparticles"):
        validate_members([base, base.with_(nparticles=41)])


# ---------------------------------------------------------------------------
# One execution path: R = 1 is the plain run
# ---------------------------------------------------------------------------

def _fissile_problem(**kw):
    """Moderated source streaming into a fissile block: two materials,
    and secondaries that must inherit their parent's replica."""
    nx = 32
    density = np.full((nx, nx), 1e-30)
    density[12:20, 12:20] = 400.0
    mmap = np.zeros((nx, nx), dtype=np.int64)
    mmap[12:20, 12:20] = 1
    return SimulationConfig(
        name="fission", nx=nx, ny=nx, width=1.0, height=1.0,
        density=density, material_map=mmap,
        materials=(hydrogenous_moderator(2500), fissile_fuel(2500)),
        source=SourceRegion(x0=0.05, x1=0.15, y0=0.45, y1=0.55,
                            energy_ev=1e6),
        nparticles=80, dt=1e-7, ntimesteps=3, seed=3, xs_nentries=2500,
        **kw,
    )


def _kernel_totals(counters):
    profile = counters.kernel_profile
    return (
        {name: (row[0], row[1]) for name, row in profile.items()},
        counters.workspace_allocations,
        counters.workspace_reuses,
    )


_PLAIN_CASES = [
    pytest.param(PROBLEMS[p], {}, scheme, id=f"{p}-{scheme.value}")
    for p in sorted(PROBLEMS) for scheme in SCHEMES
] + [
    pytest.param(csp_problem, {"xs_mode": "ce"}, Scheme.OVER_EVENTS,
                 id="csp-ce-over_events"),
    pytest.param(_fissile_problem, None, Scheme.OVER_EVENTS,
                 id="fissile-over_events"),
    pytest.param(_fissile_problem, None, Scheme.OVER_PARTICLES,
                 id="fissile-over_particles"),
]


@pytest.mark.parametrize("factory, overrides, scheme", _PLAIN_CASES)
def test_one_replica_ensemble_is_the_plain_run(factory, overrides, scheme):
    """``run_ensemble(EnsembleSpec(cfg, 1))`` replica 0 and
    ``Simulation(cfg).run`` agree on every deterministic fact — counters,
    per-particle work, tallies, final population, kernel calls/items,
    workspace churn and probe counts — because they are the same path."""
    if overrides is None:
        cfg = factory()
    else:
        cfg = factory(nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS,
                      **overrides)
    plain = Simulation(cfg).run(scheme)
    fused = run_ensemble(EnsembleSpec(cfg, 1), scheme)
    (rr,) = fused.replicas
    if factory is _fissile_problem:
        assert plain.counters.secondaries_banked > 0
    for counters in (rr.counters, fused.counters):
        assert counters.snapshot() == plain.counters.snapshot()
        assert np.array_equal(counters.collisions_per_particle,
                              plain.counters.collisions_per_particle)
        assert np.array_equal(counters.facets_per_particle,
                              plain.counters.facets_per_particle)
        assert _kernel_totals(counters) == _kernel_totals(plain.counters)
        assert counters.oe_passes == plain.counters.oe_passes
        assert (counters.tally_conflict_probability
                == plain.counters.tally_conflict_probability)
    for tally in (rr.tally, fused.tally):
        assert np.array_equal(tally.deposition, plain.tally.deposition)
        assert np.array_equal(tally.flush_counts, plain.tally.flush_counts)
        assert tally.flushes == plain.tally.flushes
    for name, _ in type(plain.arena).FIELDS:
        assert np.array_equal(
            getattr(rr.arena, name), getattr(plain.arena, name)
        ), name
    assert rr.fingerprint() == population_fingerprint(plain.arena)
    assert fused.scheme is plain.scheme


def test_one_member_ensemble_3d_is_the_plain_run():
    from repro.core import csp3_problem
    from repro.ensemble.volume import population_fingerprint_3d

    cfg = csp3_problem(n=8, nparticles=40, ntimesteps=2)
    plain = Simulation(cfg).run(Scheme.OVER_EVENTS)
    ens = run_ensemble([cfg])
    (rr,) = ens.replicas
    for counters in (rr.counters, ens.counters):
        assert counters.snapshot() == plain.counters.snapshot()
        assert np.array_equal(counters.collisions_per_particle,
                              plain.counters.collisions_per_particle)
        assert np.array_equal(counters.facets_per_particle,
                              plain.counters.facets_per_particle)
        assert _kernel_totals(counters) == _kernel_totals(plain.counters)
    for tally in (rr.tally, ens.tally):
        assert np.array_equal(tally.deposition, plain.tally.deposition)
        assert tally.flushes == plain.tally.flushes
    for name, _ in type(plain.arena).FIELDS:
        assert np.array_equal(
            getattr(rr.arena, name), getattr(plain.arena, name)
        ), name
    assert rr.fingerprint() == population_fingerprint_3d(plain.arena)


# ---------------------------------------------------------------------------
# Any scheme or switch plan runs under an ensemble
# ---------------------------------------------------------------------------

#: Physics counters that are invariant under the switch schedule (the
#: probe counters price traversal order and legitimately differ).
PHYSICS_COUNTERS = (
    "collisions", "facets", "census_events", "terminations",
    "reflections", "tally_flushes", "density_reads", "xs_lookups",
    "rng_draws",
)


def _adversarial_plan(ntimesteps: int) -> ScriptedPlan:
    """Switch scheme at every census boundary, compacting the fused
    population at the switches into Over Events."""
    return ScriptedPlan(tuple(
        StepDecision(
            scheme=SCHEMES[step % 2],
            compact=(step % 2 == 1),
        )
        for step in range(ntimesteps)
    ))


@pytest.mark.parametrize("plan", [Scheme.AUTO, _adversarial_plan(4)],
                         ids=["auto", "switch-every-step"])
@pytest.mark.parametrize("nworkers", [1, 2])
def test_switching_ensemble_matches_standalone_members(plan, nworkers):
    base = csp_problem(nx=NX, nparticles=NPARTICLES, ntimesteps=4)
    spec = EnsembleSpec(base, 3, seed_stride=3)
    fused = run_ensemble(spec, plan, nworkers=nworkers)
    assert fused.scheme is Scheme.AUTO
    for rr, member in zip(fused.replicas, spec.members()):
        solo = Simulation(member).run(Scheme.OVER_EVENTS)
        assert rr.fingerprint() == population_fingerprint(solo.arena)
        for name in PHYSICS_COUNTERS:
            assert getattr(rr.counters, name) == getattr(
                solo.counters, name
            ), (rr.replica, name)
        assert np.allclose(rr.tally.deposition, solo.tally.deposition,
                           rtol=1e-10, atol=1e-30)
        assert np.array_equal(rr.tally.flush_counts,
                              solo.tally.flush_counts)
        assert len(rr.arena) == rr.counters.nparticles
    assert fused.counters.collisions == sum(
        rr.counters.collisions for rr in fused.replicas
    )


def test_unknown_ensemble_scheme_is_rejected():
    spec = _spec("stream")
    with pytest.raises(ValueError, match="unknown scheme"):
        run_ensemble(spec, "over_events")


# ---------------------------------------------------------------------------
# Pooled totals keep their profile
# ---------------------------------------------------------------------------

def test_pooled_totals_carry_kernel_profile_and_passes():
    """The pooled reduce merges shard counters instead of re-summing
    scalars: kernel calls/items, workspace churn and pass structure are
    the disjoint merge of the shards' in-process fused runs (passes are
    per shard, so they are not those of one arena-wide run), and the
    per-replica-attributed ``xs_bin_reuses`` equals the in-process run's.
    """
    spec = EnsembleSpec(
        csp_problem(nx=64, nparticles=60, ntimesteps=2), 4
    )
    members = spec.members()
    pooled = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=2).counters
    whole = run_ensemble(spec, Scheme.OVER_EVENTS).counters
    shards = [
        run_ensemble(block, Scheme.OVER_EVENTS).counters
        for block in (members[:2], members[2:])
    ]
    assert pooled.kernel_profile and pooled.oe_passes
    for name, (calls, items, _seconds) in pooled.kernel_profile.items():
        assert calls == sum(s.kernel_profile[name][0] for s in shards)
        assert items == sum(s.kernel_profile[name][1] for s in shards)
    assert pooled.workspace_allocations == sum(
        s.workspace_allocations for s in shards
    )
    assert len(pooled.oe_passes) == sum(len(s.oe_passes) for s in shards)
    assert pooled.xs_bin_reuses == whole.xs_bin_reuses
    assert pooled.snapshot() == whole.snapshot()


# ---------------------------------------------------------------------------
# The single path stays single
# ---------------------------------------------------------------------------

def test_single_path_audit_clean():
    assert audit_single_path() == []


def test_single_path_audit_flags_forks_and_aliases(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "volume").mkdir()
    (tmp_path / "ensemble").mkdir()
    (tmp_path / "core" / "driver.py").write_text(
        "def run(lanes=None, books=None):\n"
        "    if lanes is None:\n"
        "        return 0\n"
        "    return 1 if self.books is not None else 2\n"
        "collide_vec = batch.collide\n"
        "arena = None\n"
        "ok = arena is None\n"
    )
    violations = audit_single_path(tmp_path)
    assert len(violations) == 3
    assert sum("None test" in v for v in violations) == 2
    assert sum("collide_vec" in v for v in violations) == 1


def test_single_path_audit_flags_a_second_event_pass(tmp_path):
    """Handler definitions and kernel dispatch names may live in
    ``core/event_pass.py`` only: a second copy is the pass forking again."""
    (tmp_path / "core").mkdir()
    (tmp_path / "volume").mkdir()
    (tmp_path / "ensemble").mkdir()
    one_pass = (
        "def handle_collisions(): run('collide'); run('fission_bank')\n"
        "def handle_facets(): run('cross_facet')\n"
        "def handle_census(): run('census')\n"
        "def event_pass(): run('distances'); run('select_events')\n"
    )
    (tmp_path / "core" / "event_pass.py").write_text(one_pass)
    (tmp_path / "core" / "stepper.py").write_text(
        '"""Mentions "census" and handle_census() in prose only."""\n'
        "span = 'census_wave'\n"
    )
    assert audit_single_path(tmp_path) == []
    (tmp_path / "core" / "over_particles.py").write_text(
        "class _Block:\n"
        "    def handle_census(self): self.run('census')\n"
        "    def roulette(self): self.run('roulette')\n"
    )
    violations = audit_single_path(tmp_path)
    # The offending module is reported, not the home of the pass.
    assert len(violations) == 3
    assert all(v.startswith("core/over_particles.py:") for v in violations)
    assert sum("def handle_census" in v for v in violations) == 1
    assert sum("'census'" in v for v in violations) == 1
    assert sum("'roulette'" in v for v in violations) == 1


@pytest.mark.parametrize("ndim", (2, 3))
def test_facet_transient_audit_flags_a_held_copy(ndim, monkeypatch):
    """``kernels --check`` bounds one facet crossing's transient memory per
    lane: the handler passes, and one that holds 4·ndim extra full-width
    ``float64`` copies across the crossing (gathered copies kept alive
    past their scatter) fails it."""
    from repro.core.event_pass import WorkingSet

    assert audit_facet_transient(ndim) == []
    handle = WorkingSet.handle_facets

    def holding_copies(self, fmask, *args):
        held = np.ones((4 * ndim, fmask.size))
        handle(self, fmask, *args)
        held.fill(0.0)  # still live across the crossing

    monkeypatch.setattr(WorkingSet, "handle_facets", holding_copies)
    violations = audit_facet_transient(ndim)
    assert len(violations) == 1
    assert violations[0].startswith(f"{ndim}-D facet crossing")


def test_single_path_audit_flags_a_scheme_test(tmp_path):
    """Only the census stepper may compare against a fixed scheme: below
    it the schemes' differences are handed in as data (DESIGN §3e)."""
    for pkg in ("core", "volume", "ensemble", "parallel"):
        (tmp_path / pkg).mkdir()
    (tmp_path / "core" / "stepper.py").write_text(
        "if decision.scheme is Scheme.OVER_PARTICLES: op_step()\n"
    )
    (tmp_path / "parallel" / "faults.py").write_text(
        "if scheme == Scheme.OVER_EVENTS: pass\n"
    )
    (tmp_path / "core" / "event_pass.py").write_text(
        "ok = scheme in (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)\n"
    )
    assert audit_single_path(tmp_path) == []
    (tmp_path / "core" / "event_pass.py").write_text(
        "if self.scheme is Scheme.OVER_EVENTS: book()\n"
    )
    (tmp_path / "ensemble" / "engine.py").write_text(
        "fused = scheme == Scheme.OVER_PARTICLES\n"
    )
    (tmp_path / "parallel" / "pool.py").write_text(
        "if Scheme.OVER_EVENTS is not s: pass\n"
    )
    violations = audit_single_path(tmp_path)
    assert [v.split(":")[0] for v in violations] == [
        "core/event_pass.py", "ensemble/engine.py", "parallel/pool.py",
    ]
    assert all("scheme test" in v for v in violations)


def test_single_path_audit_flags_a_second_step_method(tmp_path):
    """A lane working set is a window of the census stepper's one step
    method: built anywhere else (the audit's own probe aside), it is a
    second step method."""
    for pkg in ("core", "volume", "ensemble", "kernels"):
        (tmp_path / pkg).mkdir()
    (tmp_path / "core" / "stepper.py").write_text(
        "work = WorkingSet(ctx, arena.view(lo, hi), lo, sink, refresh)\n"
    )
    (tmp_path / "kernels" / "audit.py").write_text(
        "work = WorkingSet(ctx, a, 0, st.books, None)\n"
    )
    (tmp_path / "core" / "event_pass.py").write_text(
        "class WorkingSet:\n    pass\n"
    )
    assert audit_single_path(tmp_path) == []
    (tmp_path / "core" / "over_particles.py").write_text(
        "def run_block(ctx, arena, idx, sink):\n"
        "    return event_pass.WorkingSet(ctx, arena.subset(idx), 0, sink)\n"
    )
    (tmp_path / "volume" / "driver3.py").write_text(
        "work = WorkingSet(ctx, arena, 0, books, None)\n"
    )
    violations = audit_single_path(tmp_path)
    assert [v.split(":")[0] for v in violations] == [
        "core/over_particles.py", "volume/driver3.py",
    ]
    assert all("one step method" in v for v in violations)


def test_single_path_audit_flags_a_handler_charging_a_booked_count(tmp_path):
    """A pass books its collisions, facet crossings and census events
    (and the per-lane work counts) once, from its masks: a handler — or a
    refresh — that charges one again counts it twice."""
    for pkg in ("core", "volume", "ensemble"):
        (tmp_path / pkg).mkdir()
    home = tmp_path / "core" / "event_pass.py"
    home.write_text(
        "class WorkingSet:\n"
        "    def event_pass(self, active):\n"
        "        self.sink.record_pass(event, active, n_event, None)\n"
        "        ctx.books.coll_pp[rows] += masks[0]\n"
        "    def handle_collisions(self, cmask, n, *args):\n"
        "        sink.charge('rng_draws', n, 3)\n"
        "        a.energy[c] = e_new\n"
    )
    (tmp_path / "core" / "books.py").write_text(
        "class ReplicaSink:\n"
        "    def record_pass(self, event, active, n_event, stats):\n"
        "        self.counters.collisions += n_event[0]\n"
    )
    assert audit_single_path(tmp_path) == []
    home.write_text(
        "class WorkingSet:\n"
        "    def handle_collisions(self, cmask, *args):\n"
        "        sink.cadd('collisions', rc)\n"
        "        ctx.books.coll_pp[c + self.lo] += 1\n"
        "    def handle_facets(self, fmask, *args):\n"
        "        self.sink.counters.facets += f.size\n"
        "    def handle_census(self, zmask, *args):\n"
        "        self.sink.cadd('census_events', self.sink.replicas(z))\n"
        "        self.sink.charge('collisions', n)\n"
    )
    (tmp_path / "core" / "over_events.py").write_text(
        "def refresh(work, idx):\n"
        "    work.sink.cadd('facets', work.sink.replicas(idx))\n"
    )
    violations = audit_single_path(tmp_path)
    assert [v.split(":")[:2] for v in violations] == [
        ["core/event_pass.py", "3"], ["core/event_pass.py", "4"],
        ["core/event_pass.py", "6"], ["core/event_pass.py", "8"],
        ["core/event_pass.py", "9"], ["core/over_events.py", "2"],
    ]
    assert all("books its collisions" in v for v in violations)
    # The audit's names are the ones the books charge from a pass.
    from repro.core.books import PASS_COUNTS
    from repro.kernels.audit import PASS_BOOKED_COUNTS
    assert PASS_BOOKED_COUNTS == PASS_COUNTS


def test_single_path_audit_flags_a_replica_loop_in_the_books(tmp_path):
    """``ReplicaBooks.flush`` / ``cadd`` / ``record_pass`` run every pass
    over every replica at once: a loop (statement or comprehension) or an
    ``np.unique`` split inside one is the per-replica loop coming back.
    Other verbs and the whole-batch sink may loop."""
    for pkg in ("core", "volume", "ensemble"):
        (tmp_path / pkg).mkdir()
    books = tmp_path / "core" / "books.py"
    books.write_text(
        "class ReplicaSink:\n"
        "    def flush(self, idx):\n"
        "        for r in np.unique(idx): pass\n"
        "class ReplicaBooks:\n"
        "    def cadd(self, name, idx, per=1):\n"
        "        self._charge(name, self.rep[idx], per)\n"
        "    def csum(self, name, idx, values):\n"
        "        for c in self.counters: pass\n"
    )
    assert audit_single_path(tmp_path) == []
    books.write_text(
        "class ReplicaBooks:\n"
        "    def flush(self, idx, cells, deposit):\n"
        "        for r in np.unique(self.rep[idx]):\n"
        "            self.tallies[r].flush_vec(cells, deposit)\n"
        "    def cadd(self, name, idx, per=1):\n"
        "        n = np.bincount(self.rep[idx])\n"
        "        [setattr(c, name, k) for c, k in zip(self.counters, n)]\n"
        "    def record_pass(self, stats, active):\n"
        "        while active.any(): pass\n"
    )
    violations = audit_single_path(tmp_path)
    assert len(violations) == 4
    assert all(v.startswith("core/books.py:") for v in violations)
    assert sum("np.unique in ReplicaBooks.flush" in v for v in violations) == 1
    assert sum("a loop in ReplicaBooks.flush" in v for v in violations) == 1
    assert sum("ReplicaBooks.cadd" in v for v in violations) == 1
    assert sum("ReplicaBooks.record_pass" in v for v in violations) == 1


def test_single_path_audit_flags_a_3d_event_pass(tmp_path):
    """The 3-D drivers ride the same pass: a handler, or the name of a 3-D
    event kernel, in ``volume/`` or ``ensemble/`` is a second transport
    body."""
    (tmp_path / "core").mkdir()
    (tmp_path / "volume").mkdir()
    (tmp_path / "ensemble").mkdir()
    (tmp_path / "volume" / "problems3.py").write_text(
        '__all__ = ["csp3_problem"]\n'
        "def csp3_problem(): pass\n"
    )
    assert audit_single_path(tmp_path) == []
    (tmp_path / "volume" / "driver3.py").write_text(
        "def run_step():\n"
        "    run('facet_distances_3d'); run('select_events')\n"
        "    run('collide_3d'); run('cross_facet_3d')\n"
    )
    (tmp_path / "ensemble" / "volume.py").write_text(
        "def handle_facets(): pass\n"
    )
    violations = audit_single_path(tmp_path)
    assert len(violations) == 5
    assert sum(v.startswith("volume/driver3.py:") for v in violations) == 4
    assert sum("def handle_facets" in v for v in violations) == 1


def test_single_path_audit_flags_a_dimension_twin(tmp_path):
    """The tally flush, the mesh's point location, the collision and
    facet kernels and the config that builds the mesh and the tally have
    one body each, whatever the number of axes: a second definition
    anywhere is a twin coming back — a scalar one too, since the scalar
    references live in the test oracle, outside the package, and a second
    config class's ``build_mesh``.  The 3-D kernel names stay table
    aliases."""
    from repro.kernels.dispatch import KERNEL_TABLE, KERNEL_TABLE_3D

    assert KERNEL_TABLE_3D["collide_3d"] is KERNEL_TABLE["collide"]
    assert KERNEL_TABLE_3D["cross_facet_3d"] is KERNEL_TABLE["cross_facet"]
    for pkg in ("core", "volume", "ensemble", "kernels", "mesh", "physics"):
        (tmp_path / pkg).mkdir()
    (tmp_path / "kernels" / "batch.py").write_text(
        "def collide(*a): pass\ndef cross_facet(*a): pass\n"
    )
    (tmp_path / "mesh" / "tally.py").write_text(
        "class EnergyDepositionTally:\n    def flush_vec(self, *a): pass\n"
    )
    (tmp_path / "mesh" / "structured.py").write_text(
        "class StructuredMesh:\n    def cell_of_point_vec(self, *p): pass\n"
    )
    (tmp_path / "core" / "config.py").write_text(
        "class SimulationConfig:\n    def build_mesh(self): pass\n"
        "    def build_tally(self): pass\n"
    )
    assert audit_single_path(tmp_path) == []
    (tmp_path / "kernels" / "batch3.py").write_text(
        "def collide3(*a): pass\ndef cross_facet_3d(*a): pass\n"
    )
    (tmp_path / "volume" / "mesh3.py").write_text(
        "class Tally3D:\n    def flush_vec(self, *a): pass\n"
        "class StructuredMesh3D:\n    def cell_of_point_vec(self, *p): pass\n"
    )
    (tmp_path / "physics" / "collision.py").write_text("def collide(): pass\n")
    (tmp_path / "volume" / "facet3.py").write_text("def cross_facet_3d(): pass\n")
    (tmp_path / "volume" / "problems3.py").write_text(
        "class Volume3DConfig:\n    def build_mesh(self): pass\n"
    )
    violations = audit_single_path(tmp_path)
    assert len(violations) == 7
    assert sum("def build_mesh" in v and "core/config.py" in v
               for v in violations) == 1
    assert sum(v.startswith("kernels/batch3.py:") for v in violations) == 2
    assert sum(v.startswith(("physics/collision.py:", "volume/facet3.py:"))
               for v in violations) == 2
    assert sum("def flush_vec" in v and "mesh/tally.py" in v
               for v in violations) == 1
    assert sum("def cell_of_point_vec" in v for v in violations) == 1


def test_single_path_audit_flags_a_second_pool_launch(tmp_path):
    """Every pooled run launches through ``parallel/pool.py``: calling the
    pool's dispatcher or start-method pick anywhere else, or importing an
    underscore name of the pool from outside ``parallel/``, is a second
    launch-and-reduce coming back.  Public names stay importable, and a
    hand-off ``to_shared`` (the shard hand-off bench) stays legal."""
    for pkg in ("core", "volume", "ensemble", "parallel", "bench"):
        (tmp_path / pkg).mkdir()
    (tmp_path / "parallel" / "pool.py").write_text(
        "def _pick_context(o): pass\n"
        "def run_sharded(o):\n"
        "    return _Dispatcher(_pick_context(o))\n"
    )
    (tmp_path / "parallel" / "__init__.py").write_text(
        "from repro.parallel.pool import _run_ranges, run_sharded\n"
    )
    (tmp_path / "ensemble" / "engine.py").write_text(
        "from repro.parallel.pool import PoolOptions, run_sharded\n"
    )
    (tmp_path / "bench" / "runner.py").write_text(
        "def handoff(p): return p.to_shared()\n"
    )
    assert audit_single_path(tmp_path) == []
    (tmp_path / "ensemble" / "engine.py").write_text(
        "from repro.parallel.pool import PoolOptions, _Dispatcher, _reduce\n"
        "def run(o):\n"
        "    from repro.parallel import pool\n"
        "    return pool._Dispatcher(pool._pick_context(o))\n"
    )
    violations = audit_single_path(tmp_path)
    assert len(violations) == 3
    assert all(v.startswith("ensemble/engine.py:") for v in violations)
    assert sum("import of _Dispatcher, _reduce" in v for v in violations) == 1
    assert sum("_Dispatcher(...)" in v for v in violations) == 1
    assert sum("_pick_context(...)" in v for v in violations) == 1


def test_arena_audit_flags_a_per_index_walk_in_volume(tmp_path):
    from repro.kernels.audit import audit as audit_particle_construction

    for pkg in ("core", "parallel", "volume"):
        (tmp_path / pkg).mkdir()
    walk = "def track(arena):\n    return [arena.proxy(i) for i in range(3)]\n"
    (tmp_path / "core" / "tools.py").write_text(walk)
    assert audit_particle_construction(tmp_path) == []
    (tmp_path / "volume" / "driver3.py").write_text(walk)
    (violation,) = audit_particle_construction(tmp_path)
    assert violation.startswith("volume/driver3.py:2: .proxy(")


def test_particle_audit_flags_a_scalar_stream(tmp_path):
    """Children are an arena block born from the vectorised streams: a
    scalar one-particle stream in a hot package is the per-child bank
    coming back, whichever package it appears in."""
    from repro.kernels.audit import audit as audit_particle_construction

    for pkg in ("core", "parallel", "volume"):
        (tmp_path / pkg).mkdir()
    vector = "def birth(s, ids):\n    return VectorParticleRNG(s, ids)\n"
    (tmp_path / "core" / "event_pass.py").write_text(vector)
    assert audit_particle_construction(tmp_path) == []
    scalar = "def birth(s, i):\n    return rng.ParticleRNG(s, i)\n"
    for pkg in ("core", "parallel", "volume"):
        (tmp_path / pkg / "bank.py").write_text(scalar)
    violations = audit_particle_construction(tmp_path)
    assert len(violations) == 3
    for v in violations:
        assert ":2: ParticleRNG(...)" in v
        assert v.endswith("bank children as an arena block")


# ---------------------------------------------------------------------------
# Replicas are a tally axis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", ["reflective", "vacuum"])
def test_fused_r3_over_events_books_each_pass_like_its_standalone_runs(
        boundary):
    """The pass books its own event counts (one keyed count per pass,
    R > 1): with reflections or escapes at the boundary and fission
    children joining mid-step, each replica's counters, ``oe_passes`` and
    per-lane work arrays equal its standalone run's."""
    from repro.mesh.boundary import BoundaryCondition

    base = _fissile_problem(boundary=BoundaryCondition(boundary))
    spec = EnsembleSpec(base, 3, seed_stride=5)
    fused = run_ensemble(spec, Scheme.OVER_EVENTS)
    looped = run_ensemble_looped(spec, Scheme.OVER_EVENTS)
    _assert_replica_parity(fused, looped)
    crossed = "reflections" if boundary == "reflective" else "escapes"
    for rr, solo in zip(fused.replicas, looped.results):
        assert rr.counters.oe_passes == solo.counters.oe_passes, rr.replica
        assert getattr(rr.counters, crossed) > 0, rr.replica
        assert rr.counters.secondaries_banked > 0, rr.replica
    # A fused pass runs while any replica has active lanes.
    assert len(fused.counters.oe_passes) >= max(
        len(s.counters.oe_passes) for s in looped.results
    )


def test_r16_over_events_flushes_once_per_event_kind_per_pass(monkeypatch):
    """One ``flush_vec`` over every replica per event kind per pass, not
    one per replica: at most ``len(EVENT_KERNELS)`` calls a pass."""
    calls = []
    flush_vec = EnergyDepositionTally.flush_vec

    def counted(self, *cells_and_energy):
        calls.append(len(cells_and_energy[0]))
        return flush_vec(self, *cells_and_energy)

    monkeypatch.setattr(EnergyDepositionTally, "flush_vec", counted)
    base = csp_problem(nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS)
    fused = run_ensemble(EnsembleSpec(base, 16), Scheme.OVER_EVENTS)
    totals = fused.counters
    assert totals.oe_passes
    assert 0 < len(calls) <= len(EVENT_KERNELS) * len(totals.oe_passes)
    assert sum(calls) == totals.tally_flushes == fused.tally.flushes
    for rr in fused.replicas:
        assert rr.tally.flushes == rr.counters.tally_flushes > 0


def test_replica_tallies_are_views_of_one_stack():
    """``books.tallies[r]`` tallies into row ``r`` of the stacked field;
    the fused totals are bitwise the replica tallies summed in order (and
    count the flushes Over Particles blocks made into the rows directly);
    and a pooled ensemble returns the same replica tallies as
    in-process."""
    spec = _spec("csp")
    members = spec.members()
    books = ReplicaBooks(
        members, np.repeat(np.arange(NREPLICAS), 3), members[0].build_tally
    )
    stack = books.stack
    assert stack.deposition.shape == (NREPLICAS, NX, NX)
    for r, t in enumerate(books.tallies):
        assert np.shares_memory(t.deposition, stack.deposition)
        assert np.shares_memory(t.flush_counts, stack.flush_counts)
        t.flush(1, 2, float(r + 1))
        assert stack.deposition[r, 2, 1] == r + 1
        assert stack.flush_counts[r].sum() == 1

    serial = run_ensemble(spec, Scheme.OVER_EVENTS)
    pooled = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=2)
    assert np.array_equal(
        serial.tally.deposition,
        sum(rr.tally.deposition for rr in serial.replicas),
    )
    for a, b in zip(serial.replicas, pooled.replicas):
        assert np.array_equal(a.tally.deposition, b.tally.deposition)
        assert np.array_equal(a.tally.flush_counts, b.tally.flush_counts)
        assert a.tally.flushes == b.tally.flushes
        assert a.counters.oe_passes == b.counters.oe_passes
    switched = run_ensemble(spec, EVERY_STEP_SWITCH)
    assert switched.tally.flushes == switched.counters.tally_flushes == sum(
        rr.tally.flushes for rr in switched.replicas
    )
