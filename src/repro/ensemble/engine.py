"""The ensemble engine: fuse, run, and unfuse N replica runs.

``run_ensemble`` samples every member's source into one
:class:`~repro.particles.arena.EnsembleArena` (an
:class:`~repro.particles.arena.EnsembleArena3` in 3-D; replica-major, each
history keeping the exact ``(seed, particle_id)`` RNG key it would have
standalone) and launches it through
:func:`repro.parallel.pool.run_sharded`, the one launch of every fused
run: a plain pooled run's shard body, dispatcher and reduce, sharded by
*replica blocks* (a shard never splits a replica; one replica shards by
histories, as a plain run does).  Each shard runs the census stepper
every plain run uses, with its replicas'
:class:`~repro.core.books.ReplicaBooks` — any scheme or scheduler, across
``replicas × histories`` lanes.  ``nworkers=1`` runs one STATIC shard
over the whole fused arena in this process; more hand
``(shard_id, attempt, lo, hi)`` tasks to workers that attach the fused
arena by its ``(shm_name, n_total)`` handle, under the pool's watchdog,
retry and drain.  The result holds both the fused totals and per-replica
results whose counters, tallies and population fingerprints are
bit-identical to N standalone serial runs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import Scheme, SimulationConfig
from repro.core.counters import Counters
from repro.core.stepper import scheme_label, validate_scheme_options
from repro.ensemble.spec import EnsembleSpec, validate_members
from repro.mesh.tally import EnergyDepositionTally
from repro.obs.spans import NULL_RECORDER
from repro.particles.arena import FUSED_ARENA, EnsembleArena
from repro.particles.source import sample_source

__all__ = [
    "EnsembleResult",
    "ReplicaResult",
    "population_fingerprint",
    "run_ensemble",
    "run_ensemble_looped",
]

def population_fingerprint(arena) -> str:
    """SHA-256 over the physics state of a population, in birth order
    (canonical, so it is invariant to storage-order differences), in any
    dimension: ``(*POSITION, *DIRECTION, energy, weight, rng_counter,
    alive, *CELL)``."""
    order = np.argsort(arena.particle_id, kind="stable")
    h = hashlib.sha256()
    for name in (*arena.POSITION, *arena.DIRECTION, "energy", "weight",
                 "rng_counter", "alive", *arena.CELL):
        h.update(np.ascontiguousarray(getattr(arena, name)[order]).tobytes())
    return h.hexdigest()


@dataclass
class ReplicaResult:
    """One member's unfused result (bit-identical to its standalone run)."""

    replica: int
    config: SimulationConfig
    counters: Counters
    tally: EnergyDepositionTally
    arena: EnsembleArena

    def fingerprint(self) -> str:
        return population_fingerprint(self.arena)


@dataclass
class EnsembleResult:
    """Fused totals plus the per-replica breakdown."""

    members: tuple
    scheme: Scheme
    replicas: list[ReplicaResult]
    counters: Counters
    tally: EnergyDepositionTally
    arena: EnsembleArena
    wallclock_s: float
    #: The pool's per-worker reports and recovery ledger
    #: (:class:`~repro.parallel.pool.PoolRunInfo`); at ``nworkers=1`` the
    #: inline one (``start_method == "inline"``, one shard).
    pool: "PoolRunInfo"

    @property
    def nreplicas(self) -> int:
        return len(self.replicas)

    def total_histories(self) -> int:
        return sum(r.counters.nparticles for r in self.replicas)


def _expand(spec_or_members) -> tuple[SimulationConfig, ...]:
    if isinstance(spec_or_members, EnsembleSpec):
        return spec_or_members.members()
    return validate_members(spec_or_members)


def run_ensemble(
    spec_or_members,
    scheme: Scheme = Scheme.OVER_EVENTS,
    *,
    nworkers: int = 1,
    max_retries: int = 2,
    shard_timeout: float | None = None,
    max_worker_respawns: int = 3,
    fault_plan=None,
    recorder=None,
    live=None,
) -> EnsembleResult:
    """Fuse the ensemble members into one arena and run them as one
    dispatch per event per census step.

    Parameters
    ----------
    spec_or_members:
        An :class:`~repro.ensemble.spec.EnsembleSpec` or an explicit
        sequence of member configs (validated fusible).
    scheme:
        Traversal order for the fused run: a fixed :class:`Scheme`,
        ``Scheme.AUTO`` or a ``decide(step, stepper)`` plan,
        exactly as in ``Simulation.run``.
    nworkers:
        Pool size for :func:`repro.parallel.pool.run_sharded`, which
        shards the fused arena by replica blocks: ``1`` runs one shard
        over the whole arena in this process, ``> 1`` spreads the blocks
        across the fault-tolerant workers.  Below 1 is refused.
    max_retries / shard_timeout / max_worker_respawns / fault_plan:
        Pool recovery knobs (as in ``Simulation.run``), validated at any
        ``nworkers``: at ``nworkers=1`` a non-empty ``fault_plan`` is
        refused, as it is for ``Simulation.run``.
    recorder:
        Optional :class:`repro.obs.Recorder`; receives the fused span
        tree (the pool's ``dispatch`` / ``reduce`` spans and every
        worker's shipped spans included) plus one ``ensemble_replica``
        event per member carrying its per-replica counter attribution.
    live:
        Optional :class:`repro.obs.live.LiveAggregator` attaching the
        live observability plane (purely observational; see
        ``run_pool``); counter totals stream per census step.
    """
    t0 = time.perf_counter()
    rec = NULL_RECORDER if recorder is None else recorder
    members = _expand(spec_or_members)
    nrep = len(members)
    validate_scheme_options(scheme)
    label = scheme_label(scheme)
    from repro.parallel.pool import PoolOptions, run_sharded, start_run

    options = PoolOptions(
        nworkers=nworkers,
        max_retries=max_retries,
        shard_timeout=shard_timeout,
        max_worker_respawns=max_worker_respawns,
        fault_plan=fault_plan,
    )
    # One backend for the whole ensemble: materials are a uniform field
    # (validate_members enforces it).
    run_members, provider = start_run(
        members, scheme, nworkers, live, replicas=nrep, mode="ensemble"
    )
    mesh = members[0].build_mesh()
    with rec.span("ensemble_source", replicas=nrep):
        member_arenas = [
            sample_source(
                mesh, m.source, m.nparticles, m.seed, m.dt,
                provider=provider,
            )
            for m in run_members
        ]
    fused = FUSED_ARENA[type(member_arenas[0])].fuse(member_arenas)

    bounds = (0, *np.cumsum([len(a) for a in member_arenas]).tolist())
    with rec.span(
        "ensemble_run", replicas=nrep, scheme=label.name,
        nworkers=nworkers,
    ):
        result, books = run_sharded(
            run_members, bounds, scheme, fused, options, t0,
            recorder=rec, live=live,
        )

    # The arena's replica_id column travels with every history (children
    # inherit it), so each replica's population is one selection.
    final = result.arena
    replicas = [
        ReplicaResult(
            replica=r,
            config=members[r],
            counters=counters,
            tally=tally,
            arena=final.subset(np.nonzero(final.replica_id == r)[0]),
        )
        for r, (counters, tally) in enumerate(books)
    ]
    if rec.enabled:
        for rr in replicas:
            rec.event(
                "ensemble_replica",
                replica=rr.replica,
                seed=int(members[rr.replica].seed),
                histories=int(rr.counters.nparticles),
                collisions=int(rr.counters.collisions),
                rng_draws=int(rr.counters.rng_draws),
                escaped_energy=float(rr.counters.escaped_energy),
            )

    if live is not None:
        live.mark_done()
    return EnsembleResult(
        members=members,
        scheme=label,
        replicas=replicas,
        counters=result.counters,
        tally=result.tally,
        arena=final,
        wallclock_s=time.perf_counter() - t0,
        pool=result.pool,
    )


@dataclass
class LoopedEnsemble:
    """Baseline: the same members run one at a time through
    ``Simulation.run`` (each paying full per-run setup)."""

    members: tuple
    scheme: Scheme
    results: list = field(default_factory=list)
    wallclock_s: float = 0.0


def run_ensemble_looped(
    spec_or_members, scheme: Scheme = Scheme.OVER_EVENTS
) -> LoopedEnsemble:
    """Run every member standalone, back to back — the baseline the
    fused engine's throughput and parity are measured against."""
    from repro.core.simulation import Simulation

    members = _expand(spec_or_members)
    t0 = time.perf_counter()
    results = [Simulation(m).run(scheme) for m in members]
    return LoopedEnsemble(
        members=members,
        scheme=scheme,
        results=results,
        wallclock_s=time.perf_counter() - t0,
    )
