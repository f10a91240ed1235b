"""The ensemble engine: fuse, run, and unfuse N replica runs.

``run_ensemble`` samples every member's source into one
:class:`~repro.particles.arena.EnsembleArena` (an
:class:`~repro.particles.arena.EnsembleArena3` in 3-D; replica-major, each
history keeping the exact ``(seed, particle_id)`` RNG key it would have
standalone) and hands it, with the members'
:class:`~repro.core.books.ReplicaBooks`, to the same census stepper
every plain run uses — any scheme or switch plan, across
``replicas × histories`` lanes — and returns both the fused totals and
per-replica results whose counters, tallies and population fingerprints
are bit-identical to N standalone serial runs.

With ``nworkers > 1`` the ensemble is a pool run through
:func:`repro.parallel.pool.run_sharded` — a plain pooled run's launch,
shard body and reduce — sharded by *replica blocks* (a shard never
splits a replica): workers attach the fused arena by its
``(shm_name, n_total)`` handle and take ``(shard_id, attempt, lo, hi)``
tasks over replica indices, under the pool's watchdog, retry and drain.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import Scheme, SimulationConfig
from repro.core.counters import Counters
from repro.core.stepper import (
    run_stepped,
    scheme_label,
    validate_scheme_options,
)
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
    nworkers: int = 1
    #: The pool's per-worker reports and recovery ledger
    #: (:class:`~repro.parallel.pool.PoolRunInfo`) when the ensemble ran
    #: on worker processes; ``None`` in-process.
    pool: "PoolRunInfo | None" = None

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
        ``Scheme.AUTO`` or a :class:`~repro.core.stepper.SwitchPlan`,
        exactly as in ``Simulation.run``.
    nworkers:
        ``1`` runs fused in-process; ``> 1`` is a pool run
        (:func:`repro.parallel.pool.run_sharded`) sharding the fused
        arena by replica blocks across the fault-tolerant workers.  A
        one-replica ensemble is a single block and runs in-process.
    max_retries / shard_timeout / max_worker_respawns / fault_plan:
        Pool recovery knobs (as in ``Simulation.run``); ignored
        in-process.
    recorder:
        Optional :class:`repro.obs.Recorder`; receives the fused span
        tree (a pool run's ``dispatch`` / ``reduce`` spans and every
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
    base = members[0]
    validate_scheme_options(base, scheme)
    label = scheme_label(scheme)
    if live is not None:
        live.update_run(
            problem=getattr(base, "name", "") or "",
            nparticles=int(sum(m.nparticles for m in members)),
            ntimesteps=int(base.ntimesteps),
            scheme=label.value,
            nworkers=int(nworkers),
            replicas=nrep,
            mode="ensemble",
        )
    # Build the cross-section backend once for the whole ensemble
    # (materials are a uniform field — validate_members enforces it).
    from repro.xs.provider import XsMode

    provider = base.resolved_provider()
    if provider.mode is XsMode.MULTIGROUP:
        run_members = tuple(
            m.with_(materials=provider.materials) for m in members
        )
    else:
        run_members = members
    mesh = base.build_mesh()
    with rec.span("ensemble_source", replicas=nrep):
        member_arenas = [
            sample_source(
                mesh, m.source, m.nparticles, m.seed, m.dt,
                provider=provider,
            )
            for m in run_members
        ]
    fused = FUSED_ARENA[type(member_arenas[0])].fuse(member_arenas)

    with rec.span(
        "ensemble_run", replicas=nrep, scheme=label.name,
        nworkers=nworkers,
    ):
        if nworkers > 1 and nrep > 1:
            from repro.parallel.pool import PoolOptions, run_sharded

            bounds = (0, *np.cumsum([len(a) for a in member_arenas]).tolist())
            options = PoolOptions(
                nworkers=nworkers,
                max_retries=max_retries,
                shard_timeout=shard_timeout,
                max_worker_respawns=max_worker_respawns,
                fault_plan=fault_plan,
            )
            result, books = run_sharded(
                run_members, bounds, scheme, fused, options, t0,
                recorder=rec, live=live,
            )
        else:
            fused_books = ReplicaBooks(
                run_members, fused.replica_id, base.build_tally
            )
            probe = live.probe(0) if live is not None else None
            result = run_stepped(
                base, scheme, arena=fused, books=fused_books,
                recorder=rec if rec.enabled else None, provider=provider,
                probe=probe,
            )
            if probe is not None and probe.enabled:
                probe.commit_shard(result.counters, len(fused))
            books = zip(fused_books.counters, fused_books.tallies)

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
        nworkers=nworkers,
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
