"""The ensemble engine: fuse, run, and unfuse N replica runs.

``run_ensemble`` samples every member's source into one
:class:`~repro.particles.arena.EnsembleArena` (replica-major, each
history keeping the exact ``(seed, particle_id)`` RNG key it would have
standalone) and hands it, with the members'
:class:`~repro.core.books.ReplicaBooks`, to the same census stepper
every plain run uses — any scheme or switch plan, across
``replicas × histories`` lanes — and returns both the fused totals and
per-replica results whose counters, tallies and population fingerprints
are bit-identical to N standalone serial runs.

With ``nworkers > 1`` the fused arena is re-homed into shared memory and
sharded across the existing fault-tolerant worker pool by *replica
blocks* (shards never split a replica), reusing the same 36 B
``(shm_name, n_total, lo, hi)`` hand-off, watchdog, retry and degraded
drain machinery.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import Scheme, SimulationConfig, require_2d
from repro.core.counters import Counters
from repro.core.stepper import run_stepped, validate_scheme_options
from repro.ensemble.spec import EnsembleSpec, validate_members
from repro.mesh.tally import EnergyDepositionTally
from repro.obs.spans import NULL_RECORDER
from repro.particles.arena import EnsembleArena
from repro.particles.source import sample_source

__all__ = [
    "EnsembleJob",
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

    @property
    def nreplicas(self) -> int:
        return len(self.replicas)

    def total_histories(self) -> int:
        return sum(r.counters.nparticles for r in self.replicas)


@dataclass
class EnsembleJob:
    """The picklable work unit shipped to pool workers.

    Rides through the pool's existing ``config`` slot: ``_run_ranges``
    duck-dispatches to :meth:`run_ranges` and ``_worker_main`` attaches
    the shared arena with :attr:`arena_cls` — the shard handle itself is
    unchanged (36 B).
    """

    members: tuple
    #: Particle offset of each replica's block in the fused arena (R+1).
    bounds: tuple

    arena_cls = EnsembleArena

    def run_ranges(self, scheme, population, ranges, recorder=None,
                   probe=None):
        """Run the fused transport over replica-aligned shard ranges;
        returns the pool payload dict plus per-replica books."""
        t0 = time.perf_counter()
        bounds = np.asarray(self.bounds, dtype=np.int64)
        tally = self.members[0].build_tally()
        counters = Counters()
        arena_out = None
        replica_counters: dict[int, Counters] = {}
        replica_tallies: dict[int, EnergyDepositionTally] = {}
        histories = 0
        for lo, hi in ranges:
            r0 = int(np.searchsorted(bounds, lo))
            r1 = int(np.searchsorted(bounds, hi))
            if bounds[r0] != lo or bounds[r1] != hi:
                raise ValueError(
                    f"ensemble shard [{lo}, {hi}) does not align with "
                    "replica boundaries"
                )
            view = population.view(lo, hi).copy()
            view.replica_id -= r0
            res, books = _run_fused(
                self.members[r0:r1], view, scheme, recorder=recorder,
                probe=probe,
            )
            res.arena.replica_id += r0
            for k in range(r1 - r0):
                replica_counters[r0 + k] = books.counters[k]
                replica_tallies[r0 + k] = books.tallies[k]
            tally.merge(res.tally)
            counters.merge_disjoint(res.counters)
            if arena_out is None:
                arena_out = res.arena
            else:
                arena_out.extend(res.arena)
            histories += hi - lo
        return {
            "tally": tally,
            "counters": counters,
            "arena": arena_out,
            "busy_s": time.perf_counter() - t0,
            "histories": histories,
            "chunks": len(ranges),
            "replica_counters": replica_counters,
            "replica_tallies": replica_tallies,
        }


def _run_fused(members, arena, scheme, *, recorder=None, provider=None,
               probe=None):
    """Advance ``arena`` (an :class:`EnsembleArena` whose ``replica_id``
    indexes ``members``) through the census stepper; returns the fused
    ``TransportResult`` and the members' books."""
    base = members[0]
    histories = len(arena)
    books = ReplicaBooks(members, arena.replica_id, base.build_tally)
    res = run_stepped(
        base, scheme, arena=arena, books=books, recorder=recorder,
        provider=provider, probe=probe,
    )
    if probe is not None and probe.enabled:
        probe.commit_shard(res.counters, histories)
    # The books tracked every banked child's replica; publish it.
    res.arena.replica_id[...] = books.rep
    return res, books


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
        ``1`` runs fused in-process; ``> 1`` shards the fused arena by
        replica blocks across the fault-tolerant worker pool.
    max_retries / shard_timeout / max_worker_respawns / fault_plan:
        Pool recovery knobs (as in ``Simulation.run``); ignored when
        ``nworkers == 1``.
    recorder:
        Optional :class:`repro.obs.Recorder`; receives the fused span
        tree plus one ``ensemble_replica`` event per member carrying its
        per-replica counter attribution.
    live:
        Optional :class:`repro.obs.live.LiveAggregator` attaching the
        live observability plane (purely observational; see
        ``run_pool``); counter totals stream per census step.
    """
    from repro.parallel.pool import _result_scheme

    t0 = time.perf_counter()
    rec = NULL_RECORDER if recorder is None else recorder
    members = _expand(spec_or_members)
    nrep = len(members)
    base = members[0]
    require_2d(base, "run_ensemble")
    validate_scheme_options(base, scheme)
    label = _result_scheme(scheme)
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
    fused = EnsembleArena.fuse(member_arenas)
    bounds = np.concatenate(
        ([0], np.cumsum([len(a) for a in member_arenas]))
    ).astype(np.int64)

    with rec.span(
        "ensemble_run", replicas=nrep, scheme=label.name,
        nworkers=nworkers,
    ):
        if nworkers <= 1:
            fused_result, books = _run_fused(
                run_members, fused, scheme,
                recorder=rec if rec.enabled else None,
                provider=provider,
                probe=live.probe(0) if live is not None else None,
            )
            final = fused_result.arena
            replica_counters = books.counters
            replica_tallies = books.tallies
            fused_counters = fused_result.counters
            fused_tally = fused_result.tally
        else:
            (final, replica_counters, replica_tallies, fused_counters,
             fused_tally) = _run_ensemble_pool(
                run_members, fused, bounds, scheme, nworkers,
                max_retries=max_retries,
                shard_timeout=shard_timeout,
                max_worker_respawns=max_worker_respawns,
                fault_plan=fault_plan,
                recorder=rec,
                live=live,
            )

    replicas = []
    rep_field = final.replica_id
    for r in range(nrep):
        sel = np.nonzero(rep_field == r)[0]
        replicas.append(ReplicaResult(
            replica=r,
            config=members[r],
            counters=replica_counters[r],
            tally=replica_tallies[r],
            arena=final.subset(sel),
        ))
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
        counters=fused_counters,
        tally=fused_tally,
        arena=final,
        wallclock_s=time.perf_counter() - t0,
        nworkers=nworkers,
    )


def _run_ensemble_pool(
    run_members, fused, bounds, scheme, nworkers, *,
    max_retries, shard_timeout, max_worker_respawns, fault_plan, recorder,
    live=None,
):
    """Shard the fused arena by replica blocks across the worker pool."""
    from repro.parallel.pool import PoolOptions, _Dispatcher, _pick_context

    rec = NULL_RECORDER if recorder is None else recorder
    nrep = len(run_members)
    base = run_members[0]
    options = PoolOptions(
        nworkers=nworkers,
        max_retries=max_retries,
        shard_timeout=shard_timeout,
        max_worker_respawns=max_worker_respawns,
        fault_plan=fault_plan,
    )
    job = EnsembleJob(
        members=run_members, bounds=tuple(int(b) for b in bounds),
    )
    nshards = min(nworkers, nrep)
    rb = np.linspace(0, nrep, nshards + 1).astype(np.int64)
    shards = [
        (int(bounds[rb[i]]), int(bounds[rb[i + 1]]))
        for i in range(nshards)
        if rb[i + 1] > rb[i]
    ]
    shared_pop = fused.to_shared()
    ctx = _pick_context(options)
    dispatcher = _Dispatcher(
        job, scheme, shared_pop, shards, options, ctx, recorder=rec,
        live=live,
    )
    try:
        with rec.span(
            "ensemble_dispatch", nworkers=nworkers, nshards=len(shards)
        ):
            results = dispatcher.run()
    finally:
        for slot in dispatcher.slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(5.0)
        shared_pop.close(unlink=True)

    # Reduce in shard-id order, like ``run_pool``: the merged counters
    # carry every shard's kernel profile, workspace churn and pass
    # structure, and the per-particle arrays line up with ``final``.
    replica_counters: list = [None] * nrep
    replica_tallies: list = [None] * nrep
    counters = Counters()
    tally = base.build_tally()
    final = None
    for sid in sorted(results):
        payload = results[sid]
        if final is None:
            final = payload["arena"]
        else:
            final.extend(payload["arena"])
        counters.merge_disjoint(payload["counters"])
        tally.merge(payload["tally"])
        for r, c in payload["replica_counters"].items():
            replica_counters[r] = c
        for r, t in payload["replica_tallies"].items():
            replica_tallies[r] = t
    counters.tally_conflict_probability = tally.conflict_probability()
    counters.arena_nbytes = final.nbytes()
    return final, replica_counters, replica_tallies, counters, tally


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
