"""Top-level simulation facade and result type.

:class:`Simulation` is the public entry point most users want::

    from repro.core import Simulation, csp_problem, Scheme

    sim = Simulation(csp_problem(nx=128, nparticles=1000))
    result = sim.run(Scheme.OVER_PARTICLES)
    print(result.counters.total_events, result.tally.total())

Both schemes are exposed behind the same interface and produce identical
physics; :class:`TransportResult` carries everything downstream layers need
— the tally for validation, the counters for the machine models, and the
final particle arena for multi-timestep coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, SimulationConfig
from repro.core.counters import Counters
from repro.mesh.tally import EnergyDepositionTally
from repro.particles.arena import ParticleArena

__all__ = ["TransportResult", "Simulation"]


@dataclass
class TransportResult:
    """Everything a transport run produces.

    Attributes
    ----------
    config:
        The configuration that was run.
    scheme:
        Which parallelisation scheme produced the result.
    tally:
        The energy-deposition tally.
    counters:
        Algorithm instrumentation (events, memory touches, work
        distribution) for the performance model.
    arena:
        The final particle population as one SoA
        :class:`~repro.particles.arena.ParticleArena` (both schemes;
        includes any fission secondaries/clones).  Use
        ``arena.to_particles()`` for detached AoS records, or
        ``arena.view(i, i + 1)`` for a mutable window onto one history.
    wallclock_s:
        Host wall-clock time of the Python run.  *Not* used by any paper
        figure — those come from the machine models — but reported for the
        pytest-benchmark harness.
    """

    config: SimulationConfig
    scheme: Scheme
    tally: EnergyDepositionTally
    counters: Counters
    arena: ParticleArena
    wallclock_s: float
    #: Per-worker accounting when the run executed on the worker pool
    #: (:mod:`repro.parallel.pool`); ``None`` for serial runs.
    pool: "PoolRunInfo | None" = None

    def in_flight_energy_ev(self) -> float:
        """Weighted energy still carried by live particles."""
        alive = self.arena.alive
        return float(
            np.sum(self.arena.weight[alive] * self.arena.energy[alive])
        )

    def deposited_energy_ev(self) -> float:
        """Total energy deposited on the tally mesh."""
        return self.tally.total()

    def alive_count(self) -> int:
        """Histories still alive (censused, not terminated)."""
        return int(self.arena.alive.sum())


class Simulation:
    """Facade over the one census stepper, serial or pooled.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.SimulationConfig`, typically from one
        of the problem factories in :mod:`repro.core.problems`.
    """

    def __init__(self, config: SimulationConfig):
        self.config = config

    def run(
        self,
        scheme: Scheme = Scheme.OVER_PARTICLES,
        *,
        nworkers: int | None = None,
        schedule: "ScheduleKind | None" = None,
        chunk: int = 64,
        max_retries: int = 2,
        shard_timeout: float | None = None,
        max_worker_respawns: int = 3,
        fault_plan: "FaultPlan | None" = None,
        recorder: "object | None" = None,
        live: "object | None" = None,
        flight_dir: str | None = None,
    ) -> TransportResult:
        """Run the configured calculation with the chosen scheme.

        Parameters
        ----------
        scheme:
            Parallelisation scheme (traversal order).  ``Scheme.AUTO``
            runs Over Events with census compaction
            (:data:`repro.core.stepper.AUTO_RULE`); any object with
            ``decide(step, stepper) -> StepDecision`` schedules the steps
            itself and reports as ``AUTO``.  Physics is bit-identical in
            every case.
        nworkers:
            ``None`` (default) runs the plain serial driver.  Any integer
            ≥ 1 routes through the shared-memory worker pool
            (:mod:`repro.parallel.pool`): histories are sharded across
            that many processes, each accumulating a private tally that is
            reduced at the end.  ``nworkers=1`` uses the pool's in-process
            path, so its result is bit-comparable to any other worker
            count.
        schedule:
            Pool work distribution — ``ScheduleKind.STATIC`` (contiguous
            blocks, the default) or ``ScheduleKind.DYNAMIC`` (shared chunk
            queue).  Ignored for serial runs.
        chunk:
            Histories per DYNAMIC queue entry.
        max_retries:
            Per-shard retry budget when a worker dies, hangs, or raises
            (see ``PoolOptions.max_retries``).
        shard_timeout:
            Seconds one shard may run before its worker is declared hung
            (``None`` disables the per-shard watchdog).
        max_worker_respawns:
            Pool-wide replacement-worker budget before degraded in-process
            draining takes over.
        fault_plan:
            Deterministic fault injection
            (:class:`~repro.parallel.faults.FaultPlan`) for chaos tests
            and recovery demos; requires ``nworkers >= 2``.
        recorder:
            Optional :class:`~repro.obs.spans.Recorder` capturing the
            run's span tree and event log.  ``None`` (default) records
            nothing and the run is bit-identical to one with telemetry
            attached.
        live:
            Optional :class:`~repro.obs.live.LiveAggregator` attaching
            the live observability plane: per-census-step counter totals
            stream into it while the run advances (serial runs publish
            directly from the stepper; pooled runs via the shared stats
            board), ready to be served by
            :class:`~repro.obs.server.MetricsServer`.  Purely
            observational — physics is bit-identical with it on or off.
        flight_dir:
            Directory for pooled workers' flight-recorder dumps (needs
            ``recorder``); ``None`` uses a private temp dir.  See
            ``PoolOptions.flight_dir``.
        """
        # Local imports: the drivers import TransportResult from here.
        from repro.core.stepper import (
            run_stepped, scheme_label, validate_scheme_options,
        )

        # One validation point for the plan (raises a ValueError that
        # lists the valid schemes).
        validate_scheme_options(scheme)
        if nworkers is not None:
            from repro.parallel.pool import PoolOptions, run_pool
            from repro.parallel.schedule import ScheduleKind

            options = PoolOptions(
                nworkers=nworkers,
                schedule=schedule if schedule is not None else ScheduleKind.STATIC,
                chunk=chunk,
                max_retries=max_retries,
                shard_timeout=shard_timeout,
                max_worker_respawns=max_worker_respawns,
                fault_plan=fault_plan,
                flight_dir=flight_dir,
            )
            return run_pool(
                self.config, scheme, options, recorder=recorder, live=live
            )
        probe = None
        if live is not None:
            live.update_run(
                problem=getattr(self.config, "name", "") or "",
                nparticles=int(self.config.nparticles),
                ntimesteps=int(self.config.ntimesteps),
                scheme=scheme_label(scheme).value,
                nworkers=0,
                mode="serial",
            )
            probe = live.probe(0)
        result = run_stepped(
            self.config, scheme, recorder=recorder, probe=probe
        )
        if live is not None:
            # Final commit folds in what only lands at finalisation
            # (OP's xs-lookup statistics) before freezing the snapshot.
            probe.commit_shard(result.counters, self.config.nparticles)
            live.mark_done()
        return result
