"""Workload measurement and standard model evaluations for the benches.

Every figure bench follows the same pipeline (DESIGN.md §4):

1. run the real transport at reduced scale (96² mesh, 60 histories) and
   characterise it — cached per process, one run per problem;
2. rescale to the paper's sizes (4000² mesh; 10⁶ histories for stream/csp,
   10⁷ for scatter);
3. evaluate the machine models under the experiment's options.

``standard_cpu_time``/``standard_gpu_time`` encode the paper's baseline
configuration per device (thread counts, affinities, memory choice) so the
figure benches stay declarative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

from repro.core import PROBLEM_FACTORIES, Scheme, Simulation
from repro.core.config import Layout
from repro.machine import CPUS, GPUS
from repro.parallel.affinity import Affinity
from repro.parallel.faults import FaultPlan, KillWorker
from repro.parallel.schedule import ScheduleKind, simulate_parallel_for
from repro.perfmodel import (
    CPUOptions,
    GPUOptions,
    Workload,
    predict_cpu,
    predict_gpu,
)

__all__ = [
    "PAPER_SCALE",
    "MEASUREMENT_NX",
    "MEASUREMENT_PARTICLES",
    "DEVICE_BASELINES",
    "measured_workload",
    "KernelProfile",
    "paper_workload",
    "standard_cpu_time",
    "standard_gpu_time",
    "MeasuredSpeedup",
    "measured_speedup",
    "LiveOverhead",
    "measured_live_overhead",
    "RecoveryOverhead",
    "measured_recovery_overhead",
    "ShardHandoff",
    "measured_shard_handoff",
    "EnsembleThroughput",
    "measured_ensemble_throughput",
    "AdaptiveCrossover",
    "measured_adaptive_crossover",
    "CeCrossover",
    "measured_ce_crossover",
]

#: Paper-scale targets per problem: (nparticles, mesh_nx) — §IV-B.
PAPER_SCALE = {
    "stream": (1_000_000, 4000),
    "scatter": (10_000_000, 4000),
    "csp": (1_000_000, 4000),
}

#: Reduced scale at which the real transport is measured.
MEASUREMENT_NX = 96
MEASUREMENT_PARTICLES = 60

#: Per-device baseline run configuration used across figures:
#: (nthreads, affinity, use_fast_memory).  Broadwell runs 88 threads
#: compact (§VII-A); KNL 256 threads scattered (§VII-B) from MCDRAM;
#: POWER8 160 threads spread (§VII-C).
DEVICE_BASELINES = {
    "broadwell": (88, Affinity.COMPACT, False),
    "knl": (256, Affinity.SCATTER, True),
    "power8": (160, Affinity.SCATTER, False),
}


@lru_cache(maxsize=None)
def _measured_workload_cached(problem: str) -> Workload:
    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    cfg = PROBLEM_FACTORIES[problem](
        nx=MEASUREMENT_NX, nparticles=MEASUREMENT_PARTICLES
    )
    result = Simulation(cfg).run(Scheme.OVER_EVENTS)
    return Workload.from_result(result)


def _workload_copy(w: Workload) -> Workload:
    # The cache hands the same Workload to every caller, and its
    # work_samples array is writable — one bench scaling it in place
    # would poison every later bench in the process.
    return replace(w, work_samples=w.work_samples.copy())


def measured_workload(problem: str) -> Workload:
    """Characterise one real reduced-scale transport run.

    The underlying transport is cached per process (one run per
    problem); every call returns a defensive copy, so mutating the
    returned record cannot leak into other callers.
    """
    return _workload_copy(_measured_workload_cached(problem))


@lru_cache(maxsize=None)
def _paper_workload_cached(problem: str) -> Workload:
    nparticles, nx = PAPER_SCALE[problem]
    return _measured_workload_cached(problem).scaled(nparticles, nx)


def paper_workload(problem: str) -> Workload:
    """The measured workload rescaled to the paper's problem size
    (cached transport, defensive copy per call)."""
    return _workload_copy(_paper_workload_cached(problem))


@dataclass(frozen=True)
class KernelProfile:
    """Measured per-kernel cost breakdown of one reduced-scale run.

    The raw profile comes off the driver's dispatch table
    (``Counters.kernel_profile``); this record adds the workspace-churn
    and bin-reuse evidence that the kernel layer actually removed the
    per-pass allocations and redundant searches it claims to.
    """

    problem: str
    scheme: Scheme
    wallclock_s: float
    profile: dict
    workspace_allocations: int
    workspace_reuses: int
    xs_lookups: int
    xs_bin_reuses: int

    @property
    def buffer_reuse_fraction(self) -> float:
        """Fraction of workspace requests served without allocating."""
        total = self.workspace_allocations + self.workspace_reuses
        return self.workspace_reuses / total if total else 0.0


def _measure_kernel_profile(
    problem: str, scheme: Scheme = Scheme.OVER_EVENTS
) -> KernelProfile:
    """One profiled reduced-scale run; the benchmark registry makes one
    per repeat, so every repeat is a real measurement."""
    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    cfg = PROBLEM_FACTORIES[problem](
        nx=MEASUREMENT_NX, nparticles=MEASUREMENT_PARTICLES
    )
    result = Simulation(cfg).run(scheme)
    c = result.counters
    return KernelProfile(
        problem=problem,
        scheme=scheme,
        wallclock_s=result.wallclock_s,
        profile=dict(c.kernel_profile),
        workspace_allocations=c.workspace_allocations,
        workspace_reuses=c.workspace_reuses,
        xs_lookups=c.xs_lookups,
        xs_bin_reuses=c.xs_bin_reuses,
    )


def standard_cpu_time(
    problem: str,
    machine: str,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    **option_overrides,
):
    """Predict seconds for a problem on a CPU under its baseline config.

    Returns the full :class:`repro.perfmodel.cpu_model.CPUPrediction`.
    """
    spec = CPUS[machine]
    nthreads, affinity, fast = DEVICE_BASELINES[machine]
    layout = Layout.SOA if scheme is Scheme.OVER_EVENTS else Layout.AOS
    opts = dict(
        nthreads=nthreads,
        scheme=scheme,
        layout=layout,
        affinity=affinity,
        use_fast_memory=fast,
    )
    opts.update(option_overrides)
    return predict_cpu(paper_workload(problem), spec, CPUOptions(**opts))


@dataclass(frozen=True)
class MeasuredSpeedup:
    """Model-vs-reality record for one pooled run on this host.

    The machine models predict runtimes for the paper's devices; this is
    the *measured* path — a real worker-pool execution timed against the
    serial driver — so the modelled scheduling behaviour (load imbalance
    under STATIC/DYNAMIC) can be checked against the host's actual one.
    """

    problem: str
    scheme: Scheme
    schedule: ScheduleKind
    nworkers: int
    serial_s: float
    parallel_s: float
    measured_imbalance: float
    modelled_imbalance: float
    #: Full RunTelemetry artifact of the pooled run (``capture_telemetry``).
    telemetry: object | None = None
    #: Measurement-quality flags (e.g. ``"timer_underflow:parallel"``);
    #: non-empty means the ratios below are not trustworthy.
    warnings: tuple = ()

    @property
    def speedup(self) -> float:
        """Serial wall-clock over pooled wall-clock.

        A zero pooled time is timer underflow, not a real measurement —
        returning a finite sentinel here used to hide it (and propagate
        a fake 1.0 into :attr:`parallel_efficiency` on fast hosts), so
        it now surfaces as ``inf`` alongside a :attr:`warnings` flag.
        """
        if self.parallel_s == 0:
            return float("inf")
        return self.serial_s / self.parallel_s

    @property
    def parallel_efficiency(self) -> float:
        """Speedup over worker count (1.0 is ideal scaling)."""
        return self.speedup / self.nworkers


def measured_speedup(
    problem: str,
    nworkers: int,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    schedule: ScheduleKind = ScheduleKind.STATIC,
    chunk: int = 64,
    nx: int = MEASUREMENT_NX,
    nparticles: int = 4 * MEASUREMENT_PARTICLES,
    capture_telemetry: bool = False,
) -> MeasuredSpeedup:
    """Time one problem serially and on the worker pool, on this host.

    Runs the same reduced-scale configuration the workload measurements
    use (scaled up ×4 in histories so there is enough work to shard),
    then reports the measured speedup and load imbalance next to what the
    scheduling model predicts for the same per-history work distribution.
    ``capture_telemetry=True`` attaches the pooled run's full
    :class:`~repro.obs.telemetry.RunTelemetry` artifact (bit-identity of
    the physics is unaffected; only the pooled wall-clock absorbs the
    recording overhead).
    """
    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    cfg = PROBLEM_FACTORIES[problem](nx=nx, nparticles=nparticles)
    sim = Simulation(cfg)
    serial = sim.run(scheme)
    recorder = None
    if capture_telemetry:
        from repro.obs import Recorder

        recorder = Recorder()
    pooled = sim.run(
        scheme, nworkers=nworkers, schedule=schedule, chunk=chunk,
        recorder=recorder,
    )
    modelled = simulate_parallel_for(
        serial.counters.events_per_particle(), nworkers, schedule, chunk
    )
    telemetry = None
    if capture_telemetry:
        from repro.obs import build_run_telemetry

        telemetry = build_run_telemetry(pooled, recorder)
    resolution = time.get_clock_info("perf_counter").resolution
    warnings = tuple(
        f"timer_underflow:{label}"
        for label, seconds in (
            ("serial", serial.wallclock_s),
            ("parallel", pooled.wallclock_s),
        )
        if seconds <= resolution
    )
    return MeasuredSpeedup(
        problem=problem,
        scheme=scheme,
        schedule=schedule,
        nworkers=nworkers,
        serial_s=serial.wallclock_s,
        parallel_s=pooled.wallclock_s,
        measured_imbalance=pooled.pool.busy_imbalance(),
        modelled_imbalance=modelled.load_imbalance(),
        telemetry=telemetry,
        warnings=warnings,
    )


@dataclass(frozen=True)
class LiveOverhead:
    """Cost of attaching the live observability plane, on this host.

    Two identical serial runs — one plain, one with a
    :class:`~repro.obs.live.LiveAggregator` fed per census step and a
    :class:`~repro.obs.server.MetricsServer` scraped over real HTTP —
    plus the plane's two standing invariants measured as metrics:
    ``live_parity`` (population fingerprints bit-identical between the
    runs) and ``endpoint_ok`` (the endpoint served schema-valid JSON and
    Prometheus text whose event total matches the run's exact counter).
    """

    problem: str
    scheme: Scheme
    off_s: float
    on_s: float
    #: 1.0 when the observed run fingerprints identically to the plain one.
    live_parity: float
    #: 1.0 when /snapshot and /metrics served consistent, valid views.
    endpoint_ok: float
    events_total: int
    warnings: tuple = ()

    @property
    def overhead(self) -> float:
        """Fractional slowdown with the plane attached (may go negative
        within host jitter — the probe work is per census step, tiny)."""
        if self.off_s == 0:
            return 0.0
        return self.on_s / self.off_s - 1.0


def measured_live_overhead(
    problem: str = "csp",
    scheme: Scheme = Scheme.OVER_PARTICLES,
    nx: int = MEASUREMENT_NX,
    nparticles: int = 4 * MEASUREMENT_PARTICLES,
    ntimesteps: int = 4,
) -> LiveOverhead:
    """Time one serial configuration plain and with the live plane on.

    Several census steps keep the probe on its real per-step cadence;
    the metrics server is bound to an ephemeral port and scraped once
    after the observed run so the bench exercises the full serve path,
    not just the aggregator.
    """
    import json
    import urllib.request

    from repro.ensemble import population_fingerprint
    from repro.obs import LiveAggregator, MetricsServer

    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    cfg = PROBLEM_FACTORIES[problem](
        nx=nx, nparticles=nparticles, ntimesteps=ntimesteps
    )
    sim = Simulation(cfg)
    off = sim.run(scheme)
    live = LiveAggregator()
    endpoint_ok = 0.0
    with MetricsServer(live, port=0) as server:
        on = sim.run(scheme, live=live)
        try:
            with urllib.request.urlopen(
                server.url("/snapshot"), timeout=5
            ) as resp:
                snap = json.loads(resp.read())
            with urllib.request.urlopen(
                server.url("/metrics"), timeout=5
            ) as resp:
                text = resp.read().decode("utf-8")
            if (
                snap["schema"]["name"] == "repro.live_snapshot"
                and snap["aggregate"]["events_total"]
                == int(on.counters.total_events)
                and "repro_live_events_total" in text
            ):
                endpoint_ok = 1.0
        except (OSError, ValueError, KeyError):
            endpoint_ok = 0.0
    parity = (
        population_fingerprint(off.arena)
        == population_fingerprint(on.arena)
    )
    resolution = time.get_clock_info("perf_counter").resolution
    warnings = tuple(
        f"timer_underflow:{label}"
        for label, seconds in (
            ("off", off.wallclock_s),
            ("on", on.wallclock_s),
        )
        if seconds <= resolution
    )
    return LiveOverhead(
        problem=problem,
        scheme=scheme,
        off_s=off.wallclock_s,
        on_s=on.wallclock_s,
        live_parity=1.0 if parity else 0.0,
        endpoint_ok=endpoint_ok,
        events_total=int(on.counters.total_events),
        warnings=warnings,
    )


@dataclass(frozen=True)
class RecoveryOverhead:
    """Cost of surviving a worker loss, measured on this host.

    Two identical pooled runs, one undisturbed and one with a
    deterministic worker kill injected; since recovery re-executes the
    lost shard bit-identically, the *only* difference is wall-clock —
    which is exactly the recovery overhead a long campaign pays per
    failure.
    """

    problem: str
    scheme: Scheme
    schedule: ScheduleKind
    nworkers: int
    clean_s: float
    faulted_s: float
    retries: int
    respawns: int
    degraded: bool
    #: Final particle states bit-identical between the two runs.
    states_identical: bool
    #: RunTelemetry of the faulted run (``capture_telemetry``) — its
    #: recovery_events() show the kill/respawn/retry sequence paid for.
    telemetry: object | None = None

    @property
    def overhead(self) -> float:
        """Fractional slowdown of the faulted run (0.0 = free recovery)."""
        if self.clean_s == 0:
            return 0.0
        return self.faulted_s / self.clean_s - 1.0


def measured_recovery_overhead(
    problem: str,
    nworkers: int = 2,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    schedule: ScheduleKind = ScheduleKind.DYNAMIC,
    chunk: int = 16,
    nx: int = MEASUREMENT_NX,
    nparticles: int = 4 * MEASUREMENT_PARTICLES,
    capture_telemetry: bool = False,
) -> RecoveryOverhead:
    """Measure the wall-clock cost of losing (and replacing) one worker.

    Runs the reduced-scale configuration twice on the pool: undisturbed,
    then with worker 0 hard-killed mid-shard after completing one chunk.
    Returns the paired timings plus the recovery ledger of the faulted
    run and a bit-identity check of the final particle states — the
    determinism claim the chaos suite asserts, measured here for its
    *cost* instead.
    """
    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    if nworkers < 2:
        raise ValueError("recovery needs at least two workers")
    cfg = PROBLEM_FACTORIES[problem](nx=nx, nparticles=nparticles)
    sim = Simulation(cfg)
    clean = sim.run(scheme, nworkers=nworkers, schedule=schedule, chunk=chunk)
    recorder = None
    if capture_telemetry:
        from repro.obs import Recorder

        recorder = Recorder()
    faulted = sim.run(
        scheme, nworkers=nworkers, schedule=schedule, chunk=chunk,
        fault_plan=FaultPlan((KillWorker(worker=0, after_chunks=1),)),
        recorder=recorder,
    )
    import numpy as np

    identical = len(clean.arena) == len(faulted.arena) and all(
        np.array_equal(getattr(clean.arena, f), getattr(faulted.arena, f))
        for f in ("particle_id", "x", "y", "energy", "rng_counter")
    )
    telemetry = None
    if capture_telemetry:
        from repro.obs import build_run_telemetry

        telemetry = build_run_telemetry(faulted, recorder)
    return RecoveryOverhead(
        problem=problem,
        scheme=scheme,
        schedule=schedule,
        nworkers=nworkers,
        clean_s=clean.wallclock_s,
        faulted_s=faulted.wallclock_s,
        retries=faulted.pool.retries,
        respawns=faulted.pool.respawns,
        degraded=faulted.pool.degraded,
        states_identical=identical,
        telemetry=telemetry,
    )


@dataclass(frozen=True)
class ShardHandoff:
    """Cost of handing one shard of the population to a worker process.

    Three mechanisms for the same ``[lo, hi)`` slice of histories:

    * pickling the detached AoS records (the pre-arena hand-off);
    * pickling the SoA arena slice (per-field arrays, still a copy);
    * the zero-copy path — ship only the ``(shm_name, n_total, lo, hi)``
      handle and let the worker map the parent's shared-memory buffer.

    Payload bytes measure serialisation traffic through the task queue;
    the timings measure the receiving side (unpickle vs. shm attach).
    """

    problem: str
    nparticles: int
    shard_lo: int
    shard_hi: int
    #: ``pickle.dumps`` size of the shard as ``list[Particle]``.
    pickled_particles_bytes: int
    #: ``pickle.dumps`` size of the shard as an arena slice copy.
    pickled_arena_bytes: int
    #: ``pickle.dumps`` size of the shared-memory shard handle.
    handle_bytes: int
    unpickle_particles_s: float
    unpickle_arena_s: float
    attach_s: float

    @property
    def payload_reduction(self) -> float:
        """AoS-pickle bytes over handle bytes (the zero-copy win)."""
        if self.handle_bytes == 0:
            return 1.0
        return self.pickled_particles_bytes / self.handle_bytes


@lru_cache(maxsize=None)
def _handoff_population_cached(problem: str, nparticles: int, nx: int):
    """Derive the hand-off workload once per configuration.

    The hand-off microbench measures pickle/attach costs, not source
    sampling or cross-section resolution — yet every repeat used to
    re-derive the config, materials, mesh, and population from scratch,
    dominating the bench's own wall-clock with setup the metric never
    looks at.  Cached per process like ``_measured_workload_cached``.
    """
    from repro.mesh.structured import StructuredMesh
    from repro.particles.source import sample_source

    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    cfg = PROBLEM_FACTORIES[problem](nx=nx, nparticles=nparticles)
    mesh = StructuredMesh(cfg.nx, cfg.ny, cfg.width, cfg.height, cfg.density)
    return sample_source(
        mesh, cfg.source, cfg.nparticles, cfg.seed, cfg.dt,
        provider=cfg.resolved_provider(),
    )


def _handoff_population(problem: str, nparticles: int, nx: int):
    """Defensive copy of the cached hand-off population — callers time
    ``to_shared``/pickling against it and must not see shared state."""
    return _handoff_population_cached(problem, nparticles, nx).copy()


def measured_shard_handoff(
    problem: str = "csp",
    nparticles: int = 4 * MEASUREMENT_PARTICLES,
    nshards: int = 4,
    nx: int = MEASUREMENT_NX,
    repeats: int = 5,
) -> ShardHandoff:
    """Microbenchmark the shard hand-off payload and receive cost.

    Samples the real source population (cached per configuration — the
    derivation is setup, not the thing being measured), takes the first
    of ``nshards`` contiguous shards, and measures the three hand-off
    mechanisms on this host (best of ``repeats`` for the timings).
    """
    import pickle
    import time

    from repro.particles.arena import ParticleArena, shard_handle_nbytes

    population = _handoff_population(problem, nparticles, nx)
    lo, hi = 0, max(1, len(population) // max(1, nshards))

    aos_payload = pickle.dumps(population.view(lo, hi).to_particles())
    arena_payload = pickle.dumps(population.view(lo, hi).copy())

    def _best(fn) -> float:
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    unpickle_particles_s = _best(lambda: pickle.loads(aos_payload))
    unpickle_arena_s = _best(lambda: pickle.loads(arena_payload))

    shared = population.to_shared()
    try:
        handle = (shared.shm_name, len(shared), lo, hi)

        def _attach():
            view = ParticleArena.attach(shared.shm_name, len(shared), lo, hi)
            view.close()

        attach_s = _best(_attach)
        handle_bytes = shard_handle_nbytes(handle)
    finally:
        shared.close(unlink=True)

    return ShardHandoff(
        problem=problem,
        nparticles=nparticles,
        shard_lo=lo,
        shard_hi=hi,
        pickled_particles_bytes=len(aos_payload),
        pickled_arena_bytes=len(arena_payload),
        handle_bytes=handle_bytes,
        unpickle_particles_s=unpickle_particles_s,
        unpickle_arena_s=unpickle_arena_s,
        attach_s=attach_s,
    )


@dataclass(frozen=True)
class EnsembleThroughput:
    """Fused-ensemble throughput against the looped baseline.

    The fused engine runs N replicas as one arena-wide dispatch per event
    per census step, paying problem setup (cross-section tables, mesh,
    kernel dispatch, workspace) once; the baseline loops
    ``Simulation.run`` over the same members, paying it N times.
    ``parity`` is a deterministic algorithm fact (1.0 = every replica's
    tally and population fingerprint bit-identical to its standalone
    run), gated exactly; the timings compare same-host only.
    """

    problem: str
    scheme: Scheme
    nreplicas: int
    nparticles: int
    fused_s: float
    looped_s: float
    #: 1.0 when every replica is bit-identical to its standalone run.
    parity: float
    total_histories: int
    warnings: tuple = ()

    @property
    def speedup_vs_looped(self) -> float:
        if self.fused_s == 0:
            return float("inf")
        return self.looped_s / self.fused_s

    @property
    def fused_histories_per_s(self) -> float:
        if self.fused_s == 0:
            return float("inf")
        return self.total_histories / self.fused_s


def measured_ensemble_throughput(
    problem: str = "csp",
    nreplicas: int = 32,
    nparticles: int = MEASUREMENT_PARTICLES,
    nx: int = 64,
    scheme: Scheme = Scheme.OVER_EVENTS,
    sweep: str | None = "weight_cutoff=0.05:0.3:8",
) -> EnsembleThroughput:
    """Time a fused replica ensemble against the looped baseline.

    Runs the same member set twice — once through
    :func:`repro.ensemble.run_ensemble` (one fused arena), once through
    :func:`repro.ensemble.run_ensemble_looped` (``Simulation.run`` per
    member, the honest pre-ensemble workflow) — and verifies per-replica
    bit-parity between the two while at it.
    """
    import numpy as np

    from repro.ensemble import (
        EnsembleSpec,
        SweepSpec,
        population_fingerprint,
        run_ensemble,
        run_ensemble_looped,
    )

    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    base = PROBLEM_FACTORIES[problem](nx=nx, nparticles=nparticles)
    sweeps = (SweepSpec.parse(sweep),) if sweep else ()
    spec = EnsembleSpec(base, nreplicas, sweeps=sweeps)
    fused = run_ensemble(spec, scheme)
    looped = run_ensemble_looped(spec, scheme)
    parity = all(
        population_fingerprint(rr.arena) == population_fingerprint(res.arena)
        and np.array_equal(rr.tally.deposition, res.tally.deposition)
        for rr, res in zip(fused.replicas, looped.results)
    )
    resolution = time.get_clock_info("perf_counter").resolution
    warnings = tuple(
        f"timer_underflow:{label}"
        for label, seconds in (
            ("fused", fused.wallclock_s),
            ("looped", looped.wallclock_s),
        )
        if seconds <= resolution
    )
    return EnsembleThroughput(
        problem=problem,
        scheme=scheme,
        nreplicas=nreplicas,
        nparticles=nparticles,
        fused_s=fused.wallclock_s,
        looped_s=looped.wallclock_s,
        parity=1.0 if parity else 0.0,
        total_histories=fused.total_histories(),
        warnings=warnings,
    )


@dataclass(frozen=True)
class AdaptiveCrossover:
    """Adaptive scheduling against both fixed schemes, on this host.

    Three runs of the same multi-census-step configuration — pure OP,
    pure OE, and ``Scheme.AUTO`` (the telemetry-driven scheduler of
    :mod:`repro.adaptive`) — plus a bit-parity check: scheme switching
    happens only at census boundaries over counter-based RNG streams, so
    the adaptive run's final population must fingerprint-match the fixed
    runs exactly.  The CI gate asserts ``adaptive_efficiency`` stays
    near 1.0: the scheduler may pay a bounded probe cost but must not
    lose to simply picking the better fixed scheme.
    """

    problem: str
    ntimesteps: int
    op_s: float
    oe_s: float
    auto_s: float
    #: Scheme decisions the scheduler announced (≥ 1; > 1 means it
    #: actually switched at least once after the opening step).
    decisions: int
    #: 1.0 when the AUTO population fingerprint equals the fixed runs'.
    parity: float
    warnings: tuple = ()

    @property
    def best_fixed_s(self) -> float:
        return min(self.op_s, self.oe_s)

    @property
    def adaptive_efficiency(self) -> float:
        """Best fixed wall-clock over adaptive wall-clock (1.0 = the
        scheduler matched the better fixed scheme; > 1.0 = beat it)."""
        if self.auto_s == 0:
            return float("inf")
        return self.best_fixed_s / self.auto_s


def measured_adaptive_crossover(
    problem: str = "csp",
    ntimesteps: int = 16,
    nx: int = MEASUREMENT_NX,
    nparticles: int = 4 * MEASUREMENT_PARTICLES,
    repeats: int = 2,
) -> AdaptiveCrossover:
    """Time pure OP, pure OE, and AUTO on one multi-step configuration.

    Multiple census steps give the scheduler room to probe both schemes
    and settle; the population decays over the steps, so the OP-vs-OE
    balance genuinely shifts within the run — the situation the adaptive
    scheduler exists for.  All three variants go through the same
    :func:`~repro.core.stepper.run_stepped` entry point (no recorder on
    any of them), each timed ``repeats`` times interleaved with the
    others and reported as its best wall-clock: the efficiency ratio is
    a scheduling-policy comparison, not a fixture-overhead one, and
    best-of-N keeps one noisy step on a shared host from failing the CI
    gate.
    """
    from repro.adaptive import AdaptiveScheduler
    from repro.core.stepper import run_stepped
    from repro.ensemble.engine import population_fingerprint

    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cfg = PROBLEM_FACTORIES[problem](
        nx=nx, nparticles=nparticles, ntimesteps=ntimesteps
    )
    results = {}
    times: dict[str, list[float]] = {"op": [], "oe": [], "auto": []}
    scheduler = None
    for _ in range(repeats):
        results["op"] = run_stepped(cfg, Scheme.OVER_PARTICLES)
        times["op"].append(results["op"].wallclock_s)
        results["oe"] = run_stepped(cfg, Scheme.OVER_EVENTS)
        times["oe"].append(results["oe"].wallclock_s)
        scheduler = AdaptiveScheduler(cfg)
        results["auto"] = run_stepped(cfg, scheduler)
        times["auto"].append(results["auto"].wallclock_s)
    schemes = [d.scheme for _, d in scheduler.decisions]
    decisions = 1 + sum(
        1 for prev, cur in zip(schemes, schemes[1:]) if cur is not prev
    )
    parity = (
        population_fingerprint(results["auto"].arena)
        == population_fingerprint(results["op"].arena)
        == population_fingerprint(results["oe"].arena)
    )
    op_s, oe_s, auto_s = (min(times[k]) for k in ("op", "oe", "auto"))
    resolution = time.get_clock_info("perf_counter").resolution
    warnings = tuple(
        f"timer_underflow:{label}"
        for label, seconds in (
            ("over_particles", op_s),
            ("over_events", oe_s),
            ("auto", auto_s),
        )
        if seconds <= resolution
    )
    return AdaptiveCrossover(
        problem=problem,
        ntimesteps=ntimesteps,
        op_s=op_s,
        oe_s=oe_s,
        auto_s=auto_s,
        decisions=decisions,
        parity=1.0 if parity else 0.0,
        warnings=warnings,
    )


@dataclass(frozen=True)
class CeCrossover:
    """Scheme crossover under the continuous-energy backend, on this host.

    The union-grid lookup is the paper's search-cost story turned up: one
    binary/cached-linear search plus a per-nuclide gather-and-interpolate
    per refresh, instead of one cheap table walk per reaction.  That
    shifts where the OP-vs-OE balance sits (XSBench's thesis: the lookup
    dominates), so this bench times pure OP, pure OE, and ``Scheme.AUTO``
    on the same CE configuration and reports the ratio — plus the
    OP ≡ OE ≡ AUTO population-fingerprint parity that proves the backend
    keeps the scheme-equivalence contract.
    """

    problem: str
    ntimesteps: int
    #: Per-nuclide grid points requested (``xs_nentries``).
    npoints: int
    #: Resulting union-grid size of material 0.
    union_points: int
    op_s: float
    oe_s: float
    auto_s: float
    #: Exact lookup/probe counters from the fixed-scheme runs.
    xs_lookups: int
    op_linear_probes: int
    oe_binary_probes: int
    #: 1.0 when OP, OE and AUTO populations fingerprint-match.
    parity: float
    warnings: tuple = ()

    @property
    def oe_op_ratio(self) -> float:
        """OE wall-clock over OP wall-clock under CE lookups (< 1.0 means
        the breadth-first scheme wins once the lookup dominates)."""
        if self.op_s == 0:
            return float("inf")
        return self.oe_s / self.op_s

    @property
    def best_fixed_s(self) -> float:
        return min(self.op_s, self.oe_s)

    @property
    def adaptive_efficiency(self) -> float:
        """Best fixed wall-clock over AUTO wall-clock under CE."""
        if self.auto_s == 0:
            return float("inf")
        return self.best_fixed_s / self.auto_s


def measured_ce_crossover(
    problem: str = "csp",
    ntimesteps: int = 6,
    nx: int = MEASUREMENT_NX,
    nparticles: int = 2 * MEASUREMENT_PARTICLES,
    npoints: int = 1500,
    repeats: int = 2,
) -> CeCrossover:
    """Time OP, OE, and AUTO on one continuous-energy configuration.

    Same interleaved best-of-N discipline as
    :func:`measured_adaptive_crossover`; ``npoints`` keeps the synthetic
    per-nuclide grids small enough for a quick-tier bench while the union
    grid (the sum of the jittered nuclide grids) stays large enough that
    the search cost is real.
    """
    from repro.adaptive import AdaptiveScheduler
    from repro.core.stepper import run_stepped
    from repro.ensemble.engine import population_fingerprint

    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cfg = PROBLEM_FACTORIES[problem](
        nx=nx, nparticles=nparticles, ntimesteps=ntimesteps,
        xs_mode="ce", xs_nentries=npoints,
    )
    results = {}
    times: dict[str, list[float]] = {"op": [], "oe": [], "auto": []}
    for _ in range(repeats):
        results["op"] = run_stepped(cfg, Scheme.OVER_PARTICLES)
        times["op"].append(results["op"].wallclock_s)
        results["oe"] = run_stepped(cfg, Scheme.OVER_EVENTS)
        times["oe"].append(results["oe"].wallclock_s)
        results["auto"] = run_stepped(cfg, AdaptiveScheduler(cfg))
        times["auto"].append(results["auto"].wallclock_s)
    parity = (
        population_fingerprint(results["auto"].arena)
        == population_fingerprint(results["op"].arena)
        == population_fingerprint(results["oe"].arena)
    )
    op_s, oe_s, auto_s = (min(times[k]) for k in ("op", "oe", "auto"))
    resolution = time.get_clock_info("perf_counter").resolution
    warnings = tuple(
        f"timer_underflow:{label}"
        for label, seconds in (
            ("over_particles", op_s),
            ("over_events", oe_s),
            ("auto", auto_s),
        )
        if seconds <= resolution
    )
    return CeCrossover(
        problem=problem,
        ntimesteps=ntimesteps,
        npoints=npoints,
        union_points=cfg.resolved_provider().union_points(0),
        op_s=op_s,
        oe_s=oe_s,
        auto_s=auto_s,
        xs_lookups=results["op"].counters.xs_lookups,
        op_linear_probes=results["op"].counters.xs_linear_probes,
        oe_binary_probes=results["oe"].counters.xs_binary_probes,
        parity=1.0 if parity else 0.0,
        warnings=warnings,
    )


def standard_gpu_time(
    problem: str,
    machine: str,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    **option_overrides,
):
    """Predict seconds for a problem on a GPU; returns the prediction."""
    spec = GPUS[machine]
    return predict_gpu(
        paper_workload(problem),
        spec,
        GPUOptions(scheme=scheme, **option_overrides),
    )
