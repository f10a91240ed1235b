"""The discrete-event replay engine.

Replays a recorded :class:`repro.simexec.trace.EventTrace` over virtual
OpenMP threads against a CPU description, simulating the three shared
resources the analytic model prices in closed form:

* **issue** — each event's compute cycles advance only the owning thread's
  clock (SMT threads interleave on the core implicitly through the memory
  port below; compute overlap between SMT threads is what the analytic
  ``max(kC, ...)`` term captures and is reproduced here by construction);
* **the per-core memory port** — every random access must pass the core's
  port, which sustains ``MLP`` outstanding misses: an access starts no
  earlier than the port allows (``latency/MLP`` spacing) and completes a
  full latency after it starts (the dependent-chain floor).  One thread
  alone is latency-limited; SMT siblings fill the port up to its
  throughput — exactly the behaviour behind the paper's SMT results;
* **tally cache lines** — flushes lock their 64-byte line for the atomic
  duration; a concurrent flush to the same line (from the *actual*
  recorded addresses) waits and is counted as a conflict.

The engine and the analytic model share every cost constant, so their
agreement (benchmarked in ``test_model_vs_simulation.py``) tests the
model's *structure*, not its calibration.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.machine.spec import CPUSpec
from repro.parallel.affinity import Affinity, place_threads
from repro.parallel.schedule import ScheduleKind
from repro.perfmodel.costs import DEFAULT_CONSTANTS, ModelConstants
from repro.perfmodel.memory import random_access_latency_cycles
from repro.perfmodel.workload import Workload
from repro.kernels.batch import EventKind
from repro.simexec.trace import EventTrace

__all__ = ["SimExecOptions", "SimExecResult", "simulate_execution"]

#: Tally cells per 64-byte cache line (row-major, float64).
CELLS_PER_LINE = 8


@dataclass(frozen=True)
class SimExecOptions:
    """Replay configuration.

    Attributes
    ----------
    nthreads:
        Virtual thread count.
    affinity:
        Placement (determines SMT sharing and NUMA class per thread).
    schedule:
        STATIC carves contiguous history blocks; DYNAMIC pulls
        ``chunk``-sized blocks from a shared queue as threads free up.
    chunk:
        Dynamic chunk size.
    use_fast_memory:
        Price accesses against the fast region (KNL MCDRAM).
    jitter:
        Fractional per-event timing noise (deterministic, hash-derived).
        Real cores never execute in perfect lockstep; without jitter the
        replay forms *absorbing atomic convoys*: histories launched
        together stay phase-locked on the same tally lines forever, a
        pathology perfectly synchronous costs create and hardware timing
        noise dissolves.  ~10% is ample; 0 disables (and exposes the
        convoy effect, which one of the benches demonstrates on purpose).
    start_stagger_cycles:
        Thread launch skew (an OpenMP parallel region does not release
        all threads in the same cycle).
    privatized_tally:
        Flush into thread-private copies: plain stores, no line locks, no
        conflicts — the §VI-F optimisation, replayed.
    """

    nthreads: int
    affinity: Affinity = Affinity.COMPACT_CORES
    schedule: ScheduleKind = ScheduleKind.STATIC
    chunk: int = 16
    use_fast_memory: bool = False
    jitter: float = 0.1
    start_stagger_cycles: float = 200.0
    privatized_tally: bool = False

    def __post_init__(self) -> None:
        if self.nthreads < 1:
            raise ValueError("need at least one thread")
        if self.chunk < 1:
            raise ValueError(
                "chunk must be >= 1 (a dynamic replay pulls at least one "
                "history per acquisition)"
            )
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if self.start_stagger_cycles < 0.0:
            raise ValueError("start_stagger_cycles must be non-negative")


@dataclass(frozen=True)
class SimExecResult:
    """Replay outcome.

    Attributes
    ----------
    seconds:
        Simulated wall-clock (makespan over threads).
    busy_cycles / stall_cycles:
        Per-thread compute cycles and wait cycles (port + line waits).
    atomic_conflicts:
        Flushes that found their cache line locked by another thread.
    events_executed:
        Total events replayed.
    """

    seconds: float
    busy_cycles: np.ndarray
    stall_cycles: np.ndarray
    atomic_conflicts: int
    events_executed: int

    @property
    def makespan_cycles(self) -> float:
        return float((self.busy_cycles + self.stall_cycles).max())

    def mean_utilization(self) -> float:
        """Busy fraction averaged over threads."""
        total = self.busy_cycles + self.stall_cycles
        ok = total > 0
        if not ok.any():
            return 1.0
        return float((self.busy_cycles[ok] / total[ok]).mean())


class _EventCosts:
    """Per-event compute cycles and memory-access latencies (shared with
    the analytic model through the same constants and latency function)."""

    def __init__(
        self,
        w: Workload,
        spec: CPUSpec,
        opt: SimExecOptions,
        con: ModelConstants,
        threads_per_core: float,
    ):
        issue = spec.issue_width
        probes = max(w.linear_probes_per_lookup, 2.0)
        if w.collisions_pp > 0:
            lookups_per_coll = w.lookups_pp / w.collisions_pp
        else:
            lookups_per_coll = 2.0  # never executed, but keep costs finite
        self.compute = {
            int(EventKind.COLLISION): (
                con.collision_alu_ops
                + lookups_per_coll * (con.lookup_alu_ops + probes * con.probe_alu_ops)
            ) / issue,
            int(EventKind.FACET): con.facet_alu_ops / issue,
            int(EventKind.CENSUS): con.census_alu_ops / issue,
        }

        def lat(ws, adjacent, remote):
            return random_access_latency_cycles(
                spec,
                ws,
                threads_per_core=threads_per_core,
                adjacent_fraction=adjacent,
                numa_remote_fraction=remote,
                use_fast_memory=opt.use_fast_memory,
                shared_capacity_scale=con.op_shared_capacity_scale,
            )

        mesh_bytes = w.mesh_bytes()
        self.mesh_latency = {
            remote: lat(mesh_bytes, con.density_adjacent_fraction, 1.0 if remote else 0.0)
            for remote in (False, True)
        }
        self.table_latency = {
            remote: lat(w.xs_table_bytes, 0.0, 1.0 if remote else 0.0)
            for remote in (False, True)
        }
        self.atomic_cycles = spec.atomic_latency_cycles


def simulate_execution(
    trace: EventTrace,
    workload: Workload,
    spec: CPUSpec,
    options: SimExecOptions,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> SimExecResult:
    """Replay the trace on ``options.nthreads`` virtual threads.

    Returns the simulated wall-clock and the per-thread accounting.
    """
    nthreads = options.nthreads
    if nthreads < 1:
        raise ValueError("need at least one thread")
    placement = place_threads(
        nthreads, spec.sockets, spec.cores_per_socket, spec.smt_per_core,
        options.affinity,
    )

    # thread -> (core, socket): replay placement in slot order.
    core_of_thread = np.zeros(nthreads, dtype=np.int64)
    cursor = 0
    for core, count in enumerate(placement.per_core):
        for _ in range(int(count)):
            core_of_thread[cursor] = core
            cursor += 1
    socket_of_thread = core_of_thread // spec.cores_per_socket

    mlp = constants.mem_concurrency_for(spec.name)
    costs = _EventCosts(
        workload, spec, options, constants, placement.threads_per_core
    )

    # --- work distribution -------------------------------------------------
    n = trace.nhistories
    if options.schedule is ScheduleKind.STATIC:
        bounds = np.linspace(0, n, nthreads + 1).astype(np.int64)
        queues = [
            deque(range(bounds[t], bounds[t + 1])) for t in range(nthreads)
        ]
        shared: list[int] = []
    else:
        queues = [deque() for _ in range(nthreads)]
        shared = list(range(n))

    # --- resources ----------------------------------------------------------
    core_port_time: dict[int, float] = {}
    line_busy_until: dict[int, float] = {}
    busy = np.zeros(nthreads)
    stall = np.zeros(nthreads)
    # Launch skew: threads leave the parallel-region barrier staggered.
    clock = np.arange(nthreads, dtype=np.float64) * options.start_stagger_cycles
    conflicts = 0
    executed = 0
    next_shared = 0

    # Deterministic per-event timing noise (see SimExecOptions.jitter):
    # a multiplicative Weyl-sequence hash in [1-j, 1+j], applied to the
    # whole event duration (compute *and* memory) — cache-hit variation,
    # prefetch timing and DRAM scheduling perturb the memory part at least
    # as much as the ALU part.
    jitter = options.jitter
    _phase = [0] * nthreads

    def _jitter_factor(t: int) -> float:
        if jitter <= 0.0:
            return 1.0
        _phase[t] = (_phase[t] + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        frac = ((_phase[t] ^ (t * 0x517CC1B7)) >> 40) / float(1 << 24)
        return 1.0 - jitter + 2.0 * jitter * frac

    def memory_access(t: int, latency: float) -> None:
        nonlocal conflicts
        latency = latency * _jitter_factor(t)
        core = int(core_of_thread[t])
        start = max(clock[t], core_port_time.get(core, 0.0))
        stall[t] += start - clock[t]
        core_port_time[core] = start + latency / mlp
        stall[t] += latency
        clock[t] = start + latency

    privatized = options.privatized_tally
    store_fraction = constants.privatized_store_cost_fraction

    def flush(t: int, cell: int, latency: float) -> None:
        nonlocal conflicts
        latency = latency * _jitter_factor(t)
        core = int(core_of_thread[t])
        if privatized:
            # Plain store into the private copy: port-paced, no line lock,
            # and the write buffer hides part of the line fill.
            latency = latency * store_fraction
            start = max(clock[t], core_port_time.get(core, 0.0))
            stall[t] += start - clock[t] + latency
            core_port_time[core] = start + latency / mlp
            clock[t] = start + latency
            return
        start = max(clock[t], core_port_time.get(core, 0.0))
        line = cell // CELLS_PER_LINE
        held = line_busy_until.get(line, 0.0)
        if held > start:
            conflicts += 1
            start = held
        stall[t] += start - clock[t]
        core_port_time[core] = start + latency / mlp
        end = start + latency + costs.atomic_cycles
        line_busy_until[line] = end
        stall[t] += latency + costs.atomic_cycles
        clock[t] = end

    def run_event(t: int, kind: int, cell: int, remote: bool) -> None:
        nonlocal executed
        work = costs.compute[kind] * _jitter_factor(t)
        busy[t] += work
        clock[t] += work
        if kind == int(EventKind.COLLISION):
            memory_access(t, costs.table_latency[remote])
        elif kind == int(EventKind.FACET):
            mesh_lat = costs.mesh_latency[remote]
            memory_access(t, mesh_lat)  # destination density read
            flush(t, cell, mesh_lat)  # tally RMW
        else:  # census
            flush(t, cell, costs.mesh_latency[remote])
        executed += 1

    # --- main loop: ONE event per heap pop, so threads genuinely interleave
    # on the shared resources — whole-history granularity would let one
    # thread reserve the core's memory port arbitrarily far ahead.
    thread_remote = [bool(socket_of_thread[t] != 0) for t in range(nthreads)]
    current: list[tuple | None] = [None] * nthreads  # (kinds, cells, idx)

    def acquire_work(t: int) -> bool:
        nonlocal next_shared
        if queues[t]:
            # deque.popleft() is O(1); a list.pop(0) here is O(n) and turns
            # the replay into O(total_events × histories) on long traces.
            kinds, cells = trace.histories[queues[t].popleft()]
            current[t] = (kinds, cells, 0)
            return True
        if shared and next_shared < len(shared):
            take = shared[next_shared: next_shared + options.chunk]
            next_shared += options.chunk
            queues[t].extend(take[1:])
            kinds, cells = trace.histories[take[0]]
            current[t] = (kinds, cells, 0)
            return True
        return False

    heap = [(clock[t], t) for t in range(nthreads)]
    heapq.heapify(heap)
    while heap:
        _, t = heapq.heappop(heap)
        if current[t] is None and not acquire_work(t):
            continue
        kinds, cells, idx = current[t]
        run_event(t, int(kinds[idx]), int(cells[idx]), thread_remote[t])
        idx += 1
        current[t] = (kinds, cells, idx) if idx < kinds.size else None
        heapq.heappush(heap, (clock[t], t))

    makespan = float(clock.max()) if nthreads else 0.0
    return SimExecResult(
        seconds=makespan / (spec.clock_ghz * 1.0e9),
        busy_cycles=busy,
        stall_cycles=stall,
        atomic_conflicts=conflicts,
        events_executed=executed,
    )
