"""Real on-node parallel execution: a fault-tolerant shared-memory pool.

Everything else in :mod:`repro.parallel` *models* the paper's OpenMP
machinery; this module runs it for real.  A replica set (one config per
replica, a plain run being ``(config,)``) is sharded across
``multiprocessing`` worker processes and each shard runs the census
stepper with its replicas' books — the Python analogue of the paper's §VI
particle loop.  :func:`run_pool` and a pooled
:func:`repro.ensemble.run_ensemble` both launch through
:func:`run_sharded`: one shard body, one dispatcher, one reduce.

* ``ScheduleKind.STATIC`` carves the population into ``nworkers``
  contiguous blocks (OpenMP's default static schedule); each block is one
  *shard* owned by one worker.
* ``ScheduleKind.DYNAMIC`` pre-fills a shared queue with ``chunk``-unit
  shards and idle workers pull the next one (``schedule(dynamic, chunk)``);
* shards are cut on units: histories of one replica, or whole replicas
  (a shard never splits a replica of an ensemble);
* each worker accumulates a **private** :class:`EnergyDepositionTally` and
  private :class:`Counters` per shard, reduced by the parent in shard-id
  order — the §VI-F tally-privatisation pattern, for real this time.

Zero-copy shard hand-off.  The parent samples the population into one
:class:`~repro.particles.arena.ParticleArena` and re-homes it into a
``multiprocessing.shared_memory`` block; each worker receives only the
tiny ``(shm_name, n_total)`` handle and attaches a zero-copy view — shard
tasks stay ``(shard_id, attempt, lo, hi)`` tuples, so the per-shard
payload shipped to a worker is a few dozen bytes instead of a pickled
``list[Particle]``.  A worker *copies* its ``[lo, hi)`` slice before
running the driver (drivers advance state in place), which keeps the
shared slice pristine: a retried shard re-attaches the very same bytes
and re-executes bit-identically.  The parent owns the segment's lifetime
and unlinks it after the reduction.

Fault tolerance.  A long campaign must survive partial executor failure
(cf. DESIGN.md §4c "Failure model and recovery").  The parent runs a
watchdog loop that detects

* **dead workers** via ``Process.exitcode``,
* **hung workers** via heartbeat age (each worker beats a shared
  timestamp array from a daemon thread) and via a per-shard timeout
  measured from the worker's shard-start announcement;

a shard lost with its worker (or failed with an exception) is re-enqueued
with a bounded per-shard retry budget, and the worker slot is respawned
under a pool-wide respawn budget.  When a shard exhausts its retries, or
no worker can be respawned for stranded work, the pool **degrades
gracefully**: remaining shards are drained in-process by the
parent and the run completes with ``PoolRunInfo.degraded`` set instead of
raising.  Every failure path is reproducible through the deterministic
:class:`~repro.parallel.faults.FaultPlan` injection harness threaded
through :class:`PoolOptions`.

Determinism.  Every history owns a counter-based RNG stream keyed on its
``particle_id`` (:mod:`repro.rng.stream`), and fission secondaries / VR
clones derive their identity from the parent's state alone — so a history
evolves bit-identically no matter which worker runs it, which chunk it
arrives in, *or how many times its shard is retried*.  Consequently a run
that lost and re-executed shards produces the *same final particle states*
as an undisturbed run, and private tallies reduced in shard-id order make
the tally independent of worker scheduling too.  A plain run's merged
population is returned sorted by ``particle_id`` (primaries first, in
birth order), an order independent of the worker count, so ``nworkers=4``
and ``nworkers=1`` results compare bit-for-bit; an ensemble's is the
shards' populations in shard order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, SimulationConfig
from repro.core.counters import Counters
from repro.obs.live import FlightSpiller, LiveBoard, load_flight_dump
from repro.obs.spans import NULL_RECORDER, Recorder
from repro.parallel.faults import KILLED_EXIT_CODE, FaultInjected, FaultPlan
from repro.parallel.schedule import ScheduleKind
from repro.particles.source import sample_source

__all__ = ["PoolOptions", "WorkerReport", "PoolRunInfo", "run_pool",
           "run_sharded"]

#: Sentinel worker id for shards the parent drained in-process
#: (degraded mode); shows up as its own :class:`WorkerReport`.
PARENT_WORKER_ID = -1

#: Watchdog re-enqueues apparently lost-in-transit shards after this many
#: seconds of total silence with every worker idle (safety net against a
#: worker dying between pulling a task and announcing it).
_STALL_WINDOW_S = 5.0

#: Parent watchdog polling granularity (seconds).
_POLL_S = 0.05

#: A worker slot's work tally before (or without) any shard.
_IDLE = {"histories": 0, "final": 0, "events": 0, "chunks": 0,
         "busy_s": 0.0, "total_s": 0.0}


@dataclass(frozen=True)
class PoolOptions:
    """Worker-pool configuration.

    Attributes
    ----------
    nworkers:
        Worker process count; 1 runs the sharded path in-process (no
        fork), which is the reference the parity suite compares against.
    schedule:
        ``STATIC`` (contiguous blocks) or ``DYNAMIC`` (shared chunk
        queue); the other :class:`ScheduleKind` members describe
        simulated-only policies and are rejected.
    chunk:
        Units per DYNAMIC shard: histories for a plain run, replicas for
        an ensemble.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` where
        available (cheap on Linux) and falls back to ``spawn``.  Unknown
        names are rejected here rather than deep inside
        ``multiprocessing``.
    max_retries:
        Per-shard retry budget.  A shard whose worker died, hung, or
        raised is re-enqueued up to this many times; past it the shard is
        drained in-process and the run is flagged degraded.
    shard_timeout:
        Seconds a single shard may run before its worker is declared hung
        and terminated (``None`` disables the per-shard watchdog).
    max_worker_respawns:
        Pool-wide budget of replacement worker processes.  Once spent,
        further worker deaths leave the slot dead; work that nobody can
        run any more is drained in-process (degraded mode).
    heartbeat_interval:
        Seconds between worker heartbeats.
    heartbeat_timeout:
        Heartbeat age past which a worker *executing a shard* is declared
        hung (``None`` disables heartbeat-age detection).  Must exceed
        ``heartbeat_interval``.
    fault_plan:
        Deterministic fault injection (tests/demos); requires
        ``nworkers >= 2`` because faults run inside worker processes.
    rebalance:
        DYNAMIC-only work rebalancing.  Instead of pre-filling the
        shared queue, the parent holds a *reserve* of shards, feeds one
        per completed shard, and — when a worker has been stuck on one
        shard longer than ``rebalance_threshold`` seconds — splits the
        largest reserve shard in two so the remaining work drains in
        finer grains around the straggler.  Physics is unaffected
        (shards always partition the population on unit boundaries).
    rebalance_threshold:
        In-flight shard age (seconds) that triggers a reserve split.
    flight_dir:
        Directory for worker flight-recorder dumps (bounded tails of each
        worker's live span/event buffer, spilled from the heartbeat
        thread).  Only used when a recorder is attached to the run.
        ``None`` (the default) uses a private temporary directory that is
        removed at shutdown; an explicit path is created if needed and
        left in place, so post-mortems can inspect raw dumps.
    """

    nworkers: int
    schedule: ScheduleKind = ScheduleKind.STATIC
    chunk: int = 64
    start_method: str | None = None
    max_retries: int = 2
    shard_timeout: float | None = None
    max_worker_respawns: int = 3
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float | None = None
    fault_plan: FaultPlan | None = None
    rebalance: bool = False
    rebalance_threshold: float = 1.0
    flight_dir: str | None = None

    def __post_init__(self) -> None:
        if self.nworkers < 1:
            raise ValueError("need at least one worker")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.schedule not in (ScheduleKind.STATIC, ScheduleKind.DYNAMIC):
            raise ValueError(
                "the worker pool executes STATIC or DYNAMIC schedules; "
                f"{self.schedule} is a simulation-only policy"
            )
        if self.start_method is not None:
            known = mp.get_all_start_methods()
            if self.start_method not in known:
                raise ValueError(
                    f"unknown start method {self.start_method!r}; "
                    f"this platform supports: {', '.join(known)}"
                )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_worker_respawns < 0:
            raise ValueError("max_worker_respawns must be >= 0")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if (
            self.heartbeat_timeout is not None
            and self.heartbeat_timeout <= self.heartbeat_interval
        ):
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if self.fault_plan is not None and self.fault_plan and self.nworkers < 2:
            raise ValueError(
                "fault injection targets worker processes; nworkers must "
                "be >= 2 for a non-empty fault_plan"
            )
        if self.rebalance and self.schedule is not ScheduleKind.DYNAMIC:
            raise ValueError(
                "rebalance needs the DYNAMIC schedule (STATIC shards are "
                "owned by fixed workers and cannot be resplit)"
            )
        if self.rebalance_threshold <= 0:
            raise ValueError("rebalance_threshold must be positive")


@dataclass(frozen=True)
class WorkerReport:
    """What one worker slot did — the measured analogue of a thread's busy
    time, aggregated over every incarnation that occupied the slot.

    Attributes
    ----------
    worker_id:
        Slot index (``-1`` is the parent's in-process degraded drain).
    histories:
        Primary histories this slot completed.
    final_histories:
        Histories returned, including fission secondaries and clones.
    events:
        Transport events (collisions + facets + census) executed.
    chunks:
        Shards completed (1 per STATIC block; queue pulls for DYNAMIC).
    busy_s:
        Wall-clock spent inside the transport drivers.
    total_s:
        Slot lifetime (sum over incarnations) including queue waits.
    incarnations:
        Processes that occupied the slot (1 + respawns of this slot).
    last_heartbeat_age_s:
        Age of the slot's heartbeat when the dispatch loop finished —
        near ``heartbeat_interval`` for a healthy worker, large for one
        that hung or died (0 for the parent's in-process drain and the
        ``nworkers == 1`` path, which have no heartbeat).
    """

    worker_id: int
    histories: int
    final_histories: int
    events: int
    chunks: int
    busy_s: float
    total_s: float
    incarnations: int = 1
    last_heartbeat_age_s: float = 0.0


@dataclass(frozen=True)
class PoolRunInfo:
    """Per-worker accounting of one pooled run (CLI / bench reporting).

    Besides the per-slot reports this carries the recovery ledger: how
    many shards were retried, how many workers were lost and respawned,
    and whether the pool had to degrade to in-process draining.
    """

    nworkers: int
    schedule: ScheduleKind
    chunk: int
    start_method: str
    workers: tuple[WorkerReport, ...]
    #: Shard re-enqueues after a worker death, hang, or shard exception.
    retries: int = 0
    #: Reserve-shard splits performed by the DYNAMIC rebalancer.
    rebalances: int = 0
    #: Replacement worker processes spawned.
    respawns: int = 0
    #: Worker processes lost (died, hung, or injected-killed).
    workers_lost: int = 0
    #: ``True`` when the pool fell back to in-process draining.
    degraded: bool = False
    #: Why the pool degraded (empty when it did not).
    degraded_reason: str = ""
    #: Shards the parent executed in-process under degraded mode.
    shards_drained_in_process: int = 0
    #: Retry attempts charged per shard id (0 = succeeded first try).
    shard_attempts: tuple[int, ...] = ()

    def _imbalance(self, values: np.ndarray) -> float:
        mean = values.mean() if values.size else 0.0
        if mean == 0:
            return 1.0
        return float(values.max() / mean)

    def event_imbalance(self) -> float:
        """``max/mean`` of per-worker executed events — the measured
        counterpart of :meth:`ScheduleOutcome.load_imbalance`."""
        return self._imbalance(
            np.array([w.events for w in self.workers], dtype=np.float64)
        )

    def busy_imbalance(self) -> float:
        """``max/mean`` of per-worker driver wall-clock."""
        return self._imbalance(
            np.array([w.busy_s for w in self.workers], dtype=np.float64)
        )

    def chunks_dispatched(self) -> int:
        """Total shards completed across the pool (including drained)."""
        return sum(w.chunks for w in self.workers)

    def recovered(self) -> bool:
        """True when any fault-tolerance machinery engaged."""
        return bool(self.retries or self.respawns or self.workers_lost
                    or self.degraded)


# ---------------------------------------------------------------------------
# Shard execution (runs inside workers; in-process when nworkers == 1)
# ---------------------------------------------------------------------------

def _run_ranges(members, bounds, scheme, population, ranges, recorder=None,
                probe=None):
    """The one shard body (worker, in-process path and degraded drain):
    run the replica set over each ``(lo, hi)`` unit range.

    Replica ``r`` of ``members`` owns rows ``[bounds[r], bounds[r + 1])``
    of ``population``; a unit is a history when there is one replica and
    a whole replica otherwise, so an ensemble range covers whole replicas
    by construction.  Each range runs as a *copy* of its zero-copy view
    (the population is never mutated, so a retry re-executes from
    identical bytes) through the census stepper with
    :class:`~repro.core.books.ReplicaBooks` over its replicas, into one
    private tally (an ensemble range's own tally is merged into it) and
    counter set, in range order.  Returns what the reduction needs, with
    each replica's ``(counters, tally)`` for an ensemble.  ``recorder``
    and ``probe`` (committed per range) never alter the physics, and
    ``scheme`` may be any :class:`Scheme`, ``AUTO`` (a live scheduler per
    range) or a :class:`~repro.core.stepper.SwitchPlan` — switching is
    physics-bit-identical per history, so retries stay reproducible.
    """
    from repro.core.books import ReplicaBooks
    from repro.core.stepper import run_stepped

    base = members[0]
    fused = len(members) > 1
    tally = base.build_tally()
    counters = Counters()
    arenas = []
    books = {}
    busy = 0.0
    histories = 0
    for lo, hi in ranges:
        r0, r1, a, b = (
            (lo, hi, bounds[lo], bounds[hi]) if fused else (0, 1, lo, hi)
        )
        view = population.view(a, b).copy()
        range_books = ReplicaBooks(
            members[r0:r1],
            view.replica_id - r0 if fused else np.zeros(b - a, np.int64),
            base.build_tally, None if fused else tally,
        )
        r = run_stepped(
            base, scheme, arena=view, books=range_books, recorder=recorder,
            probe=probe,
        )
        if probe is not None and probe.enabled:
            probe.commit_shard(r.counters, b - a)
        if fused:  # replica tallies never alias the shard's running tally
            tally.merge(range_books.tally)
            books.update(zip(
                range(r0, r1), zip(range_books.counters, range_books.tallies)
            ))
        arenas.append(r.arena)
        counters.merge_disjoint(r.counters)
        busy += r.wallclock_s
        histories += b - a
    arenas[0].extend(*arenas[1:])
    return {
        "tally": tally,
        "counters": counters,
        "arena": arenas[0],
        "books": books,
        "busy_s": busy,
        "histories": histories,
        "chunks": len(ranges),
    }


def _beat(heartbeats, worker_id, stop, interval, spiller=None):
    """Heartbeat daemon thread: stamp a shared timestamp until stopped.

    The flight recorder rides along: each beat also gives the spiller a
    chance to refresh the on-disk dump of the worker's recent
    spans/events, so a sudden death leaves a recent tail behind."""
    while not stop.wait(interval):
        heartbeats[worker_id] = time.monotonic()
        if spiller is not None:
            spiller.maybe_spill()


def _hard_exit(result_queue):
    """Injected crash: flush shipped messages, then die without cleanup."""
    result_queue.close()
    result_queue.join_thread()
    os._exit(KILLED_EXIT_CODE)


def _worker_main(worker_id, incarnation, members, bounds, scheme,
                 arena_cls, handle, task_queue, result_queue, heartbeats,
                 plan, hb_interval, telemetry=False, board=None,
                 flight_dir=None):
    """Worker process entry point: pull shards, announce, run, ship.

    ``handle`` is the population hand-off — the ``(shm_name, n_total)``
    tuple naming the parent's shared-memory arena, attached once as a
    zero-copy ``arena_cls`` view (a few dozen bytes crossed the process
    boundary, not a pickled particle list); every shard task addresses a
    ``[lo, hi)`` unit range of it.  The attached bytes are never written —
    :func:`_run_ranges` copies each slice before running — so a retried
    shard, on this worker or a respawned one, re-reads identical state.

    Must stay importable at module level for ``spawn``.  Consults the
    fault plan at its deterministic injection points: clean/mid-shard
    kills keyed on (worker, incarnation, chunks done), delays and raises
    keyed on (shard, attempt), heartbeat suppression keyed on (worker,
    incarnation).

    With ``telemetry`` on, each shard gets a fresh worker-side
    :class:`~repro.obs.spans.Recorder` tagged ``(worker, incarnation,
    shard, attempt)`` whose buffered spans/events ship back inside the
    shard's result message.  Only *successful* attempts ship telemetry —
    failed attempts are covered by the parent's recovery events — so the
    merged log depends only on which attempt finally ran each shard,
    which the deterministic fault plan fixes.

    ``board`` (a :class:`repro.obs.live.LiveBoard`) is the live-plane
    sink: a probe publishes this worker's monotonic counter totals into
    its shared row, sampled by the parent on the heartbeat cadence.
    ``flight_dir`` enables the flight recorder: the current shard's
    recorder tail is spilled there from the heartbeat thread (and
    immediately on shard start, so even an instant kill leaves a dump);
    the dump is removed once the shard's result ships, because the
    shipped payload supersedes it.
    """
    stop = threading.Event()
    heartbeats[worker_id] = time.monotonic()
    probe = board.probe(worker_id) if board is not None else None
    spiller = None
    if telemetry and flight_dir is not None:
        spiller = FlightSpiller(os.path.join(
            flight_dir, f"flight_w{worker_id}_i{incarnation}.json"
        ))
    if not plan.drops_heartbeat(worker_id, incarnation):
        threading.Thread(
            target=_beat,
            args=(heartbeats, worker_id, stop, hb_interval, spiller),
            daemon=True,
        ).start()
    kill = plan.kill_for(worker_id, incarnation)
    population = arena_cls.attach(*handle)
    chunks_done = 0
    try:
        while True:
            if (kill is not None and not kill.mid_shard
                    and chunks_done >= kill.after_chunks):
                _hard_exit(result_queue)
            task = task_queue.get()
            if task is None:
                return
            shard_id, attempt, lo, hi = task
            result_queue.put({
                "type": "start", "worker_id": worker_id,
                "incarnation": incarnation, "shard": shard_id,
                "attempt": attempt,
            })
            wrec = None
            if telemetry:
                wrec = Recorder(source={
                    "worker": worker_id, "incarnation": incarnation,
                    "shard": shard_id, "attempt": attempt,
                })
                wrec.event("shard_start", shard=shard_id, attempt=attempt)
                if spiller is not None:
                    # Bind (and force-spill) before the injected kill /
                    # delay below: even a worker killed the instant it
                    # starts a shard leaves a flight dump behind.
                    spiller.bind(wrec)
            if (kill is not None and kill.mid_shard
                    and chunks_done >= kill.after_chunks):
                _hard_exit(result_queue)
            delay = plan.delay_for(shard_id, attempt)
            if delay is not None:
                time.sleep(delay.seconds)
            try:
                injected = plan.raise_for(shard_id, attempt)
                if injected is not None:
                    raise FaultInjected(injected.message)
                out = _run_ranges(
                    members, bounds, scheme, population, [(lo, hi)],
                    recorder=wrec, probe=probe,
                )
            except Exception:
                result_queue.put({
                    "type": "error", "worker_id": worker_id,
                    "incarnation": incarnation, "shard": shard_id,
                    "attempt": attempt, "error": traceback.format_exc(),
                })
            else:
                out.update(
                    type="result", worker_id=worker_id,
                    incarnation=incarnation, shard=shard_id, attempt=attempt,
                )
                if wrec is not None:
                    wrec.event("shard_done", shard=shard_id, attempt=attempt)
                    out["telemetry"] = wrec.payload()
                if spiller is not None:
                    # The shipped payload supersedes the flight dump;
                    # merging both would duplicate this shard's spans.
                    spiller.clear()
                result_queue.put(out)
            chunks_done += 1
    finally:
        stop.set()
        population.close()


# ---------------------------------------------------------------------------
# Parent: shard, dispatch, watch, recover, reduce
# ---------------------------------------------------------------------------

def _pick_context(options: PoolOptions):
    if options.start_method is not None:
        return mp.get_context(options.start_method)
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _build_shards(members, bounds, options):
    """The unit-of-recovery work list: a ``(lo, hi)`` unit range (see
    :func:`_run_ranges`) per shard id.

    STATIC shards are the per-worker contiguous blocks (empty ones
    dropped); DYNAMIC shards are the chunk queue entries.
    """
    n = len(members) if len(members) > 1 else bounds[-1]
    if options.schedule is ScheduleKind.STATIC:
        edges = np.linspace(0, n, options.nworkers + 1).astype(np.int64)
        return [
            (int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]) if hi > lo
        ]
    return [(lo, min(lo + options.chunk, n)) for lo in range(0, n, options.chunk)]


class _Slot:
    """Parent-side ledger for one worker slot across incarnations."""

    __slots__ = ("worker_id", "proc", "incarnation", "queue", "current",
                 "spawn_t", "lifetime_s", "dead")

    def __init__(self, worker_id, task_queue):
        self.worker_id = worker_id
        self.proc = None
        self.incarnation = -1
        self.queue = task_queue
        #: (shard_id, attempt, parent-monotonic start) while mid-shard.
        self.current = None
        self.spawn_t = 0.0
        self.lifetime_s = 0.0
        self.dead = False

    @property
    def live(self):
        return self.proc is not None and not self.dead


class _Ledger:
    """The recovery ledger :func:`_reduce` folds into :class:`PoolRunInfo`:
    worker slots, final heartbeat ages, retries, rebalances, respawns,
    lost workers, the degraded drain and per-shard attempts.  Empty for
    the in-process path; :class:`_Dispatcher` keeps it for a pooled run.
    """

    def __init__(self, nshards):
        self.slots: list[_Slot] = []
        self.final_heartbeat_ages: dict[int, float] = {}
        self.attempts = [0] * nshards
        self.retries = 0
        self.rebalances = 0
        self.respawns = 0
        self.workers_lost = 0
        self.drained = 0
        self.degraded = False
        self.degraded_reason = ""


class _Dispatcher(_Ledger):
    """The watchdog loop: dispatch shards, detect failures, recover.

    One instance per :func:`run_sharded` call with ``nworkers > 1``.  The
    public surface is :meth:`run`, returning per-shard payloads; the
    recovery ledger it keeps is folded into :class:`PoolRunInfo` by
    :func:`_reduce`.
    """

    def __init__(self, members, bounds, scheme, population, shards, options,
                 ctx, recorder=None, live=None):
        super().__init__(len(shards))
        self.members = members
        self.bounds = bounds
        self.scheme = scheme
        #: Shared-memory arena (created by run_sharded, unlinked by it too).
        self.population = population
        #: The whole hand-off a worker needs: attach-by-name + size.
        self.handle = (population.shm_name, len(population))
        self.shards = shards
        self.options = options
        self.ctx = ctx
        self.rec = NULL_RECORDER if recorder is None else recorder
        self.static = options.schedule is ScheduleKind.STATIC
        self.nslots = (
            len(shards) if self.static else min(options.nworkers, len(shards))
        )
        self.plan = options.fault_plan or FaultPlan()
        self.result_queue = ctx.Queue()
        self.heartbeats = ctx.Array("d", max(self.nslots, 1))
        self.pending = set(range(len(shards)))
        self.results = {}
        #: Shard ids held back from the queue by the rebalancer, in
        #: dispatch order (DYNAMIC + options.rebalance only).
        self.reserve: list[int] = []
        #: (worker_id, shard, attempt) triples that already triggered a
        #: split — one split per stuck in-flight shard.
        self._split_done: set = set()
        self.last_progress = time.monotonic()
        self._last_hb_sample = time.monotonic()
        #: Live plane (repro.obs.live.LiveAggregator) and the shared
        #: stats board workers publish to; both None when the plane is
        #: off — zero overhead, like the null recorder.
        self.live = live
        self.board = (
            LiveBoard.allocate(ctx, self.nslots) if live is not None else None
        )
        self._parent_probe = None
        #: Flight-recorder directory.  Owned (created + removed here)
        #: when the options leave it unset; an explicit directory is
        #: created if needed and left behind for post-mortems.
        self.flight_dir = None
        self._flight_owned = False
        self._flight_merged: set[tuple[int, int]] = set()
        if self.rec.enabled:
            if options.flight_dir is not None:
                self.flight_dir = options.flight_dir
                os.makedirs(self.flight_dir, exist_ok=True)
            else:
                self.flight_dir = tempfile.mkdtemp(prefix="repro-flight-")
                self._flight_owned = True

    # -- lifecycle ------------------------------------------------------
    def run(self):
        if self.static:  # one private queue per shard's owner slot
            self.slots = [_Slot(w, self.ctx.Queue()) for w in range(self.nslots)]
        else:
            shared = self.ctx.Queue()
            self.slots = [_Slot(w, shared) for w in range(self.nslots)]
        # Reserve feeding (rebalance): prime one shard per slot and hold
        # the rest back so stragglers can trigger finer resplits.
        primed = self.nslots if self.options.rebalance else len(self.shards)
        self.reserve = list(range(primed, len(self.shards)))
        for sid in range(primed):
            self._enqueue(sid, 0)
        try:
            for slot in self.slots:
                self._spawn(slot)
            self._watch()
            now = time.monotonic()
            self.final_heartbeat_ages = {
                slot.worker_id: max(0.0, now - self.heartbeats[slot.worker_id])
                for slot in self.slots
            }
            # Final live sample: sub-second runs may never hit the
            # periodic cadence, but the snapshot should still report the
            # completed totals off the board.
            if self.live is not None:
                self._sample_live(now, record_events=False)
        finally:
            self._shutdown()
        return self.results

    def _spawn(self, slot):
        slot.incarnation += 1
        slot.spawn_t = time.monotonic()
        self.heartbeats[slot.worker_id] = slot.spawn_t
        slot.proc = self.ctx.Process(
            target=_worker_main,
            args=(
                slot.worker_id, slot.incarnation, self.members, self.bounds,
                self.scheme, type(self.population), self.handle, slot.queue,
                self.result_queue,
                self.heartbeats, self.plan, self.options.heartbeat_interval,
                self.rec.enabled, self.board, self.flight_dir,
            ),
            daemon=True,
        )
        slot.proc.start()

    # -- main loop ------------------------------------------------------
    def _watch(self):
        opts = self.options
        while self.pending:
            if self._drain_messages():
                self.last_progress = time.monotonic()
            if not self.pending:
                return
            now = time.monotonic()
            if ((self.rec.enabled or self.live is not None)
                    and now - self._last_hb_sample >= 1.0):
                self._last_hb_sample = now
                self._sample_live(now)
            for slot in self.slots:
                if not slot.live:
                    continue
                reason = None
                if slot.proc.exitcode is not None:
                    reason = (
                        f"worker {slot.worker_id} died "
                        f"(exit code {slot.proc.exitcode})"
                    )
                elif slot.current is not None:
                    sid, _, started = slot.current
                    if (opts.shard_timeout is not None
                            and now - started > opts.shard_timeout):
                        reason = (
                            f"worker {slot.worker_id} exceeded the "
                            f"{opts.shard_timeout:g}s shard timeout on "
                            f"shard {sid}"
                        )
                    elif (opts.heartbeat_timeout is not None
                          and now - self.heartbeats[slot.worker_id]
                          > opts.heartbeat_timeout):
                        reason = (
                            f"worker {slot.worker_id} heartbeat older than "
                            f"{opts.heartbeat_timeout:g}s on shard {sid}"
                        )
                if reason is not None:
                    self._recover_worker(slot, reason)
            self._maybe_rebalance(now)
            if self.pending and not any(s.live for s in self.slots):
                self._drain_in_process(
                    set(self.pending), "no live workers remain"
                )
            elif (self.pending
                  and now - self.last_progress > _STALL_WINDOW_S
                  and all(s.current is None for s in self.slots if s.live)):
                # Safety net: a task was pulled but never announced (its
                # worker died in the hand-off window).  Re-enqueue without
                # charging the retry budget; duplicates are deduplicated
                # on arrival.
                for sid in sorted(self.pending):
                    self._enqueue(sid, self.attempts[sid])
                self.last_progress = now

    def _sample_live(self, now, record_events=True):
        """One sampling pass on the ~1 s heartbeat cadence: heartbeat-age
        events into the recorder (the PR 5 behaviour) and, when the live
        plane is on, each worker's stats-board row plus the recovery
        ledger folded into the aggregator."""
        for slot in self.slots:
            if not slot.live:
                continue
            age = max(0.0, now - self.heartbeats[slot.worker_id])
            if self.rec.enabled and record_events:
                self.rec.event(
                    "heartbeat_age",
                    worker=slot.worker_id,
                    incarnation=slot.incarnation,
                    age_s=age,
                )
            if self.live is not None and self.board is not None:
                self.live.observe_worker(
                    slot.worker_id,
                    incarnation=slot.incarnation,
                    heartbeat_age_s=age,
                    **self.board.read(slot.worker_id),
                )
        if self.live is not None:
            self.live.update_recovery(
                retries=self.retries,
                rebalances=self.rebalances,
                respawns=self.respawns,
                workers_lost=self.workers_lost,
                degraded=self.degraded,
                degraded_reason=self.degraded_reason,
                shards_drained_in_process=self.drained,
            )

    def _drain_messages(self):
        """Pump the result queue; returns True when progress was made."""
        progress = False
        block = True
        while True:
            try:
                msg = self.result_queue.get(timeout=_POLL_S if block else 0)
            except queue_mod.Empty:
                return progress
            block = False
            progress = True
            slot = self.slots[msg["worker_id"]]
            stale = msg["incarnation"] != slot.incarnation
            if msg["type"] == "start":
                if not stale:
                    slot.current = (
                        msg["shard"], msg["attempt"], time.monotonic()
                    )
                continue
            if not stale:
                slot.current = None
            sid = msg["shard"]
            if sid not in self.pending:
                continue  # duplicate completion of a retried shard
            if msg["type"] == "result":
                self.results[sid] = msg
                self.pending.discard(sid)
                self._feed()
            elif stale:
                # Error shipped by an incarnation that has since been
                # reaped — _recover_worker already retried its shard;
                # retrying again here would double-charge the budget.
                continue
            else:  # per-shard exception, shipped by a live worker
                self._retry(
                    sid,
                    f"shard {sid} raised in worker {msg['worker_id']}:\n"
                    f"{msg['error']}",
                )

    # -- rebalancing ----------------------------------------------------
    def _feed(self) -> None:
        """Hand the next reserve shard to the shared queue (one per
        completed shard keeps roughly ``nslots`` shards in flight)."""
        if self.reserve:
            sid = self.reserve.pop(0)
            self._enqueue(sid, self.attempts[sid])

    def _maybe_rebalance(self, now) -> None:
        """Split the largest reserve shard when a worker is stuck.

        One split per stuck ``(worker, shard, attempt)`` triple: the
        straggler itself cannot be resplit (its histories are already
        in flight), but the remaining reserve drains in finer grains so
        the other workers stay busy around it.
        """
        if not (self.options.rebalance and self.reserve):
            return
        for slot in self.slots:
            if not slot.live or slot.current is None:
                continue
            sid, attempt, started = slot.current
            age = now - started
            if age <= self.options.rebalance_threshold:
                continue
            key = (slot.worker_id, sid, attempt)
            if key in self._split_done:
                continue
            self._split_done.add(key)
            self._split_reserve(slot.worker_id, sid, age)

    def _split_reserve(self, worker_id, stuck_sid, age) -> None:
        splittable = [
            s for s in self.reserve
            if self.shards[s][1] - self.shards[s][0] >= 2
        ]
        if not splittable:
            return
        victim = max(
            splittable, key=lambda s: self.shards[s][1] - self.shards[s][0]
        )
        lo, hi = self.shards[victim]
        mid = (lo + hi) // 2
        new_sid = len(self.shards)
        self.shards[victim] = (lo, mid)
        self.shards.append((mid, hi))
        self.attempts.append(0)
        self.pending.add(new_sid)
        self.reserve.insert(self.reserve.index(victim) + 1, new_sid)
        self.rebalances += 1
        self.rec.event(
            "rebalance", split_shard=victim, new_shard=new_sid,
            stuck_worker=worker_id, stuck_shard=stuck_sid,
            in_flight_s=round(age, 3),
        )

    # -- recovery -------------------------------------------------------
    def _recover_worker(self, slot, reason):
        """Terminate/reap a dead or hung worker, retry its shard, respawn."""
        self.workers_lost += 1
        self.rec.event(
            "worker_lost", worker=slot.worker_id,
            incarnation=slot.incarnation, reason=reason,
        )
        if slot.proc.is_alive():
            slot.proc.terminate()
        slot.proc.join(5.0)
        if slot.proc.is_alive():  # pragma: no cover - terminate refused
            slot.proc.kill()
            slot.proc.join(5.0)
        slot.lifetime_s += time.monotonic() - slot.spawn_t
        self._merge_flight(slot, reason)
        lost = slot.current
        slot.current = None
        slot.proc = None
        if self.respawns < self.options.max_worker_respawns and self.pending:
            self.respawns += 1
            self._spawn(slot)
            self.rec.event(
                "respawn", worker=slot.worker_id,
                incarnation=slot.incarnation,
            )
        else:
            slot.dead = True
        if lost is not None and lost[0] in self.pending:
            self._retry(lost[0], reason)
        if slot.dead and self.static:
            stranded = {
                sid for sid in self.pending
                if sid == slot.worker_id  # STATIC shard id == owner slot
            }
            if stranded:
                self._drain_in_process(
                    stranded,
                    f"{reason}; respawn budget "
                    f"({self.options.max_worker_respawns}) exhausted",
                )

    def _merge_flight(self, slot, reason):
        """Merge a lost worker's flight-recorder dump into the parent
        recorder (called after the worker is reaped, so the dump file is
        quiescent).  Best effort: a worker killed before its first spill
        completed simply leaves nothing to merge."""
        if self.flight_dir is None:
            return
        key = (slot.worker_id, slot.incarnation)
        if key in self._flight_merged:
            return
        self._flight_merged.add(key)
        path = os.path.join(
            self.flight_dir,
            f"flight_w{slot.worker_id}_i{slot.incarnation}.json",
        )
        payload = load_flight_dump(path)
        if payload is None:
            return
        self.rec.merge_payload(payload)
        self.rec.event(
            "flight_recorder",
            worker=slot.worker_id,
            incarnation=slot.incarnation,
            spans=len(payload.get("spans", ())),
            events=len(payload.get("events", ())),
            reason=reason.splitlines()[0],
        )

    def _live_probe(self):
        """The parent's own live probe (lazily built), used by the
        degraded in-process drain so drained shards still feed the
        plane."""
        if self.live is None:
            return None
        if self._parent_probe is None:
            self._parent_probe = self.live.probe(PARENT_WORKER_ID)
        return self._parent_probe

    def _retry(self, sid, reason):
        self.attempts[sid] += 1
        if self.attempts[sid] > self.options.max_retries:
            self._drain_in_process(
                {sid},
                f"shard {sid} exhausted its {self.options.max_retries} "
                f"retries ({reason.splitlines()[0]})",
            )
            return
        self.retries += 1
        self.rec.event(
            "retry", shard=sid, attempt=self.attempts[sid],
            reason=reason.splitlines()[0],
        )
        self._enqueue(sid, self.attempts[sid])

    def _enqueue(self, sid, attempt):
        lo, hi = self.shards[sid]
        target = self.slots[sid].queue if self.static else self.slots[0].queue
        target.put((sid, attempt, lo, hi))

    def _drain_in_process(self, sids, reason):
        """Degraded mode: the parent runs stranded shards itself.

        Fault injection does not apply here — the drain is the recovery
        of last resort and must complete (a *genuine* persistent error
        still propagates, after the shutdown cleanup).
        """
        if not self.degraded:
            self.rec.event("degraded", reason=reason)
        self.degraded = True
        if not self.degraded_reason:
            self.degraded_reason = reason
        for sid in sorted(sids):
            if sid not in self.pending:
                continue
            self.rec.event(
                "drain_in_process", shard=sid, attempt=self.attempts[sid],
            )
            t0 = time.perf_counter()
            out = _run_ranges(
                self.members, self.bounds, self.scheme, self.population,
                [self.shards[sid]],
                recorder=self.rec if self.rec.enabled else None,
                probe=self._live_probe(),
            )
            out.update(
                type="result", worker_id=PARENT_WORKER_ID,
                incarnation=0, shard=sid, attempt=self.attempts[sid],
                total_s=time.perf_counter() - t0,
            )
            self.results[sid] = out
            self.pending.discard(sid)
            self.drained += 1
            self._feed()
        self.last_progress = time.monotonic()

    # -- teardown -------------------------------------------------------
    def _shutdown(self):
        """Stop every worker, no matter how the dispatch loop exited.

        This is ``finally``-scoped from :meth:`run` so a parent-side
        exception can never leak live children.
        """
        live = [s for s in self.slots if s.live]
        for slot in live:  # one stop sentinel per live worker
            try:
                slot.queue.put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        deadline = time.monotonic() + 10.0
        for slot in live:
            slot.proc.join(max(0.1, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(5.0)
                if slot.proc.is_alive():  # pragma: no cover
                    slot.proc.kill()
                    slot.proc.join(5.0)
            slot.lifetime_s += time.monotonic() - slot.spawn_t
            slot.proc = None
        # Unblock queue feeder threads so interpreter shutdown never hangs
        # on unread pipe data.
        try:
            while True:
                self.result_queue.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass
        if self._flight_owned and self.flight_dir is not None:
            shutil.rmtree(self.flight_dir, ignore_errors=True)
            self.flight_dir = None


def _reduce(members, scheme, options, results, ledger, t0, start_method,
            recorder=None):
    """The one reduce of every pooled run: fold per-shard payloads into a
    :class:`TransportResult` (``pool`` carries the worker reports and the
    recovery ``ledger``) and ``books[r]``, replica ``r``'s ``(counters,
    tally)`` — the run totals themselves for one replica.

    Reduction runs in **shard-id order**, so the floating-point
    accumulation order — and therefore the reduced tally, bit for bit —
    is independent of which worker ran which shard, of retries, and of
    degraded drains; worker telemetry is merged into ``recorder`` in the
    same order.  Kept module-level so tests can instrument it.
    """
    from repro.core.simulation import TransportResult
    from repro.core.stepper import scheme_label

    rec = NULL_RECORDER if recorder is None else recorder
    tally = members[0].build_tally()
    merged = Counters()
    books = {}
    per_worker: dict[int, dict] = {}
    ordered = [results[sid] for sid in range(len(results))]
    for r in ordered:
        if rec.enabled and "telemetry" in r:
            rec.merge_payload(r["telemetry"])
        tally.merge(r["tally"])
        merged.merge_disjoint(r["counters"])
        books.update(r["books"])
        w = per_worker.setdefault(r["worker_id"], dict(_IDLE))
        w["histories"] += r["histories"]
        w["final"] += len(r["arena"])
        w["events"] += r["counters"].total_events
        w["chunks"] += r["chunks"]
        w["busy_s"] += r["busy_s"]
        w["total_s"] += r.get("total_s", 0.0)

    reports = []
    slot_by_id = {s.worker_id: s for s in ledger.slots}
    for wid in sorted(set(per_worker) | set(slot_by_id)):
        w = per_worker.get(wid, _IDLE)
        slot = slot_by_id.get(wid)
        reports.append(WorkerReport(
            worker_id=wid,
            histories=w["histories"],
            final_histories=w["final"],
            events=w["events"],
            chunks=w["chunks"],
            busy_s=w["busy_s"],
            total_s=slot.lifetime_s if slot is not None else w["total_s"],
            incarnations=slot.incarnation + 1 if slot is not None else 1,
            last_heartbeat_age_s=ledger.final_heartbeat_ages.get(wid, 0.0),
        ))

    all_arena = ordered[0]["arena"]
    all_arena.extend(*(r["arena"] for r in ordered[1:]))
    if len(members) == 1:
        # ---- deterministic population order, independent of nworkers ------
        # Primaries carry ids 0..n-1 (birth order); secondaries/clones
        # carry hashed ids.  Sorting by id therefore yields the same
        # ordering for any worker count, schedule, and recovery history.
        order = all_arena.sort_by("particle_id")
        merged.collisions_per_particle = merged.collisions_per_particle[order]
        merged.facets_per_particle = merged.facets_per_particle[order]
        books = {0: (merged, tally)}
    merged.nparticles = len(all_arena)
    # Recomputed from the reduced flush histogram — identical to the value
    # a serial run reports, unlike the per-shard maxima merged above.
    merged.tally_conflict_probability = tally.conflict_probability()
    # Footprint of the merged population, not the max over shards.
    merged.arena_nbytes = all_arena.nbytes()

    info = PoolRunInfo(
        nworkers=options.nworkers,
        schedule=options.schedule,
        chunk=options.chunk,
        start_method=start_method,
        workers=tuple(reports),
        retries=ledger.retries,
        rebalances=ledger.rebalances,
        respawns=ledger.respawns,
        workers_lost=ledger.workers_lost,
        degraded=ledger.degraded,
        degraded_reason=ledger.degraded_reason,
        shards_drained_in_process=ledger.drained,
        shard_attempts=tuple(ledger.attempts),
    )
    result = TransportResult(
        config=members[0],
        scheme=scheme_label(scheme),
        tally=tally,
        counters=merged,
        arena=all_arena,
        wallclock_s=time.perf_counter() - t0,
        pool=info,
    )
    return result, [books[r] for r in range(len(members))]


def run_sharded(members, bounds, scheme, population, options, t0,
                recorder=None, live=None):
    """Run a sampled replica set on the pool — the one launch of every
    pooled run, plain (:func:`run_pool`) or ensemble
    (:func:`repro.ensemble.run_ensemble`).

    ``members`` holds one config per replica (a plain run passes
    ``(config,)``), replica ``r`` owns rows ``[bounds[r], bounds[r + 1])``
    of ``population``, and the result's wall-clock counts from ``t0``.
    ``nworkers == 1`` runs every shard in this process as one payload;
    more hand the shards to the fault-tolerant workers.  Either way
    :func:`_reduce` folds the payloads (under ``dispatch`` and ``reduce``
    spans) and its ``(result, books)`` is returned.
    """
    rec = NULL_RECORDER if recorder is None else recorder
    shards = _build_shards(members, bounds, options)
    ledger, start_method, shared_pop = _Ledger(1), "inline", None
    try:
        with rec.span(
            "dispatch", nworkers=options.nworkers, nshards=len(shards)
        ):
            if options.nworkers == 1:
                # In-process reference path: every shard in one payload,
                # reduced as one shard with an empty ledger.
                t_shard = time.perf_counter()
                out = _run_ranges(
                    members, bounds, scheme, population, shards,
                    recorder=rec if rec.enabled else None,
                    probe=live.probe(0) if live is not None else None,
                )
                out.update(worker_id=0, total_s=time.perf_counter() - t_shard)
                results = {0: out}
            else:
                # Re-home the population into shared memory: workers
                # attach zero-copy views instead of unpickling it.
                shared_pop = population.to_shared()
                ctx = _pick_context(options)
                start_method = ctx.get_start_method()
                ledger = _Dispatcher(
                    members, bounds, scheme, shared_pop, shards, options,
                    ctx, recorder=rec, live=live,
                )
                results = ledger.run()
        with rec.span("reduce", nshards=len(results)):
            return _reduce(
                members, scheme, options, results, ledger, t0, start_method,
                recorder=rec,
            )
    finally:
        # Belt and braces for the reduction path: no worker may outlive
        # this call, even if _reduce (or anything above) raised.
        for slot in ledger.slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(5.0)
        # The parent owns the segment: release and unlink it only after
        # every worker is gone.
        if shared_pop is not None:
            shared_pop.close(unlink=True)


def run_pool(
    config: SimulationConfig,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    options: PoolOptions | None = None,
    recorder=None,
    live=None,
):
    """Run the configured calculation sharded across worker processes.

    Returns a :class:`~repro.core.simulation.TransportResult` whose
    ``pool`` field carries the per-worker accounting and the recovery
    ledger.  Physics is bit-identical to the serial drivers per history —
    including retried and drained shards — and the tally matches the
    serial run to accumulation-order rounding.

    ``recorder`` (a :class:`repro.obs.Recorder`) collects the parent's
    span tree plus every worker's shipped span/event payload, merged in
    shard-id order; recovery actions (worker loss, retries, respawns,
    degraded drains) and periodic heartbeat-age samples land in its
    event log.  Telemetry never alters the physics.

    ``live`` (a :class:`repro.obs.live.LiveAggregator`) attaches the live
    observability plane: workers publish monotonic counter totals to a
    shared stats board that the parent samples on the heartbeat cadence,
    and with a recorder attached each worker also keeps an on-disk
    flight-recorder dump that is merged into the telemetry when the
    worker is lost.  Like the recorder, the plane never alters the
    physics.
    """
    from repro.core.stepper import scheme_label
    from repro.xs.provider import XsMode

    if options is None:
        options = PoolOptions(nworkers=1)
    rec = NULL_RECORDER if recorder is None else recorder
    t0 = time.perf_counter()
    if live is not None:
        live.update_run(
            problem=getattr(config, "name", "") or "",
            nparticles=int(config.nparticles),
            ntimesteps=int(config.ntimesteps),
            scheme=scheme_label(scheme).value,
            nworkers=int(options.nworkers),
            mode="pool",
        )

    # Build the cross-section backend once.  Multigroup ships the resolved
    # tables with the config (workers would otherwise rebuild them per
    # shard); the CE library is deterministic and cached per process, so
    # workers rebuild bit-identical grids from the config's own fields.
    provider = config.resolved_provider()
    if provider.mode is XsMode.MULTIGROUP:
        run_config = config.with_(materials=provider.materials)
    else:
        run_config = config
    mesh = config.build_mesh()
    with rec.span("source_sampling", nparticles=config.nparticles):
        population = sample_source(
            mesh, config.source, config.nparticles, config.seed, config.dt,
            provider=provider,
        )

    result, _books = run_sharded(
        (run_config,), (0, config.nparticles), scheme, population, options,
        t0, recorder=rec, live=live,
    )
    result.config = config
    if live is not None:
        live.mark_done()
    return result
