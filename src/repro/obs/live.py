"""The live observability plane: in-run aggregation over a running
simulation.

The :mod:`repro.obs` recorder from the telemetry PR is strictly
post-mortem — spans and events become a :class:`RunTelemetry` artifact
only after the census loop finishes.  This module adds the *in-flight*
half (DESIGN.md §4d "Live plane vs post-mortem artifact"):

* :class:`StepProbe` — the per-process publisher.  The census stepper
  calls ``probe.step_complete(...)`` once per census step with the
  monotonic counter totals (events, alive population, xs-lookup probes)
  and ``probe.commit_shard(...)`` when a shard's drivers finish; the
  probe folds a per-shard base into the running totals so the published
  series stay monotonic across shards.
* :class:`LiveBoard` — the worker-side sink: a tiny shared-memory array
  of doubles (one :data:`STAT_STRIDE`-column row per worker slot) that
  pool workers stamp from their probes.  The parent samples the board on
  the same ~1 s cadence as its heartbeat-age events, so live stats
  piggyback on machinery that already exists instead of adding IPC.
* :class:`LiveAggregator` — the parent-side (or serial in-process) sink:
  folds per-worker rows, recovery-ledger state, and events/s deltas into
  a versioned :class:`LiveSnapshot <snapshot>` dict
  (``repro.live_snapshot`` v:data:`LIVE_SCHEMA_VERSION`), renders it as
  canonical JSON and Prometheus text for :class:`repro.obs.server.
  MetricsServer`, and runs the perf-drift watchdog against a
  :class:`DriftBand` baseline.
* :class:`FlightSpiller` / :func:`flight_dump` — the flight recorder:
  a bounded tail of the worker's recent spans/events, spilled atomically
  to disk from the heartbeat thread, cleared when the shard result ships
  (the parent merges the shipped payload instead), and merged into the
  parent recorder when the worker dies or hangs — so post-mortems of
  killed workers are no longer blind.

The plane is purely observational: probes read counter totals that the
drivers maintain anyway, never draw random numbers and never touch
particle state, so physics is bit-identical with the plane on or off
(asserted serial, pooled and ensemble in ``tests/test_obs_live.py``).
Live totals are best-effort by design — a retried shard's partial
progress may be counted again by its re-execution — while the
post-mortem artifact stays exact.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.obs.spans import NULL_RECORDER, ROOT

__all__ = [
    "LIVE_SCHEMA_NAME",
    "LIVE_SCHEMA_VERSION",
    "STAT_STRIDE",
    "NullProbe",
    "NULL_PROBE",
    "StepProbe",
    "LiveBoard",
    "LiveAggregator",
    "DriftBand",
    "drift_band_from_artifact",
    "FlightSpiller",
    "flight_dump",
    "load_flight_dump",
]

LIVE_SCHEMA_NAME = "repro.live_snapshot"
LIVE_SCHEMA_VERSION = 2

#: Doubles per worker row on the shared stats board.
STAT_STRIDE = 8

_COL_EVENTS = 0
_COL_ALIVE = 1
_COL_XS_LOOKUPS = 2
_COL_XS_PROBES = 3
_COL_HISTORIES = 4
_COL_SHARDS = 5
_COL_STEPS = 6
# column 7 reserved

_STAT_KEYS = (
    ("events", _COL_EVENTS),
    ("alive", _COL_ALIVE),
    ("xs_lookups", _COL_XS_LOOKUPS),
    ("xs_probes", _COL_XS_PROBES),
    ("histories", _COL_HISTORIES),
    ("shards", _COL_SHARDS),
    ("steps", _COL_STEPS),
)


class NullProbe:
    """The disabled probe — mirrors :class:`repro.obs.spans.NullRecorder`
    so the stepper has exactly one shape, no ``if live`` branches."""

    enabled = False

    __slots__ = ()

    def step_complete(self, *, step, alive, events, xs_lookups,
                      xs_probes) -> None:
        pass

    def commit_shard(self, counters, histories) -> None:
        pass


#: Shared no-op probe used when the live plane is off.
NULL_PROBE = NullProbe()


class StepProbe:
    """Publishes monotonic per-process counter totals to a *sink*.

    The stepper's counters reset per shard (each ``run_stepped`` call
    owns a fresh :class:`~repro.core.counters.Counters`), so the probe
    keeps a base accumulated by :meth:`commit_shard` and publishes
    ``base + in-progress`` — the published series never goes backwards
    within one process.  A sink is anything with
    ``publish(worker_id, stats_dict)``: the shared :class:`LiveBoard`
    inside pool workers, the :class:`LiveAggregator` directly for
    serial/ensemble/in-process runs.
    """

    enabled = True

    __slots__ = ("_sink", "_worker_id", "_events", "_xs", "_probes",
                 "_histories", "_shards", "_steps", "_alive")

    def __init__(self, sink, worker_id: int = 0):
        self._sink = sink
        self._worker_id = worker_id
        self._events = 0
        self._xs = 0
        self._probes = 0
        self._histories = 0
        self._shards = 0
        self._steps = 0
        self._alive = 0

    def step_complete(self, *, step, alive, events, xs_lookups,
                      xs_probes) -> None:
        """Census-step hook: ``events``/``xs_*`` are the current shard's
        in-progress totals (the base is added here)."""
        self._steps += 1
        self._alive = int(alive)
        self._publish(int(events), int(xs_lookups), int(xs_probes))

    def commit_shard(self, counters, histories: int) -> None:
        """Fold a finished shard's final counters into the base (this is
        where OP's end-of-run xs-lookup statistics land too)."""
        self._events += int(counters.total_events)
        self._xs += int(counters.xs_lookups)
        self._probes += int(
            counters.xs_binary_probes + counters.xs_linear_probes
        )
        self._histories += int(histories)
        self._shards += 1
        self._publish(0, 0, 0)

    def _publish(self, events, xs, probes) -> None:
        self._sink.publish(self._worker_id, {
            "events": self._events + events,
            "alive": self._alive,
            "xs_lookups": self._xs + xs,
            "xs_probes": self._probes + probes,
            "histories": self._histories,
            "shards": self._shards,
            "steps": self._steps,
        })


class LiveBoard:
    """The shared-memory stats board pool workers publish to.

    One row of :data:`STAT_STRIDE` doubles per worker slot, allocated by
    the parent from the pool's multiprocessing context and inherited by
    workers through the spawn args (like the heartbeat array).  Workers
    only ever write their own row; the parent only reads — the array
    lock makes each row read/write atomic.
    """

    __slots__ = ("_array",)

    def __init__(self, array):
        self._array = array

    @classmethod
    def allocate(cls, ctx, nslots: int) -> "LiveBoard":
        return cls(ctx.Array("d", max(1, nslots) * STAT_STRIDE))

    def probe(self, worker_id: int) -> StepProbe:
        return StepProbe(self, worker_id)

    def publish(self, worker_id: int, stats: dict) -> None:
        base = worker_id * STAT_STRIDE
        with self._array.get_lock():
            for key, col in _STAT_KEYS:
                self._array[base + col] = float(stats.get(key, 0))

    def read(self, worker_id: int) -> dict:
        base = worker_id * STAT_STRIDE
        with self._array.get_lock():
            return {
                key: int(self._array[base + col])
                for key, col in _STAT_KEYS
            }


# ---------------------------------------------------------------------------
# Perf-drift watchdog
# ---------------------------------------------------------------------------

class DriftBand:
    """An expected events/s baseline with a relative noise band.

    The watchdog flags the run when the live aggregate event rate leaves
    ``expected_events_per_s * (1 ± rel_band)``.  Built from a committed
    ``perf/`` result (:func:`drift_band_from_artifact`).
    """

    __slots__ = ("expected_events_per_s", "rel_band", "source")

    def __init__(self, expected_events_per_s: float, rel_band: float,
                 source: str = "manual"):
        if expected_events_per_s <= 0:
            raise ValueError("expected_events_per_s must be positive")
        if rel_band <= 0:
            raise ValueError("rel_band must be positive")
        self.expected_events_per_s = float(expected_events_per_s)
        self.rel_band = float(rel_band)
        self.source = source

    def classify(self, events_per_s: float) -> tuple[bool, float]:
        """``(drifting, ratio)`` for a live rate sample."""
        ratio = events_per_s / self.expected_events_per_s
        return abs(ratio - 1.0) > self.rel_band, ratio

    def to_dict(self) -> dict:
        return {
            "expected_events_per_s": self.expected_events_per_s,
            "rel_band": self.rel_band,
            "source": self.source,
        }


def drift_band_from_artifact(metrics: dict,
                             min_band: float = 0.35) -> DriftBand:
    """Build a :class:`DriftBand` from the ``PERF_WORKLOAD`` metrics of a
    committed ``perf/`` result (``repro.perfmodel.load_perf_workload``):
    the expected rate is the median ``events_per_s`` and the band the
    wider of its quartile spread over that median and ``min_band``.  The
    band only means something for a run shaped like that workload.
    """
    from repro.perfmodel.recalibrate import PERF_WORKLOAD

    rate = metrics["events_per_s"]
    value = float(rate["value"])
    return DriftBand(
        expected_events_per_s=value,
        rel_band=max(min_band, (rate["q3"] - rate["q1"]) / value),
        source=f"perf:{PERF_WORKLOAD}",
    )


# ---------------------------------------------------------------------------
# The parent-side aggregator
# ---------------------------------------------------------------------------

def _worker_row(worker_id: int) -> dict:
    return {
        "worker": worker_id,
        "incarnation": 0,
        "events": 0,
        "alive": 0,
        "xs_lookups": 0,
        "xs_probes": 0,
        "histories": 0,
        "shards": 0,
        "steps": 0,
        "heartbeat_age_s": 0.0,
        "events_per_s": 0.0,
        "_last_t": None,
        "_last_events": 0,
    }


class LiveAggregator:
    """Thread-safe fold of per-worker stats, recovery state, and rates
    into the versioned :meth:`snapshot` — the object the metrics server
    serves and the CLI passes down through ``Simulation.run(live=...)``.

    Serial and in-process runs publish directly through
    :meth:`probe`; the pool dispatcher calls :meth:`observe_worker` with
    rows sampled off the shared :class:`LiveBoard`.  Per-worker event
    totals are clamped monotonic (a respawned worker restarts its board
    row from zero while it re-executes lost work), so the aggregate
    ``events_total`` is a well-formed Prometheus counter.
    """

    enabled = True

    def __init__(self, *, run: dict | None = None,
                 drift: DriftBand | None = None, recorder=None):
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._run = dict(run or {})
        self._workers: dict[int, dict] = {}
        from repro.parallel.pool import PoolRunInfo

        self._recovery = PoolRunInfo.recovery_defaults()
        self.drift = drift
        self._rec = NULL_RECORDER if recorder is None else recorder
        self._drifting = False
        self._drift_events = 0
        self._drift_ratio = 1.0
        self._done = False

    # -- sinks ----------------------------------------------------------
    def probe(self, worker_id: int = 0) -> StepProbe:
        """A :class:`StepProbe` publishing straight into this aggregator
        (serial runs, the pool's in-process path, degraded drains)."""
        return StepProbe(self, worker_id)

    def publish(self, worker_id: int, stats: dict) -> None:
        self.observe_worker(worker_id, **stats)

    def observe_worker(self, worker_id: int, *, events=0, alive=0,
                       xs_lookups=0, xs_probes=0, histories=0, shards=0,
                       steps=0, heartbeat_age_s=0.0, incarnation=0) -> None:
        now = time.monotonic()
        with self._lock:
            w = self._workers.setdefault(worker_id, _worker_row(worker_id))
            if (w["_last_t"] is not None and now > w["_last_t"]
                    and events >= w["_last_events"]):
                w["events_per_s"] = (
                    (events - w["_last_events"]) / (now - w["_last_t"])
                )
            w["_last_t"] = now
            w["_last_events"] = int(events)
            # Monotonic clamp: a respawned incarnation restarts from 0 and
            # catches up as it re-executes the lost work.
            w["events"] = max(w["events"], int(events))
            w["xs_lookups"] = max(w["xs_lookups"], int(xs_lookups))
            w["xs_probes"] = max(w["xs_probes"], int(xs_probes))
            w["histories"] = max(w["histories"], int(histories))
            w["shards"] = max(w["shards"], int(shards))
            w["steps"] = max(w["steps"], int(steps))
            w["alive"] = int(alive)
            w["heartbeat_age_s"] = float(heartbeat_age_s)
            w["incarnation"] = max(w["incarnation"], int(incarnation))
            self._check_drift_locked()

    def update_run(self, **meta) -> None:
        with self._lock:
            self._run.update(meta)

    def update_recovery(self, **ledger) -> None:
        with self._lock:
            for key, value in ledger.items():
                if key in self._recovery:
                    self._recovery[key] = value

    def mark_done(self) -> None:
        with self._lock:
            self._done = True
            for w in self._workers.values():
                w["events_per_s"] = 0.0

    # -- drift watchdog -------------------------------------------------
    def _check_drift_locked(self) -> None:
        band = self.drift
        if band is None:
            return
        rate = sum(w["events_per_s"] for w in self._workers.values())
        if rate <= 0:
            return
        drifting, ratio = band.classify(rate)
        self._drift_ratio = ratio
        if drifting != self._drifting:
            self._drifting = drifting
            self._drift_events += 1
            self._rec.event(
                "perf_drift",
                drifting=drifting,
                events_per_s=round(rate, 3),
                expected_events_per_s=round(band.expected_events_per_s, 3),
                ratio=round(ratio, 4),
                rel_band=band.rel_band,
                source=band.source,
            )

    # -- views ----------------------------------------------------------
    def snapshot(self) -> dict:
        """The versioned LiveSnapshot dict (``repro.live_snapshot`` v2):
        run meta, aggregate and per-worker views, the recovery ledger,
        and the drift watchdog state."""
        now = time.monotonic()
        with self._lock:
            workers = []
            agg = {
                "events_total": 0, "alive": 0, "xs_lookups_total": 0,
                "xs_probes_total": 0, "histories_total": 0,
                "shards_total": 0, "steps_total": 0,
            }
            rate = 0.0
            for wid in sorted(self._workers):
                w = self._workers[wid]
                workers.append({
                    "worker": w["worker"],
                    "incarnation": w["incarnation"],
                    "events_total": w["events"],
                    "events_per_s": round(w["events_per_s"], 3),
                    "alive": w["alive"],
                    "xs_lookups_total": w["xs_lookups"],
                    "xs_probes_total": w["xs_probes"],
                    "histories_total": w["histories"],
                    "shards_total": w["shards"],
                    "steps_total": w["steps"],
                    "heartbeat_age_s": round(w["heartbeat_age_s"], 3),
                })
                agg["events_total"] += w["events"]
                agg["alive"] += w["alive"]
                agg["xs_lookups_total"] += w["xs_lookups"]
                agg["xs_probes_total"] += w["xs_probes"]
                agg["histories_total"] += w["histories"]
                agg["shards_total"] += w["shards"]
                agg["steps_total"] += w["steps"]
                rate += w["events_per_s"]
            age = max(1e-9, now - self._t0)
            agg["events_per_s"] = round(rate, 3)
            agg["events_per_s_avg"] = round(agg["events_total"] / age, 3)
            agg["workers"] = len(workers)
            drift = None
            if self.drift is not None:
                drift = dict(self.drift.to_dict())
                drift.update(
                    drifting=self._drifting,
                    ratio=round(self._drift_ratio, 4),
                    transitions=self._drift_events,
                )
            return {
                "schema": {
                    "name": LIVE_SCHEMA_NAME,
                    "version": LIVE_SCHEMA_VERSION,
                },
                "run": {
                    **self._run,
                    "age_s": round(age, 3),
                    "done": self._done,
                },
                "aggregate": agg,
                "workers": workers,
                "recovery": dict(self._recovery),
                "drift": drift,
            }

    def snapshot_json(self) -> str:
        """Canonical JSON (sorted keys, fixed separators) of
        :meth:`snapshot` — the ``GET /snapshot`` body."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def healthz(self) -> tuple[bool, dict]:
        """``(ok, status)`` for ``GET /healthz``: unhealthy (503) only
        when the pool degraded to in-process draining; a recovering pool
        (retries / lost workers) stays healthy but reports it."""
        with self._lock:
            rec = self._recovery
            if rec["degraded"]:
                status = "degraded"
            elif rec["retries"] or rec["workers_lost"]:
                status = "recovering"
            else:
                status = "ok"
            return status != "degraded", {
                "status": status,
                "done": self._done,
                "degraded_reason": rec["degraded_reason"],
                "retries": rec["retries"],
                "workers_lost": rec["workers_lost"],
                "respawns": rec["respawns"],
                "drifting": self._drifting,
            }

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format — the PR 6
        discipline: monotonic series are ``_total`` counters, point-in-
        time values are gauges."""
        from repro.obs.export import _PromWriter, _recovery_series

        snap = self.snapshot()
        agg = snap["aggregate"]
        out = _PromWriter()
        out.gauge("repro_live_up", 0.0 if snap["run"]["done"] else 1.0,
                  "1 while the run is still stepping")
        out.gauge("repro_live_age_seconds", snap["run"]["age_s"],
                  "Seconds since the live plane attached")
        out.counter("repro_live_events", agg["events_total"],
                    "Transport events executed so far")
        out.gauge("repro_live_events_per_second", agg["events_per_s"],
                  "Aggregate instantaneous event rate")
        out.gauge("repro_live_alive", agg["alive"],
                  "Histories alive at the last census sample")
        out.counter("repro_live_xs_lookups", agg["xs_lookups_total"],
                    "Cross-section lookups so far")
        out.counter("repro_live_xs_probes", agg["xs_probes_total"],
                    "Cross-section bin-search probes so far")
        out.counter("repro_live_histories", agg["histories_total"],
                    "Primary histories completed")
        out.counter("repro_live_shards", agg["shards_total"],
                    "Shards completed")
        out.counter("repro_live_steps", agg["steps_total"],
                    "Census steps completed")
        out.gauge("repro_live_workers", agg["workers"],
                  "Worker slots observed by the live plane")
        for w in snap["workers"]:
            labels = {"worker": str(w["worker"])}
            out.counter("repro_live_worker_events", w["events_total"],
                        "Per-worker transport events", labels)
            out.gauge("repro_live_worker_events_per_second",
                      w["events_per_s"],
                      "Per-worker instantaneous event rate", labels)
            out.gauge("repro_live_worker_alive", w["alive"],
                      "Per-worker alive histories at last sample", labels)
            out.gauge("repro_live_worker_heartbeat_age_seconds",
                      w["heartbeat_age_s"],
                      "Per-worker heartbeat age at last sample", labels)
            out.gauge("repro_live_worker_incarnation", w["incarnation"],
                      "Processes that occupied the slot so far", labels)
        _recovery_series(out, "repro_live_pool", snap["recovery"])
        drift = snap["drift"]
        if drift is not None:
            out.gauge("repro_live_drift_ratio", drift["ratio"],
                      "Live events/s over the baseline expectation")
            out.gauge("repro_live_drift_band", drift["rel_band"],
                      "Relative noise band of the drift baseline")
            out.gauge("repro_live_perf_drift",
                      1.0 if drift["drifting"] else 0.0,
                      "1 while the event rate is outside the noise band")
            out.counter("repro_live_perf_drift_transitions",
                        drift["transitions"],
                        "Drift state transitions (enter or leave)")
        return out.render()


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

def _json_default(obj):
    """Span/event attrs may carry numpy scalars; keep the dump valid."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def flight_dump(recorder, *, max_spans: int = 256, max_events: int = 256,
                now: float | None = None) -> dict:
    """The bounded tail of a recorder as a mergeable payload.

    Keeps the most recent ``max_spans``/``max_events`` rows, renumbers
    span ids densely from 0 and remaps parent links (parents outside the
    tail become top-level), and closes still-open spans at ``now`` — so
    the payload always passes ``validate_telemetry``'s parent-range
    check after :meth:`Recorder.merge_payload`.
    """
    if now is None:
        now = time.perf_counter()
    spans = list(recorder.spans)[-max_spans:]
    events = list(recorder.events)[-max_events:]
    id_map = {s.span_id: i for i, s in enumerate(spans)}
    rows = []
    for s in spans:
        t1 = s.t_end if s.t_end >= s.t_start else now
        rows.append({
            "id": id_map[s.span_id],
            "parent": id_map.get(s.parent_id, ROOT),
            "name": s.name,
            "t0": s.t_start,
            "t1": t1,
            "attrs": dict(s.attrs),
            "source": dict(s.source),
        })
    return {
        "spans": rows,
        "events": [e.to_row() for e in events],
    }


class FlightSpiller:
    """Spills the bound recorder's tail to one on-disk dump, atomically.

    One spiller per worker incarnation; ``bind()`` attaches the current
    shard's recorder and forces a first spill (so even an immediate
    mid-shard kill leaves a dump), the worker's heartbeat thread calls
    :meth:`maybe_spill` on its own cadence, and ``clear()`` removes the
    dump when the shard's result ships (the shipped payload supersedes
    it — merging both would duplicate spans).  Writes go through a temp
    file + ``os.replace`` so the parent never reads a torn dump.
    """

    __slots__ = ("path", "_lock", "_rec", "_max_spans", "_max_events",
                 "_interval", "_last")

    def __init__(self, path: str, *, max_spans: int = 256,
                 max_events: int = 256, interval: float = 0.5):
        self.path = path
        self._lock = threading.Lock()
        self._rec = None
        self._max_spans = max_spans
        self._max_events = max_events
        self._interval = interval
        self._last = 0.0

    def bind(self, recorder) -> None:
        with self._lock:
            self._rec = recorder
        self.spill()

    def clear(self) -> None:
        with self._lock:
            self._rec = None
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def maybe_spill(self) -> None:
        if time.monotonic() - self._last >= self._interval:
            self.spill()

    def spill(self) -> None:
        with self._lock:
            rec = self._rec
            if rec is None:
                return
            payload = flight_dump(
                rec, max_spans=self._max_spans, max_events=self._max_events
            )
            tmp = f"{self.path}.tmp"
            try:
                with open(tmp, "w") as fh:
                    json.dump(payload, fh, default=_json_default)
                os.replace(tmp, self.path)
            except OSError:  # pragma: no cover - disk full / racing rmtree
                return
            self._last = time.monotonic()


def load_flight_dump(path: str) -> dict | None:
    """Read a flight dump; ``None`` when absent or unreadable (a worker
    may die before its first spill completes)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "spans" not in payload:
        return None
    return payload
