"""Exporters for the :class:`~repro.obs.telemetry.RunTelemetry` artifact.

Four consumers, four formats:

* :func:`to_jsonl` — one JSON object per line (header, then spans, then
  events) for log shippers and ``jq`` pipelines;
* :func:`to_chrome_trace` — the Chrome ``trace_event`` format, loadable
  in ``about://tracing`` / Perfetto: each worker becomes a process row,
  spans become complete (``"ph": "X"``) slices, log entries become
  instant events;
* :func:`to_prometheus` — text exposition format for scrape-style
  ingestion of the scalar measurements;
* :func:`format_summary` — the human rendering ``repro report`` prints:
  run header, counters digest, ranked kernel table, pool/recovery ledger
  and the span tree aggregated by name path.
"""

from __future__ import annotations

import json

__all__ = [
    "to_jsonl",
    "to_chrome_trace",
    "to_prometheus",
    "format_summary",
]


def to_jsonl(telemetry) -> str:
    """One JSON object per line: a ``header`` record carrying every
    scalar section, then one ``span`` record per span, one ``event``
    record per log entry."""
    d = telemetry.to_dict()
    lines = [json.dumps({
        "type": "header",
        "schema": d["schema"],
        "meta": d["meta"],
        "counters": d["counters"],
        "kernel_profile": d["kernel_profile"],
        "workspace": d["workspace"],
        "arena": d["arena"],
        "pool": d["pool"],
    }, sort_keys=True)]
    for row in d["spans"]:
        lines.append(json.dumps({"type": "span", **row}, sort_keys=True))
    for row in d["events"]:
        lines.append(json.dumps({"type": "event", **row}, sort_keys=True))
    return "\n".join(lines) + "\n"


#: Event names rendered with global scope in the Chrome trace (they mark
#: run-wide scheduling decisions, not per-process detail).
_GLOBAL_SCOPE_EVENTS = frozenset({"scheme_switch", "compaction", "rebalance"})


def _pid_of(source: dict) -> int:
    """Process row for the trace viewer: parent = 0, worker w = w + 1."""
    worker = source.get("worker")
    return 0 if worker is None else int(worker) + 1


def to_chrome_trace(telemetry) -> dict:
    """The artifact as a Chrome ``trace_event`` JSON object.

    Timestamps are re-based to the earliest recorded instant and
    expressed in microseconds (the format's unit).  Load the dumped JSON
    in ``about://tracing`` or https://ui.perfetto.dev.
    """
    spans = telemetry.spans
    events = telemetry.events
    t_min = min(
        [r["t0"] for r in spans] + [r["t"] for r in events], default=0.0
    )

    trace: list[dict] = []
    seen_pids: dict[int, str] = {}
    for row in spans + events:
        pid = _pid_of(row.get("source", {}))
        if pid not in seen_pids:
            src = row.get("source", {})
            name = "parent" if pid == 0 else (
                f"worker {src.get('worker')} "
                f"(incarnation {src.get('incarnation', 0)})"
            )
            seen_pids[pid] = name
    for pid, name in sorted(seen_pids.items()):
        trace.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    for row in spans:
        trace.append({
            "name": row["name"],
            "ph": "X",
            "ts": (row["t0"] - t_min) * 1e6,
            "dur": max(0.0, (row["t1"] - row["t0"]) * 1e6),
            "pid": _pid_of(row.get("source", {})),
            "tid": 0,
            "args": {**row.get("attrs", {}), **row.get("source", {})},
        })
    for row in events:
        trace.append({
            "name": row["name"],
            "ph": "i",
            # Scheduling decisions get global scope — full-height lines
            # in the viewer — so scheme switches and shard resplits
            # stand out against per-process instants.
            "s": "g" if row["name"] in _GLOBAL_SCOPE_EVENTS else "p",
            "ts": (row["t"] - t_min) * 1e6,
            "pid": _pid_of(row.get("source", {})),
            "tid": 0,
            "args": {**row.get("attrs", {}), **row.get("source", {})},
        })

    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": telemetry.to_dict()["schema"],
            "problem": telemetry.meta.get("problem"),
            "scheme": telemetry.meta.get("scheme"),
        },
    }


def _prom_escape(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double-quote, and line feed."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


#: Counter-section keys that are *not* monotonic (snapshots/ratios stay
#: gauges even though they live in ``telemetry.counters``).
_COUNTER_GAUGE_KEYS = frozenset({"load_imbalance"})


class _PromWriter:
    """Accumulates samples grouped per metric family.

    The exposition format requires all lines of one metric to form a
    single group, and counters to carry the ``_total`` suffix; samples
    are collected per family and rendered in registration order, with a
    set-based dedup instead of the old O(lines²) prefix scan.
    """

    def __init__(self):
        self._order: list[str] = []
        self._families: dict[str, tuple[str, str, list]] = {}

    def _add(self, name, value, help_text, type_, labels):
        if name not in self._families:
            self._order.append(name)
            self._families[name] = (help_text, type_, [])
        label_s = ""
        if labels:
            inner = ",".join(
                f'{k}="{_prom_escape(v)}"' for k, v in labels.items()
            )
            label_s = "{" + inner + "}"
        self._families[name][2].append((label_s, float(value)))

    def gauge(self, name, value, help_text, labels=None):
        self._add(name, value, help_text, "gauge", labels)

    def counter(self, name, value, help_text, labels=None):
        # Monotonic series: conventional `_total` suffix, `counter` type.
        if not name.endswith("_total"):
            name += "_total"
        self._add(name, value, help_text, "counter", labels)

    def render(self) -> str:
        lines: list[str] = []
        for name in self._order:
            help_text, type_, samples = self._families[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {type_}")
            for label_s, value in samples:
                lines.append(f"{name}{label_s} {value:.10g}")
        return "\n".join(lines) + "\n"


def _recovery_series(out, prefix, ledger) -> None:
    """The pool recovery ledger as ``{prefix}_<field>`` series: a counter
    per integer field of
    :meth:`~repro.parallel.pool.PoolRunInfo.recovery_defaults`, then the
    ``degraded`` gauge.  Shared by both Prometheus renderers."""
    from repro.parallel.pool import PoolRunInfo

    for key, default in PoolRunInfo.recovery_defaults().items():
        if type(default) is int:  # the counts; bool is not one
            out.counter(f"{prefix}_{key}", ledger.get(key, 0),
                        f"Pool recovery ledger: {key}")
    out.gauge(f"{prefix}_degraded", 1.0 if ledger.get("degraded") else 0.0,
              "1 when the pool fell back to in-process draining")


def to_prometheus(telemetry) -> str:
    """The scalar sections in Prometheus text exposition format.

    Monotonic measurements (event counters, kernel call/item/second
    accumulators, workspace churn, the pool recovery ledger) are typed
    ``counter`` with the ``_total`` suffix; point-in-time measurements
    (wall-clock, imbalance, arena footprint, heartbeat ages) stay
    ``gauge``.
    """
    out = _PromWriter()

    meta = telemetry.meta
    out.gauge("repro_run_wallclock_seconds", meta.get("wallclock_s") or 0.0,
              "Host wall-clock of the run")
    for key, value in sorted(telemetry.counters.items()):
        if key in _COUNTER_GAUGE_KEYS:
            out.gauge(f"repro_counter_{key}", value,
                      f"Counters.{key} for the run")
        else:
            out.counter(f"repro_counter_{key}", value,
                        f"Counters.{key} for the run")
    for name, (calls, items, seconds) in sorted(
        telemetry.kernel_profile.items()
    ):
        labels = {"kernel": name}
        out.counter("repro_kernel_calls", calls,
                    "Kernel invocation count", labels)
        out.counter("repro_kernel_items", items,
                    "Kernel lanes processed", labels)
        out.counter("repro_kernel_seconds", seconds,
                    "Cumulative kernel wall-clock", labels)
    ws = telemetry.workspace
    out.counter("repro_workspace_allocations", ws.get("allocations", 0),
                "Workspace buffers grown")
    out.counter("repro_workspace_reuses", ws.get("reuses", 0),
                "Workspace buffers reused")
    out.counter("repro_xs_lookup_probes", ws.get("xs_binary_probes", 0),
                "Cross-section bin-search probes by strategy",
                {"strategy": "binary"})
    out.counter("repro_xs_lookup_probes", ws.get("xs_linear_probes", 0),
                "Cross-section bin-search probes by strategy",
                {"strategy": "cached_linear"})
    out.gauge("repro_arena_bytes", telemetry.arena.get("nbytes", 0),
              "Final population arena footprint")
    decisions: dict[str, int] = {}
    for row in telemetry.events:
        if row.get("name") == "scheme_switch":
            scheme = str(row.get("attrs", {}).get("scheme", "unknown"))
            decisions[scheme] = decisions.get(scheme, 0) + 1
    for scheme, count in sorted(decisions.items()):
        out.counter("repro_scheduler_decisions", count,
                    "Adaptive scheduler scheme decisions per census step",
                    {"scheme": scheme})
    parked = [int(row.get("attrs", {}).get("parked", 0))
              for row in telemetry.events if row.get("name") == "compaction"]
    if parked:
        out.counter("repro_compactions", len(parked),
                    "Census compactions that parked dead histories")
        out.counter("repro_compacted_histories", sum(parked),
                    "Dead histories parked by census compactions")
    pool = telemetry.pool
    if pool is not None:
        _recovery_series(out, "repro_pool", pool)
        for w in pool.get("workers", ()):
            labels = {"worker": str(w["worker_id"])}
            out.gauge("repro_worker_busy_seconds", w["busy_s"],
                      "Per-worker driver wall-clock", labels)
            out.counter("repro_worker_events", w["events"],
                        "Per-worker transport events", labels)
            out.counter("repro_worker_incarnations", w["incarnations"],
                        "Processes that occupied the slot", labels)
            out.gauge("repro_worker_last_heartbeat_age_seconds",
                      w["last_heartbeat_age_s"],
                      "Heartbeat age at collection time", labels)
        for sid, attempts in enumerate(pool.get("shard_attempts", ())):
            out.counter("repro_pool_shard_attempts", attempts,
                        "Re-execution attempts per shard "
                        "(0 = first try succeeded)", {"shard": str(sid)})
    out.counter("repro_spans", len(telemetry.spans),
                "Spans in the telemetry artifact")
    out.counter("repro_events", len(telemetry.events),
                "Log events in the telemetry artifact")
    return out.render()


# ---------------------------------------------------------------------------
# Human summary
# ---------------------------------------------------------------------------

def _aggregate_span_tree(spans) -> list[tuple[str, int, float]]:
    """Aggregate spans by name *path* (root → ... → name).

    Returns ``(indented name, count, total seconds)`` rows in first-seen
    order — the shape of the tree without the per-instance noise.
    """
    by_id = {row["id"]: row for row in spans}

    def path_of(row) -> tuple[str, ...]:
        parts = [row["name"]]
        seen = {row["id"]}
        parent = row["parent"]
        while parent != -1 and parent in by_id and parent not in seen:
            seen.add(parent)
            parts.append(by_id[parent]["name"])
            parent = by_id[parent]["parent"]
        return tuple(reversed(parts))

    order: list[tuple[str, ...]] = []
    agg: dict[tuple[str, ...], list] = {}
    for row in spans:
        path = path_of(row)
        if path not in agg:
            agg[path] = [0, 0.0]
            order.append(path)
        agg[path][0] += 1
        agg[path][1] += row["t1"] - row["t0"]
    order.sort()
    return [
        ("  " * (len(path) - 1) + path[-1], agg[path][0], agg[path][1])
        for path in order
    ]


def format_summary(telemetry) -> str:
    """The human rendering ``repro report`` prints."""
    from repro.kernels import format_profile

    meta = telemetry.meta
    c = telemetry.counters
    out = []
    out.append(
        f"run: problem={meta.get('problem')} scheme={meta.get('scheme')} "
        f"mesh={meta.get('nx')}x{meta.get('ny')}"
        + (f"x{meta.get('nz')}" if meta.get("nz") else "")
        + f" particles={meta.get('nparticles')} "
        f"timesteps={meta.get('ntimesteps')} seed={meta.get('seed')}"
    )
    out.append(f"wall-clock: {meta.get('wallclock_s', 0.0):.3f} s")
    out.append(
        f"events: collisions={c.get('collisions')} facets={c.get('facets')} "
        f"census={c.get('census_events')} total={c.get('total_events')} "
        f"(load imbalance {c.get('load_imbalance', 0.0):.3f})"
    )
    ws = telemetry.workspace
    out.append(
        f"workspace: {ws.get('allocations')} allocations, "
        f"{ws.get('reuses')} reuses; xs bin reuses: "
        f"{ws.get('xs_bin_reuses')}"
    )
    out.append(
        f"xs probes: binary={ws.get('xs_binary_probes', 0)} "
        f"cached-linear={ws.get('xs_linear_probes', 0)}"
    )
    arena = telemetry.arena
    out.append(
        f"arena: {arena.get('nbytes')} B for {arena.get('nparticles')} "
        f"particles ({arena.get('bytes_per_particle')} B/particle)"
    )

    if telemetry.kernel_profile:
        out.append("")
        out.append("kernel profile (ranked by wall-clock):")
        out.append(format_profile(telemetry.kernel_profile))

    pool = telemetry.pool
    if pool is not None:
        out.append("")
        out.append(
            f"pool: {pool['nworkers']} workers, {pool['schedule']} schedule "
            f"(chunk {pool['chunk']}, {pool['start_method']} start)"
        )
        for w in pool.get("workers", ()):
            out.append(
                f"  worker {w['worker_id']}: histories={w['histories']} "
                f"events={w['events']} chunks={w['chunks']} "
                f"busy={w['busy_s']:.3f}s "
                f"incarnations={w['incarnations']} "
                f"heartbeat-age={w['last_heartbeat_age_s']:.2f}s"
            )
        attempts = pool.get("shard_attempts", [])
        retried = sum(1 for a in attempts if a > 0)
        out.append(
            f"  shards: {len(attempts)} total, {retried} retried "
            f"(attempt counts {attempts})"
        )
        if (pool["retries"] or pool["respawns"] or pool["workers_lost"]
                or pool["degraded"]):
            out.append(
                f"  recovery: {pool['workers_lost']} workers lost, "
                f"{pool['respawns']} respawned, "
                f"{pool['retries']} shard retries"
            )
        if pool["degraded"]:
            out.append(
                f"  DEGRADED MODE: {pool['degraded_reason']} — "
                f"{pool['shards_drained_in_process']} shards drained "
                "in-process"
            )

    if telemetry.spans:
        out.append("")
        out.append("span tree (aggregated by phase):")
        name_w = max(
            len(name) for name, _, _ in _aggregate_span_tree(telemetry.spans)
        )
        for name, count, seconds in _aggregate_span_tree(telemetry.spans):
            out.append(f"  {name:<{name_w}} {count:>7}x {seconds:>10.6f} s")

    recov = telemetry.recovery_events()
    if recov:
        out.append("")
        out.append(f"recovery event log ({len(recov)} entries):")
        for row in recov:
            src = row.get("source", {})
            tag = (
                f" [worker {src['worker']}]" if "worker" in src else ""
            )
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(row.get("attrs", {}).items())
            )
            out.append(f"  t={row['t']:.6f} {row['name']}{tag} {attrs}")

    flights = [r for r in telemetry.events if r["name"] == "flight_recorder"]
    if flights:
        out.append("")
        out.append(
            f"flight recorder ({len(flights)} dump"
            f"{'s' if len(flights) != 1 else ''} merged from "
            "lost/hung workers):"
        )
        for row in flights:
            a = row.get("attrs", {})
            out.append(
                f"  worker {a.get('worker', '?')} incarnation "
                f"{a.get('incarnation', '?')}: {a.get('spans', 0)} spans, "
                f"{a.get('events', 0)} events ({a.get('reason', '')})"
            )
    return "\n".join(out) + "\n"
