"""Unified run telemetry: spans, worker event logs, the RunTelemetry
artifact, and its exporters.

The load-bearing guarantee is at the top: attaching a recorder NEVER
changes the physics.  Final particle states and tallies must be
bit-identical with telemetry on or off, serial and pooled, clean and
under fault injection (the chaos-marked case).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import Scheme, Simulation
from repro.core.problems import csp_problem, scatter_problem, stream_problem
from repro.obs import (
    NULL_RECORDER,
    Recorder,
    RunTelemetry,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    TelemetrySchemaError,
    build_run_telemetry,
    format_summary,
    load_telemetry,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    validate_telemetry,
)
from repro.parallel.faults import FaultPlan, KillWorker
from repro.parallel.schedule import ScheduleKind

PROBLEMS = {
    "stream": lambda: stream_problem(nx=16, nparticles=12),
    "scatter": lambda: scatter_problem(nx=16, nparticles=12),
    "csp": lambda: csp_problem(nx=16, nparticles=12),
}
SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)
STATE_FIELDS = (
    "particle_id", "x", "y", "omega_x", "omega_y", "energy", "weight",
    "rng_counter", "alive", "cellx", "celly",
)


def _state(result):
    arena = result.arena
    fields = tuple(getattr(arena, f).copy() for f in STATE_FIELDS)
    return fields + (result.tally.deposition.copy(),)


def _assert_identical(a, b):
    for field, (x, y) in zip(STATE_FIELDS + ("deposition",), zip(a, b)):
        assert np.array_equal(x, y), f"{field} differs with telemetry on"


# ---------------------------------------------------------------------------
# Bit-identity: telemetry on vs off
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_serial_bit_identical_with_telemetry(name, scheme):
    off = Simulation(PROBLEMS[name]()).run(scheme)
    recorder = Recorder()
    on = Simulation(PROBLEMS[name]()).run(scheme, recorder=recorder)
    _assert_identical(_state(off), _state(on))
    assert recorder.spans, "recorder captured no spans"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pooled_bit_identical_with_telemetry(scheme):
    cfg = csp_problem(nx=16, nparticles=12)
    off = Simulation(cfg).run(scheme, nworkers=2)
    recorder = Recorder()
    on = Simulation(cfg).run(scheme, nworkers=2, recorder=recorder)
    _assert_identical(_state(off), _state(on))
    # Worker spans came back tagged with their origin.
    tagged = [s for s in recorder.spans if s.source]
    assert tagged
    assert {"worker", "incarnation", "shard", "attempt"} <= set(
        tagged[0].source
    )


@pytest.mark.chaos
def test_kill_retry_bit_identical_with_telemetry():
    cfg = csp_problem(nx=16, nparticles=12)
    kwargs = dict(
        nworkers=2, schedule=ScheduleKind.DYNAMIC, chunk=3,
        fault_plan=FaultPlan((KillWorker(worker=1, after_chunks=0),)),
    )
    off = Simulation(cfg).run(Scheme.OVER_PARTICLES, **kwargs)
    recorder = Recorder()
    on = Simulation(cfg).run(Scheme.OVER_PARTICLES, recorder=recorder,
                             **kwargs)
    _assert_identical(_state(off), _state(on))
    telemetry = build_run_telemetry(on, recorder)
    names = {r["name"] for r in telemetry.recovery_events()}
    assert {"worker_lost", "respawn", "retry"} <= names
    assert on.pool.workers_lost >= 1


# ---------------------------------------------------------------------------
# The artifact: schema, round-trip, accessors
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pooled_telemetry():
    cfg = csp_problem(nx=16, nparticles=12)
    recorder = Recorder()
    result = Simulation(cfg).run(
        Scheme.OVER_PARTICLES, nworkers=2, recorder=recorder
    )
    return build_run_telemetry(result, recorder)


def test_artifact_is_schema_valid(pooled_telemetry):
    validate_telemetry(pooled_telemetry.to_dict())


def test_round_trip_is_byte_stable(pooled_telemetry, tmp_path):
    path = tmp_path / "t.json"
    pooled_telemetry.dump(path)
    loaded = load_telemetry(path)
    assert loaded.to_json() == pooled_telemetry.to_json()
    # dump → load → dump again: byte-identical files.
    path2 = tmp_path / "t2.json"
    loaded.dump(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_artifact_sections(pooled_telemetry):
    t = pooled_telemetry
    assert t.meta["problem"] == "csp"
    assert t.meta["scheme"] == "over_particles"
    assert t.counters["total_events"] > 0
    assert t.kernel_profile  # per-kernel [calls, items, seconds]
    assert t.arena["nbytes"] > 0
    assert t.pool["nworkers"] == 2
    assert len(t.pool["shard_attempts"]) >= 2
    for w in t.pool["workers"]:
        assert w["last_heartbeat_age_s"] >= 0.0
    assert t.worker_span_count() > 0
    # Parent spans (dispatch/reduce/source_sampling) have no source tag.
    assert any(not s["source"] for s in t.spans)


def test_validator_rejects_malformed(pooled_telemetry):
    good = pooled_telemetry.to_dict()

    bad = json.loads(json.dumps(good))
    bad["schema"]["version"] = SCHEMA_VERSION + 1
    with pytest.raises(TelemetrySchemaError):
        validate_telemetry(bad)

    bad = json.loads(json.dumps(good))
    bad["schema"]["name"] = "something.else"
    with pytest.raises(TelemetrySchemaError):
        validate_telemetry(bad)

    bad = json.loads(json.dumps(good))
    bad["spans"][0] = {"nonsense": True}
    with pytest.raises(TelemetrySchemaError):
        validate_telemetry(bad)

    bad = json.loads(json.dumps(good))
    del bad["counters"]
    with pytest.raises(TelemetrySchemaError):
        validate_telemetry(bad)


def test_schema_constants():
    assert SCHEMA_NAME == "repro.run_telemetry"
    assert isinstance(SCHEMA_VERSION, int)


def test_from_dict_validates():
    with pytest.raises(TelemetrySchemaError):
        RunTelemetry.from_dict({"schema": {"name": "x", "version": 1}})


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def test_jsonl_export(pooled_telemetry):
    lines = to_jsonl(pooled_telemetry).splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "header"
    assert header["schema"]["name"] == SCHEMA_NAME
    kinds = {json.loads(line)["type"] for line in lines[1:]}
    assert "span" in kinds
    # One record per span + event, plus the header.
    assert len(lines) == 1 + len(pooled_telemetry.spans) + len(
        pooled_telemetry.events
    )


def test_chrome_trace_export(pooled_telemetry):
    trace = to_chrome_trace(pooled_telemetry)
    # Smoke-load through JSON like a browser would.
    trace = json.loads(json.dumps(trace))
    events = trace["traceEvents"]
    assert events
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(pooled_telemetry.spans)
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
    pids = {e["pid"] for e in complete}
    assert 0 in pids and len(pids) > 1  # parent + at least one worker


def test_prometheus_export(pooled_telemetry):
    text = to_prometheus(pooled_telemetry)
    assert "# TYPE repro_run_wallclock_seconds gauge" in text
    # Monotonic totals are counters with the conventional _total suffix.
    assert "# TYPE repro_pool_workers_lost_total counter" in text
    assert "repro_pool_workers_lost_total 0" in text
    assert "# TYPE repro_kernel_seconds_total counter" in text
    assert 'repro_kernel_seconds_total{kernel="' in text
    assert "repro_worker_last_heartbeat_age_seconds{worker=" in text


def test_summary_export(pooled_telemetry):
    text = format_summary(pooled_telemetry)
    assert "problem=csp" in text
    assert "kernel profile" in text
    assert "span tree" in text
    assert "pool: 2 workers" in text


# ---------------------------------------------------------------------------
# Overhead guards
# ---------------------------------------------------------------------------

def test_null_recorder_is_cheap():
    """The disabled path must cost nanoseconds per span, not micros."""
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with NULL_RECORDER.span("x", a=1):
            pass
    per_span = (time.perf_counter() - t0) / n
    assert per_span < 5e-6, f"disabled span costs {per_span * 1e6:.2f} us"
    assert not NULL_RECORDER.enabled
    assert NULL_RECORDER.payload() == {"spans": [], "events": []}


def test_recording_overhead_bounded():
    """Telemetry-on wall-clock stays within 3x of telemetry-off (median
    of 3 — a loose bound that still catches pathological recording)."""
    cfg = csp_problem(nx=16, nparticles=12)

    def median_wallclock(recorder_factory):
        times = []
        for _ in range(3):
            result = Simulation(cfg).run(
                Scheme.OVER_PARTICLES, recorder=recorder_factory()
            )
            times.append(result.wallclock_s)
        return sorted(times)[1]

    off = median_wallclock(lambda: None)
    on = median_wallclock(Recorder)
    assert on < max(3.0 * off, off + 0.25), (off, on)


# ---------------------------------------------------------------------------
# CLI: --telemetry and `repro report`
# ---------------------------------------------------------------------------

def test_pooled_ensemble_telemetry_keeps_worker_spans():
    """A pooled ensemble is a pool run: the shared reduce merges every
    worker's shipped spans — one ``run`` span per shard, with its
    ``event_pass`` and ``kernel:*`` spans — beside the parent's
    ``dispatch`` / ``reduce``, and its artifact carries the pool."""
    from repro.core.simulation import TransportResult
    from repro.ensemble import EnsembleSpec, run_ensemble

    spec = EnsembleSpec(csp_problem(nx=32, nparticles=40), 4)
    recorder = Recorder()
    ens = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=2,
                       recorder=recorder)
    worker = [s for s in recorder.spans if s.source]
    runs = [s for s in worker if s.name == "run"]
    assert len(runs) == 2
    assert len(ens.pool.shard_attempts) == 2
    assert sorted(s.source["shard"] for s in runs) == [0, 1]
    names = {s.name for s in worker}
    assert "event_pass" in names
    assert any(name.startswith("kernel:") for name in names)
    parent = {s.name for s in recorder.spans if not s.source}
    assert {"ensemble_run", "dispatch", "reduce"} <= parent
    telemetry = build_run_telemetry(TransportResult(
        ens.members[0], ens.scheme, ens.tally, ens.counters, ens.arena,
        ens.wallclock_s, ens.pool,
    ), recorder)
    validate_telemetry(telemetry.to_dict())
    assert telemetry.pool["nworkers"] == 2
    assert telemetry.worker_span_count() == len(worker)


def _pool_field_paths():
    from dataclasses import fields

    from repro.parallel.pool import PoolRunInfo, WorkerReport

    return [f.name for f in fields(PoolRunInfo)] + [
        f"workers[0].{f.name}" for f in fields(WorkerReport)
    ]


@pytest.mark.parametrize("fmt", ["summary", "prometheus"])
@pytest.mark.parametrize("path", _pool_field_paths())
def test_report_names_a_missing_pool_field(pooled_telemetry, path, fmt,
                                           tmp_path, capsys):
    """Every ``PoolRunInfo`` and ``WorkerReport`` field is checked: an
    artifact missing one is a one-line error naming it, never a
    ``KeyError`` from the renderer."""
    from repro.cli import main

    d = json.loads(pooled_telemetry.to_json())
    section, _, key = ("pool." + path).rpartition(".")
    owner = d["pool"]["workers"][0] if "[" in section else d["pool"]
    del owner[key]
    artifact = tmp_path / "t.json"
    artifact.write_text(json.dumps(d))
    assert main(["report", str(artifact), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert f"pool.{path} is missing" in err_lines[0]


def test_cli_run_telemetry_and_report(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "t.json"
    rc = main([
        "run", "--problem", "csp", "--nx", "16", "--particles", "12",
        "--workers", "2", "--telemetry", str(path),
    ])
    assert rc == 0
    telemetry = load_telemetry(path)  # validates on load
    assert telemetry.pool["nworkers"] == 2
    capsys.readouterr()

    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "span tree" in out

    chrome = tmp_path / "trace.json"
    assert main([
        "report", str(path), "--format", "chrome", "--output", str(chrome)
    ]) == 0
    assert json.load(chrome.open())["traceEvents"]


def test_cli_run3d_telemetry_and_profile(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "t3.json"
    rc = main([
        "run", "--problem", "csp3", "--nx", "8", "--particles", "10",
        "--scheme", "over_events", "--profile-kernels",
        "--telemetry", str(path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel profile" in out
    assert "arena storage" in out
    telemetry = load_telemetry(path)
    assert telemetry.meta["scheme"] == "over_events"
    assert telemetry.meta["nz"] == 8
    assert any(s["name"] == "event_pass" for s in telemetry.spans)


# ---------------------------------------------------------------------------
# Exporter edge cases: artifacts that never saw a healthy full run
# ---------------------------------------------------------------------------

def _synthetic_telemetry(**overrides):
    base = dict(
        meta={"problem": "csp", "scheme": "over_particles", "nx": 16,
              "ny": 16, "nparticles": 4, "ntimesteps": 1, "seed": 7,
              "wallclock_s": 0.0},
        counters={"collisions": 0, "facets": 0, "census_events": 0,
                  "total_events": 0, "load_imbalance": 0.0},
        kernel_profile={},
        workspace={"allocations": 0, "reuses": 0, "xs_bin_reuses": 0},
        arena={"nbytes": 0, "nparticles": 0, "bytes_per_particle": 0},
        pool=None,
        spans=[],
        events=[],
    )
    base.update(overrides)
    return RunTelemetry(**base)


def test_summary_and_chrome_trace_with_empty_span_tree():
    telemetry = _synthetic_telemetry()
    summary = format_summary(telemetry)
    assert "run: problem=csp" in summary
    assert "span tree" not in summary  # no fabricated empty section
    trace = to_chrome_trace(telemetry)
    assert trace["traceEvents"] == []
    assert to_jsonl(telemetry).count("\n") == 1  # header only


def test_chrome_trace_with_zero_duration_spans():
    span = {"id": 0, "parent": -1, "name": "instant", "t0": 5.0,
            "t1": 5.0, "attrs": {}, "source": {}}
    telemetry = _synthetic_telemetry(spans=[span])
    trace = to_chrome_trace(telemetry)
    slices = [r for r in trace["traceEvents"] if r.get("ph") == "X"]
    assert len(slices) == 1
    assert slices[0]["dur"] == 0.0
    assert slices[0]["ts"] == 0.0  # re-based to the earliest instant
    summary = format_summary(telemetry)
    assert "instant" in summary and "0.000000 s" in summary


def test_summary_with_recovery_events_but_no_kernel_profile():
    events = [
        {"t": 1.0, "name": "worker_lost",
         "attrs": {"reason": "kill"}, "source": {"worker": 1}},
        {"t": 1.1, "name": "respawn",
         "attrs": {"incarnation": 1}, "source": {"worker": 1}},
        {"t": 1.2, "name": "flight_recorder",
         "attrs": {"worker": 1, "incarnation": 0, "spans": 3,
                   "events": 2, "reason": "kill"}, "source": {}},
    ]
    telemetry = _synthetic_telemetry(events=events)
    summary = format_summary(telemetry)
    assert "kernel profile" not in summary
    assert "recovery event log (2 entries):" in summary
    assert "worker_lost [worker 1]" in summary
    assert "flight recorder (1 dump merged" in summary
    assert "worker 1 incarnation 0: 3 spans, 2 events" in summary
    # The chrome trace renders the instants without a crash too.
    trace = to_chrome_trace(telemetry)
    instants = [r for r in trace["traceEvents"] if r.get("ph") == "i"]
    assert len(instants) == 3


def test_prometheus_export_shard_attempts_and_heartbeats():
    pool = {
        "nworkers": 2, "schedule": "dynamic", "chunk": 8,
        "start_method": "fork", "retries": 1, "rebalances": 2,
        "respawns": 1, "workers_lost": 1, "degraded": False,
        "degraded_reason": "", "shards_drained_in_process": 0,
        "shard_attempts": [0, 2, 0],
        "workers": [
            {"worker_id": 0, "histories": 4, "final_histories": 4,
             "events": 10, "chunks": 1, "busy_s": 0.5,
             "incarnations": 1, "last_heartbeat_age_s": 0.25},
        ],
    }
    telemetry = _synthetic_telemetry(pool=pool)
    text = to_prometheus(telemetry)
    assert 'repro_pool_shard_attempts_total{shard="1"} 2' in text
    assert 'repro_pool_shard_attempts_total{shard="0"} 0' in text
    assert ('repro_worker_last_heartbeat_age_seconds{worker="0"} 0.25'
            in text)
    assert "repro_pool_rebalances_total 2" in text
