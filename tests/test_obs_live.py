"""The live observability plane: aggregation, endpoint, flight
recorder, and the standing invariant that physics is bit-identical with
the plane on or off."""

import json
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core import Scheme, Simulation, csp_problem
from repro.ensemble import (
    EnsembleSpec,
    population_fingerprint,
    run_ensemble,
)
from repro.obs import (
    LIVE_SCHEMA_NAME,
    LIVE_SCHEMA_VERSION,
    NULL_PROBE,
    DriftBand,
    FlightSpiller,
    LiveAggregator,
    LiveBoard,
    MetricsServer,
    Recorder,
    StepProbe,
    drift_band_from_artifact,
    flight_dump,
    load_flight_dump,
    validate_telemetry,
)
from repro.obs.server import PROMETHEUS_CONTENT_TYPE
from repro.perfmodel import load_perf_workload

PERF_1 = str(Path(__file__).resolve().parents[1] / "results" / "PERF_1.json")


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


# ---------------------------------------------------------------------------
# Probe / board units
# ---------------------------------------------------------------------------

def test_null_probe_is_inert():
    assert NULL_PROBE.enabled is False
    NULL_PROBE.step_complete(step=0, alive=1, events=2, xs_lookups=3,
                             xs_probes=4)
    NULL_PROBE.commit_shard(None, 5)


class _ListSink:
    def __init__(self):
        self.rows = []

    def publish(self, worker_id, stats):
        self.rows.append((worker_id, dict(stats)))


class _FakeCounters:
    total_events = 100
    xs_lookups = 40
    xs_binary_probes = 7
    xs_linear_probes = 3


def test_step_probe_publishes_monotonic_series_across_shards():
    sink = _ListSink()
    probe = StepProbe(sink, worker_id=3)
    probe.step_complete(step=0, alive=9, events=10, xs_lookups=4,
                        xs_probes=1)
    probe.commit_shard(_FakeCounters(), histories=8)
    # The next shard's in-progress totals restart from 0 but the
    # published series keeps the committed base.
    probe.step_complete(step=0, alive=5, events=2, xs_lookups=1,
                        xs_probes=0)
    events = [row["events"] for _, row in sink.rows]
    assert events == [10, 100, 102]
    assert all(wid == 3 for wid, _ in sink.rows)
    last = sink.rows[-1][1]
    assert last["xs_lookups"] == 41
    assert last["xs_probes"] == 10
    assert last["histories"] == 8
    assert last["shards"] == 1
    assert last["steps"] == 2
    assert events == sorted(events)


def test_live_board_roundtrip():
    import multiprocessing

    board = LiveBoard.allocate(multiprocessing.get_context("spawn"), 2)
    probe = board.probe(1)
    probe.step_complete(step=0, alive=4, events=17, xs_lookups=6,
                        xs_probes=2)
    assert board.read(1) == {
        "events": 17, "alive": 4, "xs_lookups": 6, "xs_probes": 2,
        "histories": 0, "shards": 0, "steps": 1,
    }
    assert board.read(0)["events"] == 0


# ---------------------------------------------------------------------------
# Aggregator
# ---------------------------------------------------------------------------

def test_aggregator_snapshot_shape_and_schema():
    live = LiveAggregator(run={"problem": "csp"})
    live.probe(0).step_complete(step=0, alive=3, events=12, xs_lookups=5,
                                xs_probes=2)
    snap = live.snapshot()
    assert snap["schema"] == {
        "name": LIVE_SCHEMA_NAME, "version": LIVE_SCHEMA_VERSION,
    }
    assert snap["schema"]["name"] == "repro.live_snapshot"
    assert snap["run"]["problem"] == "csp"
    assert snap["run"]["done"] is False
    assert snap["aggregate"]["events_total"] == 12
    assert snap["aggregate"]["alive"] == 3
    assert snap["aggregate"]["workers"] == 1
    assert snap["workers"][0]["worker"] == 0
    assert snap["recovery"]["retries"] == 0
    assert snap["drift"] is None
    # canonical JSON roundtrips (age-dependent fields move between
    # snapshots, so compare the stable parts)
    parsed = json.loads(live.snapshot_json())
    assert parsed["schema"] == snap["schema"]
    assert parsed["aggregate"]["events_total"] == 12
    assert parsed["workers"] == snap["workers"]


def test_aggregator_monotonic_clamp_over_respawn():
    live = LiveAggregator()
    live.observe_worker(1, events=500, histories=20, incarnation=0)
    # The respawned incarnation restarts its board row from zero while it
    # re-executes lost work; published totals must not go backwards.
    live.observe_worker(1, events=30, histories=2, incarnation=1)
    snap = live.snapshot()
    w = snap["workers"][0]
    assert w["events_total"] == 500
    assert w["histories_total"] == 20
    assert w["incarnation"] == 1


def test_aggregator_rate_and_mark_done():
    live = LiveAggregator()
    live.observe_worker(0, events=0)
    time.sleep(0.02)
    live.observe_worker(0, events=1000)
    snap = live.snapshot()
    assert snap["workers"][0]["events_per_s"] > 0
    assert snap["aggregate"]["events_per_s"] > 0
    assert snap["aggregate"]["events_per_s_avg"] > 0
    live.mark_done()
    done = live.snapshot()
    assert done["run"]["done"] is True
    assert done["aggregate"]["events_per_s"] == 0


def test_healthz_semantics():
    live = LiveAggregator()
    ok, status = live.healthz()
    assert ok and status["status"] == "ok"
    # Recovering (retries / lost workers) stays healthy but reports it.
    live.update_recovery(retries=1, workers_lost=1)
    ok, status = live.healthz()
    assert ok and status["status"] == "recovering"
    live.update_recovery(degraded=True, degraded_reason="respawn budget")
    ok, status = live.healthz()
    assert not ok and status["status"] == "degraded"
    assert status["degraded_reason"] == "respawn budget"


def test_aggregator_prometheus_families():
    live = LiveAggregator()
    live.observe_worker(0, events=42, alive=7, xs_lookups=10, xs_probes=3,
                        histories=5, shards=1, steps=2,
                        heartbeat_age_s=0.25)
    live.update_recovery(rebalances=2)
    text = live.to_prometheus()
    assert "# TYPE repro_live_events_total counter" in text
    assert "repro_live_events_total 42" in text
    assert "# TYPE repro_live_alive gauge" in text
    assert 'repro_live_worker_events_total{worker="0"} 42' in text
    assert 'repro_live_worker_heartbeat_age_seconds{worker="0"} 0.25' in text
    assert "repro_live_pool_rebalances_total 2" in text
    assert "repro_live_up 1" in text
    live.mark_done()
    assert "repro_live_up 0" in live.to_prometheus()


# ---------------------------------------------------------------------------
# Drift watchdog
# ---------------------------------------------------------------------------

def test_drift_band_classify():
    band = DriftBand(1000.0, 0.2)
    assert band.classify(1000.0) == (False, 1.0)
    drifting, ratio = band.classify(500.0)
    assert drifting and ratio == 0.5
    assert band.classify(1150.0)[0] is False
    assert band.classify(1300.0)[0] is True
    with pytest.raises(ValueError):
        DriftBand(0.0, 0.2)
    with pytest.raises(ValueError):
        DriftBand(1000.0, 0.0)


def test_drift_watchdog_emits_transition_events():
    rec = Recorder()
    live = LiveAggregator(drift=DriftBand(1e9, 0.1, source="test"),
                          recorder=rec)
    live.observe_worker(0, events=0)
    time.sleep(0.02)
    live.observe_worker(0, events=100)  # far below 1e9/s -> drifting
    time.sleep(0.02)
    live.observe_worker(0, events=200)  # still drifting: no new event
    drift_events = [e for e in rec.events if e.name == "perf_drift"]
    assert len(drift_events) == 1
    assert drift_events[0].attrs["drifting"] is True
    assert drift_events[0].attrs["source"] == "test"
    snap = live.snapshot()
    assert snap["drift"]["drifting"] is True
    assert snap["drift"]["transitions"] == 1
    assert snap["drift"]["ratio"] < 1.0
    text = live.to_prometheus()
    assert "repro_live_perf_drift 1" in text
    assert "repro_live_perf_drift_transitions_total 1" in text


def test_drift_band_from_committed_artifact():
    metrics = load_perf_workload(PERF_1)
    rate = metrics["events_per_s"]
    band = drift_band_from_artifact(metrics)
    assert band.expected_events_per_s == rate["value"]
    assert band.rel_band == max(0.35,
                                (rate["q3"] - rate["q1"]) / rate["value"])
    assert band.source == "perf:csp_oe_mg"
    assert band.to_dict() == {"expected_events_per_s": rate["value"],
                              "rel_band": band.rel_band,
                              "source": "perf:csp_oe_mg"}
    # A wide quartile spread widens the band past the floor.
    wide = drift_band_from_artifact(
        {"events_per_s": {"value": 100.0, "q1": 60.0, "q3": 140.0}})
    assert wide.rel_band == 0.8


def test_drift_band_from_artifact_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        load_perf_workload(PERF_1, "nope")


# ---------------------------------------------------------------------------
# Metrics server
# ---------------------------------------------------------------------------

def test_metrics_server_endpoints():
    live = LiveAggregator(run={"problem": "csp"})
    live.observe_worker(0, events=5, alive=2)
    with MetricsServer(live, port=0) as server:
        code, ctype, body = _get(server.url("/metrics"))
        assert code == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert b"repro_live_events_total 5" in body
        code, ctype, body = _get(server.url("/snapshot"))
        assert code == 200
        assert ctype == "application/json"
        snap = json.loads(body)
        assert snap["schema"]["name"] == "repro.live_snapshot"
        assert snap["aggregate"]["events_total"] == 5
        code, _, body = _get(server.url("/healthz"))
        assert code == 200
        assert json.loads(body)["status"] == "ok"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url("/nope"))
        assert err.value.code == 404


def test_metrics_server_healthz_degraded_is_503():
    live = LiveAggregator()
    live.update_recovery(degraded=True, degraded_reason="boom")
    with MetricsServer(live, port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url("/healthz"))
        assert err.value.code == 503
        assert json.loads(err.value.read())["status"] == "degraded"


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

def _busy_recorder():
    rec = Recorder(source={"worker": 1, "incarnation": 0})
    with rec.span("run"):
        with rec.span("timestep", step=0):
            rec.event("mark", step=0)
    return rec


def test_flight_dump_renumbers_and_closes_open_spans():
    rec = _busy_recorder()
    # An open span at kill time: enter without exiting.
    cm = rec.span("doomed")
    cm.__enter__()
    payload = flight_dump(rec, now=123.0)
    names = [r["name"] for r in payload["spans"]]
    assert names == ["run", "timestep", "doomed"]
    ids = [r["id"] for r in payload["spans"]]
    assert ids == [0, 1, 2]
    by_name = {r["name"]: r for r in payload["spans"]}
    assert by_name["timestep"]["parent"] == by_name["run"]["id"]
    assert by_name["doomed"]["t1"] == 123.0
    assert payload["events"][0]["name"] == "mark"


def test_flight_dump_tail_remaps_out_of_window_parents():
    rec = Recorder()
    with rec.span("root"):
        for i in range(10):
            with rec.span(f"child{i}"):
                pass
    payload = flight_dump(rec, max_spans=3)
    assert len(payload["spans"]) == 3
    # "root" fell outside the tail: surviving children become top-level.
    assert all(r["parent"] == -1 for r in payload["spans"])
    assert [r["id"] for r in payload["spans"]] == [0, 1, 2]


def test_flight_dump_merges_into_parent_and_validates(tmp_path):
    from repro.obs import build_run_telemetry

    result = Simulation(csp_problem(nx=16, nparticles=12)).run(
        Scheme.OVER_PARTICLES, recorder=Recorder()
    )
    parent = Recorder()
    with parent.span("dispatch"):
        pass
    payload = flight_dump(_busy_recorder())
    parent.merge_payload(payload)
    parent.event("flight_recorder", worker=1, incarnation=0,
                 spans=len(payload["spans"]), events=len(payload["events"]),
                 reason="test")
    telemetry = build_run_telemetry(result, parent)
    validate_telemetry(telemetry.to_dict())


def test_flight_spiller_lifecycle(tmp_path):
    path = str(tmp_path / "flight_w1_i0.json")
    spiller = FlightSpiller(path, interval=0.0)
    assert load_flight_dump(path) is None
    spiller.bind(_busy_recorder())  # bind forces the first spill
    payload = load_flight_dump(path)
    assert payload is not None
    assert [r["name"] for r in payload["spans"]] == ["run", "timestep"]
    spiller.maybe_spill()
    assert load_flight_dump(path) is not None
    # clear() removes the dump: the shipped result supersedes it.
    spiller.clear()
    assert load_flight_dump(path) is None
    spiller.spill()  # unbound: no-op, no file reappears
    assert load_flight_dump(path) is None


def test_load_flight_dump_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    assert load_flight_dump(str(bad)) is None
    bad.write_text(json.dumps([1, 2, 3]))
    assert load_flight_dump(str(bad)) is None


# ---------------------------------------------------------------------------
# Bit-identity: the plane never touches physics
# ---------------------------------------------------------------------------

def _fingerprints(result):
    return population_fingerprint(result.arena), result.tally.total()


def test_serial_run_bit_identical_with_live_plane():
    cfg = csp_problem(nx=16, nparticles=24)
    base = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    live = LiveAggregator()
    observed = Simulation(cfg).run(Scheme.OVER_PARTICLES, live=live)
    assert _fingerprints(base) == _fingerprints(observed)
    snap = live.snapshot()
    assert snap["aggregate"]["events_total"] == int(
        observed.counters.total_events
    )
    assert snap["aggregate"]["histories_total"] == 24
    assert snap["run"]["mode"] == "serial"
    assert snap["run"]["done"] is True
    assert snap["aggregate"]["steps_total"] > 0


def test_pooled_run_bit_identical_with_live_plane():
    from repro.parallel import ScheduleKind

    cfg = csp_problem(nx=16, nparticles=24)
    base = Simulation(cfg).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=8,
    )
    live = LiveAggregator()
    observed = Simulation(cfg).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=8, live=live,
    )
    assert _fingerprints(base) == _fingerprints(observed)
    snap = live.snapshot()
    assert snap["run"]["mode"] == "pool"
    assert snap["run"]["nworkers"] == 2
    assert snap["run"]["done"] is True
    # The final board sample folds every worker's totals.
    assert snap["aggregate"]["events_total"] == int(
        observed.counters.total_events
    )
    assert snap["aggregate"]["histories_total"] == 24


def test_ensemble_run_bit_identical_with_live_plane():
    spec = EnsembleSpec(csp_problem(nx=16, nparticles=12), 3)
    base = run_ensemble(spec, Scheme.OVER_EVENTS)
    live = LiveAggregator()
    observed = run_ensemble(spec, Scheme.OVER_EVENTS, live=live)
    assert population_fingerprint(base.arena) == population_fingerprint(
        observed.arena
    )
    assert base.tally.total() == observed.tally.total()
    snap = live.snapshot()
    assert snap["run"]["mode"] == "ensemble"
    assert snap["run"]["replicas"] == 3
    assert snap["aggregate"]["events_total"] == int(
        observed.counters.total_events
    )


def test_serial_run_serves_while_stepping():
    cfg = csp_problem(nx=16, nparticles=24)
    live = LiveAggregator()
    with MetricsServer(live, port=0) as server:
        result = Simulation(cfg).run(Scheme.OVER_PARTICLES, live=live)
        code, _, body = _get(server.url("/metrics"))
        assert code == 200
        needle = (f"repro_live_events_total "
                  f"{int(result.counters.total_events)}")
        assert needle.encode() in body
        code, _, body = _get(server.url("/snapshot"))
        assert json.loads(body)["run"]["done"] is True


# ---------------------------------------------------------------------------
# Chaos: a killed worker's flight dump reaches the artifact
# ---------------------------------------------------------------------------

@pytest.mark.chaos
def test_killed_worker_flight_dump_merges_into_telemetry(tmp_path):
    from repro.obs import build_run_telemetry, format_summary
    from repro.parallel import FaultPlan, ScheduleKind

    cfg = csp_problem(nx=16, nparticles=24)
    base = Simulation(cfg).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=8,
    )
    rec = Recorder()
    live = LiveAggregator()
    result = Simulation(cfg).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=8, fault_plan=FaultPlan.parse("kill:worker=1,after=0"),
        recorder=rec, live=live, flight_dir=str(tmp_path / "flight"),
    )
    # Physics survives the kill bit-identically, plane and all.
    assert _fingerprints(base) == _fingerprints(result)
    flights = [e for e in rec.events if e.name == "flight_recorder"]
    assert len(flights) == 1
    assert flights[0].attrs["worker"] == 1
    telemetry = build_run_telemetry(result, rec)
    validate_telemetry(telemetry.to_dict())
    summary = format_summary(telemetry)
    assert "flight recorder (1 dump merged" in summary
    # The recovery reached the live plane too.
    snap = live.snapshot()
    assert snap["recovery"]["workers_lost"] == 1
    assert snap["recovery"]["retries"] == 1


@pytest.mark.chaos
def test_flight_dir_option_keeps_explicit_directory(tmp_path):
    from repro.parallel import FaultPlan, ScheduleKind

    flight = tmp_path / "keep"
    Simulation(csp_problem(nx=16, nparticles=24)).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=8, fault_plan=FaultPlan.parse("kill:worker=1,after=0"),
        recorder=Recorder(), flight_dir=str(flight),
    )
    # An explicit --flight-dir is created and left in place.
    assert flight.is_dir()
