"""Benchmark registry, BENCH_<n>.json artifact, comparator, and the
bench/exporter correctness fixes that rode along with them."""

import copy
import json
import math

import pytest

from repro.bench import (
    REGISTRY,
    BenchArtifact,
    BenchSchemaError,
    BenchTimingError,
    MeasuredSpeedup,
    MetricSpec,
    bench_sequence_of,
    build_bench_artifact,
    compare_artifacts,
    format_series,
    format_table,
    load_bench_artifact,
    measured_shard_handoff,
    measured_workload,
    next_bench_path,
    run_bench,
    run_tier,
    specs_for_tier,
    validate_bench_artifact,
)
from repro.bench.registry import BenchSample, BenchSpec
from repro.bench.runner import MEASUREMENT_NX, MEASUREMENT_PARTICLES
from repro.core import Scheme, Simulation, csp_problem
from repro.obs import Recorder, build_run_telemetry, to_prometheus
from repro.parallel.schedule import ScheduleKind
from repro.perfmodel import (
    DEFAULT_CONSTANTS,
    recalibrate_constants,
    recalibrate_from_artifact,
)


def _cheap_spec(name="t", tier="quick", values=(0.01, 0.011, 0.012),
                metrics=None, metric_values=None):
    """A spec whose runner replays canned samples (no transport)."""
    it = iter(values * 50)
    metric_values = metric_values or {}
    iters = {m: iter(v * 50) for m, v in metric_values.items()}

    def runner():
        return BenchSample(
            wallclock_s=next(it),
            metrics={m: next(iters[m]) for m in iters},
        )

    return BenchSpec(
        name=name, tier=tier, version=1, description="canned",
        runner=runner, metrics=metrics or {},
    )


# ---------------------------------------------------------------------------
# Registry and artifact round-trip
# ---------------------------------------------------------------------------

def test_tiers_nest():
    quick = {s.name for s in specs_for_tier("quick")}
    full = {s.name for s in specs_for_tier("full")}
    assert quick < full
    assert set(REGISTRY) == full
    with pytest.raises(KeyError):
        specs_for_tier("nope")


def test_run_tier_rejects_unknown_names():
    with pytest.raises(KeyError, match="no_such_bench"):
        run_tier("quick", names=["no_such_bench"])


def test_live_overhead_bench_holds_plane_invariants():
    (result,) = run_tier(
        "quick", repeats=1, warmup=0, names=["live_overhead_csp"]
    )
    samples = result.metric_samples
    assert samples["live_parity"] == (1.0,)
    assert samples["endpoint_ok"] == (1.0,)
    assert samples["off_s"][0] > 0 and samples["on_s"][0] > 0
    assert samples["events_total"][0] > 0


def test_artifact_roundtrip_and_byte_stability(tmp_path):
    results = run_tier(
        "quick", repeats=2, warmup=0,
        names=["oe_transport_csp", "arena_footprint_csp"],
    )
    artifact = build_bench_artifact(results, tier="quick", sequence=1)
    path = tmp_path / "BENCH_1.json"
    artifact.dump(path)

    loaded = load_bench_artifact(path)  # schema-validates
    assert loaded.bench_names() == ["arena_footprint_csp",
                                    "oe_transport_csp"]
    assert loaded.to_json() == artifact.to_json()
    # dump → load → dump is byte-stable.
    path2 = tmp_path / "again.json"
    loaded.dump(path2)
    assert path.read_text() == path2.read_text()

    oe = loaded.benches["oe_transport_csp"]
    assert oe["kernel_profile"], "transport bench must carry the profile"
    assert oe["repeats"] == 2
    assert oe["metrics"]["kernel_calls"]["iqr"] == 0.0  # deterministic
    assert loaded.meta["git"]["sha"]
    assert loaded.meta["host"]["python"]


def test_artifact_schema_rejects_tampering(tmp_path):
    results = run_tier("quick", repeats=1, warmup=0,
                       names=["arena_footprint_csp"])
    d = build_bench_artifact(results, tier="quick").to_dict()

    bad = copy.deepcopy(d)
    bad["schema"]["version"] = 99
    with pytest.raises(BenchSchemaError, match="newer than this reader"):
        validate_bench_artifact(bad)

    bad = copy.deepcopy(d)
    bad["benches"]["arena_footprint_csp"]["wallclock_s"]["samples"] = []
    with pytest.raises(BenchSchemaError, match="non-empty"):
        validate_bench_artifact(bad)

    bad = copy.deepcopy(d)
    bad["benches"]["arena_footprint_csp"]["metrics"]["arena_nbytes"][
        "direction"] = "sideways"
    with pytest.raises(BenchSchemaError, match="direction"):
        validate_bench_artifact(bad)

    bad = copy.deepcopy(d)
    del bad["meta"]["host"]
    with pytest.raises(BenchSchemaError, match="meta.host"):
        validate_bench_artifact(bad)


def test_bench_sequencing(tmp_path):
    assert bench_sequence_of("results/BENCH_12.json") == 12
    assert bench_sequence_of("results/bench.json") is None
    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_3.json").write_text("{}")
    assert next_bench_path(tmp_path).name == "BENCH_4.json"


def test_committed_baseline_validates():
    # The trajectory's history stays loadable and keeps its claims...
    first = load_bench_artifact("results/BENCH_1.json")
    assert first.meta["sequence"] == 1
    assert first.meta["tier"] == "quick"
    assert first.meta["claims"]["shard_payload_reduction"] > 100
    second = load_bench_artifact("results/BENCH_2.json")
    assert second.meta["sequence"] == 2
    assert second.meta["claims"]["ensemble_parity"] == 1.0
    third = load_bench_artifact("results/BENCH_3.json")
    assert third.meta["sequence"] == 3
    assert third.meta["claims"]["adaptive_parity"] == 1.0
    fourth = load_bench_artifact("results/BENCH_4.json")
    assert fourth.meta["sequence"] == 4
    assert fourth.meta["claims"]["ensemble_parity"] == 1.0
    assert fourth.meta["claims"]["adaptive_efficiency"] >= 0.95
    assert fourth.meta["claims"]["ce_parity"] == 1.0
    fifth = load_bench_artifact("results/BENCH_5.json")
    assert fifth.meta["sequence"] == 5
    # ...and the current baseline covers the whole quick tier, with the
    # algorithm facts of the one before it (the kernels got faster, not
    # different).
    current = load_bench_artifact("results/BENCH_6.json")
    assert current.meta["sequence"] == 6
    assert current.meta["tier"] == "quick"
    for bench in ("oe_transport_csp", "op_transport_csp"):
        for fact in ("kernel_calls", "kernel_items", "xs_lookups"):
            assert (current.benches[bench]["metrics"][fact]["median"]
                    == fifth.benches[bench]["metrics"][fact]["median"])
        assert current.benches[bench]["metrics"][
            "workspace_allocations"]["median"] == 24
    assert current.meta["claims"]["ensemble_parity"] == 1.0
    assert current.meta["claims"]["ensemble_speedup_csp_vs_looped"] > 5
    assert current.meta["claims"]["adaptive_parity"] == 1.0
    assert current.meta["claims"]["ce_parity"] == 1.0
    assert 0 < current.meta["claims"]["ce_oe_op_ratio"] < 1.0
    assert current.meta["claims"]["live_parity"] == 1.0
    assert current.meta["claims"]["live_endpoint_ok"] == 1.0
    quick = {s.name for s in specs_for_tier("quick")}
    assert set(current.benches) == quick


# ---------------------------------------------------------------------------
# Sub-resolution and non-finite rejection
# ---------------------------------------------------------------------------

def test_registry_rejects_sub_resolution_timings():
    spec = _cheap_spec(values=(0.0,))
    with pytest.raises(BenchTimingError, match="below the timer"):
        run_bench(spec, repeats=3, warmup=0)


def test_registry_rejects_non_finite_metrics():
    spec = _cheap_spec(
        values=(0.01,),
        metrics={"speedup": MetricSpec(direction="higher", timing=True)},
        metric_values={"speedup": (float("inf"),)},
    )
    with pytest.raises(BenchTimingError, match="not finite"):
        run_bench(spec, repeats=2, warmup=0)


def test_speedup_returns_inf_on_timer_underflow():
    r = MeasuredSpeedup(
        problem="csp", scheme=Scheme.OVER_PARTICLES,
        schedule=ScheduleKind.STATIC, nworkers=2,
        serial_s=0.5, parallel_s=0.0,
        measured_imbalance=1.0, modelled_imbalance=1.0,
        warnings=("timer_underflow:parallel",),
    )
    assert math.isinf(r.speedup)
    assert math.isinf(r.parallel_efficiency)
    assert "timer_underflow:parallel" in r.warnings
    # A real measurement still divides.
    ok = MeasuredSpeedup(
        problem="csp", scheme=Scheme.OVER_PARTICLES,
        schedule=ScheduleKind.STATIC, nworkers=2,
        serial_s=0.5, parallel_s=0.25,
        measured_imbalance=1.0, modelled_imbalance=1.0,
    )
    assert ok.speedup == 2.0 and ok.warnings == ()


# ---------------------------------------------------------------------------
# Comparator: noise acceptance and injected regressions
# ---------------------------------------------------------------------------

def _two_artifacts():
    results = run_tier("quick", repeats=2, warmup=0,
                       names=["oe_transport_csp"])
    base = build_bench_artifact(results, tier="quick", sequence=1)
    cand = BenchArtifact.from_dict(
        json.loads(base.to_json())
    )
    return base, cand


def test_compare_accepts_in_band_noise():
    base, cand = _two_artifacts()
    wall = cand.benches["oe_transport_csp"]["wallclock_s"]
    # Nudge the candidate median by half the rel_floor band: in-band.
    wall["median"] *= 1.0 + 0.5 * wall["rel_floor"]
    report = compare_artifacts(base, cand)
    assert report.ok, report.format()
    assert not report.regressions


def test_compare_flags_injected_timing_regression():
    base, cand = _two_artifacts()
    wall = cand.benches["oe_transport_csp"]["wallclock_s"]
    band = max(wall["iqr"], wall["rel_floor"] * wall["median"])
    wall["median"] += 10.0 * band  # way beyond scale × band
    report = compare_artifacts(base, cand, scale=3.0)
    assert not report.ok
    assert any(
        d.metric == "wallclock_s" and d.status == "regression"
        for d in report.regressions
    )
    assert "REGRESSION" in report.format()


def test_compare_flags_deterministic_fact_regression():
    base, cand = _two_artifacts()
    m = cand.benches["oe_transport_csp"]["metrics"]["kernel_items"]
    m["median"] += 1.0
    m["samples"] = [m["median"]]
    report = compare_artifacts(base, cand)
    assert any(
        d.metric == "kernel_items" and d.status == "regression"
        for d in report.regressions
    )
    # The same exact change in the good direction is an improvement.
    base2, cand2 = _two_artifacts()
    m = cand2.benches["oe_transport_csp"]["metrics"]["kernel_items"]
    m["median"] -= 1.0
    report2 = compare_artifacts(base2, cand2)
    assert report2.ok


def test_compare_missing_bench_is_a_regression():
    base, cand = _two_artifacts()
    cand.benches.clear()
    report = compare_artifacts(base, cand)
    assert not report.ok
    assert any(d.status == "missing" for d in report.regressions)


def test_compare_skips_timings_across_hosts():
    base, cand = _two_artifacts()
    cand.meta = copy.deepcopy(cand.meta)
    cand.meta["host"]["processor"] = "a different machine"
    wall = cand.benches["oe_transport_csp"]["wallclock_s"]
    wall["median"] *= 100.0  # would gate hard on the same host
    report = compare_artifacts(base, cand)
    assert report.ok
    assert any(d.status == "skipped_host" for d in report.deltas)
    # Deterministic algorithm facts still gate across hosts.
    m = cand.benches["oe_transport_csp"]["metrics"]["kernel_calls"]
    m["median"] += 5.0
    assert not compare_artifacts(base, cand).ok
    # --assume-same-host forces the timing comparison back on.
    forced = compare_artifacts(base, cand, assume_same_host=True)
    assert any(
        d.metric == "wallclock_s" and d.status == "regression"
        for d in forced.regressions
    )


# ---------------------------------------------------------------------------
# lru_cache defensive copies
# ---------------------------------------------------------------------------

def test_measured_workload_copies_are_isolated():
    a = measured_workload("csp")
    b = measured_workload("csp")
    assert a is not b and a.work_samples is not b.work_samples
    assert (a.work_samples == b.work_samples).all()
    a.work_samples[:] = -1.0  # poison one caller's copy...
    c = measured_workload("csp")
    assert (c.work_samples == b.work_samples).all()  # ...others unhurt


def test_shard_handoff_setup_derived_once(monkeypatch):
    """Repeated hand-off measurements reuse the cached population.

    The microbench times pickle/attach costs; a prior version re-derived
    the config, materials, mesh, and source population on every call,
    drowning the metric in setup.  Source sampling must happen exactly
    once per configuration, however many times the bench repeats."""
    import repro.particles.source as source_mod
    from repro.bench import runner as runner_mod

    real = source_mod.sample_source
    calls = {"n": 0}

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(source_mod, "sample_source", counting)
    runner_mod._handoff_population_cached.cache_clear()
    try:
        a = measured_shard_handoff(repeats=1)
        b = measured_shard_handoff(repeats=1)
    finally:
        runner_mod._handoff_population_cached.cache_clear()
    assert calls["n"] == 1
    assert a.pickled_particles_bytes == b.pickled_particles_bytes


# ---------------------------------------------------------------------------
# Reporting shape validation
# ---------------------------------------------------------------------------

def test_format_table_ragged_row_raises():
    with pytest.raises(ValueError, match=r"row 1 has 1 cells for 2"):
        format_table(["a", "b"], [[1, 2], ["only"]])


def test_format_series_length_mismatch_raises():
    with pytest.raises(ValueError, match=r"series 'walk': 3 x values"):
        format_series("walk", [1, 2, 3], [0.1, 0.2])
    assert "0.100" in format_series("walk", [1, 2], [0.1, 0.2])


# ---------------------------------------------------------------------------
# Prometheus type correctness (from a real pooled run)
# ---------------------------------------------------------------------------

def _parse_prometheus(text):
    """Return ({name: type}, {name: [sample lines]}, group order)."""
    types, samples, order = {}, {}, []
    for line in text.strip().splitlines():
        if line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE"):
            _, _, name, type_ = line.split()
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = type_
            order.append(name)
            samples[name] = []
        else:
            name = line.split("{")[0].split(" ")[0]
            assert name in types, f"sample before TYPE: {line}"
            samples[name].append(line)
    return types, samples, order


def _csp_telemetry(nworkers=None):
    """The RunTelemetry artifact ``repro run --telemetry`` writes for a
    small csp run."""
    recorder = Recorder()
    result = Simulation(csp_problem(nx=32, nparticles=24)).run(
        Scheme.OVER_EVENTS, nworkers=nworkers, recorder=recorder
    )
    return build_run_telemetry(result, recorder)


def test_prometheus_counter_gauge_types_from_pooled_run():
    telemetry = _csp_telemetry(nworkers=2)
    text = to_prometheus(telemetry)
    types, samples, order = _parse_prometheus(text)

    # Counters end in _total; gauges never do.
    for name, type_ in types.items():
        if type_ == "counter":
            assert name.endswith("_total"), name
        else:
            assert type_ == "gauge" and not name.endswith("_total"), name

    # The monotonic families the exporter used to mistype.
    assert types["repro_counter_collisions_total"] == "counter"
    assert types["repro_kernel_calls_total"] == "counter"
    assert types["repro_kernel_items_total"] == "counter"
    assert types["repro_workspace_allocations_total"] == "counter"
    assert types["repro_pool_retries_total"] == "counter"
    assert types["repro_worker_events_total"] == "counter"
    # Point-in-time measurements stay gauges.
    assert types["repro_run_wallclock_seconds"] == "gauge"
    assert types["repro_counter_load_imbalance"] == "gauge"
    assert types["repro_arena_bytes"] == "gauge"
    assert types["repro_worker_last_heartbeat_age_seconds"] == "gauge"

    # Exposition format: one contiguous group per family (the old
    # emitter interleaved kernel calls/items/seconds lines).
    kernel_samples = samples["repro_kernel_calls_total"]
    assert len(kernel_samples) == len(telemetry.kernel_profile)
    block = text.index("# TYPE repro_kernel_calls_total counter")
    nxt = text.index("# HELP", block + 1)
    for line in kernel_samples:
        pos = text.index(line)
        assert block < pos < nxt, "kernel samples not grouped"


def test_prometheus_escapes_label_values():
    telemetry = _csp_telemetry()
    telemetry.kernel_profile['we"ird\\nam\ne'] = [1, 2, 0.5]
    text = to_prometheus(telemetry)
    assert '{kernel="we\\"ird\\\\nam\\ne"}' in text
    assert '\nwe"ird' not in text  # no raw newline inside a label


# ---------------------------------------------------------------------------
# Machine-model recalibration
# ---------------------------------------------------------------------------

def test_recalibrate_constants_from_measured_profile():
    cfg = csp_problem(nx=MEASUREMENT_NX, nparticles=MEASUREMENT_PARTICLES)
    profile = Simulation(cfg).run(Scheme.OVER_EVENTS).counters.kernel_profile
    report = recalibrate_constants(profile)
    assert report.seconds_per_op > 0
    assert report.fits and all(
        math.isfinite(f.rel_error) for f in report.fits
    )
    assert "select_events" in report.skipped
    # The refitted constants reproduce the measurement exactly by
    # construction: refit ops × items × fitted rate == measured seconds.
    refit = recalibrate_constants(profile, report.constants)
    assert refit.max_abs_rel_error < 1e-9
    assert report.constants.collision_alu_ops != (
        DEFAULT_CONSTANTS.collision_alu_ops
    )
    assert "fitted cost" in report.format()


def test_recalibrate_from_artifact_and_empty_profile():
    results = run_tier("quick", repeats=1, warmup=0,
                       names=["oe_transport_csp"])
    artifact = build_bench_artifact(results, tier="quick")
    report = recalibrate_from_artifact(artifact)
    assert report.fits
    with pytest.raises(KeyError):
        recalibrate_from_artifact(artifact, bench="nope")
    with pytest.raises(ValueError, match="no mapped"):
        recalibrate_constants({"select_events": [1, 1, 0.5]})


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def test_cli_bench_end_to_end(tmp_path, capsys):
    from repro.cli import main

    base = tmp_path / "BENCH_1.json"
    assert main([
        "bench", "run", "--tier", "quick",
        "--bench", "oe_transport_csp", "--bench", "arena_footprint_csp",
        "--repeats", "1", "--warmup", "0",
        "--output", str(base),
    ]) == 0
    out = capsys.readouterr().out
    assert "artifact: 2 benches" in out
    validate_bench_artifact(json.loads(base.read_text()))

    # Self-compare: exit 0.
    assert main(["bench", "compare", str(base), str(base)]) == 0
    assert "OK: no out-of-band regressions" in capsys.readouterr().out

    # Injected deterministic regression: exit 1.
    d = json.loads(base.read_text())
    d["benches"]["oe_transport_csp"]["metrics"]["kernel_calls"][
        "median"] += 3
    worse = tmp_path / "BENCH_2.json"
    worse.write_text(json.dumps(d))
    assert main(["bench", "compare", str(base), str(worse)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    assert main(["bench", "list"]) == 0
    assert "oe_transport_csp" in capsys.readouterr().out

    assert main(["bench", "recalibrate", str(base)]) == 0
    assert "fitted cost" in capsys.readouterr().out
