"""The BENCH_<n>.json artifact schema, the figure-table formatters, the
Prometheus exporter and the machine-model recalibration.

The timed bench tier that wrote the artifacts is retired; these are the
tests of what still reads them (the committed ``results/BENCH_*.json``)
and of the bench/exporter fixes that rode along with the registry.  The
artifacts' deterministic facts are pinned in ``tests/test_bench_facts.py``.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.bench import (
    BenchSchemaError,
    format_series,
    format_table,
    load_bench_artifact,
    measured_workload,
    validate_bench_artifact,
)
from repro.bench.runner import MEASUREMENT_NX, MEASUREMENT_PARTICLES
from repro.core import Scheme, Simulation, csp_problem
from repro.obs import Recorder, build_run_telemetry, to_prometheus
from repro.perfmodel import (
    DEFAULT_CONSTANTS,
    recalibrate_constants,
    recalibrate_from_artifact,
)

BASELINE = Path(__file__).resolve().parents[1] / "results" / "BENCH_6.json"


# ---------------------------------------------------------------------------
# Artifact round-trip and schema
# ---------------------------------------------------------------------------

def test_artifact_roundtrip_and_byte_stability():
    text = BASELINE.read_text()
    raw = json.loads(text)
    loaded = load_bench_artifact(BASELINE)  # schema-validates
    assert loaded.meta == raw["meta"] and loaded.benches == raw["benches"]
    assert loaded.bench_names() == sorted(raw["benches"])
    # The committed artifact is canonical JSON: sorted keys, fixed
    # separators, one trailing newline.
    assert text == json.dumps(raw, sort_keys=True,
                              separators=(",", ":")) + "\n"

    oe = loaded.benches["oe_transport_csp"]
    assert oe["kernel_profile"], "transport bench must carry the profile"
    assert oe["repeats"] == 3
    assert oe["metrics"]["kernel_calls"]["iqr"] == 0.0  # deterministic
    assert loaded.meta["git"]["sha"]
    assert loaded.meta["host"]["python"]


def test_artifact_schema_rejects_tampering():
    d = json.loads(BASELINE.read_text())
    validate_bench_artifact(d)

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


def test_committed_baseline_validates():
    # The trajectory's history stays loadable and keeps its claims...
    first = load_bench_artifact(BASELINE.with_name("BENCH_1.json"))
    assert first.meta["sequence"] == 1
    assert first.meta["tier"] == "quick"
    assert first.meta["claims"]["shard_payload_reduction"] > 100
    second = load_bench_artifact(BASELINE.with_name("BENCH_2.json"))
    assert second.meta["sequence"] == 2
    assert second.meta["claims"]["ensemble_parity"] == 1.0
    third = load_bench_artifact(BASELINE.with_name("BENCH_3.json"))
    assert third.meta["sequence"] == 3
    assert third.meta["claims"]["adaptive_parity"] == 1.0
    fourth = load_bench_artifact(BASELINE.with_name("BENCH_4.json"))
    assert fourth.meta["sequence"] == 4
    assert fourth.meta["claims"]["ensemble_parity"] == 1.0
    assert fourth.meta["claims"]["adaptive_efficiency"] >= 0.95
    assert fourth.meta["claims"]["ce_parity"] == 1.0
    fifth = load_bench_artifact(BASELINE.with_name("BENCH_5.json"))
    assert fifth.meta["sequence"] == 5
    # ...and the current baseline covers the whole quick tier, with the
    # algorithm facts of the one before it (the kernels got faster, not
    # different).
    current = load_bench_artifact(BASELINE.with_name("BENCH_6.json"))
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
    assert set(current.benches) == {
        "oe_transport_csp", "op_transport_csp", "pool_speedup_csp",
        "shard_handoff", "recovery_overhead_csp", "ensemble_throughput_csp",
        "adaptive_crossover_csp", "ce_lookup_csp", "live_overhead_csp",
        "arena_footprint_csp",
    }


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
    artifact = load_bench_artifact(BASELINE)
    report = recalibrate_from_artifact(artifact)
    assert report.fits
    with pytest.raises(KeyError):
        recalibrate_from_artifact(artifact, bench="nope")
    with pytest.raises(ValueError, match="no mapped"):
        recalibrate_constants({"select_events": [1, 1, 0.5]})


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def test_cli_bench_end_to_end(capsys):
    from repro.cli import main

    assert main(["bench", "recalibrate", str(BASELINE)]) == 0
    out = capsys.readouterr().out
    assert "fitted cost" in out
    assert out == recalibrate_from_artifact(
        load_bench_artifact(BASELINE)
    ).format() + "\n"

    assert main(["bench", "recalibrate", str(BASELINE),
                 "--bench", "nope"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
