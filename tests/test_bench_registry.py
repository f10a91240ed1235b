"""The claims of the retired ``BENCH_<n>.json`` history, the figure-table
formatters, the Prometheus exporter and the machine-model recalibration
from the committed ``perf/`` result ``results/PERF_1.json``.

The timed bench tier that wrote the ``BENCH_*.json`` files is retired and
nothing in the library reads them; their deterministic facts are pinned
in ``tests/test_bench_facts.py``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.bench import format_series, format_table, measured_workload
from repro.bench.runner import MEASUREMENT_NX, MEASUREMENT_PARTICLES
from repro.core import Scheme, Simulation, csp_problem
from repro.obs import Recorder, build_run_telemetry, to_prometheus
from repro.perfmodel import (
    DEFAULT_CONSTANTS,
    load_perf_workload,
    recalibrate_constants,
    recalibrate_from_artifact,
)
from repro.perfmodel.recalibrate import DRILL_METRICS

BASELINE = Path(__file__).resolve().parents[1] / "results" / "BENCH_6.json"
PERF_1 = BASELINE.with_name("PERF_1.json")


# ---------------------------------------------------------------------------
# The committed history
# ---------------------------------------------------------------------------

def _history(n: int) -> dict:
    return json.loads(BASELINE.with_name(f"BENCH_{n}.json").read_text())


def test_committed_baseline_validates():
    # The trajectory's history keeps its claims...
    first = _history(1)
    assert first["meta"]["sequence"] == 1
    assert first["meta"]["tier"] == "quick"
    assert first["meta"]["claims"]["shard_payload_reduction"] > 100
    second = _history(2)
    assert second["meta"]["sequence"] == 2
    assert second["meta"]["claims"]["ensemble_parity"] == 1.0
    third = _history(3)
    assert third["meta"]["sequence"] == 3
    assert third["meta"]["claims"]["adaptive_parity"] == 1.0
    fourth = _history(4)
    assert fourth["meta"]["sequence"] == 4
    assert fourth["meta"]["claims"]["ensemble_parity"] == 1.0
    assert fourth["meta"]["claims"]["adaptive_efficiency"] >= 0.95
    assert fourth["meta"]["claims"]["ce_parity"] == 1.0
    fifth = _history(5)
    assert fifth["meta"]["sequence"] == 5
    # ...and the current baseline covers the whole quick tier, with the
    # algorithm facts of the one before it (the kernels got faster, not
    # different).
    current = _history(6)
    assert current["meta"]["sequence"] == 6
    assert current["meta"]["tier"] == "quick"
    for bench in ("oe_transport_csp", "op_transport_csp"):
        for fact in ("kernel_calls", "kernel_items", "xs_lookups"):
            assert (current["benches"][bench]["metrics"][fact]["median"]
                    == fifth["benches"][bench]["metrics"][fact]["median"])
        assert current["benches"][bench]["metrics"][
            "workspace_allocations"]["median"] == 24
    assert current["meta"]["claims"]["ensemble_parity"] == 1.0
    assert current["meta"]["claims"]["ensemble_speedup_csp_vs_looped"] > 5
    assert current["meta"]["claims"]["adaptive_parity"] == 1.0
    assert current["meta"]["claims"]["ce_parity"] == 1.0
    assert 0 < current["meta"]["claims"]["ce_oe_op_ratio"] < 1.0
    assert current["meta"]["claims"]["live_parity"] == 1.0
    assert current["meta"]["claims"]["live_endpoint_ok"] == 1.0
    assert set(current["benches"]) == {
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
    metrics = load_perf_workload(PERF_1)
    report = recalibrate_from_artifact(metrics)
    # One row per drill, each 16 384 items at the drill's ns per item.
    assert {f.kernel for f in report.fits} == {
        "collide", "cross_facet", "distances"}
    for fit in report.fits:
        assert fit.items == 16384
        assert fit.measured_s == pytest.approx(
            metrics[DRILL_METRICS[fit.kernel]]["value"] * 16384e-9)
    assert ("not fitted (no measurement): census, xs_lookup"
            in report.format())
    with pytest.raises(ValueError, match="no mapped"):
        recalibrate_constants({"select_events": [1, 1, 0.5]})


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def test_cli_bench_end_to_end(capsys):
    from repro.cli import main

    assert main(["bench", "recalibrate", str(PERF_1)]) == 0
    out = capsys.readouterr().out
    assert "fitted cost" in out
    assert out == recalibrate_from_artifact(
        load_perf_workload(PERF_1)
    ).format() + "\n"
