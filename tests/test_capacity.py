"""Capacity planning on the calibrated scaling model (ROADMAP item 5's
closing half), including the acceptance loop: the plan must reproduce
the benched worker count from only a committed ``BENCH_*.json``."""

import math
from pathlib import Path

import pytest

from repro.bench import load_bench_artifact
from repro.perfmodel import (
    plan_capacity,
    scenario_from_artifact,
)
from repro.perfmodel.capacity import (
    amdahl_serial_fraction,
    implied_workers,
    required_workers,
)

ARTIFACT = str(Path(__file__).resolve().parents[1] / "results" / "BENCH_4.json")


def _latency(t1, f, workers):
    """``T(w) = t1 * (f + (1 - f) / w)``, the law the planner fits."""
    return t1 * (f + (1.0 - f) / workers)


# ---------------------------------------------------------------------------
# Amdahl units
# ---------------------------------------------------------------------------

def test_serial_fraction_inverts_the_law():
    # A workload that halves on 2 workers is perfectly parallel.
    assert amdahl_serial_fraction(1.0, 0.5, 2) == pytest.approx(0.0)
    # No change at all means fully serial.
    assert amdahl_serial_fraction(1.0, 1.0, 2) == pytest.approx(1.0)
    # Pooling that *hurts* fits f > 1 (real on a 1-CPU host).
    assert amdahl_serial_fraction(1.0, 1.25, 2) == pytest.approx(1.5)
    # Round trip: T(n) computed from the fitted f lands on tn.
    f = amdahl_serial_fraction(2.0, 0.8, 4)
    assert _latency(2.0, f, 4) == pytest.approx(0.8)


def test_serial_fraction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        amdahl_serial_fraction(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        amdahl_serial_fraction(1.0, -1.0, 2)
    with pytest.raises(ValueError):
        amdahl_serial_fraction(1.0, 1.0, 1)


def test_implied_workers_inverts_predicted_latency():
    t1, f = 2.0, 0.25
    for w in (1.0, 2.0, 4.0, 16.0):
        lat = _latency(t1, f, w)
        assert implied_workers(t1, f, lat) == pytest.approx(w)
    # At the asymptote there is no finite answer.
    assert implied_workers(t1, f, t1 * f) is None
    with pytest.raises(ValueError):
        implied_workers(t1, f, 0.0)


def test_required_workers_feasibility_regions():
    t1, f = 1.0, 0.25
    assert required_workers(t1, f, 2.0) == 1.0  # SLO above t1: one worker
    w = required_workers(t1, f, 0.5)
    assert _latency(t1, f, w) == pytest.approx(0.5)
    assert required_workers(t1, f, 0.25) == math.inf  # at the asymptote
    assert required_workers(t1, f, 0.1) == math.inf   # below it
    # f >= 1: latency rises with width; one worker or nothing.
    assert required_workers(1.0, 1.5, 2.0) == 1.0
    assert required_workers(1.0, 1.5, 0.5) == math.inf
    with pytest.raises(ValueError):
        required_workers(t1, f, 0.0)


# ---------------------------------------------------------------------------
# Scenario extraction from the committed artifact
# ---------------------------------------------------------------------------

def test_scenario_from_committed_artifact():
    scenario = scenario_from_artifact(load_bench_artifact(ARTIFACT))
    assert scenario.bench == "pool_speedup_csp"
    assert scenario.serial_s > 0
    assert scenario.parallel_s > 0
    assert scenario.nworkers == 2
    # BENCH_4 has kernel profiles, so the recalibration error is real.
    assert scenario.model_error > 0
    assert "t1=" in scenario.format()


def test_scenario_rejects_missing_bench():
    artifact = load_bench_artifact(ARTIFACT)
    with pytest.raises(ValueError, match="no bench"):
        scenario_from_artifact(artifact, bench="nope")
    with pytest.raises(ValueError, match="no 'serial_s' metric"):
        scenario_from_artifact(artifact, bench="oe_transport_csp")


# ---------------------------------------------------------------------------
# Planning modes
# ---------------------------------------------------------------------------

def test_reproduce_mode_lands_on_the_benched_worker_count():
    """The acceptance loop: model + committed artifact alone must imply
    the worker count the bench actually ran with, within the model's own
    reported error band."""
    scenario = scenario_from_artifact(load_bench_artifact(ARTIFACT))
    plan = plan_capacity(scenario)
    assert plan.mode == "reproduce"
    assert plan.feasible
    assert plan.workers == scenario.nworkers
    assert plan.workers_low <= plan.workers_per_job <= plan.workers_high
    assert "reproduce:" in plan.format()


def test_slo_mode_with_traffic_rate():
    scenario = scenario_from_artifact(load_bench_artifact(ARTIFACT))
    slo = scenario.serial_s * 2
    plan = plan_capacity(scenario, latency_slo=slo, rate=10.0)
    assert plan.feasible
    assert plan.workers is not None and plan.workers >= 1
    # Little's law: rate*slo jobs in flight, each at workers_per_job.
    assert plan.fleet == max(
        1, math.ceil(plan.workers_per_job * 10.0 * slo)
    )
    assert "fleet of" in plan.format()


def test_slo_mode_reports_honest_infeasibility():
    scenario = scenario_from_artifact(load_bench_artifact(ARTIFACT))
    plan = plan_capacity(
        scenario, latency_slo=scenario.serial_s / 100.0
    )
    assert not plan.feasible
    assert plan.workers is None
    assert plan.fleet is None
    assert "INFEASIBLE" in plan.format()
    with pytest.raises(ValueError):
        plan_capacity(scenario, latency_slo=1.0, rate=-1.0)


def test_parallel_friendly_synthetic_scenario():
    from repro.perfmodel import CapacityScenario

    scenario = CapacityScenario(
        bench="synthetic", serial_s=1.0, parallel_s=0.55, nworkers=2,
        serial_fraction=amdahl_serial_fraction(1.0, 0.55, 2),
        model_error=0.1, host={},
    )
    plan = plan_capacity(scenario)
    assert plan.workers == 2
    plan = plan_capacity(scenario, latency_slo=0.3, rate=4.0)
    assert plan.feasible
    assert plan.workers >= 2
    assert plan.fleet >= plan.workers


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_capacity_plan_reproduce(capsys):
    from repro.cli import main

    rc = main(["capacity", "plan", ARTIFACT])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario [pool_speedup_csp]" in out
    assert "reproduce: model implies 2.00 workers" in out


def test_cli_capacity_plan_slo_and_rate(capsys):
    from repro.cli import main

    rc = main(["capacity", "plan", ARTIFACT, "--slo", "0.5", "--rate", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker(s) per job" in out
    assert "fleet of" in out


def test_cli_capacity_plan_infeasible_exits_nonzero(capsys):
    from repro.cli import main

    rc = main(["capacity", "plan", ARTIFACT, "--slo", "0.0001"])
    assert rc == 1
    assert "INFEASIBLE" in capsys.readouterr().out


def test_cli_capacity_plan_missing_artifact(capsys):
    from repro.cli import main

    rc = main(["capacity", "plan", "no_such_bench.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err



def _assert_one_line_error(capsys, argv, needle):
    from repro.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and needle in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("rate", ["4", "-3"])
def test_cli_capacity_plan_rate_without_slo_is_refused(capsys, rate):
    _assert_one_line_error(
        capsys, ["capacity", "plan", ARTIFACT, "--rate", rate], "SLO"
    )


@pytest.mark.parametrize("rate", ["-3", "0"])
def test_cli_capacity_plan_non_positive_rate_is_refused(capsys, rate):
    _assert_one_line_error(
        capsys, ["capacity", "plan", ARTIFACT, "--slo", "1", "--rate", rate],
        "rate must be positive",
    )
