"""Command-line interface."""

import argparse
from pathlib import Path

import pytest

import repro.core
from repro.cli import build_parser, main
from repro.core import Scheme, Simulation
from repro.ensemble import population_fingerprint

BENCH_5 = str(Path(__file__).resolve().parents[1] / "results" / "BENCH_5.json")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_problem():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--problem", "nope"])


def test_run_command(capsys):
    rc = main(["run", "--problem", "csp", "--nx", "48", "--particles", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy balance error" in out
    assert "population accounted: True" in out


def test_run_with_extensions(capsys):
    rc = main([
        "run", "--problem", "stream", "--nx", "48", "--particles", "20",
        "--boundary", "vacuum", "--russian-roulette",
        "--scheme", "over_events",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "escapes=20" in out


def test_run_with_workers(capsys):
    rc = main([
        "run", "--problem", "csp", "--nx", "48", "--particles", "30",
        "--workers", "2", "--schedule", "dynamic", "--chunk", "8",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pool: 2 workers, dynamic schedule" in out
    assert "worker 0:" in out and "worker 1:" in out
    assert "load imbalance (max/mean): measured" in out
    assert "modelled" in out
    assert "population accounted: True" in out


def test_parser_rejects_bad_schedule():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--schedule", "guided"])


def test_predict_cpu(capsys):
    rc = main(["predict", "--problem", "csp", "--machine", "broadwell"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted runtime" in out
    assert "tally share" in out


def test_predict_gpu(capsys):
    rc = main(["predict", "--problem", "csp", "--machine", "p100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "occupancy" in out
    assert "79 registers" in out


def test_characterise(capsys):
    rc = main(["characterise", "--problem", "stream"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "facets/particle" in out


def test_figures(capsys):
    rc = main(["figures"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Over Particles runtimes" in out
    assert "csp" in out and "p100" in out


def test_run3d(capsys):
    rc = main(["run", "--problem", "stream3", "--nx", "12", "--particles", "15"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mesh=12x12x12" in out
    assert "population accounted: True" in out


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "csp3", "--workers", "2"],
    ["ensemble", "run", "--problem", "csp3", "--replicas", "4"],
    ["run", "--problem", "csp3", "--russian-roulette"],
])
def test_3d_routes_run(argv, capsys):
    """A 3-D problem takes every route a 2-D one does: the pool, a fused
    ensemble and Russian roulette."""
    assert main(argv + ["--nx", "8", "--particles", "12"]) == 0
    out = capsys.readouterr().out
    assert "8x8x8" in out
    assert "population accounted: True" in out or "fused events:" in out


def test_run3d_over_events(capsys):
    rc = main([
        "run", "--problem", "scatter3", "--nx", "12", "--particles", "15",
        "--scheme", "over_events",
    ])
    assert rc == 0
    assert "collisions=" in capsys.readouterr().out


def test_run_show_tally(capsys):
    rc = main([
        "run", "--problem", "scatter", "--nx", "48", "--particles", "40",
        "--show-tally",
    ])
    assert rc == 0
    assert "energy deposition (log scale)" in capsys.readouterr().out


def test_figures_output_file(tmp_path, capsys):
    out = tmp_path / "sub" / "REPORT.md"
    rc = main(["figures", "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "Cross-architecture summary" in text
    assert "csp" in text and "p100" in text


def test_report_missing_telemetry_is_one_line_error(capsys):
    rc = main(["report", "definitely_not_there.json"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: no telemetry artifact at")


def test_report_corrupt_telemetry_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{this is not json")
    rc = main(["report", str(bad)])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert "is not valid JSON" in err_lines[0]


def test_report_schema_invalid_telemetry_is_one_line_error(tmp_path, capsys):
    import json as _json

    bad = tmp_path / "wrong.json"
    bad.write_text(_json.dumps({"schema": {"name": "other", "version": 1}}))
    rc = main(["report", str(bad)])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert "is not a valid RunTelemetry artifact" in err_lines[0]


def test_run_serve_metrics_serves_while_running(capsys):
    rc = main([
        "run", "--problem", "csp", "--nx", "16", "--particles", "24",
        "--serve-metrics", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "live metrics: http://127.0.0.1:" in out
    assert "population accounted: True" in out


def test_run_serve_metrics_with_drift_baseline(capsys):
    rc = main([
        "run", "--problem", "csp", "--nx", "16", "--particles", "24",
        "--serve-metrics", "0", "--drift-baseline", "results/BENCH_4.json",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "drift watchdog: expecting" in out


def test_run_serve_metrics_bad_drift_baseline(capsys):
    rc = main([
        "run", "--problem", "csp", "--nx", "16", "--particles", "24",
        "--serve-metrics", "0", "--drift-baseline", "missing.json",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_ensemble_run_serve_metrics(capsys):
    rc = main([
        "ensemble", "run", "--problem", "csp", "--nx", "16",
        "--particles", "12", "--replicas", "3", "--serve-metrics", "0",
    ])
    assert rc == 0
    assert "live metrics:" in capsys.readouterr().out


def test_ensemble_run_scheme_auto(capsys):
    rc = main([
        "ensemble", "run", "--problem", "csp", "--nx", "16",
        "--particles", "12", "--replicas", "3", "--timesteps", "3",
        "--scheme", "auto", "--compare-looped",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "16x16 mesh, auto," in out
    assert "per-replica parity vs looped: BIT-IDENTICAL" in out


def test_run3d_serve_metrics(capsys, monkeypatch):
    import repro.cli as cli

    planes = []
    start_live_plane = cli._start_live_plane

    def capture(args, recorder=None):
        planes.append(start_live_plane(args, recorder))
        return planes[-1]

    monkeypatch.setattr(cli, "_start_live_plane", capture)
    rc = main([
        "run", "--problem", "csp3", "--nx", "8", "--particles", "10",
        "--serve-metrics", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "live metrics:" in out
    # The 3-D run rides the census stepper, so its probe fed the plane per
    # census step and the final commit closed the one shard.
    snap = planes[0][0].snapshot()
    assert snap["run"]["done"] and snap["run"]["ntimesteps"] == 1
    agg = snap["aggregate"]
    assert agg["steps_total"] == 1 and agg["shards_total"] == 1
    assert agg["histories_total"] == 10
    events = dict(
        field.split("=")
        for field in out.split("events: ")[1].splitlines()[0].split()
    )
    assert agg["events_total"] == sum(
        int(events[k]) for k in ("collisions", "facets", "census")
    )


@pytest.mark.parametrize("scheme", [Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS])
@pytest.mark.parametrize("problem", ["stream3", "scatter3", "csp3"])
def test_run_3d_prints_the_library_result(problem, scheme, capsys):
    rc = main([
        "run", "--problem", problem, "--nx", "8", "--particles", "12",
        "--scheme", scheme.value,
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    factory = getattr(repro.core, f"{problem}_problem")
    result = Simulation(factory(8, nparticles=12)).run(scheme)
    c = result.counters
    assert (
        f"events: collisions={c.collisions} facets={c.facets} "
        f"census={c.census_events} terminations={c.terminations} "
        f"escapes={c.escapes}"
    ) in lines
    assert f"deposition total: {result.tally.total():.4e} eV" in lines


def test_run_3d_auto_reproduces_over_events(capsys, monkeypatch):
    import repro.cli as cli

    results = []

    class Recording(Simulation):
        def run(self, *args, **kwargs):
            results.append(super().run(*args, **kwargs))
            return results[-1]

    monkeypatch.setattr(cli, "Simulation", Recording)
    rc = main([
        "run", "--problem", "csp3", "--nx", "8", "--particles", "20",
        "--scheme", "auto", "--timesteps", "3",
    ])
    assert rc == 0
    assert "scheme=auto" in capsys.readouterr().out
    oe = Simulation(
        repro.core.csp3_problem(8, nparticles=20, ntimesteps=3)
    ).run(Scheme.OVER_EVENTS)
    assert population_fingerprint(results[0].arena) == population_fingerprint(
        oe.arena
    )


def _subcommand(parser, *path):
    for name in path:
        parser = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices[name]
    return parser


def _options(parser):
    return {
        a.dest: (tuple(a.option_strings), a.type, a.choices)
        for a in parser._actions if a.option_strings and a.dest != "help"
    }


def test_run_and_ensemble_run_define_shared_options_identically():
    parser = build_parser()
    run = _options(_subcommand(parser, "run"))
    ens = _options(_subcommand(parser, "ensemble", "run"))
    assert (len(run), len(ens)) == (23, 15)
    shared = run.keys() & ens.keys()
    assert {run[dest][0][0] for dest in shared} == {
        "--problem", "--nx", "--particles", "--scheme", "--timesteps",
        "--seed", "--xs-mode", "--workers", "--telemetry", "--serve-metrics",
    }
    for dest in shared:
        assert run[dest] == ens[dest], dest


@pytest.mark.parametrize("argv", [
    ["run", "--particles", "0"],
    ["run", "--timesteps", "0"],
    ["run", "--workers", "2", "--fault-plan", "bogus"],
    ["run", "--workers", "0"],
    ["run", "--workers", "2", "--chunk", "0"],
    ["run", "--workers", "1", "--fault-plan", "kill:worker=1"],
    ["run", "--fault-plan", "kill:worker=1"],
    ["run", "--problem", "csp3", "--workers", "0"],
    ["run", "--problem", "csp3", "--particles", "0"],
    ["ensemble", "run", "--problem", "csp3", "--replicas", "0"],
    ["run", "--seed=-1"],
    ["run", "--problem", "csp3", "--seed=18446744073709551616"],
    ["capacity", "plan", "missing.json"],
    ["capacity", "plan", "not_json.json"],
    ["capacity", "plan", "not_bench.json"],
    ["bench", "recalibrate", "missing.json"],
    ["bench", "recalibrate", "not_bench.json"],
    ["bench", "recalibrate", BENCH_5, "--bench", "nope"],
    ["run", "--drift-baseline", "not_json.json"],
    ["run", "--serve-metrics", "0", "--drift-baseline", "not_json.json"],
    ["run", "--serve-metrics", "0", "--drift-baseline", "not_bench.json"],
])
def test_refused_input_is_one_line_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not_json.json").write_text("nope\n")
    (tmp_path / "not_bench.json").write_text("{}\n")
    reads_artifact = argv[0] in ("bench", "capacity")
    assert main(argv + ([] if reads_artifact else ["--nx", "8"])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    artifacts = [a for a in argv if a.endswith(".json")]
    if artifacts and (reads_artifact or "--serve-metrics" in argv):
        assert artifacts[0] in err_lines[0]  # the unreadable file is named


@pytest.mark.parametrize("scheme", ["over_particles", "over_events", "auto"])
@pytest.mark.parametrize("problem", ["csp", "scatter"])
def test_serial_default_equals_one_worker(problem, scheme, capsys):
    """Unset ``--workers`` runs serially and ``--workers 1`` runs the
    pool's in-process path: both print the same lines but the host
    wall-clock."""
    argv = ["run", "--problem", problem, "--nx", "24", "--particles", "40",
            "--scheme", scheme]
    printed = []
    for extra in ([], ["--workers", "1"]):
        assert main(argv + extra) == 0
        printed.append([line for line in capsys.readouterr().out.splitlines()
                        if not line.startswith("host wall-clock:")])
    assert printed[0] == printed[1]
    assert any(line.startswith("events: ") for line in printed[0])
