"""``perf/run.py --scale smoke`` end to end: the result schema, the name
rule, the interaction map (layers.py) and the manifest all agree with what
the runner emits.  Takes about a minute (sizes / 50, one second of timed
runs per workload)."""

import json
import os
import re
import subprocess
import sys

import pytest

from perf import child, layers, run as perf_run

ROOT = perf_run.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def manifest():
    return perf_run.load_manifest()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf_smoke")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"),
         "--scale", "smoke", "--seconds", "1", "--seed", "3",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out / "results.json", encoding="utf-8") as fh:
        data = json.load(fh)
    data["_out"] = out
    data["_stdout"] = proc.stdout
    return data


def test_manifest_names_follow_the_rule_and_are_unique(manifest):
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"]]
    names += [m["name"] for m in manifest["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert manifest["paths"] == ["perf"]
    assert "setup_s" in [m["name"] for m in manifest["end_to_end"]]


def test_interaction_map_targets_exist(manifest):
    workloads = {w["name"] for w in manifest["workloads"]}
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    for row in layers.LAYERS:
        assert row.source in ("T", "R", "D"), row.name
        assert row.moves in end_to_end, row.name
        assert set(row.on) <= workloads, row.name
        assert set(row.flat_on) <= workloads, row.name
        assert not set(row.on) & set(row.flat_on), row.name


def test_pooled_workload_is_skipped_on_a_single_processor(monkeypatch, capsys):
    monkeypatch.setattr(child.os, "sched_getaffinity", lambda pid: {0})
    for phase in ("measure", "trace"):
        assert child.main([phase, "--workload", "csp_pool2_mg", "--seed", "3",
                           "--scale", "smoke", "--seconds", "0"]) == 0
        assert "skipped" in json.loads(capsys.readouterr().out)


def test_runner_emits_exactly_the_declared_metrics(manifest, results):
    declared = {
        "end_to_end": {m["name"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"] for m in manifest["per_layer"]},
    }
    assert set(results["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for name, parts in results["workloads"].items():
        for part, names in declared.items():
            got = parts[part]
            assert got["failed"] == 0, (name, part, got["problems"])
            assert got["attempted"] >= 1
            assert set(got["metrics"]) == names, (name, part)
            for metric, row in got["metrics"].items():
                assert isinstance(row["value"], (int, float)), (name, metric)
        for metric in ("wall_s", "events_per_s", "setup_s", "peak_rss_mb"):
            assert parts["end_to_end"]["metrics"][metric]["value"] > 0
        layers = parts["per_layer"]["metrics"]
        assert layers["trace.unhit_points"]["value"] == 0
        assert layers["trace.identity_residual_s"]["value"] <= 1e-6


def test_every_metric_is_printed_by_name_with_its_unit(manifest, results):
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}",
                         results["_stdout"], re.M), m["name"]


def test_host_record_and_traces_are_written(manifest, results):
    host = results["host"]
    for key in ("nproc", "loadavg_at_start", "python", "numpy",
                "thread_pins", "git_commit", "seed"):
        assert key in host
    assert host["seed"] == 3
    for w in manifest["workloads"]:
        with open(results["_out"] / f"trace_{w['name']}.json",
                  encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["workload"] == w["name"]
        assert trace["spans"][0][0] == "root"


def test_contract_line_has_exactly_the_contract_keys(manifest):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--workload",
         "scatter_oe_ce", "--seed", "5", "--seconds", "1", "--trace", "0",
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=120, cwd="/")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert all(set(v) == {"value", "unit"} and v["unit"] == units[k]
               for k, v in line["metrics"].items())
