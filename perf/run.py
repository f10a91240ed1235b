"""The repository benchmark: one command, named metrics, checked outputs.

    python3 perf/run.py --workload csp_oe_mg --seed 7 --seconds 10 --trace 0
    python3 perf/run.py [--seed 7] [--out perf/out/<id>]      # every workload

With ``--workload`` it measures one workload and prints, as the last line
of standard output, one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without it, it does both for every workload,
prints every metric by name with its unit and writes ``results.json`` plus
one ``trace_<workload>.json`` under ``--out``.

This process only orchestrates: every phase runs in a fresh interpreter
(child.py), one at a time, with BLAS/OpenMP pinned to one thread, so the
only concurrency is the two pool workers of ``csp_pool2_mg``.  Metric
names, units and directions are read from ``BENCHMARK.json``, whose
per-layer list must equal the table in layers.py; a metric the phases did
not produce is an error, so the manifest and the runner cannot drift
apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a file: ``perf`` itself is not importable
    sys.path.insert(0, ROOT)

from perf import layers  # noqa: E402

SRC = os.path.join(ROOT, "src")
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch for the program's own temporary files (the pool's flight
#: recorder), so that nothing is written outside the checkout.
TMP_DIR = os.path.join(ROOT, "perf", "out", "tmp")

#: Fresh interpreters that each time the cold set-up once.
SETUP_REPEATS = 5
#: Exit status of a single-workload invocation on a host with fewer
#: processors than the workload has workers: nothing was measured.
EXIT_SKIPPED = 3
CHILD_TIMEOUT_S = 170
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}


def load_manifest() -> dict:
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["per_layer"] != layers.per_layer_manifest():
        raise SystemExit("BENCHMARK.json per_layer differs from perf/layers.py:"
                         " run `python3 perf/layers.py --write`")
    return manifest


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = TMP_DIR
    return env


def run_child(phase: str, **options) -> dict:
    """Run one phase in a fresh interpreter and wait for it; its result is
    the JSON object on the last line of its standard output."""
    os.makedirs(TMP_DIR, exist_ok=True)
    argv = [sys.executable, "-m", "perf.child", phase]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(samples) -> dict:
    """Median, quartiles and count of ``samples``."""
    samples = list(samples)
    out = {"value": statistics.median(samples), "n": len(samples),
           "samples": samples}
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _problems(phase_out: dict) -> list[str]:
    return [f"{row['kind']}: {p}" for row in phase_out["runs"]
            for p in row["problems"]]


def measure_end_to_end(workload: str, seed: int, scale: str,
                       seconds: float) -> dict:
    """The ``--trace 0`` measurement of one workload."""
    measured = run_child("measure", workload=workload, seed=seed, scale=scale,
                         seconds=seconds)
    if "skipped" in measured:
        return measured
    setups = [run_child("setup", workload=workload, seed=seed, scale=scale)
              for _ in range(SETUP_REPEATS)]
    timed = [r for r in measured["runs"]
             if r["kind"] == "timed" and r["facts"] is not None]
    metrics = {}
    if timed:
        metrics = {
            "wall_s": summarise(r["wall_s"] for r in timed),
            "events_per_s": summarise(
                r["facts"]["total_events"] / r["wall_s"] for r in timed),
            "setup_s": summarise(s["setup_s"] for s in setups),
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "n": 1},
        }
    return {
        "attempted": measured["attempted"] + len(setups),
        "failed": measured["failed"],
        "problems": _problems(measured),
        "metrics": metrics,
        "facts": timed[0]["facts"] if timed else None,
    }


def run_drills(seed: int) -> dict:
    return run_child("drills", seed=seed)["drills"]


def measure_per_layer(workload: str, seed: int, scale: str, seconds: float,
                      drills: dict | None = None) -> dict:
    """The ``--trace 1`` measurement of one workload: traced runs, exact
    counts from the result object, and the layer drills (which do not
    depend on the workload, so a caller measuring several passes them in)."""
    traced = run_child("trace", workload=workload, seed=seed, scale=scale,
                       seconds=seconds)
    if "skipped" in traced:
        return traced
    if drills is None:
        drills = run_drills(seed)
    metrics = {name: {"value": value, "n": 1}
               for name, value in traced.get("metrics", {}).items()}
    metrics.update(drills)
    return {
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "problems": _problems(traced),
        "metrics": metrics,
        "trace": traced.get("trace"),
    }


def contract_line(measured: dict, declared: list[dict]) -> dict:
    """The driver-facing result: exactly the declared metrics, each with
    the manifest's unit.  A declared metric nobody produced raises."""
    metrics = measured["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not measured["failed"]:
        raise KeyError(f"declared metrics not produced: {missing}")
    return {
        "correct": measured["failed"] == 0 and not missing,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
    }


def host_record(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_pins": THREAD_PINS,
        "git_commit": commit,
        "seed": seed,
    }


def _print_metrics(title: str, declared: list[dict], metrics: dict) -> None:
    print(f"  {title}")
    for m in declared:
        row = metrics[m["name"]]
        spread = ""
        if "q1" in row:
            spread = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]"
        print(f"    {m['name']:<42} {row['value']:>14.6g} {m['unit']}{spread}")


def run_all(manifest: dict, seed: int, scale: str, seconds: float,
            out_dir: str) -> int:
    """Every workload, both ways; writes results.json and the traces."""
    os.makedirs(out_dir, exist_ok=True)
    results = {"host": host_record(seed), "scale": scale,
               "run_seconds": seconds, "workloads": {}}
    failed = 0
    drills = run_drills(seed)
    for entry in manifest["workloads"]:
        name = entry["name"]
        print(f"{name}: {entry['why']}")
        end_to_end = measure_end_to_end(name, seed, scale, seconds)
        if "skipped" in end_to_end:
            print(f"  skipped: {end_to_end['skipped']}")
            results["workloads"][name] = end_to_end
            continue
        per_layer = measure_per_layer(name, seed, scale, seconds, drills)
        trace = per_layer.pop("trace")
        for part in (end_to_end, per_layer):
            failed += part["failed"]
            for problem in part["problems"]:
                print(f"  FAILED {problem}", file=sys.stderr)
        attempted = end_to_end["attempted"] + per_layer["attempted"]
        print(f"  runs attempted {attempted}, failed "
              f"{end_to_end['failed'] + per_layer['failed']}")
        _print_metrics("end to end (tracing off)", manifest["end_to_end"],
                       end_to_end["metrics"])
        _print_metrics("per layer (traced run, result object, drills)",
                       manifest["per_layer"], per_layer["metrics"])
        results["workloads"][name] = {
            "end_to_end": end_to_end, "per_layer": per_layer}
        if trace is not None:
            with open(os.path.join(out_dir, f"trace_{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(trace, fh)
    with open(os.path.join(out_dir, "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.join(out_dir, 'results.json')}")
    return 1 if failed else 0


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="measure one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="directory for results.json and traces")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: the program under {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        out_dir = args.out or os.path.join(
            ROOT, "perf", "out", time.strftime("%Y%m%d-%H%M%S"))
        return run_all(manifest, args.seed, args.scale, args.seconds, out_dir)

    if args.trace:
        measured = measure_per_layer(args.workload, args.seed, args.scale,
                                     args.seconds)
        declared = manifest["per_layer"]
    else:
        measured = measure_end_to_end(args.workload, args.seed, args.scale,
                                      args.seconds)
        declared = manifest["end_to_end"]
    if "skipped" in measured:
        print(f"perf/run.py: {args.workload} skipped: {measured['skipped']}",
              file=sys.stderr)
        return EXIT_SKIPPED
    for problem in measured["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(contract_line(measured, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
