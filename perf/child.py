"""One benchmark phase in one fresh interpreter.

``run.py`` starts this file once per phase so that process-level caches
(the CE library memo, numpy's lazy set-up), ``ru_maxrss`` and import time
belong to exactly one workload.  It prints one JSON object on its last
line of standard output:

* ``setup``   — what every invocation pays before transport starts;
* ``measure`` — a small warm-up, then timed runs with tracing off;
* ``trace``   — the reference run, then plain and traced runs in turn;
* ``drills``  — fixed-input calls into single layers (drills.py).
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from perf import check, trace, workloads  # noqa: E402
from repro.obs.spans import Recorder  # noqa: E402

#: Seconds to import numpy, the program and the benchmark's own modules.
IMPORT_S = time.perf_counter() - _T_IMPORT

MIN_TIMED_RUNS = 3
#: Share of ``--seconds`` the trace phase spends on plain/traced runs; the
#: rest of the invocation's measuring time goes to the drills.
TRACE_RUN_SHARE = 0.6

_clock = time.perf_counter


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child,
    in MiB.  Children exist only on the pooled workload, whose two workers
    run equal static shards; the kernel keeps the maximum over reaped
    children, not their sum.

    This process's own peak is ``VmHWM``, not ``ru_maxrss``: exec carries
    the spawning process's resident size over into the latter, so a large
    ``run.py`` (it holds every workload's spans during a full run) would
    read as this workload's memory."""
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # both are KiB


class _Runs:
    """The runs of one phase with their walls, facts and check failures."""

    def __init__(self, workload: workloads.Workload, seed: int, scale: str):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.rows: list[dict] = []
        self.first_facts: dict | None = None

    def attempt(self, kind: str, fn, inputs, *, dim: int | None = None,
                own: bool = True, **kwargs):
        """Run ``fn(inputs)`` once, check it, and book it.  ``own`` says the
        run is the workload's own entry call on its own input, so it must
        repeat the first such run exactly.  Returns the result (``None``
        if it raised)."""
        row = {"kind": kind, "wall_s": None, "facts": None, "problems": []}
        self.rows.append(row)
        # The previous run's result is garbage by now; collecting it here
        # keeps it out of this run's time and out of the peak RSS.
        gc.collect()
        try:
            t0 = _clock()
            result = fn(inputs, **kwargs)
            row["wall_s"] = _clock() - t0
            facts = row["facts"] = check.run_facts(
                result, self.workload.dim if dim is None else dim)
            row["problems"] += check.check_run(facts)
            if own:
                if hasattr(result, "replicas"):
                    facts["replica0"] = check.replica0_facts(result)
                if self.first_facts is None:
                    self.first_facts = facts
                    row["problems"] += check.check_golden(
                        self.workload.name, self.seed, self.scale, facts)
                else:
                    row["problems"] += check.check_repeat(self.first_facts, facts)
        except Exception:
            row["problems"].append(traceback.format_exc())
            return None
        return result

    def warm_up(self, name: str) -> None:
        """The workload at smoke scale: imports, lazy set-up and the
        process-level caches are paid before anything is timed, at a
        fiftieth of a timed run's time and memory."""
        self.attempt("warmup", self.workload.entry,
                     workloads.build(name, self.seed, "smoke"), own=False)

    def reference(self, inputs) -> None:
        """The workload's untimed reference run, checked against the first
        own run (which must already exist)."""
        fn = self.workload.reference
        if fn is None:
            return
        self.attempt("reference", fn, inputs, dim=2, own=False)
        row = self.rows[-1]
        if row["facts"] is not None and self.first_facts is not None:
            row["problems"] += check.check_reference(
                self.workload.name, self.first_facts, row["facts"])

    def walls(self, kind: str) -> list[float]:
        return [r["wall_s"] for r in self.rows
                if r["kind"] == kind and r["wall_s"] is not None]

    def summary(self) -> dict:
        return {
            "runs": self.rows,
            "attempted": len(self.rows),
            "failed": sum(1 for r in self.rows if r["problems"]),
        }


# ---------------------------------------------------------------------------
def phase_setup(name: str, seed: int, scale: str) -> dict:
    """Config factory + provider + mesh + source emission, caches cold."""
    from repro.mesh.structured import StructuredMesh
    from repro.particles.source import sample_source
    from repro.volume import StructuredMesh3D

    t0 = _clock()
    inputs = workloads.build(name, seed, scale)
    members = inputs.members() if hasattr(inputs, "members") else (inputs,)
    base = members[0]
    provider = base.resolved_provider()
    if workloads.WORKLOADS[name].dim == 3:
        mesh = StructuredMesh3D(base.nx, base.ny, base.nz, base.width,
                                base.height, base.depth, base.density)
        # The volume driver's emitter has no public name; it is reached
        # through the tracer's declared call-site table, whose entries the
        # traced run proves to exist.
        owner, attr = trace.site_owner("source@volume")
        getattr(owner, attr)(base, mesh)
    else:
        mesh = StructuredMesh(base.nx, base.ny, base.width, base.height,
                              base.density)
        for m in members:
            sample_source(mesh, m.source, m.nparticles, m.seed, m.dt,
                          provider=provider)
    return {"setup_s": _clock() - t0}


def phase_measure(name: str, seed: int, scale: str, seconds: float) -> dict:
    """A small warm-up, then timed runs (tracing off): at least three, and
    as many more as end within ``seconds``.  Nothing else runs here, so
    the peak RSS is the workload's own."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.build(name, seed, scale)
    runs = _Runs(workload, seed, scale)
    runs.warm_up(name)
    t_end = _clock() + seconds
    timed, longest = 0, 0.0
    while timed < MIN_TIMED_RUNS or _clock() + longest <= t_end:
        runs.attempt("timed", workload.entry, inputs)
        timed += 1
        longest = max(longest, runs.rows[-1]["wall_s"] or 0.0)
    out = runs.summary()
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
#: Every metric some workload's traced spans are booked to (zero on a
#: workload whose path has no such call site).
LAYER_SECONDS = sorted(
    {w.root_metric for w in workloads.WORKLOADS.values()}
    | {trace.site_metric(site)
       for w in workloads.WORKLOADS.values() for site in w.points})


def _traced_metrics(workload, tracer: trace.Tracer) -> dict:
    """The **T** metrics of one traced run."""
    spans = tracer.spans
    root = trace.root_duration(spans)
    per_site = trace.self_times(spans)
    layers = trace.layer_self_times(per_site, workload.root_metric)
    out = dict.fromkeys(LAYER_SECONDS, 0.0)
    out.update(layers)
    busy = sum(v for k, v in layers.items()
               if k.startswith("kernels.") and k != "kernels.dispatch_self_s")
    out["kernels.busy_s"] = busy
    out["kernels.busy_frac"] = busy / root
    out["core.self_frac"] = out["core.self_s"] / root
    # The same spans under the names the ensemble and volume layers are
    # read by; not part of the identity below.
    out["ensemble.source_s"] = (
        out["particles.source_s"] if workload.name == "csp_ens16_mg" else 0.0)
    out["volume.kernels_busy_s"] = busy if workload.dim == 3 else 0.0
    out["mesh.flush_calls"] = sum(
        calls for site, (calls, _s) in per_site.items()
        if site.startswith("tally"))
    out["trace.identity_residual_s"] = abs(sum(layers.values()) - root)
    out["trace.unhit_points"] = len(tracer.unhit_points())
    out["trace.spans"] = len(spans)
    return out


def _result_metrics(workload, result, inputs, wall_s: float) -> dict:
    """The **R** metrics: exact counts read from the public result."""
    c = result.counters
    profile = c.kernel_profile
    calls = sum(row[0] for row in profile.values())
    items = sum(row[1] for row in profile.values())
    handouts = c.workspace_allocations + c.workspace_reuses
    base = inputs.base if hasattr(inputs, "base") else inputs
    out = {
        "core.census_steps": base.ntimesteps,
        "kernels.calls": calls,
        "kernels.items": items,
        "kernels.items_per_call": items / calls,
        "kernels.workspace_allocs": c.workspace_allocations,
        "kernels.workspace_reuse_frac":
            c.workspace_reuses / handouts if handouts else 0.0,
        "xs.lookups": c.xs_lookups,
        "xs.bin_reuses": c.xs_bin_reuses,
        "xs.reuse_frac": c.xs_bin_reuses / c.xs_lookups,
        "xs.provider_nbytes": base.resolved_provider().nbytes(),
        "particles.arena_nbytes": c.arena_nbytes,
        "particles.bytes_per_particle": c.arena_nbytes / len(result.arena),
        "mesh.flush_items": result.tally.flushes,
        "rng.draws": c.rng_draws,
        "parallel.overhead_s": 0.0,
        "parallel.busy_imbalance": 0.0,
        "parallel.retries": 0,
        "parallel.workers_lost": 0,
    }
    pool = getattr(result, "pool", None)
    if pool is not None:
        out["parallel.overhead_s"] = wall_s - max(w.busy_s for w in pool.workers)
        out["parallel.busy_imbalance"] = pool.busy_imbalance()
        out["parallel.retries"] = pool.retries
        out["parallel.workers_lost"] = pool.workers_lost
    return out


def phase_trace(name: str, seed: int, scale: str, seconds: float) -> dict:
    """Plain, traced, plain, ... runs in turn, so that the tracing overhead
    is a traced run against the plain runs on either side of it; plus the
    workload's reference run and the runs the derived ratios need."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.build(name, seed, scale)
    runs = _Runs(workload, seed, scale)
    runs.warm_up(name)

    t_end = _clock() + TRACE_RUN_SHARE * seconds
    traced_rows: list[dict] = []
    tracer = None
    plain = runs.attempt("plain", workload.entry, inputs)
    plain_wall = runs.rows[-1]["wall_s"]
    while tracer is None or _clock() < t_end:
        tracer = trace.Tracer(name, workload.points)
        with tracer:
            traced = runs.attempt(
                "traced", lambda x: tracer.run(workload.entry, x), inputs)
        if traced is not None:
            traced_rows.append(_traced_metrics(workload, tracer))
            unhit = tracer.unhit_points()
            if unhit:
                runs.rows[-1]["problems"].append(
                    f"call sites never hit on {name}: {unhit}")
        runs.attempt("plain", workload.entry, inputs)
    runs.reference(inputs)

    # The cost of the program's own telemetry, on the headline workload.
    recorder = None
    if name == "csp_oe_mg":
        recorder = Recorder()
        runs.attempt("recorder", workload.entry, inputs, recorder=recorder)
    # The plain serial run of the same histories, for the two ratios below.
    serial_s = None
    if name == "csp_pool2_mg":
        serial_s = (runs.walls("reference") or [None])[0]
    elif name == "csp_ens16_mg":
        runs.attempt("serial_equivalent", workloads.WORKLOADS["csp_oe_mg"].entry,
                     workloads.serial_equivalent(inputs), own=False)
        serial_s = runs.rows[-1]["wall_s"]
    needs_serial = name in ("csp_pool2_mg", "csp_ens16_mg")

    out = runs.summary()
    if plain is None or not traced_rows or (needs_serial and not serial_s):
        return out
    metrics = {key: statistics.median(row[key] for row in traced_rows)
               for key in traced_rows[0]}
    metrics.update(_result_metrics(workload, plain, inputs, plain_wall))
    plain_s = statistics.median(runs.walls("plain"))
    metrics["trace.overhead_frac"] = (
        statistics.median(runs.walls("traced")) / plain_s - 1.0)
    recorder_walls = runs.walls("recorder")
    metrics["obs.recorder_overhead_frac"] = (
        recorder_walls[0] / plain_s - 1.0 if recorder_walls else 0.0)
    metrics["obs.spans"] = len(recorder.spans) if recorder_walls else 0

    metrics["parallel.efficiency"] = (
        serial_s / (workloads.POOL_WORKERS * plain_s)
        if name == "csp_pool2_mg" else 0.0)
    metrics["ensemble.fused_over_serial"] = (
        plain_s / serial_s if name == "csp_ens16_mg" else 0.0)
    metrics["core.import_s"] = IMPORT_S
    out["metrics"] = metrics
    out["trace"] = tracer.to_json()
    return out


def phase_drills(seed: int) -> dict:
    from perf import drills

    return {"drills": drills.run_drills(seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    phases = parser.add_subparsers(dest="phase", required=True)
    for phase, options in (("setup", ("workload", "scale")),
                           ("measure", ("workload", "scale", "seconds")),
                           ("trace", ("workload", "scale", "seconds")),
                           ("drills", ())):
        sub = phases.add_parser(phase)
        sub.add_argument("--seed", type=int, required=True)
        if "workload" in options:
            sub.add_argument("--workload", required=True,
                             choices=sorted(workloads.WORKLOADS))
        if "scale" in options:
            sub.add_argument("--scale", default="full")
        if "seconds" in options:
            sub.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.phase in ("measure", "trace"):
        need = workloads.WORKLOADS[args.workload].nworkers
        have = len(os.sched_getaffinity(0))
        if need > have:
            print(json.dumps({"skipped": f"{args.workload} keeps {need} "
                              f"processes busy; this host has {have}"}))
            return 0
    if args.phase == "setup":
        out = phase_setup(args.workload, args.seed, args.scale)
    elif args.phase == "measure":
        out = phase_measure(args.workload, args.seed, args.scale, args.seconds)
    elif args.phase == "trace":
        out = phase_trace(args.workload, args.seed, args.scale, args.seconds)
    else:
        out = phase_drills(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
