"""Command-line interface.

    python -m repro run --problem csp --nx 128 --particles 500
    python -m repro run --problem csp --workers 2 --telemetry t.json
    python -m repro run --workers 2 --serve-metrics 8787
    python -m repro run --problem csp3 --nx 24 --scheme auto --timesteps 3
    python -m repro ensemble run --problem csp --replicas 8 --compare-looped
    python -m repro report t.json
    python -m repro capacity plan results/BENCH_4.json --slo 0.5 --rate 10
    python -m repro bench recalibrate results/BENCH_6.json
    python -m repro predict --problem csp --machine p100
    python -m repro characterise --problem stream
    python -m repro figures

``run`` executes the real transport on this host, in 2-D or 3-D
(``--problem csp3``); ``ensemble run`` fuses replica runs into one
dispatch; the two share one option set.  ``report`` renders a
:class:`~repro.obs.telemetry.RunTelemetry` artifact written by
``--telemetry``; ``capacity plan`` and ``bench recalibrate`` read a
committed ``BENCH_<n>.json``; ``predict`` prices a paper-scale run on a
modelled device; ``characterise`` prints the workload statistics;
``figures`` prints the cross-architecture tables (full suite:
``benchmarks/``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core import (
    PROBLEM_FACTORIES,
    Scheme,
    Simulation,
    TransportResult,
    csp3_problem,
    energy_balance_error,
    population_accounted,
    scatter3_problem,
    stream3_problem,
)
from repro.machine import ALL_MACHINES, CPUS, GPUS
from repro.mesh.boundary import BoundaryCondition
from repro.parallel import FaultPlan, ScheduleKind, simulate_parallel_for
from repro.xs.provider import XsMode

__all__ = ["main", "build_parser"]

#: Every problem the transport commands accept: the paper's three and
#: their 3-D forms.  Each factory takes the mesh size (``--nx``) first.
_PROBLEMS = {
    **PROBLEM_FACTORIES,
    **{f.__name__.removesuffix("_problem"): f
       for f in (stream3_problem, scatter3_problem, csp3_problem)},
}
#: Option dests that are problem-factory keywords.
_CONFIG_KEYS = ("nparticles", "ntimesteps", "seed", "xs_mode", "boundary",
                "use_russian_roulette")
#: Option dests only a pooled run (``--workers``) reads.
_POOL_KEYS = ("schedule", "chunk", "max_retries", "shard_timeout",
              "max_worker_respawns", "fault_plan", "flight_dir")


def _enum_choice(members) -> dict:
    """argparse keywords for an option whose values are enum members."""
    members = list(members)
    return {
        "type": type(members[0]),
        "choices": members,
        "metavar": "{" + ",".join(m.value for m in members) + "}",
    }


def _transport_options() -> argparse.ArgumentParser:
    """The options ``run`` and ``ensemble run`` share, as a parent parser.

    Built afresh per subcommand, so one's ``set_defaults`` cannot reach
    the other's actions.  An option the user did not set is absent from
    the namespace (``argument_default=SUPPRESS``) and never passed on.
    """
    shared = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    shared.add_argument(
        "--problem", choices=sorted(_PROBLEMS), default="csp",
        help="stream, scatter, csp, or their 3-D forms stream3, scatter3, "
        "csp3",
    )
    shared.add_argument("--nx", type=int, default=128,
                        help="mesh cells per axis")
    shared.add_argument("--particles", dest="nparticles", type=int,
                        default=500)
    shared.add_argument(
        "--scheme", **_enum_choice(Scheme),
        help="over_particles (run's default), over_events (an ensemble's), "
        "or auto (over_events, compacting the arena at a census step "
        "where more than half of it is dead)",
    )
    shared.add_argument("--timesteps", dest="ntimesteps", type=int)
    shared.add_argument("--seed", type=int)
    shared.add_argument(
        "--xs-mode", **_enum_choice(XsMode),
        help="cross-section backend: the paper's multigroup tables or the "
        "continuous-energy union-grid library (synthetic, hermetic)",
    )
    shared.add_argument(
        "--workers", dest="nworkers", type=int,
        help="worker processes to shard the histories (an ensemble: its "
        "replica blocks) across; unset runs in-process",
    )
    shared.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="record spans/events and write the unified RunTelemetry "
        "artifact (JSON) to this path; inspect it with 'repro report'",
    )
    shared.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve the live observability plane over HTTP while the run "
        "steps: GET /metrics (Prometheus text), /snapshot (JSON), "
        "/healthz (0 = ephemeral port)",
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Exploring On-Node Parallelism with Neutral' "
            "(Martineau & McIntosh-Smith, CLUSTER 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", parents=[_transport_options()],
        argument_default=argparse.SUPPRESS,
        help="run the transport on this host, in 2-D or 3-D",
    )
    run.set_defaults(func=_cmd_run)
    run.add_argument(
        "--switch-trace", action="store_true", default=False,
        help="print the scheduler's scheme decisions per census step "
        "(most useful with --scheme auto)",
    )
    run.add_argument("--boundary", **_enum_choice(BoundaryCondition))
    run.add_argument("--russian-roulette", dest="use_russian_roulette",
                     action="store_true")
    run.add_argument(
        "--schedule",
        **_enum_choice((ScheduleKind.STATIC, ScheduleKind.DYNAMIC)),
        help="pool work distribution: contiguous blocks or a shared chunk "
        "queue",
    )
    run.add_argument("--chunk", type=int,
                     help="histories per dynamic-queue entry")
    run.add_argument(
        "--max-retries", type=int,
        help="per-shard retry budget after a worker death, hang, or error",
    )
    run.add_argument(
        "--shard-timeout", type=float, metavar="SECONDS",
        help="declare a worker hung when one shard runs longer than this",
    )
    run.add_argument(
        "--max-respawns", dest="max_worker_respawns", type=int,
        help="pool-wide replacement-worker budget before degraded draining",
    )
    run.add_argument(
        "--fault-plan", metavar="SPEC",
        help="inject deterministic faults for recovery demos, e.g. "
        "'kill:worker=1;raise:shard=0,attempts=-1' "
        "(kinds: kill, delay, raise, drop_heartbeat)",
    )
    run.add_argument(
        "--show-tally", action="store_true", default=False,
        help="render the deposition field as an ASCII heatmap (Fig 2; "
        "summed over z in 3-D)",
    )
    run.add_argument(
        "--profile-kernels", action="store_true", default=False,
        help="print the per-kernel call/wall-clock profile of the run",
    )
    run.add_argument(
        "--drift-baseline", metavar="BENCH_JSON",
        help="a BENCH_*.json artifact whose measured events/s arms the "
        "perf-drift watchdog on the live plane",
    )
    run.add_argument(
        "--flight-dir", metavar="DIR",
        help="directory for pooled workers' flight-recorder dumps "
        "(requires --telemetry; default: a private temp dir)",
    )

    ensemble = sub.add_parser(
        "ensemble",
        help="fuse N replica runs into one arena-wide dispatch",
    )
    ens_sub = ensemble.add_subparsers(dest="ensemble_command", required=True)
    ens_run = ens_sub.add_parser(
        "run", parents=[_transport_options()],
        argument_default=argparse.SUPPRESS,
        help="run a fused replica ensemble (optionally sweeping a parameter)",
    )
    ens_run.set_defaults(func=_cmd_ensemble_run, nx=64, nparticles=200)
    ens_run.add_argument(
        "--seed-stride", type=int, help="replica r runs with seed + r*stride",
    )
    ens_run.add_argument(
        "--replicas", dest="nreplicas", type=int, default=8, metavar="N",
        help="number of fused replica runs",
    )
    ens_run.add_argument(
        "--sweep", action="append", default=[], metavar="PARAM=LO:HI:STEPS",
        help="sweep a parameter across replicas (repeatable); sweepable: "
        "energy_cutoff_ev, weight_cutoff, dt, source.energy_ev, "
        "source.weight",
    )
    ens_run.add_argument(
        "--compare-looped", action="store_true", default=False,
        help="also run the members one at a time and report the fused "
        "speedup and per-replica parity",
    )
    ens_run.add_argument(
        "--per-replica", action="store_true", default=False,
        help="print one counter line per replica",
    )

    report = sub.add_parser(
        "report", help="render a RunTelemetry artifact written by --telemetry"
    )
    report.set_defaults(func=_cmd_report)
    report.add_argument("telemetry", help="path to a telemetry JSON artifact")
    report.add_argument(
        "--format",
        choices=["summary", "jsonl", "chrome", "prometheus"],
        default="summary",
        help="summary (human), jsonl (one record/line), chrome "
        "(chrome://tracing / Perfetto trace), prometheus (text exposition)",
    )
    report.add_argument(
        "--output", metavar="PATH",
        help="write the rendering to this file instead of stdout",
    )

    bench = sub.add_parser(
        "bench",
        help="read the committed BENCH_<n>.json perf artifacts",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_recal = bench_sub.add_parser(
        "recalibrate",
        help="refit machine-model event costs from an artifact's "
        "kernel timings",
    )
    bench_recal.set_defaults(func=_cmd_bench_recalibrate)
    bench_recal.add_argument("artifact", help="a BENCH_*.json artifact")
    bench_recal.add_argument(
        "--bench", default=None,
        help="which bench's kernel profile to fit (default: first with one)",
    )

    capacity = sub.add_parser(
        "capacity",
        help="size workers/fleets from the calibrated scaling model",
    )
    cap_sub = capacity.add_subparsers(dest="capacity_command", required=True)
    cap_plan = cap_sub.add_parser(
        "plan",
        help="plan worker counts for a latency SLO (or reproduce the "
        "benched worker count) from a BENCH_*.json artifact",
    )
    cap_plan.set_defaults(func=_cmd_capacity_plan)
    cap_plan.add_argument("artifact", help="a BENCH_*.json artifact")
    cap_plan.add_argument(
        "--bench", default=None,
        help="the pool_speedup_* bench supplying the serial/pooled "
        "latencies (default: pool_speedup_csp)",
    )
    cap_plan.add_argument(
        "--workers", type=int, default=2,
        help="worker count the bench's pooled measurement ran with",
    )
    cap_plan.add_argument(
        "--slo", type=float, default=None, metavar="SECONDS",
        help="latency SLO to size for; omit to reproduce the benched "
        "worker count from the measured pooled latency",
    )
    cap_plan.add_argument(
        "--rate", type=float, default=None, metavar="JOBS_PER_S",
        help="traffic rate — sizes the whole fleet via Little's law "
        "(needs --slo)",
    )

    predict = sub.add_parser(
        "predict", help="price a paper-scale run on a modelled device"
    )
    predict.set_defaults(func=_cmd_predict)
    predict.add_argument("--problem", choices=sorted(PROBLEM_FACTORIES), default="csp")
    predict.add_argument("--machine", choices=sorted(ALL_MACHINES), default="broadwell")
    predict.add_argument(
        "--scheme",
        choices=[Scheme.OVER_PARTICLES.value, Scheme.OVER_EVENTS.value],
        default=Scheme.OVER_PARTICLES.value,
    )

    char = sub.add_parser(
        "characterise", help="print the workload statistics at paper scale"
    )
    char.set_defaults(func=_cmd_characterise)
    char.add_argument("--problem", choices=sorted(PROBLEM_FACTORIES), default="csp")

    figures = sub.add_parser(
        "figures", help="print the cross-architecture tables"
    )
    figures.set_defaults(func=_cmd_figures)
    figures.add_argument(
        "--output",
        help="also write the tables (plus workload characterisation) to "
        "this markdown file",
    )
    return parser


def _given(args: argparse.Namespace, keys) -> dict:
    """The options among ``keys`` (dests) that the user set."""
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _error(exc) -> int:
    """A one-line diagnosis on stderr for input the library refuses."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _load_bench(path):
    """``load_bench_artifact(path)``; a file that is missing, not JSON or
    not a bench artifact raises a ``ValueError`` that names it."""
    import json

    from repro.bench import load_bench_artifact
    from repro.bench.artifact import BenchSchemaError

    try:
        return load_bench_artifact(path)
    except OSError as exc:
        reason = exc.strerror or exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        reason = f"not JSON ({exc})"
    except BenchSchemaError as exc:
        more = len(exc.problems) - 1
        reason = (f"not a bench artifact: {exc.problems[0]}"
                  + (f" (+{more} more)" if more > 0 else ""))
    raise ValueError(f"{path}: {reason}")


def _mesh_label(tally) -> str:
    """``48x48`` or ``12x12x12``: the mesh shape, read off the tally."""
    return "x".join(str(n) for n in tally.shape)


def _start_live_plane(args, recorder=None):
    """Build the live aggregator + HTTP endpoint for ``--serve-metrics``.

    Returns ``(live, server)`` — both ``None`` when the flag is absent.
    The server is already started; the caller owns closing it.
    """
    port = getattr(args, "serve_metrics", None)
    if port is None:
        return None, None
    from repro.obs import (
        LiveAggregator,
        MetricsServer,
        drift_band_from_artifact,
    )

    drift = None
    baseline = getattr(args, "drift_baseline", None)
    if baseline:
        drift = drift_band_from_artifact(_load_bench(baseline))
    live = LiveAggregator(drift=drift, recorder=recorder)
    server = MetricsServer(live, port=port)
    server.start()
    print(f"live metrics: {server.url('/metrics')} "
          f"(also /snapshot, /healthz)")
    if drift is not None:
        print(f"drift watchdog: expecting "
              f"{drift.expected_events_per_s:,.0f} events/s "
              f"±{drift.rel_band:.0%} ({drift.source})")
    return live, server


def _observed_run(args, run, report, *, record=False, transport=None) -> int:
    """The observed-run body ``run`` and ``ensemble run`` share.

    Creates the Recorder (for ``--telemetry``, or when ``record``), starts
    the ``--serve-metrics`` live plane, calls ``run(recorder, live)`` and
    closes the server however that ends.  ``report(result, recorder)``
    then prints the result and returns the exit code; on success the
    ``--telemetry`` artifact of ``transport(result)`` (default: the
    result itself) is validated and dumped.  A live plane that cannot
    start, or input the library refuses (a bad pool option), is a
    one-line error, exit 2.
    """
    recorder = None
    if args.telemetry or record:
        from repro.obs import Recorder

        recorder = Recorder()
    server = None
    try:
        live, server = _start_live_plane(args, recorder)
        result = run(recorder, live)
    except (OSError, ValueError) as exc:
        return _error(exc)
    finally:
        if server is not None:
            server.close()
    rc = report(result, recorder)
    if rc == 0 and args.telemetry:
        from repro.obs import build_run_telemetry, validate_telemetry

        telemetry = build_run_telemetry(
            result if transport is None else transport(result), recorder
        )
        validate_telemetry(telemetry.to_dict())
        telemetry.dump(args.telemetry)
        print(f"telemetry: {len(telemetry.spans)} spans, "
              f"{len(telemetry.events)} events -> {args.telemetry}")
    return rc


def _cmd_run(args: argparse.Namespace) -> int:
    if (hasattr(args, "drift_baseline")
            and getattr(args, "serve_metrics", None) is None):
        return _error("--drift-baseline arms the live plane's watchdog; "
                      "it needs --serve-metrics PORT")
    pool_opts = _given(args, _POOL_KEYS)
    if pool_opts and not hasattr(args, "nworkers"):
        return _error(
            "the pool options (--schedule, --chunk, --max-retries, "
            "--shard-timeout, --max-respawns, --fault-plan, --flight-dir) "
            "need --workers N"
        )
    try:
        cfg = _PROBLEMS[args.problem](args.nx, **_given(args, _CONFIG_KEYS))
        if "fault_plan" in pool_opts:
            pool_opts["fault_plan"] = FaultPlan.parse(pool_opts["fault_plan"])
    except (TypeError, ValueError) as exc:
        return _error(exc)
    fault_plan = pool_opts.get("fault_plan")

    def run(recorder, live):
        return Simulation(cfg).run(
            recorder=recorder, live=live,
            **_given(args, ("scheme", "nworkers")), **pool_opts,
        )

    def report(result, recorder) -> int:
        c = result.counters
        print(f"problem={cfg.name} mesh={_mesh_label(result.tally)} "
              f"particles={cfg.nparticles} scheme={result.scheme.value}")
        print(f"events: collisions={c.collisions} facets={c.facets} "
              f"census={c.census_events} terminations={c.terminations} "
              f"escapes={c.escapes}")
        print(f"per-particle: collisions={c.mean_collisions_per_particle():.2f} "
              f"facets={c.mean_facets_per_particle():.2f}")
        print(f"deposition total: {result.tally.total():.4e} eV")
        print(f"energy balance error: {energy_balance_error(result):.2e}")
        print(f"population accounted: {population_accounted(result)}")
        print(f"host wall-clock: {result.wallclock_s:.3f} s")
        if args.switch_trace:
            _print_switch_trace(recorder)
        pool = result.pool
        if pool is not None and pool.nworkers > 1:
            print(f"pool: {pool.nworkers} workers, {pool.schedule.value} "
                  f"schedule (chunk {pool.chunk}, {pool.start_method} "
                  f"start), {pool.chunks_dispatched()} chunks dispatched")
            for w in pool.workers:
                print(f"  worker {w.worker_id}: histories={w.histories} "
                      f"(final {w.final_histories}) events={w.events} "
                      f"chunks={w.chunks} busy={w.busy_s:.3f}s")
            # Measured imbalance next to what the scheduling model predicts
            # for the same per-history work under the same schedule.
            modelled = simulate_parallel_for(
                c.events_per_particle(), pool.nworkers, pool.schedule,
                pool.chunk,
            )
            print(f"load imbalance (max/mean): measured events "
                  f"{pool.event_imbalance():.3f}, busy time "
                  f"{pool.busy_imbalance():.3f}; modelled "
                  f"{modelled.load_imbalance():.3f}")
            if fault_plan:
                print(f"fault plan: {fault_plan.describe()}")
            if pool.rebalances:
                print(f"rebalance: {pool.rebalances} reserve shard splits")
            if pool.recovered():
                print(f"recovery: {pool.workers_lost} workers lost, "
                      f"{pool.respawns} respawned, {pool.retries} shard "
                      f"retries")
            if pool.degraded:
                print(f"DEGRADED MODE: {pool.degraded_reason} — "
                      f"{pool.shards_drained_in_process} shards drained "
                      f"in-process by the parent")
        if args.profile_kernels:
            from repro.kernels import format_profile

            print("kernel profile (ranked by wall-clock):")
            print(format_profile(c.kernel_profile))
            print(f"workspace buffers: {c.workspace_allocations} "
                  f"allocations, {c.workspace_reuses} reuses")
            arena = result.arena
            print(f"arena storage: {c.arena_nbytes} B for {len(arena)} "
                  f"particles ({type(arena).bytes_per_particle()} "
                  f"B/particle SoA vs {type(arena).bytes_per_particle_aos()} "
                  f"B AoS record)")
            if c.xs_bin_reuses:
                print(f"xs bin reuse: {c.xs_bin_reuses} of {c.xs_lookups} "
                      f"lookups skipped the search")
        if args.show_tally:
            from repro.analysis.viz import render_heatmap

            deposition = result.tally.deposition
            title = "energy deposition (log scale)"
            if deposition.ndim == 3:
                deposition = deposition.sum(axis=0)
                title = "energy deposition summed over z (log scale)"
            print(render_heatmap(deposition, title=title))
        return 0

    return _observed_run(args, run, report, record=args.switch_trace)


def _print_switch_trace(recorder) -> None:
    """Print the plan's per-step scheme decisions from the run's
    ``scheme_switch`` events (fixed-scheme runs emit none), and the
    census compactions from its ``compaction`` events."""
    switches = [e for e in recorder.events if e.name == "scheme_switch"]
    compactions = [e for e in recorder.events if e.name == "compaction"]
    if not switches:
        print("switch trace: no scheme switches recorded "
              "(fixed-scheme run)")
    else:
        print(f"switch trace ({len(switches)} decisions):")
    for e in sorted(switches + compactions,
                    key=lambda e: (e.attrs.get("step", 0), e.t)):
        a = e.attrs
        src = ""
        if e.source:
            tags = ",".join(f"{k}={v}" for k, v in sorted(e.source.items()))
            src = f" [{tags}]"
        if e.name == "compaction":
            print(f"  step {a.get('step', '?')}: compaction "
                  f"parked={a.get('parked', '?')} "
                  f"alive={a.get('alive', '?')}{src}")
            continue
        arrow = f"{a.get('prev') or '-'} -> {a['scheme']}"
        print(f"  step {a.get('step', '?')}: {arrow} "
              f"alive={a.get('alive', '?')} ({a.get('reason', '')}){src}")


def _cmd_ensemble_run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.ensemble import (
        EnsembleSpec,
        SweepSpec,
        population_fingerprint,
        run_ensemble,
        run_ensemble_looped,
    )

    try:
        base = _PROBLEMS[args.problem](args.nx, **_given(args, _CONFIG_KEYS))
        sweeps = tuple(SweepSpec.parse(s) for s in args.sweep)
        spec = EnsembleSpec(
            base, args.nreplicas, sweeps=sweeps,
            **_given(args, ("seed_stride",)),
        )
    except (TypeError, ValueError) as exc:
        return _error(exc)

    def run(recorder, live):
        return run_ensemble(
            spec, recorder=recorder, live=live,
            **_given(args, ("scheme", "nworkers")),
        )

    def report(ens, recorder) -> int:
        c, n = ens.counters, ens.nworkers
        print(f"ensemble: {ens.nreplicas} replicas x {base.nparticles} "
              f"histories ({base.name}, {_mesh_label(ens.tally)} mesh, "
              f"{ens.scheme.value}, {n} worker{'s' if n != 1 else ''})")
        for s in sweeps:
            print(f"sweep: {s.param} over [{s.lo}, {s.hi}] in {s.steps} "
                  f"steps (cyclic across replicas)")
        print(f"fused events: collisions={c.collisions} facets={c.facets} "
              f"census={c.census_events} terminations={c.terminations} "
              f"escapes={c.escapes}")
        print(f"fused deposition total: {ens.tally.total():.4e} eV")
        print(f"fused wall-clock: {ens.wallclock_s:.3f} s "
              f"({ens.total_histories()} histories)")
        if args.per_replica:
            for rr in ens.replicas:
                rc = rr.counters
                print(f"  replica {rr.replica}: seed={rr.config.seed} "
                      f"collisions={rc.collisions} census={rc.census_events} "
                      f"escapes={rc.escapes} "
                      f"fingerprint={rr.fingerprint()[:12]}")
        if args.compare_looped:
            looped = run_ensemble_looped(spec, ens.scheme)
            speedup = looped.wallclock_s / max(ens.wallclock_s, 1e-12)
            parity = all(
                population_fingerprint(rr.arena)
                == population_fingerprint(res.arena)
                and np.array_equal(rr.tally.deposition, res.tally.deposition)
                for rr, res in zip(ens.replicas, looped.results)
            )
            print(f"looped baseline: {looped.wallclock_s:.3f} s -> "
                  f"fused speedup {speedup:.2f}x")
            print(f"per-replica parity vs looped: "
                  f"{'BIT-IDENTICAL' if parity else 'MISMATCH'}")
            if not parity:
                return 1
        return 0

    return _observed_run(
        args, run, report,
        transport=lambda ens: TransportResult(
            ens.members[0], ens.scheme, ens.tally, ens.counters, ens.arena,
            ens.wallclock_s, ens.pool,
        ),
    )


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        TelemetrySchemaError,
        format_summary,
        load_telemetry,
        to_chrome_trace,
        to_jsonl,
        to_prometheus,
    )

    # One-line diagnoses for the operator-facing failure modes: a path
    # that is not there, a file that is not JSON, JSON that is not a
    # RunTelemetry artifact.
    try:
        telemetry = load_telemetry(args.telemetry)
    except FileNotFoundError:
        print(f"error: no telemetry artifact at {args.telemetry}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.telemetry}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.telemetry} is not valid JSON ({exc})",
              file=sys.stderr)
        return 1
    except TelemetrySchemaError as exc:
        first = exc.problems[0] if exc.problems else "schema mismatch"
        more = len(exc.problems) - 1
        suffix = f" (+{more} more)" if more > 0 else ""
        print(f"error: {args.telemetry} is not a valid RunTelemetry "
              f"artifact: {first}{suffix}", file=sys.stderr)
        return 1
    text = {
        "summary": format_summary,
        "jsonl": to_jsonl,
        "chrome": lambda t: json.dumps(to_chrome_trace(t)),
        "prometheus": to_prometheus,
    }[args.format](telemetry)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            text if text.endswith("\n") else text + "\n"
        )
        print(f"written: {args.output}")
    else:
        print(text)
    return 0


def _cmd_bench_recalibrate(args: argparse.Namespace) -> int:
    from repro.perfmodel import recalibrate_from_artifact

    try:
        report = recalibrate_from_artifact(_load_bench(args.artifact),
                                           bench=args.bench)
    except ValueError as exc:
        return _error(exc)
    except KeyError as exc:  # no such bench in the artifact
        return _error(f"{args.artifact}: {exc.args[0]}")
    print(report.format())
    return 0


def _cmd_capacity_plan(args: argparse.Namespace) -> int:
    from repro.perfmodel import plan_capacity, scenario_from_artifact
    from repro.perfmodel.capacity import DEFAULT_BENCH

    try:
        artifact = _load_bench(args.artifact)
        scenario = scenario_from_artifact(
            artifact,
            bench=args.bench or DEFAULT_BENCH,
            nworkers=args.workers,
        )
        plan = plan_capacity(scenario, latency_slo=args.slo, rate=args.rate)
    except ValueError as exc:
        return _error(exc)
    print(scenario.format())
    print(plan.format())
    return 0 if plan.feasible else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.bench import standard_cpu_time, standard_gpu_time

    cpu = args.machine in CPUS
    p = (standard_cpu_time if cpu else standard_gpu_time)(
        args.problem, args.machine, Scheme(args.scheme)
    )
    print(f"{args.machine} / {args.problem} / {args.scheme}")
    print(f"predicted runtime: {p.seconds:.2f} s  (bound: {p.bound})")
    print(f"achieved bandwidth: {p.achieved_bandwidth_gbs:.1f} GB/s")
    if cpu:
        print(f"tally share: {p.tally_fraction:.0%}")
        print(f"core utilisation: {p.utilization:.0%}")
    else:
        print(f"occupancy: {p.occupancy:.2f} "
              f"({p.active_warps_per_sm} warps/SM, "
              f"{p.registers_per_thread} registers)")
    return 0


def _cmd_characterise(args: argparse.Namespace) -> int:
    from repro.bench import PAPER_SCALE, paper_workload

    w = paper_workload(args.problem)
    nparticles, nx = PAPER_SCALE[args.problem]
    print(f"{args.problem} at paper scale ({nx}² mesh, {nparticles:.0e} particles):")
    print(f"  facets/particle:     {w.facets_pp:.1f}")
    print(f"  collisions/particle: {w.collisions_pp:.2f}")
    print(f"  reflections/particle:{w.reflections_pp:.2f}")
    print(f"  tally flushes/part.: {w.flushes_pp:.1f}")
    print(f"  xs lookups/particle: {w.lookups_pp:.2f}")
    print(f"  event mix (coll/facet/census): "
          f"{w.event_mix[0]:.4f}/{w.event_mix[1]:.4f}/{w.event_mix[2]:.4f}")
    print(f"  work imbalance (cv): {w.work_cv:.2f}")
    print(f"  tally conflict probability: {w.conflict_probability:.2e}")
    return 0


def _figures_text() -> str:
    from repro.bench import (
        PAPER_SCALE,
        format_table,
        paper_workload,
        standard_cpu_time,
        standard_gpu_time,
    )

    problems = ("stream", "scatter", "csp")
    sections = []

    lines = ["## Workload characterisation at paper scale (4000²)", ""]
    rows = []
    for p in problems:
        w = paper_workload(p)
        rows.append([p, f"{PAPER_SCALE[p][0]:.0e}", w.facets_pp, w.collisions_pp])
    lines.append(format_table(
        ["problem", "particles", "facets/particle", "collisions/particle"], rows
    ))
    sections.append("\n".join(lines))

    lines = ["## Over Particles runtimes, seconds (Fig 14 pipeline)", ""]
    rows = [
        [p]
        + [standard_cpu_time(p, m).seconds for m in CPUS]
        + [standard_gpu_time(p, m).seconds for m in GPUS]
        for p in problems
    ]
    lines.append(format_table(["problem"] + list(CPUS) + list(GPUS), rows))
    sections.append("\n".join(lines))

    lines = ["## Over Events / Over Particles slowdown (Figs 9-13)", ""]
    rows = [
        [p]
        + [standard_cpu_time(p, m, Scheme.OVER_EVENTS).seconds
           / standard_cpu_time(p, m).seconds for m in CPUS]
        + [standard_gpu_time(p, m, Scheme.OVER_EVENTS).seconds
           / standard_gpu_time(p, m).seconds for m in GPUS]
        for p in problems
    ]
    lines.append(format_table(["problem"] + list(CPUS) + list(GPUS), rows))
    sections.append("\n".join(lines))

    return "\n\n".join(sections) + "\n"


def _cmd_figures(args: argparse.Namespace) -> int:
    text = _figures_text()
    print(text)
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = (
            "# Cross-architecture summary (model output)\n\n"
            "Generated by `python -m repro figures --output ...`; the full "
            "per-figure suite with assertions lives in `benchmarks/`.\n\n"
        )
        path.write_text(header + text)
        print(f"written: {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
