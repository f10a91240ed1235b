"""Named, versioned benchmark specs over the ``measured_*`` helpers.

The registry turns the ad-hoc measurement helpers of
:mod:`repro.bench.runner` into a stable perf surface: each
:class:`BenchSpec` names one measurement, pins the configuration it runs
at, declares which of its metrics are regression-gated (and in which
direction), and carries a spec version so a comparator can refuse to
diff artifacts produced by incompatible specs.

Running a spec executes it ``warmup + repeats`` times, keeps one sample
per repeat for the wall-clock and every metric, and summarises each as
``median`` + ``iqr`` — the IQR is the *measured noise band* the
comparator uses to separate regression from host jitter.  Samples below
the host timer's resolution are rejected (:class:`BenchTimingError`)
rather than averaged: a sub-resolution timing is indistinguishable from
zero and would silently deflate the noise band.

Two tiers: ``quick`` (small enough for the CI gate, a few seconds of
transport) and ``full`` (adds the remaining problems).  The committed
``results/BENCH_1.json`` baseline is a quick-tier run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.artifact import (
    BenchArtifact,
    git_provenance,
    host_fingerprint,
)

__all__ = [
    "BenchTimingError",
    "MetricSpec",
    "BenchSample",
    "BenchSpec",
    "BenchResult",
    "REGISTRY",
    "TIERS",
    "specs_for_tier",
    "run_bench",
    "run_tier",
    "build_bench_artifact",
    "min_measurable_seconds",
]


class BenchTimingError(RuntimeError):
    """A bench produced samples the statistics cannot honestly summarise
    (sub-timer-resolution or non-finite)."""


def min_measurable_seconds() -> float:
    """The smallest wall-clock sample the registry accepts.

    Four ticks of the monotonic clock: below that, quantisation noise is
    the same order as the measurement itself.
    """
    return max(4.0 * time.get_clock_info("perf_counter").resolution, 1e-9)


@dataclass(frozen=True)
class MetricSpec:
    """How one metric participates in regression comparison.

    ``direction`` — ``"lower"`` (regression when it grows), ``"higher"``
    (regression when it shrinks), or ``"info"`` (recorded, never gated).
    ``rel_floor`` — minimum relative noise band, for metrics whose
    repeat-to-repeat IQR understates their cross-run variance (pooled
    wall-clocks on a shared host).  ``timing`` marks host-dependent
    measurements that only compare across identical host fingerprints.
    ``signed`` marks derived timing metrics (differences of durations)
    that may legitimately be negative or sub-resolution; the timer floor
    check only applies to raw, non-negative duration samples.
    """

    direction: str = "lower"
    rel_floor: float = 0.0
    timing: bool = False
    signed: bool = False

    def __post_init__(self):
        if self.direction not in ("lower", "higher", "info"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.rel_floor < 0:
            raise ValueError("rel_floor must be non-negative")


@dataclass(frozen=True)
class BenchSample:
    """One measured execution of a bench."""

    wallclock_s: float
    metrics: dict
    kernel_profile: dict | None = None


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark: a runner plus its comparison contract."""

    name: str
    tier: str
    version: int
    description: str
    runner: Callable[[], BenchSample]
    metrics: dict = field(default_factory=dict)
    #: The bench's own wall-clock comparison contract.
    wallclock: MetricSpec = MetricSpec(
        direction="lower", rel_floor=0.35, timing=True
    )
    default_repeats: int = 3
    default_warmup: int = 1


@dataclass(frozen=True)
class BenchResult:
    """Repeat statistics of one bench run."""

    spec: BenchSpec
    repeats: int
    warmup: int
    wallclock_samples: tuple
    metric_samples: dict
    kernel_profile: dict | None
    warnings: tuple


def _summary(samples, mspec: MetricSpec) -> dict:
    """The self-describing metric section stored in the artifact."""
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    median = (
        ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    # Quartiles by the nearest-rank method — crude but monotone, and the
    # band only has to bound same-host jitter, not estimate sigma.
    q1 = ordered[max(0, (n - 1) // 4)]
    q3 = ordered[min(n - 1, (3 * (n - 1) + 3) // 4)]
    return {
        "samples": [float(v) for v in samples],
        "median": float(median),
        "iqr": float(q3 - q1),
        "direction": mspec.direction,
        "rel_floor": float(mspec.rel_floor),
        "timing": bool(mspec.timing),
    }


def _check_samples(
    name: str, label: str, samples, timing: bool, signed: bool = False
) -> None:
    floor = min_measurable_seconds()
    for v in samples:
        if not math.isfinite(v):
            raise BenchTimingError(
                f"bench {name!r}: {label} sample {v!r} is not finite"
            )
        if timing and not signed and v < floor:
            raise BenchTimingError(
                f"bench {name!r}: {label} sample {v:.3e}s is below the "
                f"timer resolution floor ({floor:.3e}s) — the measurement "
                "cannot be averaged honestly; increase the work per repeat"
            )


def run_bench(
    spec: BenchSpec, repeats: int | None = None, warmup: int | None = None
) -> BenchResult:
    """Execute one spec ``warmup`` + ``repeats`` times and summarise."""
    repeats = spec.default_repeats if repeats is None else repeats
    warmup = spec.default_warmup if warmup is None else warmup
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        spec.runner()

    wallclocks: list[float] = []
    metric_samples: dict[str, list[float]] = {m: [] for m in spec.metrics}
    profile = None
    warnings: list[str] = []
    for _ in range(repeats):
        sample = spec.runner()
        wallclocks.append(float(sample.wallclock_s))
        for mname in spec.metrics:
            if mname not in sample.metrics:
                raise KeyError(
                    f"bench {spec.name!r} runner did not report declared "
                    f"metric {mname!r}"
                )
            metric_samples[mname].append(float(sample.metrics[mname]))
        extra = sample.metrics.get("warnings", ())
        for w in extra:
            if w not in warnings:
                warnings.append(w)
        if sample.kernel_profile is not None:
            profile = {k: list(v) for k, v in sample.kernel_profile.items()}

    _check_samples(spec.name, "wallclock_s", wallclocks,
                   spec.wallclock.timing, spec.wallclock.signed)
    for mname, mspec in spec.metrics.items():
        _check_samples(spec.name, mname, metric_samples[mname],
                       mspec.timing, mspec.signed)

    return BenchResult(
        spec=spec,
        repeats=repeats,
        warmup=warmup,
        wallclock_samples=tuple(wallclocks),
        metric_samples={m: tuple(v) for m, v in metric_samples.items()},
        kernel_profile=profile,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

def _transport_bench(problem: str, scheme_name: str) -> BenchSample:
    """One reduced-scale transport run with its kernel profile."""
    from repro.bench.runner import _measure_kernel_profile
    from repro.core import Scheme

    kp = _measure_kernel_profile(problem, Scheme(scheme_name))
    calls = sum(int(row[0]) for row in kp.profile.values())
    items = sum(int(row[1]) for row in kp.profile.values())
    return BenchSample(
        wallclock_s=kp.wallclock_s,
        metrics={
            "kernel_calls": float(calls),
            "kernel_items": float(items),
            "workspace_allocations": float(kp.workspace_allocations),
            "buffer_reuse_fraction": kp.buffer_reuse_fraction,
            "xs_lookups": float(kp.xs_lookups),
        },
        kernel_profile=kp.profile,
    )


_TRANSPORT_METRICS = {
    # Algorithm facts: deterministic, host-independent, zero-band gated.
    "kernel_calls": MetricSpec(direction="lower"),
    "kernel_items": MetricSpec(direction="lower"),
    "workspace_allocations": MetricSpec(direction="lower"),
    "buffer_reuse_fraction": MetricSpec(direction="higher",
                                        rel_floor=0.01),
    "xs_lookups": MetricSpec(direction="info"),
}


def _pool_speedup_bench(problem: str) -> BenchSample:
    from repro.bench.runner import measured_speedup

    r = measured_speedup(problem, nworkers=2)
    return BenchSample(
        wallclock_s=r.serial_s + r.parallel_s,
        metrics={
            "speedup": r.speedup,
            "parallel_efficiency": r.parallel_efficiency,
            "serial_s": r.serial_s,
            "parallel_s": r.parallel_s,
            "measured_imbalance": r.measured_imbalance,
            "warnings": r.warnings,
        },
    )


def _shard_handoff_bench() -> BenchSample:
    from repro.bench.runner import measured_shard_handoff

    t0 = time.perf_counter()
    r = measured_shard_handoff()
    wall = time.perf_counter() - t0
    return BenchSample(
        wallclock_s=wall,
        metrics={
            "handle_bytes": float(r.handle_bytes),
            "pickled_particles_bytes": float(r.pickled_particles_bytes),
            "pickled_arena_bytes": float(r.pickled_arena_bytes),
            "payload_reduction": r.payload_reduction,
            "attach_s": r.attach_s,
            "unpickle_particles_s": r.unpickle_particles_s,
        },
    )


def _recovery_bench(problem: str) -> BenchSample:
    from repro.bench.runner import measured_recovery_overhead

    r = measured_recovery_overhead(problem, nworkers=2)
    return BenchSample(
        wallclock_s=r.clean_s + r.faulted_s,
        metrics={
            "recovery_overhead": r.overhead,
            "clean_s": r.clean_s,
            "faulted_s": r.faulted_s,
            "retries": float(r.retries),
            "respawns": float(r.respawns),
            "states_identical": 1.0 if r.states_identical else 0.0,
        },
    )


def _ensemble_bench(problem: str, nreplicas: int = 32) -> BenchSample:
    from repro.bench.runner import measured_ensemble_throughput

    r = measured_ensemble_throughput(problem, nreplicas=nreplicas)
    return BenchSample(
        wallclock_s=r.fused_s + r.looped_s,
        metrics={
            "speedup_vs_looped": r.speedup_vs_looped,
            "fused_s": r.fused_s,
            "looped_s": r.looped_s,
            "fused_histories_per_s": r.fused_histories_per_s,
            "ensemble_parity": r.parity,
            "replicas": float(r.nreplicas),
            "warnings": r.warnings,
        },
    )


def _adaptive_crossover_bench(problem: str) -> BenchSample:
    from repro.bench.runner import measured_adaptive_crossover

    r = measured_adaptive_crossover(problem)
    return BenchSample(
        wallclock_s=r.op_s + r.oe_s + r.auto_s,
        metrics={
            "adaptive_efficiency": r.adaptive_efficiency,
            "op_s": r.op_s,
            "oe_s": r.oe_s,
            "auto_s": r.auto_s,
            "adaptive_parity": r.parity,
            "warnings": r.warnings,
        },
    )


def _ce_crossover_bench(problem: str) -> BenchSample:
    from repro.bench.runner import measured_ce_crossover

    r = measured_ce_crossover(problem)
    return BenchSample(
        wallclock_s=r.op_s + r.oe_s + r.auto_s,
        metrics={
            "ce_parity": r.parity,
            "oe_op_ratio": r.oe_op_ratio,
            "adaptive_efficiency": r.adaptive_efficiency,
            "op_s": r.op_s,
            "oe_s": r.oe_s,
            "auto_s": r.auto_s,
            "union_points": float(r.union_points),
            "xs_lookups": float(r.xs_lookups),
            "op_linear_probes": float(r.op_linear_probes),
            "oe_binary_probes": float(r.oe_binary_probes),
            "warnings": r.warnings,
        },
    )


def _live_overhead_bench(problem: str) -> BenchSample:
    from repro.bench.runner import measured_live_overhead

    r = measured_live_overhead(problem)
    return BenchSample(
        wallclock_s=r.off_s + r.on_s,
        metrics={
            "live_parity": r.live_parity,
            "endpoint_ok": r.endpoint_ok,
            "off_s": r.off_s,
            "on_s": r.on_s,
            "live_overhead": r.overhead,
            "events_total": float(r.events_total),
            "warnings": r.warnings,
        },
    )


def _arena_bench(problem: str) -> BenchSample:
    from repro.bench.runner import (
        MEASUREMENT_NX,
        MEASUREMENT_PARTICLES,
    )
    from repro.core import PROBLEM_FACTORIES, Scheme, Simulation

    cfg = PROBLEM_FACTORIES[problem](
        nx=MEASUREMENT_NX, nparticles=MEASUREMENT_PARTICLES
    )
    result = Simulation(cfg).run(Scheme.OVER_EVENTS)
    arena = result.arena
    return BenchSample(
        wallclock_s=result.wallclock_s,
        metrics={
            "arena_nbytes": float(result.counters.arena_nbytes),
            "bytes_per_particle": float(
                type(arena).bytes_per_particle()
            ),
            "final_population": float(len(arena)),
        },
    )


def _spec(name, tier, description, runner, metrics, *, version=1,
          repeats=3, warmup=1, wallclock=None) -> BenchSpec:
    return BenchSpec(
        name=name, tier=tier, version=version, description=description,
        runner=runner, metrics=metrics,
        wallclock=wallclock or MetricSpec(
            direction="lower", rel_floor=0.35, timing=True
        ),
        default_repeats=repeats, default_warmup=warmup,
    )


_POOL_METRICS = {
    "speedup": MetricSpec(direction="higher", rel_floor=0.5, timing=True),
    "parallel_efficiency": MetricSpec(direction="info", timing=True),
    "serial_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "parallel_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "measured_imbalance": MetricSpec(direction="info"),
}

_HANDOFF_METRICS = {
    "handle_bytes": MetricSpec(direction="lower"),
    "pickled_particles_bytes": MetricSpec(direction="info"),
    "pickled_arena_bytes": MetricSpec(direction="info"),
    "payload_reduction": MetricSpec(direction="higher", rel_floor=0.05),
    "attach_s": MetricSpec(direction="lower", rel_floor=1.0, timing=True),
    "unpickle_particles_s": MetricSpec(direction="info", timing=True),
}

_RECOVERY_METRICS = {
    "recovery_overhead": MetricSpec(direction="info", timing=True, signed=True),
    "clean_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "faulted_s": MetricSpec(direction="info", timing=True),
    "retries": MetricSpec(direction="info"),
    "respawns": MetricSpec(direction="info"),
    "states_identical": MetricSpec(direction="higher"),
}

_ENSEMBLE_METRICS = {
    # Bit-parity of every replica vs its standalone run: a deterministic
    # algorithm fact, gated exactly (any drop below 1.0 is a regression).
    "ensemble_parity": MetricSpec(direction="higher"),
    "speedup_vs_looped": MetricSpec(
        direction="higher", rel_floor=0.35, timing=True
    ),
    "fused_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "looped_s": MetricSpec(direction="info", timing=True),
    "fused_histories_per_s": MetricSpec(direction="info", timing=True),
    "replicas": MetricSpec(direction="info"),
}

_ADAPTIVE_METRICS = {
    # Physics bit-parity of the AUTO run vs both fixed schemes: a
    # deterministic algorithm fact, gated exactly.
    "adaptive_parity": MetricSpec(direction="higher"),
    # AUTO must roughly match the better fixed scheme; the wide band
    # absorbs host jitter, the CI smoke gate additionally asserts the
    # 0.95× floor on a fresh run.
    "adaptive_efficiency": MetricSpec(
        direction="higher", rel_floor=0.5, timing=True
    ),
    "op_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "oe_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "auto_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
}

_CE_METRICS = {
    # OP ≡ OE ≡ AUTO population-fingerprint parity under the CE backend:
    # a deterministic algorithm fact, gated exactly.
    "ce_parity": MetricSpec(direction="higher"),
    # Where the scheme balance sits once the union-grid lookup dominates;
    # host-dependent, informational.
    "oe_op_ratio": MetricSpec(direction="info", timing=True),
    "adaptive_efficiency": MetricSpec(direction="info", timing=True),
    "op_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "oe_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "auto_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "union_points": MetricSpec(direction="info"),
    "xs_lookups": MetricSpec(direction="info"),
    "op_linear_probes": MetricSpec(direction="info"),
    "oe_binary_probes": MetricSpec(direction="info"),
}

_LIVE_METRICS = {
    # Standing invariants of the observability plane, both deterministic
    # algorithm facts gated exactly: fingerprints bit-identical with the
    # plane attached, and the endpoint serving a view consistent with the
    # run's exact counters.
    "live_parity": MetricSpec(direction="higher"),
    "endpoint_ok": MetricSpec(direction="higher"),
    "off_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "on_s": MetricSpec(direction="lower", rel_floor=0.5, timing=True),
    "live_overhead": MetricSpec(direction="info", timing=True, signed=True),
    "events_total": MetricSpec(direction="info"),
}

_ARENA_METRICS = {
    "arena_nbytes": MetricSpec(direction="lower"),
    "bytes_per_particle": MetricSpec(direction="lower"),
    "final_population": MetricSpec(direction="info"),
}


def _build_registry() -> dict:
    specs = [
        _spec(
            "oe_transport_csp", "quick",
            "Over Events csp transport at measurement scale "
            "(96² mesh, 60 histories) with the hot-kernel profile",
            lambda: _transport_bench("csp", "over_events"),
            dict(_TRANSPORT_METRICS),
        ),
        _spec(
            "op_transport_csp", "quick",
            "Blocked Over Particles csp transport at measurement scale",
            lambda: _transport_bench("csp", "over_particles"),
            dict(_TRANSPORT_METRICS),
        ),
        _spec(
            "pool_speedup_csp", "quick",
            "Serial vs 2-worker pooled wall-clock (measured_speedup)",
            lambda: _pool_speedup_bench("csp"),
            dict(_POOL_METRICS), repeats=2, warmup=0,
        ),
        _spec(
            "shard_handoff", "quick",
            "Shard hand-off payload bytes and receive cost "
            "(measured_shard_handoff)",
            _shard_handoff_bench,
            dict(_HANDOFF_METRICS), repeats=2, warmup=0,
        ),
        _spec(
            "recovery_overhead_csp", "quick",
            "Wall-clock cost of losing one worker mid-run "
            "(measured_recovery_overhead)",
            lambda: _recovery_bench("csp"),
            dict(_RECOVERY_METRICS), repeats=1, warmup=0,
        ),
        _spec(
            "ensemble_throughput_csp", "quick",
            "32-replica fused ensemble (weight-cutoff sweep) vs the "
            "looped Simulation.run baseline, with bit-parity verified "
            "(measured_ensemble_throughput)",
            lambda: _ensemble_bench("csp"),
            dict(_ENSEMBLE_METRICS), repeats=2, warmup=0,
        ),
        _spec(
            "adaptive_crossover_csp", "quick",
            "Scheme auto (Over Events plus census compaction) vs pure OP "
            "and pure OE over 16 census steps, with bit-parity verified "
            "(measured_adaptive_crossover)",
            lambda: _adaptive_crossover_bench("csp"),
            dict(_ADAPTIVE_METRICS), repeats=2, warmup=0,
        ),
        _spec(
            "ce_lookup_csp", "quick",
            "Continuous-energy union-grid backend: OP vs OE vs AUTO "
            "crossover with bit-parity verified (measured_ce_crossover)",
            lambda: _ce_crossover_bench("csp"),
            dict(_CE_METRICS), repeats=2, warmup=0,
        ),
        _spec(
            "live_overhead_csp", "quick",
            "Serial csp run plain vs with the live metrics plane "
            "attached and scraped over HTTP, with bit-parity verified "
            "(measured_live_overhead)",
            lambda: _live_overhead_bench("csp"),
            dict(_LIVE_METRICS), repeats=2, warmup=0,
        ),
        _spec(
            "arena_footprint_csp", "quick",
            "Final-population arena byte accounting",
            lambda: _arena_bench("csp"),
            dict(_ARENA_METRICS), repeats=1, warmup=0,
        ),
    ]
    for problem in ("stream", "scatter"):
        for scheme in ("over_events", "over_particles"):
            specs.append(_spec(
                f"{'oe' if scheme == 'over_events' else 'op'}"
                f"_transport_{problem}",
                "full",
                f"{scheme} {problem} transport at measurement scale",
                lambda p=problem, s=scheme: _transport_bench(p, s),
                dict(_TRANSPORT_METRICS),
            ))
        specs.append(_spec(
            f"pool_speedup_{problem}", "full",
            f"Serial vs 2-worker pooled wall-clock, {problem}",
            lambda p=problem: _pool_speedup_bench(p),
            dict(_POOL_METRICS), repeats=2, warmup=0,
        ))
    specs.append(_spec(
        "ensemble_throughput_scatter", "full",
        "32-replica fused scatter ensemble vs the looped baseline",
        lambda: _ensemble_bench("scatter"),
        dict(_ENSEMBLE_METRICS), repeats=2, warmup=0,
    ))
    return {s.name: s for s in specs}


#: Every registered bench, by name.
REGISTRY: dict = _build_registry()

#: Tier membership: ``quick`` ⊂ ``full``.
TIERS = ("quick", "full")


def specs_for_tier(tier: str) -> list[BenchSpec]:
    """Quick-tier specs, or quick + full for ``tier="full"``."""
    if tier not in TIERS:
        raise KeyError(f"unknown tier {tier!r} (choose from {TIERS})")
    wanted = ("quick",) if tier == "quick" else TIERS
    return [s for s in REGISTRY.values() if s.tier in wanted]


def run_tier(
    tier: str,
    repeats: int | None = None,
    warmup: int | None = None,
    names: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run every bench of a tier (optionally restricted to ``names``)."""
    specs = specs_for_tier(tier)
    if names:
        unknown = sorted(set(names) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown benches: {', '.join(unknown)}")
        specs = [s for s in specs if s.name in set(names)]
    results = []
    for spec in specs:
        if progress:
            progress(spec.name)
        results.append(run_bench(spec, repeats=repeats, warmup=warmup))
    return results


def build_bench_artifact(
    results: list[BenchResult], tier: str, sequence: int | None = None,
    claims: dict | None = None,
) -> BenchArtifact:
    """Assemble the ``BENCH_<n>.json`` artifact from tier results."""
    meta = {
        "tier": tier,
        "sequence": sequence,
        "host": host_fingerprint(),
        "git": git_provenance(),
        "timer_resolution_s": time.get_clock_info(
            "perf_counter"
        ).resolution,
        "created_by": "repro bench run",
    }
    if claims:
        meta["claims"] = dict(claims)
    benches = {}
    for r in results:
        benches[r.spec.name] = {
            "spec": {
                "tier": r.spec.tier,
                "version": r.spec.version,
                "description": r.spec.description,
            },
            "repeats": r.repeats,
            "warmup": r.warmup,
            "wallclock_s": _summary(r.wallclock_samples, r.spec.wallclock),
            "metrics": {
                m: _summary(r.metric_samples[m], mspec)
                for m, mspec in r.spec.metrics.items()
            },
            "kernel_profile": r.kernel_profile,
            "warnings": list(r.warnings),
        }
    return BenchArtifact(meta=meta, benches=benches)
