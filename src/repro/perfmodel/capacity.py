"""Capacity planning on the calibrated performance model.

ROADMAP item 5's closing half: *"given this traffic mix, how many
workers/nodes to hit a latency SLO"* — the stated configuration-planning
purpose of the machine model.  The inputs are deliberately only things
the repo already commits: a ``BENCH_*.json`` artifact (measured
single-worker and pooled latencies from ``pool_speedup_csp``, plus the
kernel profiles the recalibrator fits) and the recalibrated
:mod:`repro.perfmodel` error, which becomes the plan's tolerance band.

The scaling law is the paper's own frame: Amdahl's law fitted from the
two measured points.  With ``t1`` the single-worker latency and ``tn``
the ``n``-worker latency,

    T(w) = t1 * (f + (1 - f) / w)

and the serial fraction ``f`` follows from inverting at ``w = n``.  On
hosts where pooling *hurts* (``tn > t1``, e.g. a 1-CPU container paying
process overhead with zero parallelism to win) the fit yields ``f > 1``
— the model then correctly reports latency as *increasing* in the
worker count and the planner answers honestly: one worker is optimal,
and SLOs below ``t1`` are infeasible at any width.

Two planning modes share :func:`plan_capacity`:

* **reproduce** (no SLO given): invert the model at the *measured*
  pooled latency and check it lands back on the benched worker count —
  the self-consistency loop the acceptance criteria gate, with the
  calibration's mean relative error as the band.
* **SLO** (``latency_slo=`` given): the minimal workers per job whose
  predicted latency meets the SLO; with a traffic ``rate`` (jobs/s),
  Little's law sizes the fleet: ``rate × slo`` jobs in flight, each
  needing ``workers_per_job`` workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DEFAULT_BENCH",
    "amdahl_serial_fraction",
    "implied_workers",
    "required_workers",
    "CapacityScenario",
    "scenario_from_artifact",
    "CapacityPlan",
    "plan_capacity",
]

#: The bench whose serial/pooled latencies calibrate the scaling law.
DEFAULT_BENCH = "pool_speedup_csp"


def amdahl_serial_fraction(t1: float, tn: float, n: int) -> float:
    """Serial fraction ``f`` from inverting ``T(n) = t1*(f + (1-f)/n)``.

    ``f > 1`` is a legitimate fit on hosts where pooling slows the run
    down (process overhead with no cores to win back) — the model then
    predicts latency *rising* with the worker count.
    """
    if t1 <= 0 or tn <= 0:
        raise ValueError("latencies must be positive")
    if n < 2:
        raise ValueError("need a pooled measurement at n >= 2 workers")
    return (tn / t1 - 1.0 / n) / (1.0 - 1.0 / n)


def implied_workers(t1: float, f: float, latency: float) -> float | None:
    """Invert ``T(w) = latency`` for ``w`` — the worker count the model
    says produced a *measured* latency.  ``None`` when the latency is
    outside the model's reachable range (no finite solution)."""
    if latency <= 0:
        raise ValueError("latency must be positive")
    denom = latency / t1 - f
    if denom == 0:
        return None  # the w → ∞ asymptote
    w = (1.0 - f) / denom
    return w if w >= 1.0 else None


def required_workers(t1: float, f: float, latency_slo: float) -> float:
    """Minimal (fractional) workers per job with ``T(w) <= latency_slo``;
    ``math.inf`` when no worker count can meet the SLO.

    For ``f < 1`` latency falls toward the ``t1*f`` asymptote, so SLOs
    at or below it are infeasible.  For ``f >= 1`` latency *rises* with
    width: one worker is optimal and SLOs under ``t1`` are infeasible.
    """
    if latency_slo <= 0:
        raise ValueError("latency_slo must be positive")
    if f >= 1.0:
        return 1.0 if latency_slo >= t1 else math.inf
    if latency_slo >= t1:
        return 1.0
    if latency_slo <= t1 * f:
        return math.inf
    return (1.0 - f) / (latency_slo / t1 - f)


@dataclass(frozen=True)
class CapacityScenario:
    """The calibrated inputs extracted from one bench artifact."""

    bench: str
    #: Measured single-worker latency (s) — Amdahl ``t1``.
    serial_s: float
    #: Measured latency at ``nworkers`` (s).
    parallel_s: float
    #: Worker count of the pooled measurement.
    nworkers: int
    #: Fitted Amdahl serial fraction (may exceed 1; see module doc).
    serial_fraction: float
    #: The recalibrated machine model's mean |relative error| — the
    #: tolerance band every plan reports (0 when the artifact carries no
    #: kernel profile to calibrate against).
    model_error: float
    #: Host fingerprint of the measuring machine.
    host: dict

    def format(self) -> str:
        return (
            f"scenario [{self.bench}]: t1={self.serial_s:.4f}s, "
            f"T({self.nworkers})={self.parallel_s:.4f}s, "
            f"serial fraction f={self.serial_fraction:.4f}, "
            f"model error ±{self.model_error:.1%} "
            f"(host: {self.host.get('machine', '?')}, "
            f"{self.host.get('cpu_count', '?')} cpus)"
        )


def scenario_from_artifact(artifact, bench: str = DEFAULT_BENCH,
                           nworkers: int = 2) -> CapacityScenario:
    """Extract a :class:`CapacityScenario` from a ``BENCH_*.json``
    artifact.

    ``bench`` must expose ``serial_s``/``parallel_s`` metrics (the
    ``pool_speedup_*`` family); ``nworkers`` is the worker count that
    bench ran with (2 in the committed artifacts).  The model error comes from
    recalibrating :mod:`repro.perfmodel` against the artifact's kernel
    profiles — the same recalibration ``repro bench recalibrate`` runs.
    """
    if bench not in artifact.benches:
        raise ValueError(
            f"artifact has no bench {bench!r}; available: "
            f"{', '.join(artifact.bench_names())}"
        )
    metrics = artifact.benches[bench].get("metrics", {})
    for needed in ("serial_s", "parallel_s"):
        if needed not in metrics:
            raise ValueError(
                f"bench {bench!r} has no {needed!r} metric; capacity "
                "planning needs a pool_speedup_* style bench"
            )
    t1 = float(metrics["serial_s"]["median"])
    tn = float(metrics["parallel_s"]["median"])
    from repro.perfmodel.recalibrate import recalibrate_from_artifact

    try:
        model_error = recalibrate_from_artifact(artifact).mean_abs_rel_error
    except (ValueError, KeyError):
        model_error = 0.0
    return CapacityScenario(
        bench=bench,
        serial_s=t1,
        parallel_s=tn,
        nworkers=nworkers,
        serial_fraction=amdahl_serial_fraction(t1, tn, nworkers),
        model_error=model_error,
        host=dict(artifact.meta.get("host", {})),
    )


@dataclass(frozen=True)
class CapacityPlan:
    """One answer from :func:`plan_capacity`."""

    mode: str  # "reproduce" | "slo"
    #: The latency target the plan solved for (s).
    target_latency_s: float
    #: Traffic rate (jobs/s); None when planning a single job.
    rate: float | None
    #: Fractional workers per job from the model (inf when infeasible).
    workers_per_job: float
    #: Rounded workers per job (None when infeasible).
    workers: int | None
    #: Workers-per-job bounds under ± the model error on the target.
    workers_low: float
    workers_high: float
    #: Total fleet size for the traffic rate (None without a rate or
    #: when infeasible).
    fleet: int | None
    feasible: bool
    note: str

    def format(self) -> str:
        lines = []
        if self.mode == "reproduce":
            lines.append(
                f"reproduce: model implies {self.workers_per_job:.2f} "
                f"workers for the measured {self.target_latency_s:.4f}s "
                f"latency (band {self.workers_low:.2f}"
                f"–{self.workers_high:.2f})"
            )
        elif not self.feasible:
            lines.append(
                f"slo {self.target_latency_s:.4f}s: INFEASIBLE — "
                + self.note
            )
        else:
            lines.append(
                f"slo {self.target_latency_s:.4f}s: {self.workers} "
                f"worker(s) per job "
                f"(model: {self.workers_per_job:.2f}, band "
                f"{self.workers_low:.2f}–{self.workers_high:.2f})"
            )
            if self.fleet is not None:
                lines.append(
                    f"traffic {self.rate:g} jobs/s -> "
                    f"{self.rate * self.target_latency_s:.2f} jobs in "
                    f"flight (Little's law) -> fleet of {self.fleet} "
                    "workers"
                )
        if self.note and self.feasible:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)


def _bounded_workers(solve, target: float, err: float) -> tuple[float, float]:
    """Evaluate a worker solver at ``target*(1±err)`` and order the
    finite results into a (low, high) band."""
    values = []
    for latency in (target * (1.0 - err), target, target * (1.0 + err)):
        if latency <= 0:
            continue
        w = solve(latency)
        if w is not None and math.isfinite(w):
            values.append(w)
    if not values:
        return math.inf, math.inf
    return min(values), max(values)


def plan_capacity(scenario: CapacityScenario, *,
                  latency_slo: float | None = None,
                  rate: float | None = None) -> CapacityPlan:
    """Solve the calibrated scaling law for worker counts.

    Without ``latency_slo`` this is the self-consistency *reproduce*
    mode: invert the model at the scenario's own measured pooled latency
    — it should land back on the benched worker count within the model
    error.  With an SLO it sizes workers per job, and with ``rate`` a
    whole fleet via Little's law, so a ``rate`` needs an SLO.
    """
    if rate is not None:
        if latency_slo is None:
            raise ValueError("a traffic rate needs a latency SLO: "
                             "Little's law sizes the fleet at the SLO")
        if rate <= 0:
            raise ValueError("rate must be positive")
    t1, f, err = (
        scenario.serial_s, scenario.serial_fraction, scenario.model_error
    )
    if latency_slo is None:
        target = scenario.parallel_s
        w = implied_workers(t1, f, target)
        low, high = _bounded_workers(
            lambda latency: implied_workers(t1, f, latency), target, err
        )
        feasible = w is not None
        return CapacityPlan(
            mode="reproduce",
            target_latency_s=target,
            rate=None,
            workers_per_job=w if w is not None else math.inf,
            workers=int(round(w)) if w is not None else None,
            workers_low=low,
            workers_high=high,
            fleet=None,
            feasible=feasible,
            note=(
                "" if feasible
                else "measured latency is outside the fitted model's range"
            ),
        )
    w = required_workers(t1, f, latency_slo)
    low, high = _bounded_workers(
        lambda latency: required_workers(t1, f, latency), latency_slo, err
    )
    feasible = math.isfinite(w)
    note = ""
    if not feasible:
        if f >= 1.0:
            note = (
                f"fitted serial fraction f={f:.3f} >= 1: pooling slows "
                f"this workload down on the measured host, and the SLO "
                f"is below the one-worker latency t1={t1:.4f}s"
            )
        else:
            note = (
                f"SLO at or below the Amdahl asymptote "
                f"t1*f={t1 * f:.4f}s — no worker count reaches it"
            )
    elif f >= 1.0:
        note = (
            f"fitted serial fraction f={f:.3f} >= 1: adding workers "
            "increases latency on the measured host, so 1 worker per "
            "job is optimal"
        )
    fleet = None
    if feasible and rate is not None:
        fleet = max(1, math.ceil(w * rate * latency_slo))
    return CapacityPlan(
        mode="slo",
        target_latency_s=latency_slo,
        rate=rate,
        workers_per_job=w,
        workers=max(1, math.ceil(w)) if feasible else None,
        workers_low=low,
        workers_high=high,
        fleet=fleet,
        feasible=feasible,
        note=note,
    )
