"""Recalibrate the machine-model event costs from measured kernel timings.

The analytic models in :mod:`repro.perfmodel` charge each event type a
fixed ALU-operation budget (:class:`~repro.perfmodel.costs.ModelConstants`:
``collision_alu_ops``, ``facet_alu_ops``, …).  Those budgets were
estimated by reading the kernels; the committed ``BENCH_<n>.json``
artifacts carry *measured* per-kernel profiles, so the loop can be
closed: fit the per-operation cost that best explains the measured
per-kernel wall-clocks, report how far each kernel sits from the
model's relative cost structure, and emit a refitted
:class:`ModelConstants` whose ratios match the measurement.

This is the glowing-octo-tyiron workflow ("compare actual behavior of a
customer system with the expected"): the fit residuals say where the
model's cost structure disagrees with the host, and the refitted
constants feed the same prediction pipeline for capacity planning.

The fit is a one-parameter least squares.  With measured kernel rows
``(calls, items, seconds)`` and model budgets ``ops_k``, minimise

    sum_k (f · items_k · ops_k − seconds_k)²   over f

giving ``f = Σ w_k s_k / Σ w_k²`` with ``w_k = items_k · ops_k`` — the
host's effective seconds-per-modelled-op.  Per-kernel relative error of
``f · w_k`` against ``seconds_k`` is the model-vs-measured report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.perfmodel.costs import DEFAULT_CONSTANTS, ModelConstants

__all__ = [
    "KERNEL_COST_FIELDS",
    "KernelFit",
    "CalibrationReport",
    "recalibrate_constants",
    "recalibrate_from_artifact",
]

#: Measured kernel name → the ModelConstants field charging that work.
#: ``select_events`` has no dedicated constant (its compare/select work
#: is folded into the census bookkeeping budget).
KERNEL_COST_FIELDS = {
    "collide": "collision_alu_ops",
    "cross_facet": "facet_alu_ops",
    "census": "census_alu_ops",
    "xs_lookup": "lookup_alu_ops",
    "distances": "distance_alu_ops",
}


@dataclass(frozen=True)
class KernelFit:
    """One kernel's measured-vs-modelled cost."""

    kernel: str
    field: str
    items: int
    measured_s: float
    predicted_s: float
    #: (predicted − measured) / measured.
    rel_error: float
    #: Measured seconds per item × fitted op rate = implied op budget.
    refit_ops: float


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of one recalibration pass.

    ``constants`` is a :class:`ModelConstants` whose per-event budgets
    are replaced by the measured implied budgets, so feeding it back
    into ``predict_cpu``/``predict_gpu`` prices events in the measured
    ratio.  ``seconds_per_op`` is the host's fitted cost of one
    modelled ALU operation (Python-interpreted kernels sit orders of
    magnitude above a native pipeline; the *ratios* are the signal).
    """

    seconds_per_op: float
    fits: tuple
    constants: ModelConstants
    skipped: tuple = ()

    @property
    def mean_abs_rel_error(self) -> float:
        if not self.fits:
            return 0.0
        return sum(abs(f.rel_error) for f in self.fits) / len(self.fits)

    @property
    def max_abs_rel_error(self) -> float:
        return max((abs(f.rel_error) for f in self.fits), default=0.0)

    def format(self) -> str:
        from repro.bench.reporting import format_table

        rows = [
            [f.kernel, f.field, f.items, f.measured_s, f.predicted_s,
             f"{f.rel_error:+.1%}", f.refit_ops]
            for f in self.fits
        ]
        table = format_table(
            ["kernel", "constant", "items", "measured (s)",
             "model (s)", "error", "refit ops"],
            rows, float_fmt="{:.4g}",
        )
        lines = [
            table,
            "",
            f"fitted cost: {self.seconds_per_op:.3e} s/op; "
            f"model-vs-measured error: "
            f"mean {self.mean_abs_rel_error:.1%}, "
            f"max {self.max_abs_rel_error:.1%}",
        ]
        if self.skipped:
            lines.append(
                "unmapped kernels (no model constant): "
                + ", ".join(self.skipped)
            )
        return "\n".join(lines) + "\n"


def recalibrate_constants(
    kernel_profile: dict,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> CalibrationReport:
    """Fit the model's event costs to a measured kernel profile.

    ``kernel_profile`` is the dispatch-table shape: name → ``(calls,
    items, seconds)``.  Kernels without a mapped constant are reported
    as skipped; kernels with zero items or zero measured time are
    excluded from the fit (nothing to learn from them).
    """
    weights: list[tuple[str, str, float, float, float]] = []
    skipped: list[str] = []
    for name, row in sorted(kernel_profile.items()):
        calls, items, seconds = int(row[0]), int(row[1]), float(row[2])
        field = KERNEL_COST_FIELDS.get(name)
        if field is None:
            skipped.append(name)
            continue
        if items <= 0 or seconds <= 0.0:
            continue
        ops = float(getattr(constants, field))
        weights.append((name, field, float(items), ops, seconds))

    if not weights:
        raise ValueError(
            "kernel profile has no mapped, non-empty kernels to fit "
            f"(mapped names: {sorted(KERNEL_COST_FIELDS)})"
        )

    num = sum(items * ops * seconds for _, _, items, ops, seconds in weights)
    den = sum((items * ops) ** 2 for _, _, items, ops, _ in weights)
    seconds_per_op = num / den

    fits = []
    refit_fields: dict[str, float] = {}
    for name, field, items, ops, seconds in weights:
        predicted = seconds_per_op * items * ops
        refit_ops = seconds / (items * seconds_per_op)
        refit_fields[field] = refit_ops
        fits.append(KernelFit(
            kernel=name, field=field, items=int(items),
            measured_s=seconds, predicted_s=predicted,
            rel_error=(predicted - seconds) / seconds,
            refit_ops=refit_ops,
        ))

    return CalibrationReport(
        seconds_per_op=seconds_per_op,
        fits=tuple(fits),
        constants=replace(constants, **refit_fields),
        skipped=tuple(skipped),
    )


def recalibrate_from_artifact(
    artifact, bench: str | None = None,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> CalibrationReport:
    """Recalibrate from a :class:`~repro.bench.artifact.BenchArtifact`.

    Uses ``bench``'s kernel profile, or the first bench carrying one
    when not named — ``repro bench recalibrate BENCH_1.json`` is the CLI
    face of this hook.
    """
    candidates = (
        [bench] if bench is not None else artifact.bench_names()
    )
    for name in candidates:
        section = artifact.benches.get(name)
        if section is None:
            raise KeyError(f"artifact has no bench {name!r}")
        profile = section.get("kernel_profile")
        if profile:
            return recalibrate_constants(profile, constants)
    raise ValueError(
        "artifact carries no kernel profile to recalibrate from"
    )
