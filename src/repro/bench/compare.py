"""Diff two ``BENCH_<n>.json`` artifacts and flag out-of-band regressions.

The comparator is what turns the artifact trajectory into a gate: given
a *baseline* and a *candidate* artifact it walks every gated metric,
computes the noise band ``max(base IQR, cand IQR, rel_floor × |base
median|)`` and flags a regression when the candidate's median moves
against the metric's declared direction by more than ``scale`` bands.

Host discipline: absolute timings (``timing: true`` metric sections)
are only comparable between identical host fingerprints.  When the
hosts differ those metrics are *skipped* (reported, not gated) unless
``assume_same_host`` forces them — which keeps the CI gate meaningful
when the committed baseline came from a different machine: the
deterministic algorithm facts (kernel call/item counts, hand-off
payload bytes, arena footprint, workspace allocations) still gate
exactly, because they reproduce bit-for-bit on any host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.artifact import BenchArtifact

__all__ = [
    "MetricDelta",
    "ComparisonReport",
    "compare_artifacts",
    "hosts_match",
]

#: Default number of noise bands a median may move before it gates.
DEFAULT_SCALE = 3.0

#: Fingerprint keys that must agree for absolute timings to be comparable.
_HOST_KEYS = ("platform", "machine", "processor", "python", "cpu_count")


def hosts_match(base_meta: dict, cand_meta: dict) -> bool:
    """True when two artifacts carry the same host fingerprint (so their
    absolute timings are comparable)."""
    base = base_meta.get("host", {})
    cand = cand_meta.get("host", {})
    return all(base.get(k) == cand.get(k) for k in _HOST_KEYS)


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-candidate outcome.

    ``status`` is one of ``ok`` (in band), ``regression`` (out of band,
    against the direction), ``improved`` (out of band, in the metric's
    favour), ``skipped_host`` (timing metric across different hosts),
    ``not_gated`` (direction ``info``), ``missing`` (bench or metric
    absent from the candidate) or ``new`` (absent from the baseline).
    """

    bench: str
    metric: str
    direction: str
    status: str
    base_median: float | None = None
    cand_median: float | None = None
    band: float = 0.0


@dataclass(frozen=True)
class ComparisonReport:
    """Every metric delta between two artifacts, plus the verdict."""

    deltas: tuple
    host_match: bool
    scale: float
    base_sequence: int | None = None
    cand_sequence: int | None = None

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas
                if d.status in ("regression", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        from repro.bench.reporting import format_table

        rows = []
        for d in self.deltas:
            rows.append([
                d.bench,
                d.metric,
                "-" if d.base_median is None else f"{d.base_median:.6g}",
                "-" if d.cand_median is None else f"{d.cand_median:.6g}",
                f"{d.band:.3g}",
                d.direction,
                d.status,
            ])
        table = format_table(
            ["bench", "metric", "baseline", "candidate", "band",
             "direction", "status"],
            rows,
        )
        verdict = (
            "OK: no out-of-band regressions"
            if self.ok
            else f"REGRESSION: {len(self.regressions)} metric(s) out of band"
        )
        host_note = (
            "" if self.host_match
            else "\n(host fingerprints differ: timing metrics skipped)"
        )
        return f"{table}\n\n{verdict}{host_note}\n"


def _sections(artifact_bench: dict) -> dict:
    """Flatten one bench's wallclock + metric sections by metric name."""
    out = {"wallclock_s": artifact_bench["wallclock_s"]}
    out.update(artifact_bench["metrics"])
    return out


def _judge(base: dict, cand: dict, scale: float) -> tuple[str, float]:
    """Compare one metric section pair; return (status, band)."""
    direction = base["direction"]
    band = max(
        base["iqr"], cand["iqr"],
        base["rel_floor"] * abs(base["median"]),
    )
    if direction == "info":
        return "not_gated", band
    delta = cand["median"] - base["median"]
    threshold = scale * band
    if direction == "lower":
        if delta > threshold:
            return "regression", band
        if delta < -threshold:
            return "improved", band
    else:  # higher
        if delta < -threshold:
            return "regression", band
        if delta > threshold:
            return "improved", band
    return "ok", band


def compare_artifacts(
    base: BenchArtifact,
    cand: BenchArtifact,
    scale: float = DEFAULT_SCALE,
    assume_same_host: bool = False,
) -> ComparisonReport:
    """Diff every shared bench metric; see the module docstring for the
    gating rules."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    same_host = assume_same_host or hosts_match(base.meta, cand.meta)
    deltas: list[MetricDelta] = []

    for name in sorted(set(base.benches) | set(cand.benches)):
        b = base.benches.get(name)
        c = cand.benches.get(name)
        if b is None:
            deltas.append(MetricDelta(name, "*", "info", "new"))
            continue
        if c is None:
            deltas.append(MetricDelta(name, "*", "info", "missing"))
            continue
        if b["spec"]["version"] != c["spec"]["version"]:
            # The bench changed meaning between artifacts: its numbers
            # are not comparable, and silently gating them would compare
            # apples to oranges.  Surface it as informational.
            deltas.append(MetricDelta(
                name, "*", "info", "new",
            ))
            continue
        base_sections = _sections(b)
        cand_sections = _sections(c)
        for mname in sorted(set(base_sections) | set(cand_sections)):
            bs = base_sections.get(mname)
            cs = cand_sections.get(mname)
            if bs is None:
                deltas.append(MetricDelta(
                    name, mname, cs["direction"], "new",
                    cand_median=cs["median"],
                ))
                continue
            if cs is None:
                status = (
                    "missing" if bs["direction"] != "info" else "not_gated"
                )
                deltas.append(MetricDelta(
                    name, mname, bs["direction"], status,
                    base_median=bs["median"],
                ))
                continue
            if bs["timing"] and not same_host:
                deltas.append(MetricDelta(
                    name, mname, bs["direction"], "skipped_host",
                    base_median=bs["median"], cand_median=cs["median"],
                ))
                continue
            status, band = _judge(bs, cs, scale)
            deltas.append(MetricDelta(
                name, mname, bs["direction"], status,
                base_median=bs["median"], cand_median=cs["median"],
                band=band,
            ))

    return ComparisonReport(
        deltas=tuple(deltas),
        host_match=same_host,
        scale=scale,
        base_sequence=base.meta.get("sequence"),
        cand_sequence=cand.meta.get("sequence"),
    )
