"""The versioned ``BENCH_<n>.json`` benchmark artifact: loader and validator.

One :class:`BenchArtifact` records one run of the retired quick bench
tier — per bench the wall-clock and metric sample statistics (median +
IQR noise band), the hot-kernel profile where the bench produced one,
and the host fingerprint / git provenance of the measuring host.  The
committed ``results/BENCH_1..6.json`` are history: nothing writes a new
one.  What still reads them is the machine-model recalibration
(``repro bench recalibrate``), the capacity planner (``repro capacity
plan``), the live plane's drift band (``--drift-baseline``) and the
tier-1 test that pins the deterministic facts of ``BENCH_6.json``.

The artifact follows the same discipline as
:mod:`repro.obs.telemetry`: a named, versioned schema
(``repro.bench`` version :data:`SCHEMA_VERSION`), canonical JSON
(sorted keys, fixed separators) and a hand-rolled structural validator
with no external dependency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "BenchSchemaError",
    "BenchArtifact",
    "validate_bench_artifact",
    "load_bench_artifact",
]

SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 1


class BenchSchemaError(ValueError):
    """An artifact dict does not conform to the bench schema."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "bench artifact failed schema validation:\n  "
            + "\n  ".join(self.problems)
        )


@dataclass
class BenchArtifact:
    """One bench-tier run in serialisable form.

    ``benches`` maps bench name to its result section::

        {
          "spec": {"kind": ..., "tier": ..., "version": int},
          "repeats": int, "warmup": int,
          "wallclock_s": {metric section},
          "metrics": {name: {metric section}},
          "kernel_profile": {...} | null,
          "warnings": [...],
        }

    where a *metric section* is ``{"samples": [...], "median": float,
    "iqr": float, "direction": "lower"|"higher"|"info",
    "rel_floor": float, "timing": bool}`` — self-describing, so a
    reader needs no access to the harness that produced it.
    """

    meta: dict
    benches: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchArtifact":
        validate_bench_artifact(d)
        return cls(meta=d["meta"], benches=d["benches"])

    # -- convenience accessors ------------------------------------------
    def bench_names(self) -> list[str]:
        return sorted(self.benches)


def load_bench_artifact(path) -> BenchArtifact:
    """Read and schema-validate an artifact file."""
    return BenchArtifact.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Schema validation (hand-rolled: no external jsonschema dependency)
# ---------------------------------------------------------------------------

_NUM = (int, float)
_DIRECTIONS = {"lower", "higher", "info"}


def _check_metric_section(section, label, problems) -> None:
    if not isinstance(section, dict):
        problems.append(f"{label} must be an object")
        return
    samples = section.get("samples")
    if not isinstance(samples, list) or not samples:
        problems.append(f"{label}.samples must be a non-empty list")
    elif not all(
        isinstance(v, _NUM) and not isinstance(v, bool) for v in samples
    ):
        problems.append(f"{label}.samples must be numeric")
    for key in ("median", "iqr", "rel_floor"):
        v = section.get(key)
        if not isinstance(v, _NUM) or isinstance(v, bool):
            problems.append(f"{label}.{key} must be numeric")
    if section.get("direction") not in _DIRECTIONS:
        problems.append(
            f"{label}.direction must be one of {sorted(_DIRECTIONS)}"
        )
    if not isinstance(section.get("timing"), bool):
        problems.append(f"{label}.timing must be a boolean")


def validate_bench_artifact(d: dict) -> None:
    """Structurally validate an artifact dict; raise
    :class:`BenchSchemaError` listing every problem found."""
    problems: list[str] = []
    if not isinstance(d, dict):
        raise BenchSchemaError(["artifact is not an object"])

    schema = d.get("schema")
    if not isinstance(schema, dict):
        problems.append("missing 'schema' section")
    else:
        if schema.get("name") != SCHEMA_NAME:
            problems.append(
                f"schema.name is {schema.get('name')!r}, "
                f"expected {SCHEMA_NAME!r}"
            )
        version = schema.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            problems.append("schema.version must be an integer")
        elif version > SCHEMA_VERSION:
            problems.append(
                f"schema.version {version} is newer than this reader "
                f"({SCHEMA_VERSION})"
            )

    meta = d.get("meta")
    if not isinstance(meta, dict):
        problems.append("'meta' must be an object")
    else:
        if not isinstance(meta.get("host"), dict):
            problems.append("meta.host must be an object")
        git = meta.get("git")
        if not isinstance(git, dict) or not isinstance(git.get("sha"), str):
            problems.append("meta.git must be an object with a 'sha'")
        if not isinstance(meta.get("tier"), str):
            problems.append("meta.tier must be a string")
        res = meta.get("timer_resolution_s")
        if not isinstance(res, _NUM) or isinstance(res, bool):
            problems.append("meta.timer_resolution_s must be numeric")

    benches = d.get("benches")
    if not isinstance(benches, dict):
        problems.append("'benches' must be an object")
        raise BenchSchemaError(problems)

    for name, section in benches.items():
        label = f"benches[{name!r}]"
        if not isinstance(section, dict):
            problems.append(f"{label} must be an object")
            continue
        spec = section.get("spec")
        if not isinstance(spec, dict) or not isinstance(
            spec.get("version"), int
        ):
            problems.append(f"{label}.spec must carry an integer 'version'")
        for key in ("repeats", "warmup"):
            if not isinstance(section.get(key), int):
                problems.append(f"{label}.{key} must be an integer")
        _check_metric_section(
            section.get("wallclock_s"), f"{label}.wallclock_s", problems
        )
        metrics = section.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"{label}.metrics must be an object")
        else:
            for mname, msection in metrics.items():
                _check_metric_section(
                    msection, f"{label}.metrics[{mname!r}]", problems
                )
        profile = section.get("kernel_profile", None)
        if profile is not None:
            if not isinstance(profile, dict):
                problems.append(f"{label}.kernel_profile must be an object "
                                "or null")
            else:
                for kname, row in profile.items():
                    if (not isinstance(row, list) or len(row) != 3
                            or not all(isinstance(v, _NUM) for v in row)):
                        problems.append(
                            f"{label}.kernel_profile[{kname!r}] must be "
                            "[calls, items, seconds]"
                        )
        if not isinstance(section.get("warnings", []), list):
            problems.append(f"{label}.warnings must be a list")

    if problems:
        raise BenchSchemaError(problems)
