"""The versioned ``BENCH_<n>.json`` benchmark artifact.

One :class:`BenchArtifact` records the outcome of a registry run — per
bench the wall-clock and metric sample statistics (median + IQR noise
band), the hot-kernel profile where the bench produced one, and the host
fingerprint / git provenance the comparator needs to decide which
metrics are comparable across artifacts.

The artifact follows the same discipline as
:mod:`repro.obs.telemetry`: a named, versioned schema
(``repro.bench`` version :data:`SCHEMA_VERSION`), canonical JSON
(sorted keys, fixed separators, byte-stable ``dump → load → dump``),
and a hand-rolled structural validator with no external dependency.

Artifacts are *sequenced*: ``BENCH_1.json``, ``BENCH_2.json``, … under
``results/`` form the repo's machine-readable perf trajectory.
:func:`next_bench_path` picks the next free sequence number.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "BenchSchemaError",
    "BenchArtifact",
    "host_fingerprint",
    "git_provenance",
    "validate_bench_artifact",
    "load_bench_artifact",
    "next_bench_path",
    "bench_sequence_of",
]

SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 1

_BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")


class BenchSchemaError(ValueError):
    """An artifact dict does not conform to the bench schema."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "bench artifact failed schema validation:\n  "
            + "\n  ".join(self.problems)
        )


def host_fingerprint() -> dict:
    """Identify the measuring host well enough to know whether two
    artifacts' absolute timings are comparable."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_provenance(repo_dir=None) -> dict:
    """Current commit sha and dirty flag; degrades to ``unknown`` when
    git (or the repository) is unavailable."""
    cwd = str(repo_dir) if repo_dir else None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout
        return {"sha": sha, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": False}


@dataclass
class BenchArtifact:
    """One registry run in serialisable form.

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
    "rel_floor": float, "timing": bool}`` — self-describing, so the
    comparator needs no access to the registry that produced it.
    """

    meta: dict
    benches: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
            "meta": self.meta,
            "benches": self.benches,
        }

    def to_json(self) -> str:
        """Canonical JSON — sorted keys, fixed separators — so repeated
        dumps of one artifact are byte-identical."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def dump(self, path) -> None:
        validate_bench_artifact(self.to_dict())
        Path(path).write_text(self.to_json() + "\n")

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


def bench_sequence_of(path) -> int | None:
    """The ``<n>`` of a ``BENCH_<n>.json`` filename, or ``None``."""
    m = _BENCH_FILE_RE.match(Path(path).name)
    return int(m.group(1)) if m else None


def next_bench_path(directory) -> Path:
    """The next free ``BENCH_<n>.json`` in ``directory``."""
    directory = Path(directory)
    taken = [
        seq for p in directory.glob("BENCH_*.json")
        if (seq := bench_sequence_of(p)) is not None
    ]
    return directory / f"BENCH_{max(taken, default=0) + 1}.json"


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
