"""The unified, versioned run-telemetry artifact.

One :class:`RunTelemetry` gathers every measurement surface a run
produces — the counters snapshot, the kernel dispatch profile, workspace
and bin-reuse statistics, arena byte accounting, the pool's recovery
ledger (including per-worker last-heartbeat ages and per-shard attempt
counts), and the merged span tree / event log — under a single schema
(``repro.run_telemetry`` version :data:`SCHEMA_VERSION`).

Schema policy (DESIGN.md §7): the version integer bumps on any change
that removes or retypes a field; adding optional fields is
backwards-compatible and does not bump.  :func:`validate_telemetry`
checks an artifact dict structurally (no external dependency) and is the
gate the CI telemetry job runs on every exported artifact.

Serialisation is canonical — sorted keys, fixed separators — so
``dump → load → dump`` is byte-stable (asserted by the round-trip test).
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

from repro.obs.spans import Recorder

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "TelemetrySchemaError",
    "RunTelemetry",
    "build_run_telemetry",
    "validate_telemetry",
    "load_telemetry",
]

SCHEMA_NAME = "repro.run_telemetry"
SCHEMA_VERSION = 1


class TelemetrySchemaError(ValueError):
    """An artifact dict does not conform to the telemetry schema."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "telemetry artifact failed schema validation:\n  "
            + "\n  ".join(self.problems)
        )


@dataclass
class RunTelemetry:
    """Everything measured about one run, in serialisable form.

    ``spans``/``events`` are plain row dicts (the :meth:`Span.to_row`
    shape) so the artifact survives a JSON round-trip unchanged.
    """

    meta: dict
    counters: dict
    kernel_profile: dict
    workspace: dict
    arena: dict
    pool: dict | None
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
            "meta": self.meta,
            "counters": self.counters,
            "kernel_profile": self.kernel_profile,
            "workspace": self.workspace,
            "arena": self.arena,
            "pool": self.pool,
            "spans": self.spans,
            "events": self.events,
        }

    def to_json(self) -> str:
        """Canonical JSON — sorted keys, fixed separators — so repeated
        dumps of one artifact are byte-identical."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def dump(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, d: dict) -> "RunTelemetry":
        validate_telemetry(d)
        return cls(
            meta=d["meta"],
            counters=d["counters"],
            kernel_profile=d["kernel_profile"],
            workspace=d["workspace"],
            arena=d["arena"],
            pool=d["pool"],
            spans=d["spans"],
            events=d["events"],
        )

    # -- convenience accessors ------------------------------------------
    def worker_span_count(self) -> int:
        """Spans recorded inside worker processes (tagged sources)."""
        return sum(1 for r in self.spans if r.get("source"))

    def recovery_events(self) -> list[dict]:
        """Event rows from the pool's fault-tolerance machinery."""
        names = {"worker_lost", "respawn", "retry", "degraded",
                 "drain_in_process"}
        return [r for r in self.events if r["name"] in names]


def load_telemetry(path) -> RunTelemetry:
    """Read and schema-validate an artifact file."""
    return RunTelemetry.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Building an artifact from a run
# ---------------------------------------------------------------------------

def _plain(value):
    """A pool-section value as JSON data: a dataclass as the dict of its
    fields, a tuple as a list, an enum as its value."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def _pool_section(pool) -> dict | None:
    """Serialise a :class:`~repro.parallel.pool.PoolRunInfo`: every field
    of it and of its :class:`~repro.parallel.pool.WorkerReport` rows."""
    return None if pool is None else _plain(pool)


def build_run_telemetry(result, recorder: Recorder | None = None):
    """Assemble the artifact from a transport result and its recorder.

    Works for 2-D and 3-D runs alike (``nz`` is ``None`` in 2-D); the
    ``getattr`` defaults cover a result whose config is not a
    :class:`~repro.core.config.SimulationConfig`.
    """
    config = result.config
    c = result.counters
    scheme = getattr(result, "scheme", None)
    meta = {
        "problem": getattr(config, "name", "unknown"),
        "scheme": getattr(scheme, "value", scheme),
        "nx": getattr(config, "nx", None),
        "ny": getattr(config, "ny", None),
        "nz": getattr(config, "nz", None),
        "nparticles": getattr(config, "nparticles", None),
        "ntimesteps": getattr(config, "ntimesteps", None),
        "seed": getattr(config, "seed", None),
        # Cross-section backend ("multigroup" / "ce"); the enum coerces
        # to its string value.
        "xs_mode": getattr(
            getattr(config, "xs_mode", None), "value",
            getattr(config, "xs_mode", None),
        ),
        "wallclock_s": result.wallclock_s,
    }
    counters = dict(c.snapshot())
    counters["total_events"] = c.total_events
    counters["load_imbalance"] = c.load_imbalance()
    arena = result.arena
    return RunTelemetry(
        meta=meta,
        counters=counters,
        kernel_profile={
            name: list(row) for name, row in c.kernel_profile.items()
        },
        workspace={
            "allocations": c.workspace_allocations,
            "reuses": c.workspace_reuses,
            "xs_bin_reuses": c.xs_bin_reuses,
            # Exact bin-search probe counts by lookup strategy (the
            # paper's §VI-A search-cost instrumentation).
            "xs_binary_probes": c.xs_binary_probes,
            "xs_linear_probes": c.xs_linear_probes,
        },
        arena={
            "nbytes": c.arena_nbytes,
            "nparticles": len(arena),
            "bytes_per_particle": type(arena).bytes_per_particle(),
        },
        pool=_pool_section(getattr(result, "pool", None)),
        spans=(
            [s.to_row() for s in recorder.spans] if recorder is not None
            else []
        ),
        events=(
            [e.to_row() for e in recorder.events] if recorder is not None
            else []
        ),
    )


# ---------------------------------------------------------------------------
# Schema validation (hand-rolled: no external jsonschema dependency)
# ---------------------------------------------------------------------------

_NUM = (int, float)

_SPAN_FIELDS = {"id": int, "parent": int, "name": str, "t0": _NUM,
                "t1": _NUM, "attrs": dict, "source": dict}
_EVENT_FIELDS = {"t": _NUM, "name": str, "attrs": dict, "source": dict}


def _check_row(row, types, label, problems) -> int:
    """Check one object against ``{key: type}``; returns how many
    problems it added."""
    if not isinstance(row, dict):
        problems.append(f"{label} is not an object")
        return 1
    before = len(problems)
    for key, typ in types.items():
        if key not in row:
            problems.append(f"{label}.{key} is missing")
        elif not isinstance(row[key], typ) or isinstance(
            row[key], bool
        ) and typ is not bool:
            problems.append(
                f"{label}.{key} has wrong type {type(row[key]).__name__}"
            )
    return len(problems) - before


def _check_rows(rows, types, label, problems, limit=5):
    if not isinstance(rows, list):
        problems.append(f"{label} must be a list")
        return
    bad = 0
    for i, row in enumerate(rows):
        bad += _check_row(row, types, f"{label}[{i}]", problems)
        if bad >= limit:
            problems.append(f"{label}: further problems suppressed")
            return


def _json_types(cls) -> dict:
    """``{field: JSON type}`` of a pool-section dataclass, read off its
    annotations: a tuple is a list, an enum its string value."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        if typing.get_origin(hint) is tuple:
            hint = list
        elif isinstance(hint, type) and issubclass(hint, Enum):
            hint = str
        types[name] = _NUM if hint is float else hint
    return types


def validate_telemetry(d: dict) -> None:
    """Structurally validate an artifact dict; raise
    :class:`TelemetrySchemaError` listing every problem found."""
    problems: list[str] = []
    if not isinstance(d, dict):
        raise TelemetrySchemaError(["artifact is not an object"])

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

    for key in ("meta", "counters", "kernel_profile", "workspace", "arena"):
        if not isinstance(d.get(key), dict):
            problems.append(f"'{key}' must be an object")

    if isinstance(d.get("counters"), dict):
        for name, value in d["counters"].items():
            if not isinstance(value, _NUM) or isinstance(value, bool):
                problems.append(f"counters.{name} is not numeric")

    if isinstance(d.get("kernel_profile"), dict):
        for name, row in d["kernel_profile"].items():
            if (not isinstance(row, list) or len(row) != 3
                    or not all(isinstance(v, _NUM) for v in row)):
                problems.append(
                    f"kernel_profile[{name!r}] must be "
                    "[calls, items, seconds]"
                )

    pool = d.get("pool", None)
    if pool is not None:
        if not isinstance(pool, dict):
            problems.append("'pool' must be an object or null")
        else:
            from repro.parallel.pool import PoolRunInfo, WorkerReport

            _check_row(pool, _json_types(PoolRunInfo), "pool", problems)
            if isinstance(pool.get("workers"), list):
                _check_rows(pool["workers"], _json_types(WorkerReport),
                            "pool.workers", problems)

    _check_rows(d.get("spans"), _SPAN_FIELDS, "spans", problems)
    _check_rows(d.get("events"), _EVENT_FIELDS, "events", problems)

    if isinstance(d.get("spans"), list):
        n = len(d["spans"])
        for i, row in enumerate(d["spans"]):
            if isinstance(row, dict) and isinstance(row.get("parent"), int):
                if row["parent"] != -1 and not 0 <= row["parent"] < n:
                    problems.append(
                        f"spans[{i}].parent {row['parent']} out of range"
                    )
                    break

    if problems:
        raise TelemetrySchemaError(problems)
