"""Low-overhead span and event recording.

A :class:`Recorder` collects two append-only streams while a run
executes:

* **spans** — nested timed phases (``run`` → ``timestep`` →
  ``census_wave``/``event_pass`` → ``kernel:*``) with monotonic
  ``time.perf_counter`` timestamps (on Linux both processes read
  ``CLOCK_MONOTONIC``, so parent and worker timestamps share a base,
  exactly like the pool's heartbeat array);
* **events** — instantaneous log entries (recovery actions, heartbeat-age
  samples, shard lifecycle marks).

The recorder is purely observational: it draws no random numbers, touches
no particle state, and is consulted by the drivers only through
``recorder.span(...)`` context managers and ``recorder.event(...)`` calls
— which is what makes the hard guarantee checkable that physics is
bit-identical with telemetry on or off (``tests/test_telemetry.py``).

When telemetry is off the drivers hold the shared :data:`NULL_RECORDER`
singleton, whose ``span`` returns one reusable null context and whose
``event``/``add_complete`` are empty methods — the disabled cost is one
attribute lookup and a no-op ``with`` per phase, nothing per kernel call
(the dispatch layer skips recording entirely when ``recorder.enabled``
is false).

Worker processes build their own tagged recorders
(``source={"worker": w, "incarnation": i, "shard": s, "attempt": a}``)
and ship :meth:`Recorder.payload` back with each shard result; the parent
merges payloads in deterministic shard order with
:meth:`Recorder.merge_payload`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

__all__ = ["Span", "LogEvent", "Recorder", "NullRecorder", "NULL_RECORDER"]

#: ``parent_id`` of top-level spans.
ROOT = -1


@dataclass
class Span:
    """One timed phase: a ``[t_start, t_end]`` interval with a name,
    a parent span, free-form attributes, and the source tags of the
    process that recorded it (empty for the parent process)."""

    span_id: int
    parent_id: int
    name: str
    t_start: float
    t_end: float
    attrs: dict = field(default_factory=dict)
    source: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        """The serialisable form stored in the telemetry artifact."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self.t_start,
            "t1": self.t_end,
            "attrs": self.attrs,
            "source": self.source,
        }


@dataclass
class LogEvent:
    """One instantaneous log entry (the cross-worker event log)."""

    t: float
    name: str
    attrs: dict = field(default_factory=dict)
    source: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        return {"t": self.t, "name": self.name, "attrs": self.attrs,
                "source": self.source}


class Recorder:
    """Collects spans and events for one process's view of a run.

    Parameters
    ----------
    source:
        Tags stamped onto every span/event this recorder produces —
        ``{}`` for the parent process, ``(worker, incarnation, shard,
        attempt)`` coordinates inside pool workers.
    """

    enabled = True

    __slots__ = ("source", "spans", "events", "_stack")

    def __init__(self, source: dict | None = None) -> None:
        self.source = dict(source or {})
        self.spans: list[Span] = []
        self.events: list[LogEvent] = []
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Open a nested phase; yields the :class:`Span` so callers can
        append attributes discovered mid-phase."""
        sid = len(self.spans)
        sp = Span(
            span_id=sid,
            parent_id=self._stack[-1] if self._stack else ROOT,
            name=name,
            t_start=time.perf_counter(),
            t_end=0.0,
            attrs=attrs,
            source=self.source,
        )
        self.spans.append(sp)
        self._stack.append(sid)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.t_end = time.perf_counter()

    def add_complete(self, name: str, t_start: float, duration_s: float,
                     **attrs) -> None:
        """Record an already-timed phase (kernel invocations: the dispatch
        table measured the interval anyway, so the span costs one append)."""
        self.spans.append(Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1] if self._stack else ROOT,
            name=name,
            t_start=t_start,
            t_end=t_start + duration_s,
            attrs=attrs,
            source=self.source,
        ))

    def event(self, name: str, t: float | None = None, **attrs) -> None:
        """Append one instantaneous entry to the event log."""
        self.events.append(LogEvent(
            t=time.perf_counter() if t is None else t,
            name=name,
            attrs=attrs,
            source=self.source,
        ))

    # -- cross-process hand-off -----------------------------------------
    def payload(self) -> dict:
        """The picklable form a worker ships back with a shard result."""
        return {
            "spans": [s.to_row() for s in self.spans],
            "events": [e.to_row() for e in self.events],
        }

    def merge_payload(self, payload: dict) -> None:
        """Fold a worker payload into this (parent) recorder.

        Span ids are re-based past the current log so the merged tree stays
        consistent; worker-local parent links are preserved and worker
        top-level spans stay top-level.  Call in deterministic shard order
        — the merged log's structure is then independent of worker timing.
        """
        offset = len(self.spans)
        for row in payload.get("spans", ()):
            self.spans.append(Span(
                span_id=row["id"] + offset,
                parent_id=(
                    row["parent"] + offset if row["parent"] != ROOT else ROOT
                ),
                name=row["name"],
                t_start=row["t0"],
                t_end=row["t1"],
                attrs=dict(row.get("attrs", {})),
                source=dict(row.get("source", {})),
            ))
        for row in payload.get("events", ()):
            self.events.append(LogEvent(
                t=row["t"],
                name=row["name"],
                attrs=dict(row.get("attrs", {})),
                source=dict(row.get("source", {})),
            ))


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    A single shared instance (:data:`NULL_RECORDER`) stands in wherever a
    recorder argument was omitted, so driver code has exactly one shape —
    no ``if telemetry`` branches around physics.
    """

    enabled = False

    __slots__ = ()

    _NULL_CTX = nullcontext()

    def span(self, name: str, **attrs):
        return self._NULL_CTX

    def add_complete(self, name: str, t_start: float, duration_s: float,
                     **attrs) -> None:
        pass

    def event(self, name: str, t: float | None = None, **attrs) -> None:
        pass

    def payload(self) -> dict:
        return {"spans": [], "events": []}


#: Shared no-op recorder used when telemetry is off.
NULL_RECORDER = NullRecorder()
