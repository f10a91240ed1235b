"""Event traces: the recorded behaviour one real transport run produced.

A trace is the per-history sequence of (event kind, mesh cell) pairs in
execution order — everything the replay engine needs to time the run on a
machine model, including the *actual* tally-flush addresses whose
collisions drive atomic contention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, SimulationConfig
from repro.core.stepper import run_stepped
from repro.kernels.batch import EventKind

__all__ = ["EventTrace", "record_trace", "synthetic_trace"]


@dataclass(frozen=True)
class EventTrace:
    """A transport run's event stream, grouped per history.

    Attributes
    ----------
    histories:
        One ``(kinds, cells)`` pair of int arrays per history, in the
        history's execution order.
    nx, ny:
        Mesh shape (cells are flat row-major indices).
    """

    histories: tuple
    nx: int
    ny: int

    @property
    def nhistories(self) -> int:
        return len(self.histories)

    @property
    def total_events(self) -> int:
        return sum(k.size for k, _ in self.histories)

    def event_counts(self) -> dict:
        """Total events by kind (one ``bincount`` per history)."""
        totals = np.zeros(len(EventKind), dtype=np.int64)
        for kinds, _ in self.histories:
            totals += np.bincount(kinds, minlength=len(EventKind))[
                : len(EventKind)
            ]
        return {kind: int(totals[int(kind)]) for kind in EventKind}


def record_trace(config: SimulationConfig) -> tuple[EventTrace, object]:
    """Run the Over Particles transport with tracing and package the trace.

    Returns ``(trace, result)`` — the result is the ordinary
    :class:`repro.core.simulation.TransportResult` so callers can reuse its
    counters/tally without a second run.
    """
    raw: list[tuple[int, int, int]] = []
    result = run_stepped(config, Scheme.OVER_PARTICLES, trace=raw)

    n = result.counters.nparticles
    per_history_kinds: list[list[int]] = [[] for _ in range(n)]
    per_history_cells: list[list[int]] = [[] for _ in range(n)]
    for index, kind, cell in raw:
        per_history_kinds[index].append(kind)
        per_history_cells[index].append(cell)

    histories = tuple(
        (
            np.asarray(per_history_kinds[i], dtype=np.int64),
            np.asarray(per_history_cells[i], dtype=np.int64),
        )
        for i in range(n)
    )
    trace = EventTrace(histories=histories, nx=config.nx, ny=config.ny)
    return trace, result


def synthetic_trace(
    nhistories: int,
    events_per_history: int,
    mesh_nx: int,
    collision_fraction: float = 0.0,
    seed: int = 0,
) -> EventTrace:
    """Generate a random-walk trace over a (virtual) large mesh.

    Real traces are limited to meshes pure Python can transport in
    reasonable time, which are cache-resident — useless for studying
    DRAM-latency effects like SMT hiding.  A synthetic trace decouples the
    replay from the transport: each history random-walks over a
    ``mesh_nx²`` cell space (one-cell steps, like facet crossings), with
    the requested fraction of collision events interleaved.  The paired
    workload should use the same ``mesh_nx`` so the engine prices accesses
    against the intended working set.
    """
    if nhistories < 1 or events_per_history < 1:
        raise ValueError("need at least one history and one event")
    if not 0.0 <= collision_fraction < 1.0:
        raise ValueError("collision fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    histories = []
    moves = np.array([1, -1, mesh_nx, -mesh_nx], dtype=np.int64)
    ncells = mesh_nx * mesh_nx
    for _ in range(nhistories):
        start = rng.integers(0, ncells)
        steps = rng.choice(moves, size=events_per_history)
        cells = (start + np.cumsum(steps)) % ncells
        kinds = np.where(
            rng.random(events_per_history) < collision_fraction,
            int(EventKind.COLLISION),
            int(EventKind.FACET),
        ).astype(np.int64)
        kinds[-1] = int(EventKind.CENSUS)
        histories.append((kinds, cells))
    return EventTrace(histories=tuple(histories), nx=mesh_nx, ny=mesh_nx)
