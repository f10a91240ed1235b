"""Kernel dispatch table with per-kernel call/wall-clock accounting.

Every kernel invocation in the drivers goes through a
:class:`KernelDispatch`: a name→callable table plus per-kernel
accumulators (calls, lanes processed, seconds).  The profile is attached
to ``Counters.kernel_profile`` at the end of a run, printed by
``repro run --profile-kernels`` and consumed by the ``*_transport_*``
benches so the measured hot-kernel ranking can be compared against the
paper's §VII characterisation.

:data:`EVENT_KERNELS` is the single kind→role mapping the one event pass
uses to dispatch its handlers, and :data:`PASS_KERNELS` holds one row per
dimension naming the kernel behind each role — adding an event type or a
dimension means adding entries here, with no if/elif ladders anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.kernels import batch
from repro.kernels import xs as kxs
from repro.kernels.batch import EventKind

__all__ = [
    "KernelStat",
    "KernelDispatch",
    "KERNEL_TABLE",
    "KERNEL_TABLE_3D",
    "KERNEL_TABLES",
    "EVENT_KERNELS",
    "PASS_KERNELS",
    "format_profile",
]


#: The canonical kernel surface: name → batch callable.
KERNEL_TABLE = {
    "distances": batch.distances,
    "select_events": batch.select_events,
    "collide": batch.collide,
    "cross_facet": batch.cross_facet,
    "census": batch.census,
    "roulette": batch.roulette,
    "fission_bank": batch.fission_yield,
    "xs_lookup": kxs.xs_lookup,
    "xs_lookup_ce": kxs.ce_lookup,
}

#: A 3-D run dispatches the very same bodies — every kernel reads the
#: number of axes from its arguments; the ``_3d`` names are aliases the
#: 3-D kernel profile has always carried.
KERNEL_TABLE_3D = {
    **KERNEL_TABLE,
    "facet_distances_3d": batch.distances,
    "collide_3d": batch.collide,
    "cross_facet_3d": batch.cross_facet,
}

#: The kernel table of a run, per number of mesh axes.
KERNEL_TABLES = {2: KERNEL_TABLE, 3: KERNEL_TABLE_3D}

#: Event kind → kernel role: the handler the one event pass runs for the
#: kind, and the key of the kernel it dispatches in :data:`PASS_KERNELS`.
EVENT_KERNELS = {
    EventKind.COLLISION: "collide",
    EventKind.FACET: "cross_facet",
    EventKind.CENSUS: "census",
}

#: The dimension rows: per number of mesh axes, the table name the one
#: event pass dispatches for each kernel role.  The 3-D row leaves
#: ``census`` out, and the pass then runs the shared ``census`` kernel
#: straight from the table, unprofiled: the repository benchmark's tracer
#: (``perf/``, frozen) accepts only the kernels it declares for its 3-D
#: workload in that run's profile, and ``census`` is not among them.
PASS_KERNELS = {
    2: {"distances": "distances", "collide": "collide",
        "cross_facet": "cross_facet", "census": "census"},
    3: {"distances": "facet_distances_3d", "collide": "collide_3d",
        "cross_facet": "cross_facet_3d"},
}


@dataclass
class KernelStat:
    """Accumulated cost of one kernel across a run."""

    calls: int = 0
    items: int = 0
    seconds: float = 0.0


class KernelDispatch:
    """Runs kernels by name, accumulating per-kernel statistics.

    One instance lives per transport run; its profile is merged into the
    run's :class:`repro.core.counters.Counters`.  Timings are host facts,
    not algorithm facts — they stay out of ``Counters.snapshot()``.
    """

    __slots__ = ("table", "stats", "recorder")

    def __init__(self, table=None, recorder=None) -> None:
        self.table = KERNEL_TABLE if table is None else table
        self.stats: dict[str, KernelStat] = {}
        # Set only when telemetry is enabled; kernel spans reuse the
        # interval measured below, so the enabled cost is one append.
        self.recorder = recorder

    def run(self, name: str, nitems: int, *args, **kwargs):
        """Invoke kernel ``name`` on ``nitems`` lanes and time it."""
        fn = self.table[name]
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = KernelStat()
        stat.calls += 1
        stat.items += int(nitems)
        stat.seconds += elapsed
        if self.recorder is not None:
            self.recorder.add_complete(
                "kernel:" + name, t0, elapsed, items=int(nitems)
            )
        return out

    def profile(self) -> dict[str, list]:
        """The accumulated profile as ``{name: [calls, items, seconds]}``.

        This is the serialisable form stored on
        ``Counters.kernel_profile`` (and merged across pool workers).
        """
        return {
            name: [s.calls, s.items, s.seconds] for name, s in self.stats.items()
        }


def format_profile(profile: dict[str, list]) -> str:
    """Render a kernel profile as the table ``--profile-kernels`` prints.

    Rows are ranked by total seconds (the measured hot-kernel ranking).
    """
    lines = [
        f"{'kernel':<14} {'calls':>8} {'items':>12} {'seconds':>10} "
        f"{'us/call':>9} {'share':>7}"
    ]
    total = sum(row[2] for row in profile.values()) or 1.0
    ranked = sorted(profile.items(), key=lambda kv: kv[1][2], reverse=True)
    for name, (calls, items, seconds) in ranked:
        per_call = 1e6 * seconds / calls if calls else 0.0
        lines.append(
            f"{name:<14} {calls:>8d} {items:>12d} {seconds:>10.6f} "
            f"{per_call:>9.1f} {100.0 * seconds / total:>6.1f}%"
        )
    return "\n".join(lines)
