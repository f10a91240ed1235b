"""The batch kernel layer: one implementation of the transport physics.

Both execution schemes (Over Particles in blocks, Over Events over the
whole population) drive the same batch kernels through a dispatch table
with per-kernel call/wall-clock accounting:

    drivers (core/event_pass — the one pass both schemes run, in
             two dimensions or three)
        │
        ▼
    KernelDispatch  — name→kernel table, per-kernel counters/timers
        │
        ▼
    kernels.batch / kernels.xs   — the physics, in any dimension
        │
        ▼
    Workspace  — named preallocated buffers (no per-pass allocations)

``python -m repro.kernels --check`` runs the source audit — one table of
rules, ``repro.kernels.audit.RULES``, that keeps the package at one path —
and two runtime allocation probes.
"""

from repro.kernels import batch, xs
from repro.kernels.batch import EventKind, HUGE_DISTANCE, PARALLEL_EPS
from repro.kernels.dispatch import (
    EVENT_KERNELS,
    KERNEL_TABLE,
    PASS_KERNELS,
    KernelDispatch,
    KernelStat,
    format_profile,
)
from repro.kernels.workspace import Workspace

__all__ = [
    "batch",
    "xs",
    "EventKind",
    "HUGE_DISTANCE",
    "PARALLEL_EPS",
    "EVENT_KERNELS",
    "KERNEL_TABLE",
    "PASS_KERNELS",
    "KernelDispatch",
    "KernelStat",
    "format_profile",
    "Workspace",
]
