"""Seed-only ensemble fusion for the 3-D volume extension.

The 3-D scheme has no fission or variance reduction, so the population
is static and replica blocks never fragment: fusion is just
concatenation plus a per-lane seed array on the counter-based RNG.
Members may differ **only** in seed — the 3-D driver reads cutoffs and
timestep from the single config, so nothing else is per-lane.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.counters import Counters
from repro.volume.driver3 import (
    Transport3DResult,
    _sample_source_3d,
    run_over_events_3d,
)
from repro.volume.mesh3 import StructuredMesh3D, Tally3D
from repro.volume.problems3 import Volume3DConfig

__all__ = [
    "Replica3Result",
    "population_fingerprint_3d",
    "run_ensemble_3d",
    "validate_members_3d",
]

#: Per-history state hashed into a 3-D replica fingerprint.
STATE_FIELDS_3D = (
    "x", "y", "z", "ox", "oy", "oz", "energy", "weight",
    "rng_counter", "alive", "cellx", "celly", "cellz",
)


def population_fingerprint_3d(arena) -> str:
    """SHA-256 over the 3-D physics state, in birth (particle-id) order."""
    order = np.argsort(arena.particle_id, kind="stable")
    h = hashlib.sha256()
    for name in STATE_FIELDS_3D:
        h.update(np.ascontiguousarray(arena[name][order]).tobytes())
    return h.hexdigest()


def validate_members_3d(members) -> tuple[Volume3DConfig, ...]:
    """3-D fusion is seed-only: everything else must be uniform."""
    members = tuple(members)
    if not members:
        raise ValueError("an ensemble needs at least one member")
    base = members[0]
    for i, m in enumerate(members[1:], start=1):
        for f in dataclasses.fields(Volume3DConfig):
            if f.name == "seed":
                continue
            a, b = getattr(base, f.name), getattr(m, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                same = a is not None and b is not None and np.array_equal(a, b)
            else:
                same = a == b
            if not same:
                raise ValueError(
                    f"3-D ensemble members must agree on {f.name!r} "
                    f"(member {i} differs); only the seed may vary"
                )
    return members


@dataclasses.dataclass
class Replica3Result:
    """One member's unfused 3-D result."""

    replica: int
    config: Volume3DConfig
    counters: Counters
    tally: Tally3D
    arena: object

    def fingerprint(self) -> str:
        return population_fingerprint_3d(self.arena)


@dataclasses.dataclass
class Ensemble3Result:
    members: tuple
    replicas: list
    fused: Transport3DResult
    wallclock_s: float


def run_ensemble_3d(members, recorder=None) -> Ensemble3Result:
    """Fuse seed-only 3-D members into one breadth-first dispatch."""
    t0 = time.perf_counter()
    members = validate_members_3d(members)
    nrep = len(members)
    base = members[0]
    mesh = StructuredMesh3D(
        base.nx, base.ny, base.nz,
        base.width, base.height, base.depth, base.density,
    )
    arenas = [_sample_source_3d(m, mesh) for m in members]
    sizes = [len(a) for a in arenas]
    fused = arenas[0]
    for extra in arenas[1:]:
        fused.extend(extra)
    rep = np.repeat(np.arange(nrep, dtype=np.int64), sizes)
    books = ReplicaBooks(
        members, rep, lambda: Tally3D(base.nx, base.ny, base.nz)
    )
    result = run_over_events_3d(base, recorder, arena=fused, books=books)
    replicas = []
    for r in range(nrep):
        sel = np.nonzero(rep == r)[0]
        replicas.append(Replica3Result(
            replica=r,
            config=members[r],
            counters=books.counters[r],
            tally=books.tallies[r],
            arena=result.arena.subset(sel),
        ))
    return Ensemble3Result(
        members=members,
        replicas=replicas,
        fused=result,
        wallclock_s=time.perf_counter() - t0,
    )
