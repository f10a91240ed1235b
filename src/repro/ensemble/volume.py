"""Seed-only ensemble fusion for the 3-D volume extension.

A 3-D run has no fission or variance reduction, so the population is
static and replica blocks never fragment: fusion is concatenation plus
the members' :class:`~repro.core.books.ReplicaBooks`, run through the
same census stepper as a 2-D ensemble.  Members may differ **only** in
seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.counters import Counters
from repro.core.simulation import TransportResult
from repro.particles.arena import ParticleArena3
from repro.volume.driver3 import _sample_source_3d, run_over_events_3d
from repro.volume.mesh3 import Tally3D
from repro.volume.problems3 import Volume3DConfig

__all__ = [
    "Replica3Result",
    "population_fingerprint_3d",
    "run_ensemble_3d",
    "validate_members_3d",
]

#: Per-history state hashed into a 3-D replica fingerprint.
STATE_FIELDS_3D = (
    "x", "y", "z", "omega_x", "omega_y", "omega_z", "energy", "weight",
    "rng_counter", "alive", "cellx", "celly", "cellz",
)


def population_fingerprint_3d(arena) -> str:
    """SHA-256 over the 3-D physics state, in birth (particle-id) order."""
    order = np.argsort(arena.particle_id, kind="stable")
    h = hashlib.sha256()
    for name in STATE_FIELDS_3D:
        h.update(np.ascontiguousarray(getattr(arena, name)[order]).tobytes())
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
    fused: TransportResult
    wallclock_s: float


def run_ensemble_3d(members, recorder=None) -> Ensemble3Result:
    """Fuse seed-only 3-D members into one breadth-first dispatch."""
    t0 = time.perf_counter()
    members = validate_members_3d(members)
    base = members[0]
    mesh = base.build_mesh()
    fused = ParticleArena3.fuse([_sample_source_3d(m, mesh) for m in members])
    # Seed-only members emit equally many histories.
    rep = np.repeat(np.arange(len(members), dtype=np.int64), base.nparticles)
    books = ReplicaBooks(members, rep, base.build_tally)
    result = run_over_events_3d(base, recorder, arena=fused, books=books)
    replicas = [
        Replica3Result(
            replica=r,
            config=member,
            counters=books.counters[r],
            tally=books.tallies[r],
            arena=result.arena.subset(np.nonzero(rep == r)[0]),
        )
        for r, member in enumerate(members)
    ]
    return Ensemble3Result(
        members=members,
        replicas=replicas,
        fused=result,
        wallclock_s=time.perf_counter() - t0,
    )
