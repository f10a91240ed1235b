"""Ensemble fusion for the 3-D volume extension.

A 3-D run has no fission or variance reduction, so the population is
static and replica blocks never fragment: fusion is concatenation plus
the members' :class:`~repro.core.books.ReplicaBooks`, run through the
same census stepper as a 2-D ensemble.  Members obey the one fusibility
rule (:func:`~repro.ensemble.spec.validate_members`: seed, cutoffs,
timestep and source may vary) and come back as the one
:class:`~repro.ensemble.engine.EnsembleResult`, one
:class:`~repro.ensemble.engine.ReplicaResult` per member.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import Scheme
from repro.ensemble.engine import EnsembleResult, ReplicaResult
from repro.ensemble.engine import population_fingerprint
from repro.ensemble.spec import validate_members
from repro.particles.arena import ParticleArena3
from repro.volume.driver3 import _sample_source_3d, run_over_events_3d

__all__ = ["population_fingerprint_3d", "run_ensemble_3d"]

#: The one fingerprint, under its 3-D name.
population_fingerprint_3d = population_fingerprint


def run_ensemble_3d(members, recorder=None) -> EnsembleResult:
    """Fuse 3-D members into one breadth-first dispatch."""
    t0 = time.perf_counter()
    members = validate_members(members)
    base = members[0]
    mesh = base.build_mesh()
    fused = ParticleArena3.fuse([_sample_source_3d(m, mesh) for m in members])
    # Members agree on nparticles, so they emit equally many histories.
    rep = np.repeat(np.arange(len(members), dtype=np.int64), base.nparticles)
    books = ReplicaBooks(members, rep, base.build_tally)
    result = run_over_events_3d(base, recorder, arena=fused, books=books)
    replicas = [
        ReplicaResult(
            replica=r,
            config=member,
            counters=books.counters[r],
            tally=books.tallies[r],
            arena=result.arena.subset(np.nonzero(rep == r)[0]),
        )
        for r, member in enumerate(members)
    ]
    return EnsembleResult(
        members=members, scheme=Scheme.OVER_EVENTS, replicas=replicas,
        counters=result.counters, tally=result.tally, arena=result.arena,
        wallclock_s=time.perf_counter() - t0,
    )
