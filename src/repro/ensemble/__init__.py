"""Mega-batch ensemble engine: fuse N independent replica runs — same
problem, different seeds and/or swept config parameters — into a single
:class:`~repro.particles.arena.EnsembleArena` so every kernel dispatch
operates on ``replicas × histories`` lanes at once.

The counter-based Threefry RNG is keyed on ``(replica seed, history
id)``, so each replica's draw sequences — and therefore its counters,
tally and final population fingerprint — are bit-identical to the run it
would have produced standalone; the parity suite asserts exactly that.
"""

from repro.ensemble.engine import (
    EnsembleResult,
    ReplicaResult,
    population_fingerprint,
    run_ensemble,
    run_ensemble_looped,
)
from repro.ensemble.spec import (
    FUSIBLE_FIELDS,
    SWEEPABLE_PARAMS,
    EnsembleSpec,
    SweepSpec,
    validate_members,
)

__all__ = [
    "EnsembleResult",
    "EnsembleSpec",
    "FUSIBLE_FIELDS",
    "ReplicaResult",
    "SWEEPABLE_PARAMS",
    "SweepSpec",
    "population_fingerprint",
    "run_ensemble",
    "run_ensemble_looped",
    "validate_members",
]
