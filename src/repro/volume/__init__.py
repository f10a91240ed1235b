"""Three-dimensional transport (the §IV-C future-work extension).

The paper deliberately chose a 2-D structured grid, hypothesising that the
performance-limiting characteristics are *independent of the geometry*, and
promised a 3-D extension "to validate our current assumptions".  That
extension is a :class:`~repro.core.config.SimulationConfig` with ``nz``
set: the *same* config, census stepper, event pass and handlers
(:mod:`repro.core.event_pass`) over one more axis, on the same
dimension-generic mesh, tally and kernel bodies (:mod:`repro.mesh`,
:mod:`repro.kernels.batch`).  Run it like a 2-D config —
``Simulation(csp3_problem()).run(scheme, nworkers=...)`` or
:func:`repro.ensemble.run_ensemble`; the factories live in
:mod:`repro.core.problems`.

The validation the paper asked for is in
``benchmarks/test_futurework_3d.py``: per *facet event* the 3-D code
performs exactly the same memory operations as the 2-D code (one random
density read, one atomic tally flush), the event-mix extremes (stream /
scatter) reproduce, and the facet rate follows the closed-form
``v·dt·E[|Ω_x|+|Ω_y|+|Ω_z|]/Δ`` with the isotropic-3D mean of 3/2 — the
geometry changes the constants, not the character.

What this package keeps are the 3-D spellings the repository benchmark
(``perf/``) still names: ``StructuredMesh3D`` and ``Tally3D``
(:mod:`repro.volume.mesh3`), :func:`repro.volume.driver3.run_over_events_3d`
and the conservation checks of :mod:`repro.core.validation` under their
3-D names — the ledger has no dimension.
"""

from repro.core.problems import csp3_problem, scatter3_problem, stream3_problem
from repro.core.validation import (
    energy_balance_error as energy_balance_error_3d,
    population_accounted as population_accounted_3d,
)
from repro.volume.mesh3 import StructuredMesh3D, Tally3D
from repro.volume.driver3 import run_over_events_3d

__all__ = [
    "StructuredMesh3D",
    "Tally3D",
    "run_over_events_3d",
    "stream3_problem",
    "scatter3_problem",
    "csp3_problem",
    "energy_balance_error_3d",
    "population_accounted_3d",
]
