"""Three-dimensional transport (the §IV-C future-work extension).

The paper deliberately chose a 2-D structured grid, hypothesising that the
performance-limiting characteristics are *independent of the geometry*, and
promised a 3-D extension "to validate our current assumptions".  This
subpackage is that extension, and its shape is the claim: a 3-D run is the
*same* census stepper, event pass and handlers as a 2-D run
(:mod:`repro.core.event_pass`) over one more axis, on the same
dimension-generic mesh, tally and kernel bodies (:mod:`repro.mesh`,
:mod:`repro.kernels.batch`).  What lives here is what a third axis adds as
data: a source box and the problem factories.

The validation the paper asked for is in
``benchmarks/test_futurework_3d.py``: per *facet event* the 3-D code
performs exactly the same memory operations as the 2-D code (one random
density read, one atomic tally flush), the event-mix extremes (stream /
scatter) reproduce, and the facet rate follows the closed-form
``v·dt·E[|Ω_x|+|Ω_y|+|Ω_z|]/Δ`` with the isotropic-3D mean of 3/2 — the
geometry changes the constants, not the character.

Public entry points mirror the 2-D core:

* ``StructuredMesh3D`` and ``Tally3D`` (:mod:`repro.volume.mesh3`), the
  positional 3-D spellings of the one mesh and tally;
* :func:`repro.volume.driver3.run_over_particles_3d` /
  :func:`repro.volume.driver3.run_over_events_3d` (or hand a 3-D config to
  :class:`repro.core.Simulation`), returning the 2-D
  :class:`~repro.core.simulation.TransportResult`;
* problem factories in :mod:`repro.volume.problems3`;
* the conservation checks of :mod:`repro.core.validation` under their 3-D
  names — the ledger has no dimension.
"""

from repro.core.validation import (
    energy_balance_error as energy_balance_error_3d,
    population_accounted as population_accounted_3d,
)
from repro.volume.mesh3 import StructuredMesh3D, Tally3D
from repro.volume.driver3 import run_over_events_3d, run_over_particles_3d
from repro.volume.problems3 import (
    csp3_problem,
    scatter3_problem,
    stream3_problem,
    Volume3DConfig,
)

__all__ = [
    "StructuredMesh3D",
    "Tally3D",
    "run_over_particles_3d",
    "run_over_events_3d",
    "Volume3DConfig",
    "stream3_problem",
    "scatter3_problem",
    "csp3_problem",
    "energy_balance_error_3d",
    "population_accounted_3d",
]
