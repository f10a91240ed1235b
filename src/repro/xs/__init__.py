"""Cross-sectional data substrate.

The paper (§IV-D) generates two dummy microscopic cross-section tables — one
for capture (absorption) and one for elastic scattering — sized to be
representative of real nuclear-data lookup tables, and performs:

1. *microscopic* lookups: find the energy bin for a particle's continuous
   energy and linearly interpolate; and
2. *macroscopic* scaling: multiply by the number density derived from the
   mass density of the particle's current cell — the coupling that ties each
   particle to the computational mesh.

The energy-bin search exists in two strategies (§VI-A): a plain binary
search, and a *cached linear search* that starts from the bin found by the
previous lookup for the same particle — a 1.3× whole-app speedup on the csp
problem in the paper.  Both run as batch kernels (:mod:`repro.kernels.xs`)
behind the :class:`repro.xs.provider.XsProvider` seam;
:class:`~repro.xs.lookup.LookupStats` accumulates their probe counts.
"""

from repro.xs.tables import CrossSectionTable, make_capture_table, make_scatter_table
from repro.xs.lookup import LookupStats
from repro.xs.macroscopic import (
    BARNS_TO_M2,
    AVOGADRO,
    number_density,
    macroscopic_cross_section,
)

__all__ = [
    "CrossSectionTable",
    "make_capture_table",
    "make_scatter_table",
    "LookupStats",
    "BARNS_TO_M2",
    "AVOGADRO",
    "number_density",
    "macroscopic_cross_section",
]
