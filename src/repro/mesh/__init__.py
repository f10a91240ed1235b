"""Computational mesh substrate.

``neutral`` transports particles through a two-dimensional structured grid
(paper §IV-C) with cell-centred mass densities and reflective boundary
conditions.  The mesh is the source of the algorithm's two defining memory
characteristics:

* *random reads* — every facet crossing reloads the destination cell's
  density (§IV-D2);
* *random atomic writes* — every facet crossing / census flushes the
  particle's accumulated energy deposition into the tally mesh (§V-C).

:class:`repro.mesh.structured.StructuredMesh` implements the grid geometry
and :class:`repro.mesh.tally.EnergyDepositionTally` the tally, in any number
of axes (the 3-D extension uses both); :mod:`repro.mesh.boundary` has the
reflective boundaries and the tally module the privatised variant (§VI-F).
"""

from repro.mesh.structured import StructuredMesh
from repro.mesh.boundary import BoundaryCondition, reflect_direction
from repro.mesh.tally import EnergyDepositionTally, PrivatizedTally

__all__ = [
    "StructuredMesh",
    "BoundaryCondition",
    "reflect_direction",
    "EnergyDepositionTally",
    "PrivatizedTally",
]
