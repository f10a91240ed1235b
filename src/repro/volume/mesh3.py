"""The 3-D spellings of the one mesh and the one tally.

Both are :mod:`repro.mesh`'s dimension-generic types over a third axis;
these names survive for callers that build them positionally.
"""

from __future__ import annotations

from repro.mesh.structured import StructuredMesh
from repro.mesh.tally import EnergyDepositionTally

__all__ = ["StructuredMesh3D", "Tally3D"]

#: ``Tally3D(nx, ny, nz)`` is the one tally over three axes.
Tally3D = EnergyDepositionTally


def StructuredMesh3D(nx, ny, nz, width=1.0, height=1.0, depth=1.0,
                     density=None) -> StructuredMesh:
    """The one mesh over ``[0,w]×[0,h]×[0,d]``, density ``(nz, ny, nx)``."""
    return StructuredMesh.grid((nx, ny, nz), (width, height, depth), density)
