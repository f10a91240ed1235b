"""3-D facet crossing: neighbour update, reflection, vacuum escape.

Six problem faces instead of four; the branch ladder deepens by one level
exactly as the 2-D-to-3-D argument predicts, while the per-branch work
stays at one or two operations.
"""

from __future__ import annotations

from repro.mesh.boundary import BoundaryCondition
from repro.volume.mesh3 import StructuredMesh3D

__all__ = ["cross_facet_3d"]


def cross_facet_3d(
    cx: int, cy: int, cz: int,
    ox: float, oy: float, oz: float,
    axis: int,
    mesh: StructuredMesh3D,
    bc: BoundaryCondition = BoundaryCondition.REFLECTIVE,
):
    """Resolve one 3-D facet encounter.

    Returns ``(cx, cy, cz, ox, oy, oz, reflected, escaped)``.
    """
    vacuum = bc is BoundaryCondition.VACUUM
    cells = (cx, cy, cz)
    omegas = (ox, oy, oz)
    limits = (mesh.nx - 1, mesh.ny - 1, mesh.nz - 1)

    cell = cells[axis]
    omega = omegas[axis]
    forward = omega > 0.0
    at_boundary = (cell == limits[axis]) if forward else (cell == 0)

    if at_boundary:
        if vacuum:
            return cx, cy, cz, ox, oy, oz, False, True
        new_omegas = list(omegas)
        new_omegas[axis] = -omega
        return cx, cy, cz, *new_omegas, True, False

    new_cells = list(cells)
    new_cells[axis] += 1 if forward else -1
    return (*new_cells, ox, oy, oz, False, False)
