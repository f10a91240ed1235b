"""Facet-crossing logic.

The facet event contains the deepest branching of the tracking loop — up to
four levels (paper §VI-A): which axis was hit, travel direction along that
axis, problem boundary or interior facet, and the reflective-boundary
handling.  Each branch performs only one or two FLOPs, which is why the
event's grind time is so low (~3 ns on Broadwell) and why its cost is
dominated by the density-mesh read and the tally flush rather than by
arithmetic.
"""

from __future__ import annotations

from repro.mesh.boundary import BoundaryCondition
from repro.mesh.structured import StructuredMesh

__all__ = ["cross_facet"]


def cross_facet(
    cellx: int,
    celly: int,
    omega_x: float,
    omega_y: float,
    axis: int,
    mesh: StructuredMesh,
    bc: BoundaryCondition = BoundaryCondition.REFLECTIVE,
) -> tuple[int, int, float, float, bool, bool]:
    """Resolve a facet encounter for a particle sitting on the facet.

    Parameters
    ----------
    cellx, celly:
        The cell the particle is leaving.
    omega_x, omega_y:
        Direction of flight (determines which facet of ``axis`` was hit).
    axis:
        0 if an x-facing facet was hit, 1 for a y-facing facet.
    mesh:
        The mesh, for boundary detection.
    bc:
        Problem-boundary treatment: reflective (the paper's choice) or
        vacuum (particles escape and their history ends).

    Returns
    -------
    (new_cellx, new_celly, new_ox, new_oy, reflected, escaped):
        Destination cell (unchanged at a boundary), possibly flipped
        direction, whether a reflective boundary was hit, and whether the
        particle left through a vacuum boundary.
    """
    vacuum = bc is BoundaryCondition.VACUUM
    if axis == 0:  # x facet
        if omega_x > 0.0:  # travelling +x
            if cellx == mesh.nx - 1:  # problem boundary
                if vacuum:
                    return cellx, celly, omega_x, omega_y, False, True
                return cellx, celly, -omega_x, omega_y, True, False
            return cellx + 1, celly, omega_x, omega_y, False, False
        else:  # travelling -x
            if cellx == 0:
                if vacuum:
                    return cellx, celly, omega_x, omega_y, False, True
                return cellx, celly, -omega_x, omega_y, True, False
            return cellx - 1, celly, omega_x, omega_y, False, False
    else:  # y facet
        if omega_y > 0.0:  # travelling +y
            if celly == mesh.ny - 1:
                if vacuum:
                    return cellx, celly, omega_x, omega_y, False, True
                return cellx, celly, omega_x, -omega_y, True, False
            return cellx, celly + 1, omega_x, omega_y, False, False
        else:  # travelling -y
            if celly == 0:
                if vacuum:
                    return cellx, celly, omega_x, omega_y, False, True
                return cellx, celly, omega_x, -omega_y, True, False
            return cellx, celly - 1, omega_x, omega_y, False, False
