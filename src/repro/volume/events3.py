"""3-D event timers: facet intersection over three axes.

The Cartesian intersection check gains one more axis; everything else
(collision and census distances, event selection with the fixed tie-break)
is reused from the 2-D event module — the point of the extension is that
the event structure does not change with dimensionality.
"""

from __future__ import annotations

from repro.kernels.batch import HUGE_DISTANCE, PARALLEL_EPS

__all__ = ["distance_to_facet_3d"]


def distance_to_facet_3d(
    x: float, y: float, z: float,
    ox: float, oy: float, oz: float,
    x_lo: float, x_hi: float,
    y_lo: float, y_hi: float,
    z_lo: float, z_hi: float,
) -> tuple[float, int]:
    """Distance to the nearest facet of a 3-D cell; returns ``(d, axis)``
    with axis 0/1/2 for x/y/z.  Ties pick the lowest axis, matching the
    vectorised path."""
    if ox > PARALLEL_EPS:
        dist_x = (x_hi - x) / ox
    elif ox < -PARALLEL_EPS:
        dist_x = (x_lo - x) / ox
    else:
        dist_x = HUGE_DISTANCE
    if oy > PARALLEL_EPS:
        dist_y = (y_hi - y) / oy
    elif oy < -PARALLEL_EPS:
        dist_y = (y_lo - y) / oy
    else:
        dist_y = HUGE_DISTANCE
    if oz > PARALLEL_EPS:
        dist_z = (z_hi - z) / oz
    elif oz < -PARALLEL_EPS:
        dist_z = (z_lo - z) / oz
    else:
        dist_z = HUGE_DISTANCE

    if dist_x <= dist_y and dist_x <= dist_z:
        return dist_x, 0
    if dist_y <= dist_z:
        return dist_y, 1
    return dist_z, 2
