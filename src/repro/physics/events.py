"""Distance-to-event calculations and event selection.

To determine which event a particle encounters next, individual "timers"
are kept for each event and compared (paper §IV-A).  We work in *distance*
units: the distance to the containing cell's nearest facet, the distance to
the next collision (remaining mean-free-paths divided by the local
macroscopic total cross section), and the distance to census (remaining
time times speed).  The smallest wins; ties resolve in the fixed order
collision < facet < census, identically in both schemes.

The facet calculation is the "simple intersection in Cartesian space" of
§IV-C: the structured grid reduces it to two divisions and a compare.

The scalar functions here are the *reference implementations* the parity
suite pins the batch kernels against; the batch forms live in
:mod:`repro.kernels.batch`.
"""

from __future__ import annotations

from repro.kernels.batch import (  # noqa: F401  (re-exported constants)
    EventKind,
    HUGE_DISTANCE,
    PARALLEL_EPS,
)

__all__ = [
    "EventKind",
    "distance_to_facet",
    "distance_to_collision",
    "distance_to_census",
    "select_event",
    "HUGE_DISTANCE",
    "PARALLEL_EPS",
]


def distance_to_facet(
    x: float,
    y: float,
    omega_x: float,
    omega_y: float,
    x_lo: float,
    x_hi: float,
    y_lo: float,
    y_hi: float,
) -> tuple[float, int]:
    """Distance to the nearest facet of the cell ``[x_lo,x_hi]×[y_lo,y_hi]``.

    Returns ``(distance, axis)`` where ``axis`` is 0 if the x-facing facet
    is hit first and 1 for the y-facing facet.  A zero direction component
    never hits its facet.  Ties pick the x facet, matching the batch
    kernel.
    """
    if omega_x > PARALLEL_EPS:
        dist_x = (x_hi - x) / omega_x
    elif omega_x < -PARALLEL_EPS:
        dist_x = (x_lo - x) / omega_x
    else:
        dist_x = HUGE_DISTANCE
    if omega_y > PARALLEL_EPS:
        dist_y = (y_hi - y) / omega_y
    elif omega_y < -PARALLEL_EPS:
        dist_y = (y_lo - y) / omega_y
    else:
        dist_y = HUGE_DISTANCE
    if dist_x <= dist_y:
        return dist_x, 0
    return dist_y, 1


def distance_to_collision(mfp_remaining: float, sigma_t: float) -> float:
    """Distance to the next collision from the remaining optical distance.

    With no material (Σ_t = 0, e.g. the stream problem's near-vacuum when
    fully attenuated) the collision never happens.
    """
    if sigma_t <= 0.0:
        return HUGE_DISTANCE
    return mfp_remaining / sigma_t


def distance_to_census(dt_remaining: float, speed: float) -> float:
    """Distance flown in the remaining timestep at the current speed."""
    return dt_remaining * speed


def select_event(d_collision: float, d_facet: float, d_census: float) -> EventKind:
    """Pick the first encountered event (tie-break: collision, facet, census)."""
    if d_collision <= d_facet and d_collision <= d_census:
        return EventKind.COLLISION
    if d_facet <= d_census:
        return EventKind.FACET
    return EventKind.CENSUS
