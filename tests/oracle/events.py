"""The three events of one history, in any number of axes.

Distances are kept per event and compared (paper §IV-A): to the nearest
facet of the containing cell, to the next collision, to census.  The
smallest wins; ties resolve collision < facet < census.  A collision is
implicit capture plus elastic scattering (§IV-A, §IV-E) and takes three
draws: the centre-of-mass cosine, the turn (the rotation sense in 2-D, the
azimuth in 3-D) and the next optical distance.  A facet crossing moves one
cell along the hit axis, or reflects or escapes at a problem boundary.

A position, direction, cell or bound is a tuple with one entry per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import HUGE_DISTANCE, PARALLEL_EPS, EventKind
from repro.mesh.boundary import BoundaryCondition
from repro.physics.variance import DEFAULT_ENERGY_CUTOFF_EV, DEFAULT_WEIGHT_CUTOFF
from tests.oracle.kinematics import elastic_scatter_kinematics, rotate_direction

__all__ = [
    "distance_to_facet",
    "distance_to_collision",
    "distance_to_census",
    "select_event",
    "CollisionOutcome",
    "collide",
    "cross_facet",
    "russian_roulette",
    "should_terminate",
]


def distance_to_facet(pos, omega, lo, hi) -> tuple[float, int]:
    """Distance to the nearest facet of the cell ``[lo, hi]`` and the axis
    it lies on.  A direction component within ``PARALLEL_EPS`` of zero
    never reaches its facet; a tie goes to the lowest axis."""
    dists = []
    for p, o, a, b in zip(pos, omega, lo, hi):
        if o > PARALLEL_EPS:
            dists.append((b - p) / o)
        elif o < -PARALLEL_EPS:
            dists.append((a - p) / o)
        else:
            dists.append(HUGE_DISTANCE)
    axis = 0
    for i in range(1, len(dists)):
        if dists[i] < dists[axis]:
            axis = i
    return dists[axis], axis


def distance_to_collision(mfp_remaining: float, sigma_t: float) -> float:
    """Remaining optical distance over Σ_t; never without material."""
    if sigma_t <= 0.0:
        return HUGE_DISTANCE
    return mfp_remaining / sigma_t


def distance_to_census(dt_remaining: float, speed: float) -> float:
    """Distance flown in the rest of the timestep."""
    return dt_remaining * speed


def select_event(d_collision: float, d_facet: float, d_census: float) -> EventKind:
    """The first event met (tie-break: collision, facet, census)."""
    if d_collision <= d_facet and d_collision <= d_census:
        return EventKind.COLLISION
    if d_facet <= d_census:
        return EventKind.FACET
    return EventKind.CENSUS


@dataclass(frozen=True)
class CollisionOutcome:
    """Everything a collision changes.  ``below_weight_cutoff`` is set
    only when the weight cutoff was deferred (Russian roulette mode): the
    history survived but must play the roulette."""

    energy: float
    weight: float
    omega: tuple
    mfp_to_collision: float
    deposit: float
    terminated: bool
    below_weight_cutoff: bool = False


def _turn(omega, mu_lab, sin_lab, u_turn):
    """The direction after the deflection: in the plane with the sense
    drawn by ``u_turn``, or about the azimuth ``2π·u_turn`` in 3-D."""
    if len(omega) == 2:
        ox, oy = omega
        sense = 1.0 if u_turn < 0.5 else -1.0
        return (ox * mu_lab - oy * sin_lab * sense,
                oy * mu_lab + ox * sin_lab * sense)
    return rotate_direction(*omega, mu_lab, 2.0 * np.pi * u_turn)


def collide(
    energy: float,
    weight: float,
    omega: tuple,
    sigma_a: float,
    sigma_t: float,
    a_ratio: float,
    u_angle: float,
    u_turn: float,
    u_mfp: float,
    energy_cutoff_ev: float,
    weight_cutoff: float,
    defer_weight_cutoff: bool = False,
) -> CollisionOutcome:
    """One collision: deposit the absorbed share, scale the weight by the
    survival probability, scatter elastically, draw the next optical
    distance, then apply the cutoffs.  ``deposit + w'E' == wE`` to
    rounding.  With ``defer_weight_cutoff`` only the energy cutoff
    terminates; a sub-cutoff weight is reported instead."""
    p_absorb = sigma_a / sigma_t if sigma_t > 0.0 else 0.0
    deposit = weight * energy * p_absorb
    weight = weight * (1.0 - p_absorb)

    e_frac, mu_lab, sin_lab = elastic_scatter_kinematics(2.0 * u_angle - 1.0,
                                                         a_ratio)
    new_energy = energy * e_frac
    deposit += weight * (energy - new_energy)
    new_omega = _turn(omega, mu_lab, sin_lab, u_turn)
    mfp = float(-np.log(1.0 - u_mfp))

    below_weight = weight < weight_cutoff
    if defer_weight_cutoff:
        terminated = new_energy < energy_cutoff_ev
        below_weight = below_weight and not terminated
    else:
        terminated = new_energy < energy_cutoff_ev or below_weight
        below_weight = False
    if terminated:
        deposit += weight * new_energy
        weight = 0.0
    return CollisionOutcome(new_energy, weight, new_omega, mfp, deposit,
                            terminated, below_weight)


def cross_facet(cells, omegas, axis, shape,
                bc=BoundaryCondition.REFLECTIVE) -> tuple:
    """Resolve a facet met on ``axis`` by a particle in ``cells`` of a
    grid of ``shape`` cells.  Returns ``(*cells, *omegas, reflected,
    escaped)``: the neighbour cell, or at a problem boundary the same cell
    with the hit component negated (reflective) or the history escaped
    (vacuum)."""
    cells, omegas = list(cells), list(omegas)
    forward = omegas[axis] > 0.0
    if cells[axis] != (shape[axis] - 1 if forward else 0):
        cells[axis] += 1 if forward else -1
        return (*cells, *omegas, False, False)
    if bc is BoundaryCondition.VACUUM:
        return (*cells, *omegas, False, True)
    omegas[axis] = -omegas[axis]
    return (*cells, *omegas, True, False)


def russian_roulette(weight: float, u: float,
                     weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF,
                     roulette_weight: float | None = None) -> tuple[float, bool]:
    """Unbiased stochastic termination below the cutoff: survivors (with
    probability ``weight / roulette_weight``) return at
    ``roulette_weight``, default ``10 × weight_cutoff``.  Returns
    ``(new_weight, killed)``."""
    if weight >= weight_cutoff:
        return weight, False
    if roulette_weight is None:
        roulette_weight = 10.0 * weight_cutoff
    if u < weight / roulette_weight:
        return roulette_weight, False
    return 0.0, True


def should_terminate(energy_ev: float, weight: float,
                     energy_cutoff_ev: float = DEFAULT_ENERGY_CUTOFF_EV,
                     weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF) -> bool:
    """Deterministic cutoff termination (paper §IV-E)."""
    return energy_ev < energy_cutoff_ev or weight < weight_cutoff
