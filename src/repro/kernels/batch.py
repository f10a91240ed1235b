"""Batch-first transport kernels: the single implementation of the physics.

Every piece of transport physics lives here exactly once, in batch form —
a kernel takes array slices (one lane per particle) and returns arrays.
Both execution schemes drive these kernels:

* **Over Events** applies them to the whole surviving population per pass
  (breadth-first, the paper's vectorised scheme);
* **Over Particles** applies them to a *block* of histories at a time
  (depth-first in blocks; block size 1 is the paper's scalar traversal).

The scalar functions that remain in :mod:`repro.physics` are retained as
the reference implementations the parity suite pins these kernels against
element-wise, bit-for-bit (``tests/test_kernels_parity.py``); the old
module-level ``*_vec`` twins are now deprecated aliases of these kernels.

The bodies here are the verified vectorised forms moved from
``physics/*`` — their operation order is part of the bit-parity contract
and must not be "simplified".
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.mesh.boundary import BoundaryCondition

__all__ = [
    "EventKind",
    "HUGE_DISTANCE",
    "PARALLEL_EPS",
    "NEUTRON_MASS_KG",
    "EV_TO_J",
    "MAX_SPLIT",
    "speed_from_energy",
    "distance_to_collision",
    "distance_to_facet",
    "select_events",
    "distances",
    "Distances",
    "elastic_scatter_kinematics",
    "apply_cutoffs",
    "collide",
    "cross_facet",
    "census",
    "roulette",
    "fission_yield",
    "split_counts",
    "should_terminate",
    "sample_position_in_box",
    "sample_isotropic_direction",
    "sample_mean_free_paths",
]

# --------------------------------------------------------------------------
# Constants (single source of truth; physics modules re-export these).

#: Stand-in for "never": larger than any reachable flight distance.
HUGE_DISTANCE = 1.0e300

#: Direction components smaller than this never hit their facet: the ray is
#: numerically parallel to it.  Avoids overflowing divisions by denormals;
#: any legitimate distance produced near the threshold loses to census
#: anyway (flight distances are bounded by speed × dt « 1e12 m).
PARALLEL_EPS = 1.0e-12

#: Neutron rest mass [kg] (CODATA 2018).
NEUTRON_MASS_KG = 1.67492749804e-27

#: One electron-volt in joules (exact, SI 2019).
EV_TO_J = 1.602176634e-19

# Precomputed 2 eV/m_n so the hot path is a multiply and a sqrt.
_TWO_EV_OVER_MASS = 2.0 * EV_TO_J / NEUTRON_MASS_KG

#: Hard cap on the clones of one importance split — guards runaway maps.
MAX_SPLIT = 20


class EventKind(IntEnum):
    """The three events of the tracking loop, ordered by tie-break priority."""

    COLLISION = 0
    FACET = 1
    CENSUS = 2


# --------------------------------------------------------------------------
# Distance kernels.


def speed_from_energy(energy_ev: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Neutron speed [m/s] from kinetic energy [eV]: ``v = sqrt(2E/m)``."""
    if out is None:
        return np.sqrt(_TWO_EV_OVER_MASS * energy_ev)
    np.multiply(_TWO_EV_OVER_MASS, energy_ev, out=out)
    return np.sqrt(out, out=out)


def distance_to_collision(
    mfp_remaining: np.ndarray, sigma_t: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Distance to the next collision from the remaining optical distance.

    With no material (Σ_t = 0) the collision never happens.
    """
    if out is None:
        out = np.full_like(mfp_remaining, HUGE_DISTANCE)
    else:
        out.fill(HUGE_DISTANCE)
    ok = sigma_t > 0.0
    out[ok] = mfp_remaining[ok] / sigma_t[ok]
    return out


def distance_to_facet(
    x: np.ndarray,
    y: np.ndarray,
    omega_x: np.ndarray,
    omega_y: np.ndarray,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    dist_x: np.ndarray | None = None,
    dist_y: np.ndarray | None = None,
    axis: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the nearest facet of each particle's containing cell.

    Returns ``(distance, axis)``; ``axis`` is 0 for the x-facing facet and
    1 for the y-facing one, ties picking x.  ``dist_x``/``dist_y``/``axis``
    accept workspace buffers; the distance is written into ``dist_x``.
    """
    if dist_x is None:
        dist_x = np.full_like(x, HUGE_DISTANCE)
    else:
        dist_x.fill(HUGE_DISTANCE)
    if dist_y is None:
        dist_y = np.full_like(y, HUGE_DISTANCE)
    else:
        dist_y.fill(HUGE_DISTANCE)
    pos = omega_x > PARALLEL_EPS
    neg = omega_x < -PARALLEL_EPS
    dist_x[pos] = (x_hi[pos] - x[pos]) / omega_x[pos]
    dist_x[neg] = (x_lo[neg] - x[neg]) / omega_x[neg]
    pos = omega_y > PARALLEL_EPS
    neg = omega_y < -PARALLEL_EPS
    dist_y[pos] = (y_hi[pos] - y[pos]) / omega_y[pos]
    dist_y[neg] = (y_lo[neg] - y[neg]) / omega_y[neg]
    if axis is None:
        axis = (dist_y < dist_x).astype(np.int64)
    else:
        np.less(dist_y, dist_x, out=axis, casting="unsafe")
    return np.minimum(dist_x, dist_y, out=dist_x), axis


def select_events(
    d_collision: np.ndarray,
    d_facet: np.ndarray,
    d_census: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Pick each lane's first event (tie-break: collision, facet, census).

    Returns an int64 array of :class:`EventKind` values.
    """
    if out is None:
        out = np.full(d_collision.shape, int(EventKind.CENSUS), dtype=np.int64)
    else:
        out.fill(int(EventKind.CENSUS))
    facet_first = np.less_equal(d_facet, d_census, out=scratch)
    out[facet_first] = int(EventKind.FACET)
    coll_first = (d_collision <= d_facet) & (d_collision <= d_census)
    out[coll_first] = int(EventKind.COLLISION)
    return out


class Distances:
    """Per-pass distance budgets, resident in workspace buffers.

    ``lo`` / ``hi`` hold each lane's cell bounds, one array per mesh axis.
    Views are only valid until the next :func:`distances` call on the same
    workspace — the drivers consume them within the pass.
    """

    __slots__ = (
        "speed", "d_collision", "d_facet", "axis", "d_census", "lo", "hi",
    )

    def __init__(self, speed, d_collision, d_facet, axis, d_census,
                 lo=(), hi=()):
        self.speed = speed
        self.d_collision = d_collision
        self.d_facet = d_facet
        self.axis = axis
        self.d_census = d_census
        self.lo = lo
        self.hi = hi


def distances(
    ws,
    energy: np.ndarray,
    mfp_to_collision: np.ndarray,
    sigma_t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    omega_x: np.ndarray,
    omega_y: np.ndarray,
    cellx: np.ndarray,
    celly: np.ndarray,
    dx: float,
    dy: float,
    dt_to_census: np.ndarray,
) -> Distances:
    """Composite kernel: all three distance budgets for a population slice.

    Computes speed, distance to collision, distance to the nearest facet
    (with the hit axis) and distance to census, entirely into preallocated
    buffers of ``ws`` (a :class:`repro.kernels.workspace.Workspace`) so the
    pass loop performs no full-length allocations.

    Cell bounds are derived inline from the cell indices
    (``x_lo = cellx·dx``), bit-equal to ``StructuredMesh.cell_bounds``.
    """
    n = energy.shape[0]
    speed = speed_from_energy(energy, out=ws.f64("speed", n))
    d_coll = distance_to_collision(
        mfp_to_collision, sigma_t, out=ws.f64("d_coll", n)
    )
    x_lo = np.multiply(cellx, dx, out=ws.f64("x_lo", n))
    tmp = np.add(cellx, 1, out=ws.i64("cell_tmp", n))
    x_hi = np.multiply(tmp, dx, out=ws.f64("x_hi", n))
    y_lo = np.multiply(celly, dy, out=ws.f64("y_lo", n))
    tmp = np.add(celly, 1, out=tmp)
    y_hi = np.multiply(tmp, dy, out=ws.f64("y_hi", n))
    d_facet, axis = distance_to_facet(
        x, y, omega_x, omega_y, x_lo, x_hi, y_lo, y_hi,
        dist_x=ws.f64("dist_x", n),
        dist_y=ws.f64("dist_y", n),
        axis=ws.i64("axis", n),
    )
    d_census = np.multiply(dt_to_census, speed, out=ws.f64("d_census", n))
    return Distances(speed, d_coll, d_facet, axis, d_census,
                     lo=(x_lo, y_lo), hi=(x_hi, y_hi))


# --------------------------------------------------------------------------
# Collision kernel.


def elastic_scatter_kinematics(
    mu_cm: np.ndarray, a_ratio
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-body elastic kinematics: ``(E'/E, mu_lab, sin_lab)`` per lane.

    The degenerate backscatter point ``A = 1, μ = −1`` (zero outgoing
    speed) returns ``mu_lab = 0``.
    """
    denom_sq = a_ratio * a_ratio + 2.0 * a_ratio * mu_cm + 1.0
    e_frac = denom_sq / ((a_ratio + 1.0) * (a_ratio + 1.0))
    degenerate = (denom_sq <= 0.0) | (e_frac < 1.0e-300)
    safe = np.where(degenerate, 1.0, denom_sq)
    mu_lab = (1.0 + a_ratio * mu_cm) / np.sqrt(safe)
    mu_lab = np.clip(np.where(degenerate, 0.0, mu_lab), -1.0, 1.0)
    sin_lab = np.sqrt(1.0 - mu_lab * mu_lab)
    e_frac = np.where(degenerate, 0.0, e_frac)
    return e_frac, mu_lab, sin_lab


def apply_cutoffs(
    energy, weight, energy_cutoff_ev, weight_cutoff, defer_weight_cutoff
) -> tuple[np.ndarray, np.ndarray]:
    """Post-collision cutoffs: ``(terminated, below_weight)`` masks.

    With ``defer_weight_cutoff`` (Russian roulette mode) the energy cutoff
    still terminates, but a sub-cutoff weight is *reported* rather than
    terminated — the driver plays the roulette with its own draw.
    """
    below_weight = weight < weight_cutoff
    if defer_weight_cutoff:
        terminated = energy < energy_cutoff_ev
        return terminated, below_weight & ~terminated
    terminated = (energy < energy_cutoff_ev) | below_weight
    return terminated, np.zeros_like(terminated)


def collide(
    energy: np.ndarray,
    weight: np.ndarray,
    omega_x: np.ndarray,
    omega_y: np.ndarray,
    sigma_a: np.ndarray,
    sigma_t: np.ndarray,
    a_ratio,
    u_angle: np.ndarray,
    u_sense: np.ndarray,
    u_mfp: np.ndarray,
    energy_cutoff_ev: float,
    weight_cutoff: float,
    defer_weight_cutoff: bool = False,
) -> tuple[np.ndarray, ...]:
    """Apply one collision per lane (implicit capture + elastic scatter).

    Returns ``(energy, weight, ox, oy, mfp, deposit, terminated,
    below_weight)`` arrays.  ``a_ratio`` may be a scalar or a per-lane
    array (multi-material populations).

    The cutoffs (scalars or per-lane arrays) are applied by
    :func:`apply_cutoffs`.
    """
    p_absorb = np.where(sigma_t > 0.0, sigma_a / np.where(sigma_t > 0.0, sigma_t, 1.0), 0.0)
    deposit = weight * energy * p_absorb
    weight = weight * (1.0 - p_absorb)

    mu_cm = 2.0 * u_angle - 1.0
    e_frac, mu_lab, sin_lab = elastic_scatter_kinematics(mu_cm, a_ratio)
    new_energy = energy * e_frac
    deposit = deposit + weight * (energy - new_energy)
    sense = np.where(u_sense < 0.5, 1.0, -1.0)
    new_ox = omega_x * mu_lab - omega_y * sin_lab * sense
    new_oy = omega_y * mu_lab + omega_x * sin_lab * sense

    mfp = -np.log(1.0 - u_mfp)

    terminated, below_weight = apply_cutoffs(
        new_energy, weight, energy_cutoff_ev, weight_cutoff,
        defer_weight_cutoff,
    )
    deposit = deposit + np.where(terminated, weight * new_energy, 0.0)
    weight = np.where(terminated, 0.0, weight)

    return new_energy, weight, new_ox, new_oy, mfp, deposit, terminated, below_weight


# --------------------------------------------------------------------------
# Facet kernel.


def cross_facet(
    cellx: np.ndarray,
    celly: np.ndarray,
    omega_x: np.ndarray,
    omega_y: np.ndarray,
    axis: np.ndarray,
    mesh,
    bc: BoundaryCondition = BoundaryCondition.REFLECTIVE,
) -> tuple[np.ndarray, ...]:
    """Resolve facet encounters for particles sitting on their facet.

    Returns ``(new_cellx, new_celly, new_ox, new_oy, reflected, escaped)``;
    inputs are not modified.  ``mesh`` only needs ``nx``/``ny``.
    """
    new_cx = cellx.copy()
    new_cy = celly.copy()
    new_ox = omega_x.copy()
    new_oy = omega_y.copy()

    x_facet = axis == 0
    y_facet = ~x_facet

    going_px = x_facet & (omega_x > 0.0)
    going_nx = x_facet & (omega_x <= 0.0)
    going_py = y_facet & (omega_y > 0.0)
    going_ny = y_facet & (omega_y <= 0.0)

    bnd_px = going_px & (cellx == mesh.nx - 1)
    bnd_nx = going_nx & (cellx == 0)
    bnd_py = going_py & (celly == mesh.ny - 1)
    bnd_ny = going_ny & (celly == 0)
    at_boundary = bnd_px | bnd_nx | bnd_py | bnd_ny

    if bc is BoundaryCondition.VACUUM:
        escaped = at_boundary
        reflected = np.zeros_like(at_boundary)
    else:
        escaped = np.zeros_like(at_boundary)
        reflected = at_boundary
        flip_x = bnd_px | bnd_nx
        flip_y = bnd_py | bnd_ny
        new_ox[flip_x] = -new_ox[flip_x]
        new_oy[flip_y] = -new_oy[flip_y]

    new_cx[going_px & ~bnd_px] += 1
    new_cx[going_nx & ~bnd_nx] -= 1
    new_cy[going_py & ~bnd_py] += 1
    new_cy[going_ny & ~bnd_ny] -= 1

    return new_cx, new_cy, new_ox, new_oy, reflected, escaped


# --------------------------------------------------------------------------
# Census kernel.


def census(*args: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fly each lane to the end of the timestep, in any dimension.

    ``args`` is ``(*position, *direction, mfp_to_collision, sigma_t,
    d_census)`` with one position and one direction array per axis.
    Returns ``(*new_position, new_mfp)``: the position advanced by the
    census distance and the optical budget decremented by the distance
    flown (clamped at zero).
    """
    *axes, mfp_to_collision, sigma_t, d_census = args
    ndim = len(axes) // 2
    new_pos = [p + d_census * o for p, o in zip(axes[:ndim], axes[ndim:])]
    return (*new_pos, np.maximum(0.0, mfp_to_collision - d_census * sigma_t))


# --------------------------------------------------------------------------
# Variance-reduction kernels.


def roulette(
    weight: np.ndarray, u: np.ndarray, weight_cutoff: float
) -> tuple[np.ndarray, float]:
    """Russian roulette for sub-cutoff lanes: ``(survive_mask, restored)``.

    Survivors are restored to ``10 × weight_cutoff``; survival probability
    ``weight / restored`` conserves expected weight.  Callers only pass
    lanes already below the cutoff.
    """
    restored = 10.0 * weight_cutoff
    survive = u < weight / restored
    return survive, restored


def fission_yield(
    weight_before: np.ndarray,
    nu: np.ndarray,
    sigma_f: np.ndarray,
    sigma_t: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Integer secondaries per fissile collision: ``floor(w·ν·Σf/Σt + u)``."""
    expected = weight_before * nu * sigma_f / sigma_t
    return np.floor(expected + u).astype(np.int64)


def split_counts(ratio: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unbiased split multiplicity per importance-increasing crossing:
    ``floor(r + u)`` clamped to ``[1, MAX_SPLIT]``; 1 where ``r <= 1``."""
    n = np.floor(ratio + u)
    n = np.clip(n, 1, MAX_SPLIT)
    return np.where(ratio <= 1.0, 1, n).astype(np.int64)


def should_terminate(
    energy_ev: np.ndarray,
    weight: np.ndarray,
    energy_cutoff_ev: float,
    weight_cutoff: float,
) -> np.ndarray:
    """Deterministic cutoff termination mask (paper §IV-E)."""
    return (energy_ev < energy_cutoff_ev) | (weight < weight_cutoff)


# --------------------------------------------------------------------------
# Sampling kernels (birth draws).


def sample_position_in_box(
    u1: np.ndarray, u2: np.ndarray, x0: float, x1: float, y0: float, y1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map two uniforms per lane to points in ``[x0,x1]×[y0,y1]``."""
    return x0 + u1 * (x1 - x0), y0 + u2 * (y1 - y0)


def sample_isotropic_direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map one uniform per lane to a unit direction isotropic in the plane."""
    theta = 2.0 * np.pi * u
    return np.cos(theta), np.sin(theta)


def sample_mean_free_paths(u: np.ndarray) -> np.ndarray:
    """Optical distance to the next collision: unit exponential ``-ln(1-u)``."""
    return -np.log(1.0 - u)
