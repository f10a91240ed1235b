"""Batch-first transport kernels: the single implementation of the physics.

Every piece of transport physics lives here exactly once, in batch form —
a kernel takes array slices (one lane per particle) and returns arrays.
Both execution schemes drive these kernels:

* **Over Events** applies them to the whole surviving population per pass
  (breadth-first, the paper's vectorised scheme);
* **Over Particles** applies them to a *block* of histories at a time
  (depth-first in blocks; block size 1 is the paper's scalar traversal).

The number of mesh axes is data, never a second body: a kernel takes one
position, direction or cell array per axis and counts them, and the one
thing a collision does differently in 3-D — turning the direction about an
azimuth instead of in the plane — is an entry of :data:`COLLISION_TURNS`.
The 3-D kernel names of the dispatch table are aliases of these bodies.

The scalar per-history references the parity suite pins these kernels
against element-wise, bit-for-bit, are a test fixture: one
dimension-generic oracle in ``tests/oracle/``.

What bit-parity needs is that every lane sees the reference's operands in
the reference's operation order — not any particular array form.  The
geometry kernels are full-width and branch-free: a predicate selects each
lane's operand or masks its divide (``where=``), so no lane is gathered
into a per-branch sub-batch and none computes a value its scalar
reference would not.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np

from repro.kernels.operands import HALF, INTS, MINUS_ONE, ONE, TWO, ZERO
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
    "nearest_facet",
    "select_events",
    "distances",
    "Distances",
    "elastic_scatter_kinematics",
    "apply_cutoffs",
    "COLLISION_TURNS",
    "collide",
    "cross_facet",
    "census",
    "roulette",
    "fission_yield",
    "split_counts",
    "sample_position_in_box",
    "sample_isotropic_direction",
    "sample_isotropic_direction_3d",
    "rotate_direction",
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

#: Below this pole margin the 3-D rotation uses the polar-axis special case.
_POLE_EPS = 1.0e-10

# The constants only these kernels use, as 0-d arrays for the reason
# :mod:`repro.kernels.operands` gives; the shared ones come from there.
_TINY = np.array(1.0e-300)
_EPS = np.array(PARALLEL_EPS)
_SPEED_FACTOR = np.array(_TWO_EV_OVER_MASS)
_ONE_INT8 = np.array(1, dtype=np.int8)


@lru_cache(maxsize=64)
def _cell_count(ncells: int) -> np.ndarray:
    """A mesh axis's cell count as a read-only 0-d ``uint64`` (see
    :func:`cross_facet`); every caller shares it."""
    count = np.array(ncells, dtype=np.uint64)
    count.flags.writeable = False
    return count


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
    np.multiply(_SPEED_FACTOR, energy_ev, out=out)
    return np.sqrt(out, out=out)


def distance_to_collision(
    mfp_remaining: np.ndarray,
    sigma_t: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Distance to the next collision from the remaining optical distance.

    With no material (Σ_t = 0) the collision never happens.  ``out``
    (float64) and ``scratch`` (bool) accept workspace buffers.
    """
    if out is None:
        out = np.empty_like(mfp_remaining)
    out.fill(HUGE_DISTANCE)
    ok = np.greater(sigma_t, ZERO, out=scratch)
    return np.divide(mfp_remaining, sigma_t, out=out, where=ok)


def _first_min(arrays, lowest, index, mask):
    """Each lane's smallest value over ``arrays`` into ``lowest`` (which
    may alias ``arrays[0]``) and its position into ``index``; ties pick
    the first array, as the scalar ``<=`` ladders do."""
    first, second, *rest = arrays
    # Through the bool buffer: a ufunc writing bools into int64 takes a
    # casting path that costs more than the copy.
    index[...] = np.less(second, first, out=mask)
    np.minimum(first, second, out=lowest)
    for i, a in enumerate(rest, 2):
        np.less(a, lowest, out=mask)
        np.putmask(index, mask, i)
        np.minimum(lowest, a, out=lowest)
    return lowest, index


def nearest_facet(pos, omega, face, dist=None, axis=None, tmp=None, mask=None):
    """Distance to the nearest facet of each lane's cell, in any dimension.

    ``pos``, ``omega`` and ``face`` hold one array per mesh axis; ``face``
    is the facet plane ahead of the lane on that axis.  Per axis, every
    lane computes ``(face − p) / ω`` — the scalar reference's operands in its
    order — and a lane numerically parallel to the facet
    (``|ω| ≤ PARALLEL_EPS``) is skipped by the divide and keeps
    ``HUGE_DISTANCE``.  Returns ``(distance, axis)``, ties picking the
    lowest axis.  ``dist`` (one float64 buffer per axis), ``axis``
    (int64), ``tmp`` (float64) and ``mask`` (bool) accept workspace
    buffers; the distance is written into ``dist[0]``.
    """
    if dist is None:
        dist = [np.empty_like(p) for p in pos]
    if axis is None:
        axis = np.empty(pos[0].shape, dtype=np.int64)
    if tmp is None:
        tmp = np.empty_like(pos[0])
    if mask is None:
        mask = np.empty(pos[0].shape, dtype=bool)
    for p, o, f, d in zip(pos, omega, face, dist):
        np.subtract(f, p, out=tmp)
        np.abs(o, out=d)
        np.greater(d, _EPS, out=mask)
        d.fill(HUGE_DISTANCE)
        np.divide(tmp, o, out=d, where=mask)
    return _first_min(dist, dist[0], axis, mask)


def distance_to_facet(*args) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the nearest facet of each particle's containing cell.

    ``args`` is ``(*position, *direction, *bounds)`` with one position and
    one direction array per axis and the cell bounds as ``(x_lo, x_hi,
    y_lo, y_hi[, z_lo, z_hi])``.  Returns ``(distance, axis)``, ties
    picking the lowest axis.
    """
    ndim = len(args) // 4
    pos, omega, bounds = args[:ndim], args[ndim:2 * ndim], args[2 * ndim:]
    # Per axis, the bound each lane flies toward: hi where ω > 0, else lo.
    face = [np.where(o > 0.0, hi, lo)
            for o, lo, hi in zip(omega, bounds[0::2], bounds[1::2])]
    return nearest_facet(pos, omega, face)


def select_events(
    d_collision: np.ndarray,
    d_facet: np.ndarray,
    d_census: np.ndarray,
    out: np.ndarray | None = None,
    lowest: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Pick each lane's first event (tie-break: collision, facet, census).

    Returns an int64 array of :class:`EventKind` values: the kinds are
    numbered in tie-break order, so a lane's event is the position of its
    smallest distance.  ``out`` (int64), ``lowest`` (float64) and
    ``scratch`` (bool) accept workspace buffers.
    """
    if out is None:
        out = np.empty(d_collision.shape, dtype=np.int64)
    if lowest is None:
        lowest = np.empty_like(d_collision)
    if scratch is None:
        scratch = np.empty(d_collision.shape, dtype=bool)
    return _first_min((d_collision, d_facet, d_census), lowest, out, scratch)[1]


class Distances:
    """Per-pass distance budgets, resident in workspace buffers.

    ``face`` holds, one array per mesh axis, the facet plane ahead of each
    lane — where a facet event lands it.  Views are only valid until the
    next :func:`distances` call on the same workspace — the drivers
    consume them within the pass.
    """

    __slots__ = ("speed", "d_collision", "d_facet", "axis", "d_census", "face")

    def __init__(self, speed, d_collision, d_facet, axis, d_census, face):
        self.speed = speed
        self.d_collision = d_collision
        self.d_facet = d_facet
        self.axis = axis
        self.d_census = d_census
        self.face = face


#: Per number of axes, the workspace names of the per-axis buffers of
#: :func:`distances`: the facet planes and the facet distances.
_AXIS_BUFFERS = {
    ndim: tuple(tuple(kind + a for a in "xyz"[:ndim]) for kind in ("face_", "dist_"))
    for ndim in (2, 3)
}


def distances(ws, energy, mfp_to_collision, sigma_t, *geometry) -> Distances:
    """Composite kernel: all three distance budgets for a population slice,
    in any dimension.

    ``geometry`` is ``(*position, *direction, *cells, *deltas,
    dt_to_census)`` with one entry per mesh axis in each group.  Computes
    speed, distance to collision, distance to the nearest facet (with the
    hit axis) and distance to census, entirely into preallocated buffers
    of ``ws`` (a :class:`repro.kernels.workspace.Workspace`) so the pass
    loop performs no full-length allocations.

    The facet plane ahead of a lane is derived inline from its cell index
    — ``(cell + [ω > 0])·δ``, bit-equal to selecting between the
    ``cell_bounds`` of the mesh (``cell·δ`` and ``(cell + 1)·δ``).
    """
    *axes, dt_to_census = geometry
    ndim = len(axes) // 4
    pos, omega = axes[:ndim], axes[ndim:2 * ndim]
    cells, deltas = axes[2 * ndim:3 * ndim], axes[3 * ndim:]
    face_names, dist_names = _AXIS_BUFFERS[ndim]
    n = energy.shape[0]
    speed = speed_from_energy(energy, out=ws.f64("speed", n))
    mask = ws.bool_("dist_mask", n)
    d_coll = distance_to_collision(
        mfp_to_collision, sigma_t, out=ws.f64("d_coll", n), scratch=mask
    )
    ahead = ws.i64("cell_tmp", n)
    face = []
    for name, o, cell, delta in zip(face_names, omega, cells, deltas):
        np.greater(o, ZERO, out=mask)
        np.add(cell, mask, out=ahead)
        face.append(np.multiply(ahead, delta, out=ws.f64(name, n)))
    d_facet, axis = nearest_facet(
        pos, omega, face,
        dist=[ws.f64(name, n) for name in dist_names],
        axis=ws.i64("axis", n),
        tmp=ws.f64("facet_tmp", n),
        mask=mask,
    )
    d_census = np.multiply(dt_to_census, speed, out=ws.f64("d_census", n))
    return Distances(speed, d_coll, d_facet, axis, d_census, tuple(face))


# --------------------------------------------------------------------------
# Collision kernel.


def elastic_scatter_kinematics(
    mu_cm: np.ndarray, a_ratio
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-body elastic kinematics: ``(E'/E, mu_lab, sin_lab)`` per lane.

    The degenerate backscatter point ``A = 1, μ = −1`` (zero outgoing
    speed) returns ``mu_lab = 0``.
    """
    denom_sq = a_ratio * a_ratio + TWO * a_ratio * mu_cm + ONE
    e_frac = denom_sq / ((a_ratio + ONE) * (a_ratio + ONE))
    degenerate = (denom_sq <= ZERO) | (e_frac < _TINY)
    safe = np.where(degenerate, ONE, denom_sq)
    mu_lab = (ONE + a_ratio * mu_cm) / np.sqrt(safe)
    # ``np.clip(mu_lab, -1, 1)`` is this, without its Python wrapper.
    mu_lab = np.minimum(
        np.maximum(np.where(degenerate, ZERO, mu_lab), MINUS_ONE), ONE)
    sin_lab = np.sqrt(ONE - mu_lab * mu_lab)
    e_frac = np.where(degenerate, ZERO, e_frac)
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


def _turn_in_plane(omega, mu_lab, sin_lab, u_turn):
    """2-D: turn by the lab deflection, its sense (±) drawn by ``u_turn``."""
    omega_x, omega_y = omega
    sense = np.where(u_turn < HALF, ONE, MINUS_ONE)
    return (omega_x * mu_lab - omega_y * sin_lab * sense,
            omega_y * mu_lab + omega_x * sin_lab * sense)


def _turn_about_azimuth(omega, mu_lab, sin_lab, u_turn):
    """3-D: turn by the lab deflection about the azimuth ``2π·u_turn``."""
    return rotate_direction(*omega, mu_lab, 2.0 * np.pi * u_turn)


#: The direction turn of a collision, per number of axes.
COLLISION_TURNS = {2: _turn_in_plane, 3: _turn_about_azimuth}


def collide(energy, weight, *args, defer_weight_cutoff: bool = False):
    """Apply one collision per lane (implicit capture + elastic scatter),
    in any dimension.

    ``args`` is ``(*direction, sigma_a, sigma_t, a_ratio, u_angle,
    u_turn, u_mfp, energy_cutoff_ev, weight_cutoff)`` with one direction
    array per axis; ``u_turn`` feeds that dimension's entry of
    :data:`COLLISION_TURNS` (the rotation sense in 2-D, the azimuth in
    3-D).  Returns ``(energy, weight, *direction, mfp, deposit,
    terminated, below_weight)`` arrays.  ``a_ratio`` may be a scalar or a
    per-lane array (multi-material populations).

    The cutoffs (scalars or per-lane arrays) are applied by
    :func:`apply_cutoffs`.
    """
    (*omega, sigma_a, sigma_t, a_ratio, u_angle, u_turn, u_mfp,
     energy_cutoff_ev, weight_cutoff) = args
    material = sigma_t > ZERO
    p_absorb = np.where(material, sigma_a / np.where(material, sigma_t, ONE),
                        ZERO)
    deposit = weight * energy * p_absorb
    weight = weight * (ONE - p_absorb)

    mu_cm = TWO * u_angle - ONE
    e_frac, mu_lab, sin_lab = elastic_scatter_kinematics(mu_cm, a_ratio)
    new_energy = energy * e_frac
    deposit = deposit + weight * (energy - new_energy)
    new_omega = COLLISION_TURNS[len(omega)](omega, mu_lab, sin_lab, u_turn)

    mfp = -np.log(ONE - u_mfp)

    terminated, below_weight = apply_cutoffs(
        new_energy, weight, energy_cutoff_ev, weight_cutoff,
        defer_weight_cutoff,
    )
    deposit = deposit + np.where(terminated, weight * new_energy, ZERO)
    weight = np.where(terminated, ZERO, weight)

    return new_energy, weight, *new_omega, mfp, deposit, terminated, below_weight


# --------------------------------------------------------------------------
# Facet kernel.


def cross_facet(*args) -> tuple[np.ndarray, ...]:
    """Resolve facet encounters for lanes sitting on their facet, in any
    dimension.

    ``args`` is ``(*cells, *directions, axis, mesh[, bc])`` with one cell
    and one direction array per mesh axis; ``bc`` defaults to reflective.
    Every lane runs every axis: off its hit axis a lane moves by
    ``step·0`` and keeps its direction.  Returns ``(*new_cells,
    *new_directions, reflected, escaped)``; inputs are not modified.
    """
    ndim = (len(args) - 2) // 2
    cells, omegas = args[:ndim], args[ndim:2 * ndim]
    axis, mesh, bc = (*args[2 * ndim:], BoundaryCondition.REFLECTIVE)[:3]
    vacuum = bc is BoundaryCondition.VACUUM
    at_boundary = None
    new_cells, new_omegas = [], []
    for i, (cell, omega, ncells) in enumerate(zip(cells, omegas, mesh.shape)):
        hit = np.equal(axis, INTS[i])
        # ±1 toward the facet on the hit axis, 0 off it, in int8 from the
        # bool views; the cell ahead is off the mesh at -1 (as uint64, past
        # any count) or at ncells, and off the hit axis it is the lane's
        # own cell, on the mesh.
        forward = np.greater(omega, ZERO).view(np.int8)
        step = np.subtract(np.add(forward, forward), _ONE_INT8)
        np.multiply(step, hit.view(np.int8), out=step)
        ahead = np.add(cell, step)
        bnd = np.greater_equal(ahead.view(np.uint64), _cell_count(ncells))
        np.copyto(ahead, cell, where=bnd)  # hit and at the boundary: stay
        new_cells.append(ahead)
        new_omegas.append(omega if vacuum else np.negative(
            omega, out=omega.copy(), where=bnd))
        if at_boundary is None:
            at_boundary = bnd
        else:
            at_boundary |= bnd
    none = np.zeros(axis.shape, dtype=bool)
    reflected, escaped = (none, at_boundary) if vacuum else (at_boundary, none)
    return (*new_cells, *new_omegas, reflected, escaped)


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
    n = np.minimum(np.maximum(np.floor(ratio + u), 1), MAX_SPLIT)
    return np.where(ratio <= 1.0, 1, n).astype(np.int64)


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


def sample_isotropic_direction_3d(u1, u2):
    """Two uniforms per lane → unit vectors uniform on the sphere."""
    w = 2.0 * u1 - 1.0
    s = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    phi = 2.0 * np.pi * u2
    return s * np.cos(phi), s * np.sin(phi), w


def rotate_direction(u, v, w, mu, phi):
    """Rotate unit vectors by deflection cosine ``mu`` about azimuth
    ``phi`` (standard MC scattering rotation, pole special-cased)."""
    s = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    cosp = np.cos(phi)
    sinp = np.sin(phi)
    denom_sq = 1.0 - w * w
    polar = denom_sq < _POLE_EPS
    denom = np.sqrt(np.where(polar, 1.0, denom_sq))
    nu = mu * u + s * (u * w * cosp - v * sinp) / denom
    nv = mu * v + s * (v * w * cosp + u * sinp) / denom
    nw = mu * w - s * denom * cosp
    sign = np.where(w > 0.0, 1.0, -1.0)
    nu = np.where(polar, s * cosp, nu)
    nv = np.where(polar, s * sinp, nv)
    nw = np.where(polar, mu * sign, nw)
    return nu, nv, nw


def sample_mean_free_paths(u: np.ndarray) -> np.ndarray:
    """Optical distance to the next collision: unit exponential ``-ln(1-u)``."""
    return -np.log(1.0 - u)
