"""Batch kernels for the 3-D volume extension.

A 3-D run is the one event pass (:mod:`repro.core.event_pass`) over one
more axis: it shares the dimension-independent kernels of
:mod:`repro.kernels.batch` and dispatches these for the geometry and the
direction algebra, with the calling convention of their 2-D twins (flat
per-axis arguments, workspace buffers, per-lane cutoffs).  The volume
modules keep the scalar reference forms the tests pin these against.

``mesh`` arguments are duck-typed (``nx``/``ny``/``nz``) to keep this
module free of imports from :mod:`repro.volume` (which imports us).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batch import (
    HUGE_DISTANCE,
    PARALLEL_EPS,
    Distances,
    apply_cutoffs,
    distance_to_collision,
    elastic_scatter_kinematics,
    speed_from_energy,
)
from repro.mesh.boundary import BoundaryCondition

__all__ = [
    "distance_to_facet_3d",
    "distances_3d",
    "cross_facet_3d",
    "sample_isotropic_direction_3d",
    "rotate_direction",
    "collide3",
]

#: Below this pole margin the rotation uses the polar-axis special case.
_POLE_EPS = 1.0e-10


def distance_to_facet_3d(
    x, y, z, ox, oy, oz, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi,
    dist=(None, None, None), axis=None,
):
    """Distance to the nearest facet of each 3-D cell: ``(d, axis)`` with
    axis 0/1/2 for x/y/z, ties picking the lowest axis.  ``dist`` (one
    buffer per axis) and ``axis`` accept workspace buffers; the distance
    is written into ``dist[0]``."""
    def axis_dist(p, o, lo, hi, d):
        if d is None:
            d = np.full_like(p, HUGE_DISTANCE)
        else:
            d.fill(HUGE_DISTANCE)
        pos = o > PARALLEL_EPS
        neg = o < -PARALLEL_EPS
        d[pos] = (hi[pos] - p[pos]) / o[pos]
        d[neg] = (lo[neg] - p[neg]) / o[neg]
        return d

    dist_x = axis_dist(x, ox, x_lo, x_hi, dist[0])
    dist_y = axis_dist(y, oy, y_lo, y_hi, dist[1])
    dist_z = axis_dist(z, oz, z_lo, z_hi, dist[2])

    if axis is None:
        axis = np.full(x.shape, 2, dtype=np.int64)
    else:
        axis.fill(2)
    axis[dist_y <= dist_z] = 1
    axis[(dist_x <= dist_y) & (dist_x <= dist_z)] = 0
    np.minimum(dist_x, dist_y, out=dist_x)
    return np.minimum(dist_x, dist_z, out=dist_x), axis


def distances_3d(
    ws, energy, mfp_to_collision, sigma_t, x, y, z, ox, oy, oz,
    cellx, celly, cellz, dx, dy, dz, dt_to_census,
) -> Distances:
    """Composite kernel, the 3-D twin of :func:`repro.kernels.batch.distances`
    (same calling convention, one more axis): speed and the collision,
    nearest-facet and census distance budgets of a population slice,
    entirely in buffers of the workspace ``ws``."""
    n = energy.shape[0]
    speed = speed_from_energy(energy, out=ws.f64("speed", n))
    d_coll = distance_to_collision(
        mfp_to_collision, sigma_t, out=ws.f64("d_coll", n)
    )
    tmp = ws.i64("cell_tmp", n)
    lo, hi = [], []
    for name, cell, delta in (("x", cellx, dx), ("y", celly, dy), ("z", cellz, dz)):
        lo.append(np.multiply(cell, delta, out=ws.f64(name + "_lo", n)))
        np.add(cell, 1, out=tmp)
        hi.append(np.multiply(tmp, delta, out=ws.f64(name + "_hi", n)))
    d_facet, axis = distance_to_facet_3d(
        x, y, z, ox, oy, oz, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2],
        dist=[ws.f64("dist_" + name, n) for name in "xyz"],
        axis=ws.i64("axis", n),
    )
    d_census = np.multiply(dt_to_census, speed, out=ws.f64("d_census", n))
    return Distances(speed, d_coll, d_facet, axis, d_census,
                     lo=tuple(lo), hi=tuple(hi))


def cross_facet_3d(
    cx, cy, cz, ox, oy, oz, axis, mesh,
    bc: BoundaryCondition = BoundaryCondition.REFLECTIVE,
):
    """Resolve 3-D facet encounters; returns
    ``(cx, cy, cz, ox, oy, oz, reflected, escaped)`` arrays."""
    new_c = [cx.copy(), cy.copy(), cz.copy()]
    new_o = [ox.copy(), oy.copy(), oz.copy()]
    omegas = (ox, oy, oz)
    limits = (mesh.nx - 1, mesh.ny - 1, mesh.nz - 1)

    reflected = np.zeros(cx.shape, dtype=bool)
    escaped = np.zeros(cx.shape, dtype=bool)
    vacuum = bc is BoundaryCondition.VACUUM

    for ax in range(3):
        on_axis = axis == ax
        fwd = on_axis & (omegas[ax] > 0.0)
        bwd = on_axis & (omegas[ax] <= 0.0)
        bnd = (fwd & (new_c[ax] == limits[ax])) | (bwd & (new_c[ax] == 0))
        if vacuum:
            escaped |= bnd
        else:
            reflected |= bnd
            new_o[ax][bnd] = -new_o[ax][bnd]
        new_c[ax][fwd & ~bnd] += 1
        new_c[ax][bwd & ~bnd] -= 1

    return (*new_c, *new_o, reflected, escaped)


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


def collide3(
    energy,
    weight,
    ox,
    oy,
    oz,
    sigma_a,
    sigma_t,
    a_ratio,
    u_angle,
    u_azimuth,
    u_mfp,
    energy_cutoff_ev,
    weight_cutoff,
    defer_weight_cutoff: bool = False,
):
    """Apply one 3-D collision per lane, with the calling convention of
    :func:`repro.kernels.batch.collide` (scalar or per-lane ``a_ratio``
    and cutoffs, ``defer_weight_cutoff``); returns ``(energy, weight,
    ox, oy, oz, mfp, deposit, terminated, below_weight)`` arrays."""
    p_absorb = np.where(
        sigma_t > 0.0, sigma_a / np.where(sigma_t > 0.0, sigma_t, 1.0), 0.0
    )
    deposit = weight * energy * p_absorb
    weight = weight * (1.0 - p_absorb)

    mu_cm = 2.0 * u_angle - 1.0
    e_frac, mu_lab, _ = elastic_scatter_kinematics(mu_cm, a_ratio)
    new_energy = energy * e_frac
    deposit = deposit + weight * (energy - new_energy)
    phi = 2.0 * np.pi * u_azimuth
    nox, noy, noz = rotate_direction(ox, oy, oz, mu_lab, phi)

    mfp = -np.log(1.0 - u_mfp)

    terminated, below_weight = apply_cutoffs(
        new_energy, weight, energy_cutoff_ev, weight_cutoff,
        defer_weight_cutoff,
    )
    deposit = deposit + np.where(terminated, weight * new_energy, 0.0)
    weight = np.where(terminated, 0.0, weight)

    return (new_energy, weight, nox, noy, noz, mfp, deposit, terminated,
            below_weight)
