"""Batch kernels for the 3-D volume extension.

A 3-D run is the one event pass (:mod:`repro.core.event_pass`) over one
more axis: it shares the dimension-independent kernels of
:mod:`repro.kernels.batch` — the distance composite and the facet
geometry among them, which take any number of axes — and dispatches
these for the direction algebra, with the calling convention of their
2-D twins (flat per-axis arguments, per-lane cutoffs).  The volume
modules keep the scalar reference forms the tests pin these against.

``mesh`` arguments are duck-typed (``nx``/``ny``/``nz``) to keep this
module free of imports from :mod:`repro.volume` (which imports us).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batch import (
    apply_cutoffs,
    cross_facets,
    elastic_scatter_kinematics,
    facets_ahead,
    nearest_facet,
)
from repro.mesh.boundary import BoundaryCondition

__all__ = [
    "distance_to_facet_3d",
    "cross_facet_3d",
    "sample_isotropic_direction_3d",
    "rotate_direction",
    "collide3",
]

#: Below this pole margin the rotation uses the polar-axis special case.
_POLE_EPS = 1.0e-10


def distance_to_facet_3d(x, y, z, ox, oy, oz, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi):
    """Distance to the nearest facet of each 3-D cell: ``(d, axis)`` with
    axis 0/1/2 for x/y/z, ties picking the lowest axis."""
    omega = (ox, oy, oz)
    return nearest_facet(
        (x, y, z), omega,
        facets_ahead(omega, (x_lo, y_lo, z_lo), (x_hi, y_hi, z_hi)),
    )


def cross_facet_3d(
    cx, cy, cz, ox, oy, oz, axis, mesh,
    bc: BoundaryCondition = BoundaryCondition.REFLECTIVE,
):
    """Resolve 3-D facet encounters; returns
    ``(cx, cy, cz, ox, oy, oz, reflected, escaped)`` arrays."""
    return cross_facets(
        (cx, cy, cz), (ox, oy, oz), axis, (mesh.nx, mesh.ny, mesh.nz), bc
    )


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
