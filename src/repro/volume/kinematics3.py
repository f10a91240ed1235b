"""3-D direction sampling and scattering rotation.

The elastic energy/deflection *kinematics* are dimension-independent
(:func:`repro.physics.collision.elastic_scatter_kinematics` is reused);
what changes in 3-D is the direction algebra: isotropic emission covers
the unit sphere (two draws: polar cosine and azimuth), and scattering
rotates the flight direction by the deflection cosine about a uniformly
random azimuth — the standard Monte Carlo rotation.

Every function exists in scalar and vectorised form, bit-identical, with
numpy transcendentals on both paths (the same discipline as the 2-D
samplers).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_isotropic_direction_3d",
    "rotate_direction",
]

#: Below this pole margin the rotation uses the polar-axis special case.
_POLE_EPS = 1.0e-10


def sample_isotropic_direction_3d(u1: float, u2: float) -> tuple[float, float, float]:
    """Two uniforms → a unit vector uniform on the sphere.

    ``w = 2u₁ − 1`` (uniform polar cosine), azimuth ``2π u₂``.
    """
    w = 2.0 * u1 - 1.0
    s = float(np.sqrt(max(0.0, 1.0 - w * w)))
    phi = 2.0 * np.pi * u2
    return float(s * np.cos(phi)), float(s * np.sin(phi)), w


def rotate_direction(
    u: float, v: float, w: float, mu: float, phi: float
) -> tuple[float, float, float]:
    """Rotate the unit vector ``(u,v,w)`` by deflection cosine ``mu`` about
    azimuth ``phi`` (the standard MC scattering rotation)."""
    s = float(np.sqrt(max(0.0, 1.0 - mu * mu)))
    cosp = float(np.cos(phi))
    sinp = float(np.sin(phi))
    denom_sq = 1.0 - w * w
    if denom_sq < _POLE_EPS:
        # Flying along ±z: rotate in the horizontal plane directly.
        sign = 1.0 if w > 0.0 else -1.0
        return s * cosp, s * sinp, mu * sign
    denom = float(np.sqrt(denom_sq))
    nu = mu * u + s * (u * w * cosp - v * sinp) / denom
    nv = mu * v + s * (v * w * cosp + u * sinp) / denom
    nw = mu * w - s * denom * cosp
    return nu, nv, nw
