"""Speed, birth samplers and direction algebra, one particle per call.

The number of axes comes from the arguments: one uniform samples a
direction in the plane, two sample one on the sphere.  Transcendentals go
through numpy so the reference and the batch kernels round alike (libm and
numpy's SIMD loops may differ in the last ulp).
"""

from __future__ import annotations

import math

import numpy as np

from repro.physics.constants import EV_TO_J, NEUTRON_MASS_KG

__all__ = [
    "speed_from_energy_ev",
    "sample_position_in_box",
    "sample_isotropic_direction",
    "rotate_direction",
    "sample_mean_free_paths",
    "elastic_scatter_kinematics",
]

#: 2 eV/m_n: a speed is one multiply and one sqrt.
_TWO_EV_OVER_MASS = 2.0 * EV_TO_J / NEUTRON_MASS_KG

#: Below this pole margin the rotation uses the polar-axis special case.
_POLE_EPS = 1.0e-10


def speed_from_energy_ev(energy_ev: float) -> float:
    """Neutron speed [m/s] from kinetic energy [eV]: ``v = sqrt(2E/m)``."""
    if energy_ev < 0:
        raise ValueError("energy must be non-negative")
    return math.sqrt(_TWO_EV_OVER_MASS * energy_ev)


def sample_position_in_box(
    u1: float, u2: float, x0: float, x1: float, y0: float, y1: float
) -> tuple[float, float]:
    """Map two uniforms to a point in the box ``[x0,x1]×[y0,y1]``."""
    return x0 + u1 * (x1 - x0), y0 + u2 * (y1 - y0)


def sample_isotropic_direction(*u: float) -> tuple[float, ...]:
    """An isotropic unit direction: one uniform gives the in-plane angle
    ``2πu``; two give the polar cosine ``2u₁ − 1`` and the azimuth
    ``2πu₂`` of a direction uniform on the sphere."""
    if len(u) == 1:
        theta = 2.0 * math.pi * u[0]
        return float(np.cos(theta)), float(np.sin(theta))
    u1, u2 = u
    w = 2.0 * u1 - 1.0
    s = float(np.sqrt(max(0.0, 1.0 - w * w)))
    phi = 2.0 * np.pi * u2
    return float(s * np.cos(phi)), float(s * np.sin(phi)), w


def rotate_direction(
    u: float, v: float, w: float, mu: float, phi: float
) -> tuple[float, float, float]:
    """Turn the unit vector ``(u, v, w)`` by the deflection cosine ``mu``
    about the azimuth ``phi`` (the standard Monte Carlo rotation)."""
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


def sample_mean_free_paths(u: float) -> float:
    """Optical distance to the next collision, ``-ln(1 - u)``: a unit
    exponential (``1 - u`` stays positive for ``u`` in ``[0, 1)``)."""
    return float(-np.log(1.0 - u))


def elastic_scatter_kinematics(
    mu_cm: float, a_ratio: float
) -> tuple[float, float, float]:
    """Two-body elastic scattering off a nucleus ``a_ratio`` neutron masses
    heavy at centre-of-mass cosine ``mu_cm``: ``(E'/E, mu_lab, sin_lab)``.

    ``E'/E = (A² + 2Aμ + 1)/(A + 1)²`` and ``μ_lab = (1 + Aμ)/√(A² + 2Aμ + 1)``.
    The degenerate backscatter ``A = 1, μ = −1`` (zero outgoing speed)
    returns ``mu_lab = 0``.
    """
    denom_sq = a_ratio * a_ratio + 2.0 * a_ratio * mu_cm + 1.0
    e_frac = denom_sq / ((a_ratio + 1.0) * (a_ratio + 1.0))
    if denom_sq <= 0.0 or e_frac < 1.0e-300:
        return 0.0, 0.0, 1.0
    mu_lab = (1.0 + a_ratio * mu_cm) / math.sqrt(denom_sq)
    mu_lab = max(-1.0, min(1.0, mu_lab))
    return e_frac, mu_lab, math.sqrt(1.0 - mu_lab * mu_lab)
