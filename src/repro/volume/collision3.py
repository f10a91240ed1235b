"""3-D collision handling.

The energy accounting (implicit capture + recoil deposit) and the
two-body energy/deflection kinematics are exactly the 2-D code's —
:func:`repro.physics.collision.elastic_scatter_kinematics` is reused.
Only the direction update differs: the deflection is applied by rotating
the 3-D flight vector about a uniformly random azimuth.

Three draws per collision, as in 2-D: the CM scattering cosine, the
azimuth (which replaces the 2-D rotation sense), and the new optical
distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics.collision import elastic_scatter_kinematics
from repro.volume.kinematics3 import rotate_direction

__all__ = ["Collision3Outcome", "collide3"]


@dataclass(frozen=True)
class Collision3Outcome:
    """Everything one 3-D collision changes."""

    energy: float
    weight: float
    ox: float
    oy: float
    oz: float
    mfp_to_collision: float
    deposit: float
    terminated: bool


def collide3(
    energy: float,
    weight: float,
    ox: float,
    oy: float,
    oz: float,
    sigma_a: float,
    sigma_t: float,
    a_ratio: float,
    u_angle: float,
    u_azimuth: float,
    u_mfp: float,
    energy_cutoff_ev: float,
    weight_cutoff: float,
) -> Collision3Outcome:
    """Apply one collision (scalar form); mirrors the 2-D accounting."""
    p_absorb = sigma_a / sigma_t if sigma_t > 0.0 else 0.0
    deposit = weight * energy * p_absorb
    weight = weight * (1.0 - p_absorb)

    mu_cm = 2.0 * u_angle - 1.0
    e_frac, mu_lab, _sin_lab = elastic_scatter_kinematics(mu_cm, a_ratio)
    new_energy = energy * e_frac
    deposit += weight * (energy - new_energy)
    phi = 2.0 * np.pi * u_azimuth
    nox, noy, noz = rotate_direction(ox, oy, oz, mu_lab, phi)

    mfp = float(-np.log(1.0 - u_mfp))

    terminated = new_energy < energy_cutoff_ev or weight < weight_cutoff
    if terminated:
        deposit += weight * new_energy
        weight = 0.0

    return Collision3Outcome(
        energy=new_energy,
        weight=weight,
        ox=nox,
        oy=noy,
        oz=noz,
        mfp_to_collision=mfp,
        deposit=deposit,
        terminated=terminated,
    )
