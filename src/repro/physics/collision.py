"""Collision physics: implicit capture and elastic scattering.

The mini-app considers two interactions (paper §IV-A): absorption and
elastic scattering off a homogeneous, non-multiplying medium.  Variance
reduction (§IV-E) handles absorption *implicitly*: instead of killing the
history with probability Σ_a/Σ_t, every collision deposits the absorbed
fraction of the particle's energy and scales the weight down by the survival
probability, so one history represents a whole population.

Elastic scattering uses two-body kinematics off a nucleus of mass ratio
``A`` (target mass / neutron mass):

* centre-of-mass scattering cosine ``μ`` is sampled uniformly (isotropic in
  CM, the standard s-wave approximation);
* the outgoing energy is ``E' = E (A² + 2Aμ + 1) / (A+1)²`` — the "energy
  dampening";
* the lab frame deflection cosine is ``μ_lab = (1 + Aμ) / √(A² + 2Aμ + 1)``.

This path contains the three sqrt calls the paper counts for the scattering
branch (§VI-A): the kinematics denominator, the deflection sine, and the
speed update.

Exactly **three random draws** are consumed per collision, matching §IV-F:
the scattering angle (μ), the rotation sense (which in 2D carries the
azimuthal freedom), and the new number of mean-free-paths to the next
collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CollisionOutcome", "elastic_scatter_kinematics", "collide"]


@dataclass(frozen=True)
class CollisionOutcome:
    """Everything a collision changes, in one value.

    Scalar fields for the Over Particles scheme; the vectorised driver uses
    :func:`repro.kernels.batch.collide` directly on arrays.

    ``below_weight_cutoff`` is only set when the caller deferred the
    weight-cutoff decision (Russian roulette mode): the history survived
    this collision but its weight is now below the cutoff, and the driver
    must play the roulette.
    """

    energy: float
    weight: float
    omega_x: float
    omega_y: float
    mfp_to_collision: float
    deposit: float
    terminated: bool
    below_weight_cutoff: bool = False


def elastic_scatter_kinematics(
    mu_cm: float, a_ratio: float
) -> tuple[float, float, float]:
    """Two-body elastic kinematics.

    Parameters
    ----------
    mu_cm:
        Centre-of-mass scattering cosine in ``[-1, 1]``.
    a_ratio:
        Target-to-neutron mass ratio ``A``.

    Returns
    -------
    (energy_fraction, mu_lab, sin_lab):
        ``E'/E``, the lab-frame deflection cosine, and its (non-negative)
        sine.  The degenerate backscatter point ``A = 1, μ = −1`` (zero
        outgoing speed) returns ``mu_lab = 0``.
    """
    denom_sq = a_ratio * a_ratio + 2.0 * a_ratio * mu_cm + 1.0
    e_frac = denom_sq / ((a_ratio + 1.0) * (a_ratio + 1.0))
    if denom_sq <= 0.0 or e_frac < 1.0e-300:
        return 0.0, 0.0, 1.0
    denom = math.sqrt(denom_sq)  # sqrt #1
    mu_lab = (1.0 + a_ratio * mu_cm) / denom
    mu_lab = max(-1.0, min(1.0, mu_lab))
    sin_lab = math.sqrt(1.0 - mu_lab * mu_lab)  # sqrt #2
    return e_frac, mu_lab, sin_lab


def collide(
    energy: float,
    weight: float,
    omega_x: float,
    omega_y: float,
    sigma_a: float,
    sigma_t: float,
    a_ratio: float,
    u_angle: float,
    u_sense: float,
    u_mfp: float,
    energy_cutoff_ev: float,
    weight_cutoff: float,
    defer_weight_cutoff: bool = False,
) -> CollisionOutcome:
    """Apply one collision to a particle's state (scalar form).

    Energy accounting is exact: the deposit equals the weighted energy lost
    by the history, so ``deposit + w'E' == wE`` holds to rounding, which is
    the conservation invariant the validation layer checks.

    Draw order: ``u_angle`` (CM cosine), ``u_sense`` (rotation sense),
    ``u_mfp`` (optical distance to the next collision).

    With ``defer_weight_cutoff`` (Russian roulette mode) the energy cutoff
    still terminates here, but a sub-cutoff weight is *reported* rather
    than terminated — the driver plays the roulette with its own draw.
    """
    # --- implicit capture: deposit the absorbed share, reduce the weight.
    p_absorb = sigma_a / sigma_t if sigma_t > 0.0 else 0.0
    deposit = weight * energy * p_absorb
    weight = weight * (1.0 - p_absorb)

    # --- elastic scatter with energy dampening.
    mu_cm = 2.0 * u_angle - 1.0
    e_frac, mu_lab, sin_lab = elastic_scatter_kinematics(mu_cm, a_ratio)
    new_energy = energy * e_frac
    deposit += weight * (energy - new_energy)
    sense = 1.0 if u_sense < 0.5 else -1.0
    new_ox = omega_x * mu_lab - omega_y * sin_lab * sense
    new_oy = omega_y * mu_lab + omega_x * sin_lab * sense

    # --- re-sample the optical distance to the next collision.
    # numpy's log for bit-parity with the batch kernel (libm may differ by 1 ulp).
    mfp = float(-np.log(1.0 - u_mfp))

    # --- variance-reduction termination (weight or energy cutoff, §IV-E):
    # the remaining history energy is deposited where the history ends.
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

    return CollisionOutcome(
        energy=new_energy,
        weight=weight,
        omega_x=new_ox,
        omega_y=new_oy,
        mfp_to_collision=mfp,
        deposit=deposit,
        terminated=terminated,
        below_weight_cutoff=below_weight,
    )
