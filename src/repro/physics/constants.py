"""Physical constants and kinematic helpers.

The mini-app treats neutrons non-relativistically: for the source energies
used by the test problems (1 MeV) the relativistic correction to the speed
is below 0.1%, far under the statistical noise floor of the method.

The constants themselves live with the batch kernels
(:mod:`repro.kernels.batch`) and are re-exported here; the scalar helper
is the reference implementation for the parity suite.
"""

from __future__ import annotations

import math

from repro.kernels.batch import NEUTRON_MASS_KG, EV_TO_J  # noqa: F401

__all__ = [
    "NEUTRON_MASS_KG",
    "EV_TO_J",
    "speed_from_energy_ev",
]

# Precomputed 2 eV/m_n so the hot path is a multiply and a sqrt.
_TWO_EV_OVER_MASS = 2.0 * EV_TO_J / NEUTRON_MASS_KG


def speed_from_energy_ev(energy_ev: float) -> float:
    """Neutron speed [m/s] from kinetic energy [eV], non-relativistic.

    ``v = sqrt(2 E / m)``.  One of the three sqrt calls in the collision
    path the paper counts (§VI-A).
    """
    if energy_ev < 0:
        raise ValueError("energy must be non-negative")
    return math.sqrt(_TWO_EV_OVER_MASS * energy_ev)
