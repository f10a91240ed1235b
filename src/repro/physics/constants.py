"""Physical constants.

The mini-app treats neutrons non-relativistically: for the source energies
used by the test problems (1 MeV) the relativistic correction to the speed
is below 0.1%, far under the statistical noise floor of the method.

The constants live with the batch kernels (:mod:`repro.kernels.batch`,
where :func:`~repro.kernels.batch.speed_from_energy` uses them) and are
re-exported here.
"""

from __future__ import annotations

from repro.kernels.batch import NEUTRON_MASS_KG, EV_TO_J  # noqa: F401

__all__ = [
    "NEUTRON_MASS_KG",
    "EV_TO_J",
]
