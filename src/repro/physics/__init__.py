"""Physics constants and the scalar helpers the event pass calls.

The transport physics itself — distances, event selection, collisions,
facet crossings, census — is the batch kernels of
:mod:`repro.kernels.batch`, run by the one event pass
(:mod:`repro.core.event_pass`) in either scheme.  What lives here is what
that pass takes per banked child or per configuration: the fission yield,
secondary energy and identity (:mod:`repro.physics.fission`), the
importance-split identity (:mod:`repro.physics.importance`), the
variance-reduction cutoffs (:mod:`repro.physics.variance`) and the
physical constants.  The scalar per-history references the batch kernels
are pinned against live with the tests (``tests/oracle/``).
"""

from repro.physics.constants import NEUTRON_MASS_KG, EV_TO_J
from repro.physics.variance import DEFAULT_ENERGY_CUTOFF_EV, DEFAULT_WEIGHT_CUTOFF

__all__ = [
    "NEUTRON_MASS_KG",
    "EV_TO_J",
    "DEFAULT_ENERGY_CUTOFF_EV",
    "DEFAULT_WEIGHT_CUTOFF",
]
