"""Event physics for Monte Carlo neutral particle transport.

The particle event-tracking procedure (paper §IV-A) considers three events:

* **collision** — absorption (handled by implicit capture / weight
  reduction, §IV-E) and elastic scattering with energy dampening;
* **facet** — the particle reaches a facet of its containing cell: flush the
  tally, cross into the neighbour (or reflect at a problem boundary), reload
  the destination density;
* **census** — the terminal event at the end of the timestep.

Individual timers (distance budgets) are maintained per event; every handled
event updates the others' timers by the distance travelled.  Both schemes
run the handlers of the one batch pass (:mod:`repro.core.event_pass`);
the scalar functions here are the references the parity suite pins the
batch kernels against.
"""

from repro.physics.constants import (
    NEUTRON_MASS_KG,
    EV_TO_J,
    speed_from_energy_ev,
)
from repro.physics.events import (
    EventKind,
    distance_to_facet,
    distance_to_collision,
    distance_to_census,
)
from repro.physics.collision import elastic_scatter_kinematics, CollisionOutcome
from repro.physics.variance import should_terminate, should_terminate_vec

__all__ = [
    "NEUTRON_MASS_KG",
    "EV_TO_J",
    "speed_from_energy_ev",
    "EventKind",
    "distance_to_facet",
    "distance_to_collision",
    "distance_to_census",
    "elastic_scatter_kinematics",
    "CollisionOutcome",
    "should_terminate",
    "should_terminate_vec",
]
