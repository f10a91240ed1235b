"""The ``neutral`` mini-app core: configuration, the two parallelisation
schemes, the paper's test problems, and validation.

Public entry points:

* :class:`repro.core.simulation.Simulation` — facade: build from a
  :class:`repro.core.config.SimulationConfig` (or a problem factory from
  :mod:`repro.core.problems`, 2-D or 3-D) and run either scheme;
* :func:`repro.core.stepper.run_stepped` — the one census driver behind
  it: depth-first history tracking (:mod:`repro.core.over_particles`,
  paper §V-A, Listing 1) or breadth-first event passes
  (:mod:`repro.core.over_events`, §V-B, Listing 2), chosen per census
  step — two traversal orders of the one event pass in
  :mod:`repro.core.event_pass`;
* :mod:`repro.core.validation` — conservation checks.

Both schemes consume identical per-particle random streams and produce
identical physics; the schemes differ only in traversal order — exactly the
property the paper's performance study relies on.
"""

from repro.core.config import SimulationConfig, Scheme, Layout, SearchStrategy
from repro.core.counters import Counters, EventPassStats
from repro.core.problems import (
    stream_problem,
    scatter_problem,
    csp_problem,
    stream3_problem,
    scatter3_problem,
    csp3_problem,
    PROBLEM_FACTORIES,
    PAPER_MESH_SIZE,
    PAPER_TIMESTEP_S,
)
from repro.core.simulation import Simulation, TransportResult
from repro.core.stepper import run_stepped
from repro.core.validation import energy_balance_error, population_accounted

__all__ = [
    "SimulationConfig",
    "Scheme",
    "Layout",
    "SearchStrategy",
    "Counters",
    "EventPassStats",
    "stream_problem",
    "scatter_problem",
    "csp_problem",
    "stream3_problem",
    "scatter3_problem",
    "csp3_problem",
    "PROBLEM_FACTORIES",
    "PAPER_MESH_SIZE",
    "PAPER_TIMESTEP_S",
    "Simulation",
    "TransportResult",
    "run_stepped",
    "energy_balance_error",
    "population_accounted",
]
