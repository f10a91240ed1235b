"""repro — a Python reproduction of the *neutral* mini-app study.

Martineau, M., & McIntosh-Smith, S. (2017). *Exploring On-Node Parallelism
with Neutral, a Monte Carlo Neutral Particle Transport Mini-App.*
IEEE CLUSTER 2017. doi:10.1109/CLUSTER.2017.83

The package layers, bottom to top (see README.md / DESIGN.md):

* substrates — :mod:`repro.rng`, :mod:`repro.xs`, :mod:`repro.mesh`,
  :mod:`repro.particles`, :mod:`repro.physics`;
* the mini-app — :mod:`repro.core` (both parallelisation schemes, the
  three test problems, validation) and :mod:`repro.volume` (3-D);
* the simulated testbed — :mod:`repro.parallel`, :mod:`repro.machine`,
  :mod:`repro.perfmodel`, :mod:`repro.simexec`;
* comparators & analysis — :mod:`repro.comparisons`,
  :mod:`repro.analysis`, :mod:`repro.coupling`;
* harnesses — :mod:`repro.bench` (the figure suite's workloads and
  tables), :mod:`repro.cli`.  Timing is ``perf/``'s; its committed
  ``results/PERF_<n>.json`` is the one measurement the library reads
  back (:func:`repro.perfmodel.load_perf_workload`).

The conveniences most users want are importable from here::

    from repro import Simulation, Scheme, csp_problem

    result = Simulation(csp_problem(nx=128, nparticles=500)).run(
        Scheme.OVER_PARTICLES
    )
"""

from repro.core import (
    Scheme,
    Simulation,
    TransportResult,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.validation import energy_balance_error, population_accounted

__version__ = "1.0.0"

__all__ = [
    "Scheme",
    "Simulation",
    "TransportResult",
    "csp_problem",
    "scatter_problem",
    "stream_problem",
    "energy_balance_error",
    "population_accounted",
    "__version__",
]
