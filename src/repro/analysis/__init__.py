"""Analysis utilities for transport results.

Monte Carlo answers are estimates; production codes always report their
statistical quality.  This package adds the standard machinery on top of
the mini-app:

* :mod:`repro.analysis.statistics` — independent-batch statistics: run the
  same problem under independent random streams and report per-cell means,
  standard errors and the 1/√N convergence the central limit theorem
  promises (the paper's §III "core method relies heavily upon the central
  limit theorem");
* :mod:`repro.analysis.criticality` — multiplication estimates for the
  fission extension (secondaries per source particle and the implied
  per-generation k);
* :mod:`repro.analysis.viz` — dependency-free ASCII rendering of tally
  fields for terminals and logs (the Fig 2 pictures, in text).
"""

from repro.analysis.statistics import BatchStatistics, batch_statistics
from repro.analysis.criticality import MultiplicationEstimate, estimate_multiplication
from repro.analysis.viz import render_heatmap

__all__ = [
    "BatchStatistics",
    "batch_statistics",
    "MultiplicationEstimate",
    "estimate_multiplication",
    "render_heatmap",
]
