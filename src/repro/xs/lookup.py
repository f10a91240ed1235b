"""Energy-bin search strategies.

Finding the energy bin that brackets a particle's continuous energy is the
hot inner operation of every cross-section lookup.  The paper (§VI-A)
describes the optimisation the mini-app uses:

    "The index of the previous lookup is cached so that a fast linear
    search can be used to take advantage of cache locality, instead of
    performing a more expensive binary search at each step.  This
    particular optimisation improved the performance of the csp problem
    by 1.3x, but might suffer issues when larger jumps in energy are
    observed due to physical phenomena."

Both strategies run as batch kernels (:mod:`repro.kernels.xs`: one
search, plus the exact probe count of either strategy per lane);
:class:`LookupStats` accumulates the probe steps so the performance model
can price them (a binary-search probe is a dependent, cache-unfriendly
load; a linear-search probe walks adjacent table entries already in
cache).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LookupStats"]


@dataclass
class LookupStats:
    """Counts of search work, fed into the performance model.

    Attributes
    ----------
    lookups:
        Number of bin searches performed.
    binary_probes:
        Total probe steps taken by binary searches.
    linear_probes:
        Total probe steps taken by cached linear searches (0 when the cached
        bin is already correct).
    """

    lookups: int = 0
    binary_probes: int = 0
    linear_probes: int = 0

    def merge(self, other: "LookupStats") -> None:
        """Accumulate another stats object into this one."""
        self.lookups += other.lookups
        self.binary_probes += other.binary_probes
        self.linear_probes += other.linear_probes

    def probes_per_lookup(self) -> float:
        """Mean probes per lookup over both strategies."""
        if self.lookups == 0:
            return 0.0
        return (self.binary_probes + self.linear_probes) / self.lookups
