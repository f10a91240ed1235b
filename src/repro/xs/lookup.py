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

Both strategies are implemented here; :class:`LookupStats` counts the probe
steps each performs so the performance model can price them (a binary-search
probe is a dependent, cache-unfriendly load; a linear-search probe walks
adjacent table entries already in cache).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xs.tables import CrossSectionTable

__all__ = ["LookupStats", "binary_search_bin", "cached_linear_search_bin"]


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


def _clamp_energy_index(table: CrossSectionTable, e: float) -> int | None:
    """Handle energies outside the grid; return the clamped bin or None."""
    if e <= table.energy[0]:
        return 0
    if e >= table.energy[-1]:
        return len(table) - 2
    return None


def binary_search_bin(
    table: CrossSectionTable, e: float, stats: LookupStats | None = None
) -> int:
    """Find ``bin`` with ``energy[bin] <= e < energy[bin+1]`` by bisection.

    Energies outside the grid clamp to the first/last bin.  Probe count is
    recorded in ``stats`` when given.
    """
    clamped = _clamp_energy_index(table, e)
    if stats is not None:
        stats.lookups += 1
    if clamped is not None:
        return clamped

    lo = 0
    hi = len(table) - 1
    probes = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if table.energy[mid] <= e:
            lo = mid
        else:
            hi = mid
    if stats is not None:
        stats.binary_probes += probes
    return lo


def cached_linear_search_bin(
    table: CrossSectionTable,
    e: float,
    cached_bin: int,
    stats: LookupStats | None = None,
) -> int:
    """Find the bracketing bin by walking linearly from ``cached_bin``.

    This is the paper's cache-locality optimisation: after a collision the
    particle's energy moves only a few bins, so the walk is short and stays
    within lines already resident in cache.  Falls back to correct behaviour
    for arbitrary jumps (it simply walks further).
    """
    clamped = _clamp_energy_index(table, e)
    if stats is not None:
        stats.lookups += 1
    if clamped is not None:
        return clamped

    nbins = len(table) - 1
    b = min(max(cached_bin, 0), nbins - 1)
    probes = 0
    while table.energy[b + 1] <= e:
        b += 1
        probes += 1
    while table.energy[b] > e:
        b -= 1
        probes += 1
    if stats is not None:
        stats.linear_probes += probes
    return b
