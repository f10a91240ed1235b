"""Batch cross-section lookup kernels.

The energy-bin search is the hot inner operation of every cross-section
lookup (paper §VI-A).  This module is the single batch implementation:

* :func:`search_bins` — bisection for a whole batch via
  ``numpy.searchsorted`` (value-identical to the per-lane scalar
  searches, which the parity suite keeps as its reference in
  ``tests/oracle/storage.py``);
* :func:`union_bins` — the continuous-energy union grid's search: a
  log-hash bucket narrows each lane to a window of a few bins, which a
  fixed number of branch-free halving steps resolves.  Its contract is
  exactness: it equals :func:`search_bins` on every float64 input (0,
  negatives, subnormals, ±inf and NaN included), without a
  floating-point warning;
* :func:`interpolate_at_bins` — linear interpolation within known bins;
* :func:`xs_lookup` — the composite search+interpolate kernel the drivers
  dispatch;
* :func:`bisection_probes` / :func:`linear_walk_probes` — *exact* probe
  counts of the scalar strategies, computed batch-wise, so the blocked
  Over Particles driver reproduces the seed's per-strategy lookup
  statistics bit-for-bit (binary-search probe counts are data-dependent:
  the bisection path length varies with the target bin).

Tables are duck-typed (anything with ``energy``/``value`` arrays) to keep
this module import-cycle-free; in practice they are
:class:`repro.xs.tables.CrossSectionTable`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.operands import ONE_I, ZERO_I

__all__ = [
    "search_bins",
    "union_bins",
    "interpolate_at_bins",
    "xs_lookup",
    "ce_lookup",
    "clamped_mask",
    "bisection_probes",
    "linear_walk_probes",
]


def search_bins(table, e: np.ndarray) -> np.ndarray:
    """Find ``bin`` with ``energy[bin] <= e < energy[bin+1]`` per lane.

    ``numpy.searchsorted`` performs the same bisection as the scalar
    search; out-of-grid energies clamp to the first/last bin identically.
    """
    e = np.asarray(e, dtype=np.float64)
    bins = np.searchsorted(table.energy, e, side="right")
    bins -= ONE_I
    # ``np.clip``'s own definition, in place, without its Python wrapper.
    np.maximum(bins, ZERO_I, out=bins)
    return np.minimum(bins, table.energy.shape[0] - 2, out=bins)


def union_bins(grid, e: np.ndarray) -> np.ndarray:
    """:func:`search_bins` on a union grid, through its log hash.

    ``grid`` is duck-typed (in practice :class:`repro.xs.ce.UnionGrid`).
    The bucket of ``max(e, energy[0])`` in ``log E`` (NaN and ``+inf``
    fall in the top bucket) gives ``hash_lo``, a lower bound of the bin
    whose window is at most ``2**hash_steps`` bins wide.  Each halving
    step then moves ``lo`` up by ``step`` and back again, arithmetically,
    where the grid point there lies above ``e`` — NaN compares above
    nothing, so it climbs to the last bin as ``searchsorted`` sorts it.
    Probes past the end read the last point (``mode="clip"``); the result
    clamps to ``[0, n - 2]``.
    """
    e = np.asarray(e, dtype=np.float64)
    energy = grid.energy
    x = np.maximum(e, energy[0])
    np.log(x, out=x)
    x -= grid.hash_log_lo
    x *= grid.hash_scale
    np.fmin(x, grid.hash_lo.shape[0] - 1, out=x)
    lo = grid.hash_lo.take(x.astype(np.intp))
    above = np.empty(lo.shape, dtype=bool)
    back = np.empty_like(lo)
    step = 1 << grid.hash_steps
    while step > 1:
        step >>= 1
        lo += step
        np.greater(energy.take(lo, mode="clip"), e, out=above)
        lo -= np.multiply(above, step, out=back)
    return np.minimum(lo, energy.shape[0] - 2, out=lo)


def interpolate_at_bins(table, e: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Linearly interpolate table values at ``e`` within known ``bins``."""
    above = bins + ONE_I
    e0 = table.energy[bins]
    e1 = table.energy[above]
    v0 = table.value[bins]
    v1 = table.value[above]
    t = (e - e0) / (e1 - e0)
    return v0 + t * (v1 - v0)


def xs_lookup(table, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Composite lookup kernel: ``(bins, microscopic values)`` per lane."""
    bins = search_bins(table, e)
    return bins, interpolate_at_bins(table, e, bins)


def ce_lookup(
    grid, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Continuous-energy composite lookup on a unionized energy grid.

    ``grid`` is duck-typed (in practice :class:`repro.xs.ce.UnionGrid`):
    ``energy`` is the union grid searched once per lane (by
    :func:`union_bins`), ``ptr`` the precomputed ``(n_nuclides,
    n_union)`` double-index table whose row ``j`` maps a union bin to
    nuclide ``j``'s own bracketing bin, ``nuclides`` carry per-reaction
    value arrays on their own grids, ``fracs`` the atom fractions.  One
    search on the union grid replaces the per-nuclide searches (XSBench's
    unionized-grid mode); per nuclide the lookup is one pointer-row
    gather, gathers at ``nb`` and ``nb + 1``, and the same linear
    interpolation as :func:`interpolate_at_bins`, accumulated from zeros
    in nuclide order.  Each term is ``frac * (v0 + t * (v1 - v0))``
    evaluated in place; only the operands of commutative steps are
    swapped, so its bits are that expression's.

    Returns ``(union_bins, micro_s, micro_c, micro_f)`` — microscopic
    barns mixed over the composition; ``micro_f`` is zeros when no member
    nuclide carries fission data.
    """
    bins = union_bins(grid, e)
    n = e.shape[0]
    micro_s = np.zeros(n, dtype=np.float64)
    micro_c = np.zeros(n, dtype=np.float64)
    micro_f = np.zeros(n, dtype=np.float64)
    t = np.empty(n, dtype=np.float64)
    term = np.empty(n, dtype=np.float64)
    for j, nuc in enumerate(grid.nuclides):
        frac = grid.fracs[j]
        nb = grid.ptr[j].take(bins)
        nb1 = nb + 1
        e0 = nuc.energy.take(nb)
        np.subtract(e, e0, out=t)
        t /= np.subtract(nuc.energy.take(nb1), e0, out=term)
        for acc, values in (
            (micro_s, nuc.scatter), (micro_c, nuc.capture),
            (micro_f, nuc.fission),
        ):
            if values is None:
                continue
            v0 = values.take(nb)
            np.subtract(values.take(nb1), v0, out=term)
            term *= t
            term += v0
            term *= frac
            acc += term
    return bins, micro_s, micro_c, micro_f


def clamped_mask(table, e: np.ndarray) -> np.ndarray:
    """Lanes whose energy clamps outside the grid (zero search probes)."""
    energy = table.energy
    return (e <= energy[0]) | (e >= energy[-1])


def bisection_probes(table, e: np.ndarray) -> np.ndarray:
    """Exact per-lane probe counts of the scalar binary search.

    Simulates ``lo=0, hi=len-1; while hi-lo>1: probe mid`` for every lane
    at once.  The count is data-dependent for non-power-of-two tables
    (lanes resolve in different iteration counts), so a closed form would
    drift from the scalar accounting.  Clamped lanes probe zero times.
    """
    energy = table.energy
    n = e.shape[0]
    probes = np.zeros(n, dtype=np.int64)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, energy.shape[0] - 1, dtype=np.int64)
    interior = ~clamped_mask(table, e)
    # Collapse clamped lanes so they never iterate.
    hi[~interior] = 0
    active = (hi - lo) > 1
    while active.any():
        mid = (lo + hi) // 2
        probes[active] += 1
        below = energy[mid] <= e
        go_lo = active & below
        go_hi = active & ~below
        lo[go_lo] = mid[go_lo]
        hi[go_hi] = mid[go_hi]
        active = (hi - lo) > 1
    return probes


def linear_walk_probes(
    table, e: np.ndarray, cached_bins: np.ndarray, bins: np.ndarray
) -> np.ndarray:
    """Exact per-lane probe counts of the scalar cached linear search.

    The scalar walk starts from the clamped cached bin and steps one bin
    at a time to the bracketing bin, so its probe count is exactly the
    walk distance ``|target - clip(cached, 0, nbins-1)|``; clamped lanes
    probe zero times.  ``bins`` is the target from :func:`search_bins`.
    """
    nbins = table.energy.shape[0] - 1
    # ``np.clip``'s own definition, without its Python wrapper.
    start = np.maximum(cached_bins, ZERO_I)
    np.minimum(start, nbins - 1, out=start)
    probes = np.abs(np.subtract(bins, start, out=start), out=start)
    return np.where(clamped_mask(table, e), ZERO_I, probes)
