"""The Over Events parallelisation scheme (paper §V-B, Listing 2).

Breadth-first traversal: every pass advances *all* in-flight particles by
exactly one event — distances are computed for the whole population, the
next event of each particle is determined, and the collision / facet /
census handlers each process their subset.  That pass is
:meth:`repro.core.event_pass.WorkingSet.event_pass`, run by the census
stepper's one pass loop (:mod:`repro.core.stepper`) over one window that
covers the whole run arena, in place — the same code an Over Particles
block runs over its ``op_block_size``-lane window — until every history
is censused or dead, children joining the population after each pass in
the order they were banked.  The paper's observations map directly onto
this implementation:

* *tight vectorisable loops* — every kernel is a numpy array operation
  over the particle batch, housed in :mod:`repro.kernels` and invoked
  through the timed dispatch table;
* *no register caching* — cached state (microscopic cross sections, cached
  energy bins, local density, material index) lives in per-particle
  arrays and is streamed from memory every pass;
* *gather/scatter* — handlers visit the whole particle list and select
  their subset by mask; occupancy per pass is recorded in
  :class:`repro.core.counters.EventPassStats` so the machine model can
  price the wasted traffic;
* *batched atomics* — tally flushes happen together in one scatter-add per
  event kind per pass (``np.add.at`` on the flat cell index, which
  accumulates in lane order), the analogue of the separate tally loop the
  paper introduced to enable vectorisation (§VI-G).

What is particular to the scheme is here: the hook of a booked pass
(:func:`book_pass`; the pass books itself on the sink) and
:class:`HoistedRefresh`, whose cross-section
refreshes hoist the bin search out of the hot path: a particle whose
energy is bitwise-unchanged since its last search in the same material
reuses its cached bins, counted in ``Counters.xs_bin_reuses``.

The physics — including per-particle RNG streams and the deterministic
derivation of secondary identities — is not merely identical to the Over
Particles scheme's, it is the same handlers; the test suite checks final
states match bit-for-bit and tallies match to accumulation-order rounding.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import EventPassStats
from repro.core.event_pass import WorkingSet

__all__ = ["HoistedRefresh", "book_pass"]


class HoistedRefresh:
    """Cross-section refresh with the bin-reuse hoist (the vectorised
    bisection of §V-B), charged lane by lane through the sink.

    Remembers the energy (bitwise) and material at each lane's last bin
    search; NaN / -1 mean "never searched".  A lane unchanged since then
    skips the search entirely: its cached bins and interpolated values
    are still exact.  The lookup is still counted (the data was still
    needed); only the probes — estimated per search, not walked — are
    saved.
    """

    def __init__(self):
        self.last_e = np.zeros(0)
        self.last_mat = np.zeros(0, dtype=np.int64)

    def __call__(self, work: WorkingSet, idx: np.ndarray) -> None:
        if idx.size == 0:
            return
        arena = work.arena
        sink = work.sink
        grown = len(arena) - self.last_e.size
        if grown:
            self.last_e = np.concatenate([self.last_e, np.full(grown, np.nan)])
            self.last_mat = np.concatenate(
                [self.last_mat, np.full(grown, -1, dtype=np.int64)]
            )
        run = work.ctx.dispatch.run
        prov = work.ctx.provider
        for mi in range(prov.nmaterials):
            sel = idx[work.mat_idx[idx] == mi]
            if sel.size == 0:
                continue
            k = prov.lookups_per_refresh(mi)
            e = arena.energy[sel]
            reuse = (self.last_mat[sel] == mi) & (e == self.last_e[sel])
            fresh = sel[~reuse]
            if fresh.size:
                ef = arena.energy[fresh]
                lk = prov.lookup(mi, ef, run)
                work.micro_s[fresh] = lk.micro_s
                work.micro_c[fresh] = lk.micro_c
                if lk.micro_f is not None:
                    work.micro_f[fresh] = lk.micro_f
                for cache_field, _grid, bins in lk.searches:
                    getattr(arena, cache_field)[fresh] = bins
                sink.cadd(
                    "xs_binary_probes", sink.replicas(fresh),
                    k * prov.binary_probe_estimate(mi),
                )
                self.last_e[fresh] = ef
                self.last_mat[fresh] = mi
            if not prov.mat_fissile[mi]:
                work.micro_f[sel] = 0.0
            sink.cadd("xs_lookups", sink.replicas(sel), k)
            sink.cadd("xs_bin_reuses", sink.replicas(sel[reuse]), k)


def book_pass(pass_span, stats: EventPassStats) -> None:
    """The hook of a booked pass (the pass books ``stats`` on its sink):
    when telemetry is on, its occupancy as attributes of its span."""
    if pass_span is not None:
        pass_span.attrs.update(
            active=stats.n_active, collisions=stats.n_collision,
            facets=stats.n_facet, census=stats.n_census,
        )

