"""The Over Particles parallelisation scheme (paper §V-A, Listing 1).

Depth-first traversal: a worker follows particle histories from birth (or
census restore) to their next census or termination.  The census
stepper's one step method (:mod:`repro.core.stepper`) advances a *block*
of histories together — a zero-copy window of ``config.op_block_size``
lanes of the run arena, dead lanes riding along inactive — by the one
event pass (:meth:`repro.core.event_pass.WorkingSet.event_pass`), in
place, until no lane is active.  Block size 1 reproduces the classic
one-history-at-a-time traversal exactly; larger blocks change only the
*interleaving* of histories, not any history's draw sequence — the
counter-based RNG gives every history its own stream, so final particle
states are bit-identical for every block size (the parity suite asserts
this for block sizes 1, 7, 64 and N).

The event physics is not in this module: collisions, facets, census and
the §IX extensions are the shared handlers of :mod:`repro.core.event_pass`,
the very code an Over Events pass runs.  What is particular to the scheme
is here:

* *register caching* — the block's microscopic cross sections stay in
  window-local arrays for the whole history; the lookup tables are
  touched only when the energy changes (collisions) or the particle
  enters a different material;
* *exact search accounting* — :func:`exact_refresh` counts the
  cached-linear walk length or the bisection probes of each lane from the
  bins it carries, by the counting kernels in :mod:`repro.kernels.xs`,
  which the parity suite proves element-wise identical to the scalar
  searches;
* *scattered atomics* — tally flushes happen wherever each block's
  histories happen to be, spread randomly in time and space;
* *load imbalance* — histories have very different lengths; the
  per-history work is recorded so the scheduling substrate can replay it
  under different OpenMP-style schedules, and :func:`trace_hook` feeds
  :mod:`repro.simexec` the event sequence itself.

Secondaries (fission, importance clones) are banked during the sweep and
join after each round of windows, in the (parent, event, child) order
the depth-first traversal would have produced, for the next round.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SearchStrategy
from repro.core.event_pass import WorkingSet
from repro.kernels import xs as kernel_xs

__all__ = ["exact_refresh", "trace_hook"]


def exact_refresh(work: WorkingSet, idx: np.ndarray) -> None:
    """Refresh the microscopic cross sections of window lanes ``idx`` with
    exact per-strategy search accounting, walking/bisecting from each
    lane's carried bins.  The window belongs to one replica, so the counts
    go straight onto its counters."""
    arena = work.arena
    sink = work.sink
    counters = sink.counters
    cached_linear = sink.member.search is SearchStrategy.CACHED_LINEAR
    run = work.ctx.dispatch.run
    prov = work.ctx.provider
    for mi in range(prov.nmaterials):
        sel = idx[work.mat_idx[idx] == mi]
        if sel.size == 0:
            continue
        e = arena.energy[sel]
        if not prov.mat_fissile[mi]:
            work.micro_f[sel] = 0.0
        lk = prov.lookup(mi, e, run)
        for cache_field, grid, new_bins in lk.searches:
            bins = getattr(arena, cache_field)
            if cached_linear:
                counters.xs_linear_probes += int(
                    kernel_xs.linear_walk_probes(
                        grid, e, bins[sel], new_bins
                    ).sum()
                )
            else:
                counters.xs_binary_probes += int(
                    kernel_xs.bisection_probes(grid, e).sum()
                )
            bins[sel] = new_bins
        work.micro_s[sel] = lk.micro_s
        work.micro_c[sel] = lk.micro_c
        if lk.micro_f is not None:
            work.micro_f[sel] = lk.micro_f
        counters.xs_lookups += len(lk.searches) * sel.size


def trace_hook(trace: list, mesh):
    """The event-trace hook: appends ``(history index, EventKind int,
    flat cell)`` per event to ``trace``, for discrete-event replay by
    :mod:`repro.simexec`; the hook takes one cell array per mesh axis."""

    def hook(kind, rows, *cells) -> None:
        flat = mesh.flat_index(*cells)
        trace.extend(
            (row, int(kind), cell)
            for row, cell in zip(rows.tolist(), flat.tolist())
        )

    return hook

