"""Replica books — the one accounting path of every transport run.

A run advances ``R >= 1`` *replicas* (independent member configs sharing
one arena and one kernel dispatch per event); a plain
``Simulation.run`` is simply ``R = 1``.  :class:`ReplicaBooks` owns
everything indexed by replica — seeds, cutoffs, timestep, the
per-replica :class:`~repro.core.counters.Counters` and tallies — plus
the per-lane arrays that say which replica a history belongs to and how
much work it did.  It is the *only* implementation of

* count / sum / flush attribution (:meth:`cadd`, :meth:`csum`,
  :meth:`flush`, :meth:`record_pass`), used by the one event pass
  (:mod:`repro.core.event_pass`), 2-D and 3-D.  An Over Events
  pass charges the books themselves, lane by lane; an Over Particles
  block never spans replicas (:meth:`segments`), so it charges that
  replica's whole-batch :class:`ReplicaSink` (``books.sinks[r]``) — the
  same verbs without the split;
* child-replica inheritance and the lock-step growth, permutation and
  compaction of the per-lane arrays;
* birth-draw charging, live totals for the probe and the scheduler;
* the fold of per-replica books into run totals (:meth:`fold`).

Every replica's books stay bit-identical to its standalone run because
each charge sees exactly that replica's subsequence, in storage order.

``R = 1`` costs nothing: the sole replica's counters and tally *are* the
run totals (same objects, so the fold has nothing to sum) and every
attribution method hands the whole batch to the sole replica's sink
without touching ``rep``.  That size test on ``nreplicas`` lives in this
type only — the drivers never ask how many replicas they carry.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import Counters, EventPassStats

__all__ = ["ReplicaBooks", "ReplicaSink"]


def _accumulate(total: float, values: np.ndarray, running: bool) -> float:
    """``total`` plus ``values``: one pairwise partial sum added to it or,
    ``running``, each value added in turn, as a scalar loop would
    (``np.cumsum`` accumulates sequentially)."""
    if running:
        return float(np.cumsum(np.concatenate(([total], values)))[-1])
    return total + float(values.sum())


class ReplicaSink:
    """Whole-batch attribution to one replica's books.

    Every lane it is handed belongs to the replica, so a count is a
    size, a sum is one plain sum, a flush is one scatter-add, and the
    per-lane parameters are the member's scalars.  Same verbs as
    :class:`ReplicaBooks` (which delegates here when it carries a single
    replica), so the event handlers charge either without knowing which.
    """

    def __init__(self, member, counters: Counters, tally):
        self.member = member
        self.counters = counters
        self.tally = tally

    def lane_seeds(self) -> int:
        return self.member.seed

    def ecut_at(self, idx: np.ndarray) -> float:
        return self.member.energy_cutoff_ev

    def wcut_at(self, idx: np.ndarray) -> float:
        return self.member.weight_cutoff

    def cadd(self, name: str, idx: np.ndarray, per: int = 1) -> None:
        c = self.counters
        setattr(c, name, getattr(c, name) + per * int(idx.size))

    def csum(self, name: str, idx: np.ndarray, values: np.ndarray,
             running: bool = False) -> None:
        c = self.counters
        setattr(c, name, _accumulate(getattr(c, name), values, running))

    def flush(self, idx: np.ndarray, cells, deposit: np.ndarray) -> None:
        self.tally.flush_vec(*(c[idx] for c in cells), deposit[idx])
        self.counters.tally_flushes += idx.size


class ReplicaBooks:
    """Replica-indexed state and per-lane attribution for one run.

    Parameters
    ----------
    members:
        One config per replica (``seed``, ``energy_cutoff_ev``,
        ``weight_cutoff`` and ``dt`` are read per replica; everything
        else is uniform and the drivers read it from member 0).
    rep:
        Per-lane replica index of the starting population (copied).
    tally_factory:
        Zero-argument callable building one empty tally — the caller
        picks the tally type (2-D or 3-D).
    tally:
        An existing totals tally to accumulate into; fresh when omitted.
    """

    def __init__(self, members, rep, tally_factory, tally=None):
        self.members = tuple(members)
        self.nreplicas = len(self.members)
        if self.nreplicas < 1:
            raise ValueError("a run needs at least one replica")
        self.rep = np.asarray(rep, dtype=np.int64).copy()
        if self.rep.size and (
            self.rep.min() < 0 or self.rep.max() >= self.nreplicas
        ):
            raise ValueError("replica ids out of range for the member list")
        self.seeds = np.array(
            [m.seed & 0xFFFFFFFFFFFFFFFF for m in self.members],
            dtype=np.uint64,
        )
        self.ecut = np.array(
            [m.energy_cutoff_ev for m in self.members], dtype=np.float64
        )
        self.wcut = np.array(
            [m.weight_cutoff for m in self.members], dtype=np.float64
        )
        self.dt = np.array([m.dt for m in self.members], dtype=np.float64)
        #: Per-lane event counts (the load-imbalance distribution).
        self.coll_pp = np.zeros(self.rep.size, dtype=np.int64)
        self.facet_pp = np.zeros(self.rep.size, dtype=np.int64)
        #: Run totals.  With one replica these *are* that replica's books.
        self.totals = Counters(nparticles=self.rep.size)
        self.tally = tally if tally is not None else tally_factory()
        if self.nreplicas == 1:
            self.counters = [self.totals]
            self.tallies = [self.tally]
            # Every lane is replica 0: a zero-stride view stores nothing
            # (it only becomes a real array if children or sorts arrive).
            self.rep = np.broadcast_to(np.int64(0), self.rep.shape)
        else:
            self.counters = [Counters() for _ in self.members]
            self.tallies = [tally_factory() for _ in self.members]
        #: One whole-batch sink per replica (an Over Particles block
        #: charges ``sinks[r]``; with one replica every verb below does).
        self.sinks = [
            ReplicaSink(m, c, t)
            for m, c, t in zip(self.members, self.counters, self.tallies)
        ]

    # ------------------------------------------------------------------
    # Per-lane parameters
    def lane_seeds(self):
        """RNG key word 0 for every lane: scalar, or one per lane."""
        if self.nreplicas == 1:
            return self.sinks[0].lane_seeds()
        return self.seeds[self.rep]

    def ecut_at(self, idx: np.ndarray):
        """Energy cutoff, scalar or per lane (kernels broadcast either)."""
        if self.nreplicas == 1:
            return self.sinks[0].ecut_at(idx)
        return self.ecut[self.rep[idx]]

    def wcut_at(self, idx: np.ndarray):
        """Weight cutoff, scalar or per lane."""
        if self.nreplicas == 1:
            return self.sinks[0].wcut_at(idx)
        return self.wcut[self.rep[idx]]

    def rearm_census(self, dt_to_census: np.ndarray, alive: np.ndarray) -> None:
        """Re-arm the census clocks of surviving histories at a boundary,
        each with its own replica's timestep."""
        if self.nreplicas == 1:
            dt_to_census[alive] = self.members[0].dt
        else:
            dt_to_census[alive] = self.dt[self.rep][alive]

    # ------------------------------------------------------------------
    # Attribution
    def cadd(self, name: str, idx: np.ndarray, per: int = 1) -> None:
        """Add ``per`` per selected lane to an integer counter."""
        if self.nreplicas == 1:
            return self.sinks[0].cadd(name, idx, per)
        counts = np.bincount(self.rep[idx], minlength=self.nreplicas)
        for r in np.nonzero(counts)[0]:
            c = self.counters[r]
            setattr(c, name, getattr(c, name) + per * int(counts[r]))

    def csum(self, name: str, idx: np.ndarray, values: np.ndarray,
             running: bool = False) -> None:
        """Accumulate a float reduction over the selected lanes — one
        partial sum, or with ``running`` value by value onto the counter.

        Per-replica sums run over each replica's subsequence in storage
        order — the same operands in the same order as that replica's
        standalone run, hence bitwise-equal partial sums.
        """
        if self.nreplicas == 1:
            return self.sinks[0].csum(name, idx, values, running)
        rep = self.rep[idx]
        for r in np.unique(rep):
            c = self.counters[r]
            setattr(c, name,
                    _accumulate(getattr(c, name), values[rep == r], running))

    def flush(self, idx: np.ndarray, cells, deposit: np.ndarray) -> None:
        """Batched tally flush (the §VI-G separate tally loop) of the
        selected lanes' ``deposit`` into their ``cells`` (one index array
        per mesh axis), split by replica — each replica's scatter-add
        sees exactly the subsequence its standalone run would."""
        if self.nreplicas == 1:
            return self.sinks[0].flush(idx, cells, deposit)
        rep = self.rep[idx]
        for r in np.unique(rep):
            sel = idx[rep == r]
            self.tallies[r].flush_vec(*(c[sel] for c in cells), deposit[sel])
            self.counters[r].tally_flushes += sel.size

    def record_pass(self, stats: EventPassStats, active, cmask, fmask,
                    zmask) -> None:
        """Book one Over Events pass: the run-wide occupancy ``stats`` on
        the totals and each replica's share of the masks on its own books.
        A replica with no active lanes has already finished: its
        standalone run would not see the pass at all."""
        self.totals.oe_passes.append(stats)
        if self.nreplicas == 1:
            return
        rep = self.rep
        nrep = self.nreplicas
        act = np.bincount(rep[active], minlength=nrep)
        col = np.bincount(rep[cmask], minlength=nrep)
        fac = np.bincount(rep[fmask], minlength=nrep)
        cen = np.bincount(rep[zmask], minlength=nrep)
        for r in np.nonzero(act)[0]:
            self.counters[r].oe_passes.append(EventPassStats(
                n_active=int(act[r]),
                n_collision=int(col[r]),
                n_facet=int(fac[r]),
                n_census=int(cen[r]),
            ))

    def charge_births(self, draws_per_history: int) -> None:
        """Charge every replica the RNG draws of its source emission."""
        births = np.bincount(self.rep, minlength=self.nreplicas)
        for c, n in zip(self.counters, births):
            c.rng_draws += draws_per_history * int(n)

    def live_totals(self) -> tuple[int, int, int]:
        """In-progress ``(events, xs_lookups, xs_probes)`` over all
        replicas, for the live probe and the adaptive scheduler."""
        cs = self.counters
        return (
            sum(c.total_events for c in cs),
            sum(c.xs_lookups for c in cs),
            sum(c.xs_binary_probes + c.xs_linear_probes for c in cs),
        )

    # ------------------------------------------------------------------
    # Population changes (per-lane arrays move in lock-step with the arena)
    def segments(self, lo: int, hi: int):
        """``(replica, lane indices)`` for the lanes of ``[lo, hi)``,
        replica-major, each replica's lanes in storage order — the order
        of that replica's standalone arena, however children and
        boundary sorts interleaved the replicas."""
        rep = self.rep[lo:hi]
        return [
            (r, lo + np.nonzero(rep == r)[0]) for r in range(self.nreplicas)
        ]

    def inherit(self, parents: np.ndarray) -> None:
        """Append one lane per child; each inherits its parent's replica."""
        grow = np.zeros(len(parents), dtype=np.int64)
        self.append((self.rep[parents], grow, grow))

    def take(self, idx: np.ndarray):
        """The per-lane rows of ``idx`` (copies), for :meth:`append`."""
        return self.rep[idx], self.coll_pp[idx], self.facet_pp[idx]

    def permute(self, order: np.ndarray) -> None:
        """Reorder (or, with a subset, compact) the lanes like the arena."""
        self.rep, self.coll_pp, self.facet_pp = self.take(order)

    def append(self, rows) -> None:
        """Append ``(rep, coll_pp, facet_pp)`` rows (lanes parked by
        :meth:`take`, or newborn children)."""
        rep, coll, facet = rows
        self.rep = np.concatenate([self.rep, rep])
        self.coll_pp = np.concatenate([self.coll_pp, coll])
        self.facet_pp = np.concatenate([self.facet_pp, facet])

    # ------------------------------------------------------------------
    def fold(self) -> Counters:
        """THE fold: split the per-lane work arrays over the replicas and
        sum the per-replica books into the run totals (counters and
        tally).  Returns the totals."""
        totals = self.totals
        if self.nreplicas > 1:
            for r, (rc, rt) in enumerate(zip(self.counters, self.tallies)):
                sel = self.rep == r
                rc.nparticles = int(sel.sum())
                rc.collisions_per_particle = self.coll_pp[sel]
                rc.facets_per_particle = self.facet_pp[sel]
                self.tally.merge(rt)
                for fname in Counters._SCALAR_FIELDS:
                    setattr(
                        totals, fname,
                        getattr(totals, fname) + getattr(rc, fname),
                    )
        totals.nparticles = int(self.rep.size)
        totals.collisions_per_particle = self.coll_pp
        totals.facets_per_particle = self.facet_pp
        return totals
