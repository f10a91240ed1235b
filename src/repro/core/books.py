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
  (:mod:`repro.core.event_pass`), 2-D and 3-D.  The window over the
  whole arena (Over Events) charges the books themselves, lane by lane;
  an Over Particles window never spans replicas — each replica's lanes
  are one contiguous range (:meth:`windows`) — so it charges that
  replica's whole-batch :class:`ReplicaSink` (``books.sinks[r]``), the
  same verbs without the split;
* child-replica inheritance and the lock-step growth, permutation and
  compaction of the per-lane arrays, and the replica-major sort of the
  arena with them;
* birth-draw charging, live totals for the probe and the scheduler;
* the fold of per-replica books into run totals (:meth:`fold`).

Every replica's books stay bit-identical to its standalone run because
each charge sees exactly that replica's subsequence, in storage order.

``R > 1`` attributes without a Python loop over replicas: the replica
is one more *axis*.  The replica tallies are the rows of one stacked
tally over ``(*shape, R)`` (replica slowest, so a lane's flat cell is
``rep·ncell + cell``) and a flush is one scatter-add over the whole
batch — ``np.add.at`` accumulates in lane order, so each replica's cells
see the operands of its standalone run in the same order.  Integer
counts and pass occupancy go into ``(R,)``-shaped ledgers, one
``bincount`` per charge, settled into each replica's
:class:`~repro.core.counters.Counters` (and each tally's ``flushes``)
when they are read: :meth:`live_totals` and :meth:`fold`.

``R = 1`` costs nothing: the sole replica's counters and tally *are* the
run totals (same objects, so the fold has nothing to sum) and every
attribution method hands the whole batch to the sole replica's sink
without touching ``rep``.  That size test on ``nreplicas`` lives in this
type only — the drivers never ask how many replicas they carry.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.counters import Counters, EventPassStats
from repro.mesh.tally import EnergyDepositionTally

__all__ = ["ReplicaBooks", "ReplicaSink"]


def _accumulate(total: float, values: np.ndarray, running: bool) -> float:
    """``total`` plus ``values``: one pairwise partial sum added to it or,
    ``running``, each value added in turn, as a scalar loop would
    (``np.cumsum`` accumulates sequentially)."""
    if running:
        return float(np.cumsum(np.concatenate(([total], values)))[-1])
    return total + float(values.sum())


def _by_replica(rep: np.ndarray, nreplicas: int):
    """``(order, cuts)``: the positions of ``rep`` grouped by replica —
    one stable argsort, so each replica's positions keep their order —
    and the ``np.split`` points between the groups (one ``bincount``)."""
    order = np.argsort(rep, kind="stable")
    cuts = np.cumsum(np.bincount(rep, minlength=nreplicas))[:-1]
    return order, cuts


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
        self.tally.flush_vec(*cells, deposit)
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
        Zero-argument callable building one empty tally over the run's
        mesh (2-D or 3-D) — the totals tally, whose shape the replicas'
        stacked tally takes too.
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
            #: The replica tallies as one field, replica slowest; each
            #: ``tallies[r]`` tallies into row ``r`` of it.
            self.stack = EnergyDepositionTally(
                *self.tally.shape, self.nreplicas
            )
            self.tallies = self.stack.rows()
        #: Integer charges per replica not yet settled into ``counters``
        #: (``tally_flushes`` settles each tally's ``flushes`` too), and
        #: one ``(4, R)`` occupancy row per Over Events pass not yet
        #: settled into each replica's ``oe_passes`` (:meth:`_settle`).
        self.ledger: dict[str, np.ndarray] = {}
        self.pass_ledger: list[np.ndarray] = []
        #: One whole-batch sink per replica (an Over Particles window
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
        self._charge(name, self.rep[idx], per)

    def _charge(self, name: str, rep: np.ndarray, per: int = 1) -> None:
        """Add ``per`` per lane of replica ids ``rep`` to ``name``'s ledger."""
        counts = np.bincount(rep, minlength=self.nreplicas)
        if per != 1:
            counts *= per
        held = self.ledger.get(name)
        if held is None:
            self.ledger[name] = counts
        else:
            held += counts

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
        order, cuts = _by_replica(self.rep[idx], self.nreplicas)
        for c, part in zip(self.counters, np.split(values[order], cuts)):
            if part.size:
                setattr(c, name, _accumulate(getattr(c, name), part, running))

    def flush(self, idx: np.ndarray, cells, deposit: np.ndarray) -> None:
        """Batched tally flush (the §VI-G separate tally loop) of lanes
        ``idx``, their ``deposit`` and ``cells`` gathered (one array per
        mesh axis) — one scatter-add into the stacked tally, the replica
        as its slowest axis, so each replica's cells see exactly the
        subsequence its standalone run would, in the same order."""
        if self.nreplicas == 1:
            return self.sinks[0].flush(idx, cells, deposit)
        rep = self.rep[idx]
        self.stack.flush_vec(*cells, rep, deposit)
        self._charge("tally_flushes", rep)

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
        keys = np.concatenate((
            rep[active], rep[cmask] + nrep, rep[fmask] + 2 * nrep,
            rep[zmask] + 3 * nrep,
        ))
        self.pass_ledger.append(
            np.bincount(keys, minlength=4 * nrep).reshape(4, nrep)
        )

    def charge_births(self, draws_per_history: int) -> None:
        """Charge every replica the RNG draws of its source emission."""
        births = np.bincount(self.rep, minlength=self.nreplicas)
        for c, n in zip(self.counters, births):
            c.rng_draws += draws_per_history * int(n)

    def live_totals(self) -> tuple[int, int, int]:
        """In-progress ``(events, xs_lookups, xs_probes)`` over all
        replicas, for the live probe."""
        self._settle()
        cs = self.counters
        return (
            sum(c.total_events for c in cs),
            sum(c.xs_lookups for c in cs),
            sum(c.xs_binary_probes + c.xs_linear_probes for c in cs),
        )

    # ------------------------------------------------------------------
    # Population changes (per-lane arrays move in lock-step with the arena)
    @contextmanager
    def windows(self, arena, lo: int, width, bank: list):
        """``(sink, start, stop)`` of each window over lanes ``[lo,
        len(arena))``, for the body of the ``with``: ``width`` lanes at a
        time within one replica, charged to its sink, or (``width`` None)
        one window over them all, charged to the books lane by lane.  With
        ``R > 1`` the lanes are stable-sorted replica-major for it (arena
        and books; each replica keeps its storage order) and put back
        after, the parent rows in ``bank`` with them."""
        hi = len(arena)
        if width is None:
            yield [(self, lo, hi)]
            return
        rep = self.rep[lo:]
        moved = self.nreplicas > 1 and bool((np.diff(rep) < 0).any())
        if moved:
            rows = np.arange(hi)
            rows[lo:] = lo + np.argsort(rep, kind="stable")
            arena.permute(rows)
            self.permute(rows)
        bounds = (lo + np.searchsorted(
            self.rep[lo:], np.arange(self.nreplicas + 1)
        )).tolist()
        yield [(sink, start, min(start + width, stop))
               for sink, first, stop in zip(self.sinks, bounds, bounds[1:])
               for start in range(first, stop, width)]
        if moved:
            arena.permute(np.argsort(rows))
            self.permute(np.argsort(rows))
            bank[:] = [(b, rows[p], c, k) for b, p, c, k in bank]

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
    def _settle(self) -> None:
        """Move the ledgers into each replica's counters, tally
        ``flushes`` and ``oe_passes``, and empty them."""
        for name, counts in self.ledger.items():
            for c, n in zip(self.counters, counts.tolist()):
                setattr(c, name, getattr(c, name) + n)
        flushes = self.ledger.get("tally_flushes")
        if flushes is not None:
            for t, n in zip(self.tallies, flushes.tolist()):
                t.flushes += n
        self.ledger = {}
        if self.pass_ledger:
            # (pass, replica, column); a replica with no active lanes in a
            # pass had already finished and books no row for it.
            rows = np.stack(self.pass_ledger).transpose(0, 2, 1)
            for r, c in enumerate(self.counters):
                c.oe_passes.extend(
                    EventPassStats(*row)
                    for row in rows[rows[:, r, 0] > 0, r].tolist()
                )
            self.pass_ledger = []

    def fold(self) -> Counters:
        """THE fold: settle the ledgers, split the per-lane work arrays
        over the replicas and sum the per-replica books into the run
        totals (counters and tally).  Returns the totals."""
        totals = self.totals
        if self.nreplicas > 1:
            self._settle()
            order, cuts = _by_replica(self.rep, self.nreplicas)
            coll = np.split(self.coll_pp[order], cuts)
            facet = np.split(self.facet_pp[order], cuts)
            for r, rc in enumerate(self.counters):
                rc.nparticles = int(coll[r].size)
                rc.collisions_per_particle = coll[r]
                rc.facets_per_particle = facet[r]
                for fname in Counters._SCALAR_FIELDS:
                    setattr(
                        totals, fname,
                        getattr(totals, fname) + getattr(rc, fname),
                    )
            # numpy reduces a non-inner axis element by element, replica
            # after replica: into a fresh totals tally (every fused caller
            # lets the books build it) that is bitwise the merge loop.
            stack = self.stack
            self.tally.deposition += stack.deposition.sum(axis=0)
            self.tally.flush_counts += stack.flush_counts.sum(axis=0)
            # Over Particles windows flush a row directly, not the stack.
            self.tally.flushes += sum(t.flushes for t in self.tallies)
        totals.nparticles = int(self.rep.size)
        totals.collisions_per_particle = self.coll_pp
        totals.facets_per_particle = self.facet_pp
        return totals
