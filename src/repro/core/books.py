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
  same verbs without the split.  A verb is handed the *replica ids* of
  the lanes it charges, which the handler asks :meth:`replicas` for once
  per lane set (a whole-batch sink hands the lanes back: it only reads
  their number), or their :meth:`count`, so a lane set charged to
  several counters is counted once (:meth:`charge`);
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
see the operands of its standalone run in the same order; a zero
deposit is counted as a flush but not scattered (see
:meth:`~repro.mesh.tally.EnergyDepositionTally.flush_vec`).  A pass is
booked once: :meth:`record_pass` makes one ``bincount`` of
``kind·R + replica`` over the window, whose rows are each replica's
collisions, facet crossings and census events — the pass's own counts,
which no handler charges — and, on an Over Events pass, its occupancy;
each handler is handed its kind's row.  Every other lane set is counted
with one ``bincount`` of its replica ids.  All of it goes into
``(R,)``-shaped ledgers, settled into each replica's
:class:`~repro.core.counters.Counters` (and each tally's ``flushes``)
when they are read: :meth:`live_totals` and :meth:`fold`.

``R = 1`` costs nothing: the sole replica's counters and tally *are* the
run totals (same objects, so the fold has nothing to sum) and every
attribution method hands the whole batch to the sole replica's sink
without touching ``rep`` — a pass's counts are the sizes of its masks.
That size test on ``nreplicas`` lives in this type only — the drivers
never ask how many replicas they carry.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.counters import Counters, EventPassStats
from repro.kernels.batch import EventKind
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


#: The counter each event kind's row of a pass's keyed count charges, in
#: :class:`~repro.kernels.batch.EventKind` order (the kinds are the codes
#: 0, 1, 2 of ``select_events``).
PASS_COUNTS = ("collisions", "facets", "census_events")


class ReplicaSink:
    """Whole-batch attribution to one replica's books.

    Every lane it is handed belongs to the replica, so a count is a
    size, a sum is one plain sum, a flush is one scatter-add, and the
    per-lane parameters are the member's scalars.  Same verbs as
    :class:`ReplicaBooks` (which delegates here when it carries a single
    replica), so the event handlers charge either without knowing which:
    what they hand the verbs, :meth:`replicas` of the charged lanes, is
    here the lanes themselves, of which only the number is read.
    """

    def __init__(self, member, counters: Counters, tally):
        self.member = member
        self.counters = counters
        self.tally = tally

    def replicas(self, idx: np.ndarray) -> np.ndarray:
        return idx

    def lane_seeds(self) -> int:
        return self.member.seed

    def ecut_at(self, reps: np.ndarray) -> float:
        return self.member.energy_cutoff_ev

    def wcut_at(self, reps: np.ndarray) -> float:
        return self.member.weight_cutoff

    def count(self, reps: np.ndarray) -> int:
        return int(reps.size)

    def charge(self, name: str, n: int, per: int = 1) -> None:
        c = self.counters
        setattr(c, name, getattr(c, name) + per * n)

    def cadd(self, name: str, reps: np.ndarray, per: int = 1) -> None:
        self.charge(name, int(reps.size), per)

    def csum(self, name: str, reps: np.ndarray, values: np.ndarray,
             running: bool = False) -> None:
        c = self.counters
        setattr(c, name, _accumulate(getattr(c, name), values, running))

    def flush(self, reps: np.ndarray, n: int, cells, deposit: np.ndarray):
        self.counters.tally_flushes += n
        return self.tally.flush_vec(*cells, deposit)

    def record_pass(self, event, active, n_event, stats) -> dict:
        c = self.counters
        c.collisions += n_event[EventKind.COLLISION]
        c.facets += n_event[EventKind.FACET]
        c.census_events += n_event[EventKind.CENSUS]
        if stats is not None:
            c.oe_passes.append(stats)
        return n_event


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
    """

    def __init__(self, members, rep, tally_factory):
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
        self.tally = tally_factory()
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
        #: (``tally_flushes`` settles each tally's ``flushes`` too): the
        #: ``(3, R)`` event counts of the passes (:data:`PASS_COUNTS`),
        #: every other charge by name, and one ``(3, R)`` row of event
        #: counts per booked pass not yet settled into each replica's
        #: ``oe_passes`` (:meth:`_settle`).
        self.events = np.zeros((len(PASS_COUNTS), self.nreplicas),
                               dtype=np.int64)
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
    def replicas(self, idx: np.ndarray) -> np.ndarray:
        """What the verbs below are handed for lanes ``idx``: their
        replica ids, gathered once per lane set (with one replica, the
        lanes themselves)."""
        if self.nreplicas == 1:
            return self.sinks[0].replicas(idx)
        return self.rep[idx]

    def lane_seeds(self):
        """RNG key word 0 for every lane: scalar, or one per lane."""
        if self.nreplicas == 1:
            return self.sinks[0].lane_seeds()
        return self.seeds[self.rep]

    def ecut_at(self, reps: np.ndarray):
        """Energy cutoff, scalar or per lane (kernels broadcast either)."""
        if self.nreplicas == 1:
            return self.sinks[0].ecut_at(reps)
        return self.ecut[reps]

    def wcut_at(self, reps: np.ndarray):
        """Weight cutoff, scalar or per lane."""
        if self.nreplicas == 1:
            return self.sinks[0].wcut_at(reps)
        return self.wcut[reps]

    def rearm_census(self, dt_to_census: np.ndarray, alive: np.ndarray) -> None:
        """Re-arm the census clocks of surviving histories at a boundary,
        each with its own replica's timestep."""
        if self.nreplicas == 1:
            dt_to_census[alive] = self.members[0].dt
        else:
            dt_to_census[alive] = self.dt[self.rep][alive]

    # ------------------------------------------------------------------
    # Attribution
    def count(self, reps: np.ndarray):
        """How many lanes of replica ids ``reps`` each replica has — what
        :meth:`charge` takes (with one replica, their number)."""
        if self.nreplicas == 1:
            return self.sinks[0].count(reps)
        return np.bincount(reps, minlength=self.nreplicas)

    def charge(self, name: str, n, per: int = 1) -> None:
        """Add ``per`` times the lane count ``n`` (from :meth:`count`, or
        the pass's own from :meth:`record_pass`) to an integer counter."""
        if self.nreplicas == 1:
            return self.sinks[0].charge(name, n, per)
        held = self.ledger.get(name)
        if held is None:
            held = self.ledger[name] = np.zeros(self.nreplicas,
                                                dtype=np.int64)
        held += n if per == 1 else per * n

    def cadd(self, name: str, reps: np.ndarray, per: int = 1) -> None:
        """Add ``per`` per lane of replica ids ``reps`` to an integer
        counter: :meth:`charge` of their :meth:`count`."""
        if self.nreplicas == 1:
            return self.sinks[0].cadd(name, reps, per)
        self.charge(name, self.count(reps), per)

    def csum(self, name: str, reps: np.ndarray, values: np.ndarray,
             running: bool = False) -> None:
        """Accumulate a float reduction over lanes of replica ids ``reps``
        — one partial sum, or with ``running`` value by value onto the
        counter.

        Per-replica sums run over each replica's subsequence in storage
        order — the same operands in the same order as that replica's
        standalone run, hence bitwise-equal partial sums.
        """
        if self.nreplicas == 1:
            return self.sinks[0].csum(name, reps, values, running)
        order, cuts = _by_replica(reps, self.nreplicas)
        for c, part in zip(self.counters, np.split(values[order], cuts)):
            if part.size:
                setattr(c, name, _accumulate(getattr(c, name), part, running))

    def flush(self, reps: np.ndarray, n, cells, deposit: np.ndarray):
        """Batched tally flush (the §VI-G separate tally loop) of lanes of
        replica ids ``reps`` (``n`` their :meth:`count`), their
        ``deposit`` and ``cells`` gathered (one array per mesh axis) —
        one scatter-add into the stacked tally, the replica as its
        slowest axis, so each replica's cells see exactly the subsequence
        its standalone run would, in the same order.  Returns the
        positions of the lanes whose deposit was added (the non-zero
        ones)."""
        if self.nreplicas == 1:
            return self.sinks[0].flush(reps, n, cells, deposit)
        self.charge("tally_flushes", n)
        return self.stack.flush_vec(*cells, reps, deposit)

    def record_pass(self, event, active, n_event, stats):
        """Book one pass over the whole arena: each replica's collisions,
        facet crossings and census events — the rows of one count of
        ``kind·R + replica`` over the ``active`` lanes of ``event`` (the
        pass's event codes) — and, given its run-wide occupancy
        ``stats``, an ``oe_passes`` row on the totals and on each replica
        with active lanes (a replica without any has already finished: its
        standalone run would not see the pass at all).  Returns the
        :meth:`count` of each event kind's lanes, indexed by
        :class:`~repro.kernels.batch.EventKind`, for its handler."""
        if self.nreplicas == 1:
            return self.sinks[0].record_pass(event, active, n_event, stats)
        nrep, nkind = self.nreplicas, len(PASS_COUNTS)
        # Each lane's kind, or ``nkind`` for an inactive lane (a fourth
        # row, dropped) — branch-free: no data-dependent mask write.
        keys = event - nkind
        keys *= active
        keys += nkind
        keys *= nrep
        keys += self.rep
        counts = np.bincount(keys, minlength=(nkind + 1) * nrep)
        counts = counts[:nkind * nrep].reshape(nkind, nrep)
        self.events += counts
        if stats is not None:
            self.totals.oe_passes.append(stats)
            self.pass_ledger.append(counts)
        return counts

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
        self.ledger.update(zip(PASS_COUNTS, self.events))
        for name, counts in self.ledger.items():
            for c, n in zip(self.counters, counts.tolist()):
                setattr(c, name, getattr(c, name) + n)
        flushes = self.ledger.get("tally_flushes")
        if flushes is not None:
            for t, n in zip(self.tallies, flushes.tolist()):
                t.flushes += n
        self.ledger = {}
        self.events = np.zeros_like(self.events)
        if self.pass_ledger:
            # (pass, replica, kind), led by the active lanes (every
            # active lane has one event); a replica with none in a pass
            # had already finished and books no row for it.
            kinds = np.stack(self.pass_ledger).transpose(0, 2, 1)
            rows = np.concatenate(
                (kinds.sum(axis=2, keepdims=True), kinds), axis=2
            )
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
            # after replica: into the books' fresh totals tally that is
            # bitwise the merge loop.
            stack = self.stack
            self.tally.deposition += stack.deposition.sum(axis=0)
            self.tally.flush_counts += stack.flush_counts.sum(axis=0)
            # Over Particles windows flush a row directly, not the stack.
            self.tally.flushes += sum(t.flushes for t in self.tallies)
        totals.nparticles = int(self.rep.size)
        totals.collisions_per_particle = self.coll_pp
        totals.facets_per_particle = self.facet_pp
        return totals
