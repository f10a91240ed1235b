"""The one event pass — paper Listings 1 and 2 share it, in any dimension.

Over Particles (§V-A) and Over Events (§V-B) differ only in *traversal
order*; what happens at a collision, a facet or census is the same
physics.  This module is the single implementation of that physics, for
2-D and 3-D runs alike: :meth:`WorkingSet.event_pass` advances every
active lane of a *lane working set* by exactly one event (``distances →
select_events → masks → handlers``), and the three handlers — with the
fission, Russian roulette and importance-map extensions (§IX) and the
bank of the children they spawn — exist here and nowhere else (the kernel
audit enforces that).

A :class:`WorkingSet` is a zero-copy window of the run arena
(``arena.view(lo, hi)``, or the arena itself when it covers it — a pass
writes the run arena in place) plus what a pass needs beside it: the
positional caches (``micro_s/c/f``, ``mat_idx``), a
:class:`~repro.rng.stream.VectorParticleRNG` over the lanes' streams,
the window's offset ``lo`` and an attribution *sink* with the
:class:`~repro.core.books.ReplicaBooks` verbs.  An Over Particles block
is a window of ``op_block_size`` lanes, an Over Events step one window
over the whole arena; ``active`` is ``alive & ~censused`` in both, so
dead lanes ride along inactive.  What else differs between the schemes
is handed in by the census stepper's one step method
(:mod:`repro.core.stepper`), never tested for here (the kernel audit
fails on a fixed-scheme comparison anywhere below the stepper):

1. ``refresh`` — the cross-section refresh and its search accounting
   (:func:`repro.core.over_particles.exact_refresh` /
   :class:`repro.core.over_events.HoistedRefresh`);
2. when, and in what order, the one child bank
   (:attr:`PassContext.bank`) joins the population
   (:meth:`PassContext.join_bank`);
3. ``book_pass`` — whether a pass books an ``EventPassStats`` row (and
   the hook its occupancy is handed to);
4. ``trace`` — the Over Particles event-trace hook of :mod:`repro.simexec`.

The number of dimensions is not tested for either — it is data (§IV-C:
the geometry changes the constants, not the character).  The arena names
its per-axis fields in tuples (``pos``, ``omega``, ``cells``) that the
handlers walk; the mesh carries one ``delta`` per axis; the run's row of
:data:`repro.kernels.dispatch.PASS_KERNELS` names the geometry and
direction-algebra kernels behind each role (:attr:`PassContext.run`), all
with one calling convention: flat per-axis arguments in, per-axis results
out.  The children the §IX extensions spawn are no exception: a bank
call copies its parents' rows per axis, so a child is born in any
dimension.

No per-particle object is ever constructed on this path: the children of
one bank call are one arena block, copied from their parents' rows
(``arena.subset(np.repeat(parents, counts))``) and born in one
vectorised step — ids, birth draws and cached bins for all of them at
once.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.counters import EventPassStats
from repro.kernels import EVENT_KERNELS, PASS_KERNELS
from repro.kernels.batch import EventKind, sample_mean_free_paths, split_counts
from repro.kernels.operands import INTS, ZERO
from repro.particles.source import EMISSION
from repro.physics.fission import sample_secondary_energy, secondary_id
from repro.physics.importance import clone_id
from repro.rng.stream import VectorParticleRNG

__all__ = ["PassContext", "WorkingSet"]


#: Per event kind, in :data:`EVENT_KERNELS` order: the kind, its kernel
#: role, the workspace name of its mask, and its code as a 0-d array — a
#: ufunc takes that for less per call than the int.
_KINDS = tuple((kind, role, "mask_" + kind.name, INTS[kind])
               for kind, role in EVENT_KERNELS.items())


def _unprofiled(kernel, nitems, *args):
    """``kernel`` with the ``dispatch.run`` calling convention, run directly."""
    return kernel(*args)


def _at(arrays, idx) -> list:
    """Gather lanes ``idx`` of every per-axis array."""
    return [a[idx] for a in arrays]


class PassContext:
    """Run-wide state shared by every lane working set of one run."""

    def __init__(self, config, mesh, books, dispatch, ws, provider):
        #: Supplies the uniform fields only (boundary, extensions);
        #: per-replica parameters come from the sink.
        self.config = config
        self.mesh = mesh
        self.books = books
        self.dispatch = dispatch
        self.ws = ws
        #: The cross-section backend.  All material data and lookups go
        #: through it; the pass never touches tables directly.
        self.provider = provider
        self.material_map = config.resolved_material_map()
        #: This run's kernel per role, ``run[role](nitems, *args)``: the
        #: table entry its dimension row names, dispatched (timed and
        #: profiled).  A row that leaves ``census`` out gets the shared
        #: census kernel straight from the table, unprofiled (see
        #: :data:`~repro.kernels.dispatch.PASS_KERNELS` for why).
        self.run = {
            role: partial(dispatch.run, name)
            for role, name in PASS_KERNELS[len(mesh.deltas)].items()
        }
        self.run.setdefault(
            "census", partial(_unprofiled, dispatch.table["census"])
        )
        #: THE child bank: one entry per bank call, in the order they
        #: were made — the children (an arena of the run arena's type)
        #: and their key columns, ``(parent run-arena row, parent RNG
        #: counter at the event, child index)`` per child.  Sorted by
        #: those keys, children come in the order a one-history-at-a-time
        #: traversal would have appended them in.
        self.bank: list[tuple] = []

    def join_bank(self, arena, ordered: bool = False) -> None:
        """Append the banked children to the run ``arena`` in one
        extension — in bank order, or ``ordered`` by their keys — each
        inheriting its parent's replica."""
        blocks, parent, counter, child = zip(*self.bank)
        self.bank = []
        children, *rest = blocks
        children.extend(*rest)
        parent = np.concatenate(parent)
        if ordered:
            order = np.lexsort(
                (np.concatenate(child), np.concatenate(counter), parent)
            )
            children, parent = children.subset(order), parent[order]
        arena.extend(children)
        self.books.inherit(parent)


class WorkingSet:
    """One lane working set — a window of the run arena — and the event
    pass over it.

    ``arena`` is the window (lane ``i`` is run-arena row ``lo + i``) and
    ``sink`` is charged every count, sum and tally flush.  The pass books
    its own event counts (``sink.record_pass``: collisions, facet
    crossings, census events; the per-lane ``coll_pp`` / ``facet_pp``
    are one contiguous add over the window's rows), so no handler charges
    them; each handler is handed its kind's lane count ``n`` from it.
    Every other verb is handed ``sink.replicas(idx)`` of the lanes it
    charges, asked once per lane set, or that set's ``sink.count``: a
    per-lane sink (the run's :class:`~repro.core.books.ReplicaBooks`)
    gathers their replica ids from its per-lane array, and therefore
    needs the window over the whole arena (``lo`` = 0); a whole-batch
    :class:`~repro.core.books.ReplicaSink` hands the lanes back and only
    reads their number.
    """

    def __init__(self, ctx: PassContext, arena, lo: int, sink, refresh,
                 trace=None):
        self.ctx = ctx
        self.arena = arena
        self.lo = lo
        self.sink = sink
        #: ``refresh(work, idx)`` re-reads the microscopic cross sections
        #: of lanes ``idx`` into ``micro_s/c/f`` and their cached bins,
        #: charging the lookups its own way.
        self.refresh = refresh
        #: ``trace(kind, run-arena rows, *cells)`` or ``None``.
        self.trace = trace
        #: The arena's per-axis field tuples (re-read when it grows: an
        #: append re-homes its fields).
        self.pos, self.omega, self.cells = arena.pos, arena.omega, arena.cells
        n = len(arena)
        self.micro_s = np.zeros(n)
        self.micro_c = np.zeros(n)
        self.micro_f = np.zeros(n)
        self.mat_idx = ctx.material_map[self.cells[::-1]]
        self.rng = VectorParticleRNG(
            sink.lane_seeds(), arena.particle_id, arena.rng_counter
        )
        self.handlers = {
            "collide": self.handle_collisions,
            "cross_facet": self.handle_facets,
            "census": self.handle_census,
        }

    def grow(self) -> np.ndarray:
        """Extend the caches over lanes appended to the arena (children
        joining the whole-arena window mid-step); returns the new lanes."""
        arena = self.arena
        self.pos, self.omega, self.cells = arena.pos, arena.omega, arena.cells
        old = self.mat_idx.size
        new = np.arange(old, len(arena))
        zeros = np.zeros(new.size)
        self.micro_s = np.concatenate([self.micro_s, zeros])
        self.micro_c = np.concatenate([self.micro_c, zeros])
        self.micro_f = np.concatenate([self.micro_f, zeros])
        self.mat_idx = np.concatenate([
            self.mat_idx,
            self.ctx.material_map[tuple(_at(self.cells[::-1], new))],
        ])
        # Carry the live counters over: the arena's counter field is only
        # synchronised by :meth:`sync_rng`.
        self.rng = VectorParticleRNG(
            self.sink.lane_seeds(),
            np.concatenate([self.rng.particle_ids, arena.particle_id[new]]),
            np.concatenate([self.rng.counters, arena.rng_counter[new]]),
        )
        return new

    def sync_rng(self) -> None:
        """Write the live RNG counters into the arena (in place — the
        fields are views of one shared buffer and are never rebound)."""
        self.arena.rng_counter[...] = self.rng.counters

    def active(self) -> np.ndarray:
        """``alive & ~censused`` — the lanes the next pass advances."""
        arena = self.arena
        active = self.ctx.ws.bool_("active", len(arena))
        np.logical_not(arena.censused, out=active)
        np.logical_and(arena.alive, active, out=active)
        return active

    def flush(self, idx: np.ndarray, reps, n, cells) -> None:
        """Tally flush of lanes ``idx`` (``reps`` their
        ``sink.replicas``, ``n`` their ``sink.count``) into ``cells``
        (gathered, one array per axis) — the atomic read-modify-write of
        §VI-A, batched per event kind (the separate tally loop of §VI-G).
        Only the lanes that carried energy need their deposit register
        zeroed: the rest hold zero."""
        deposit = self.arena.deposit_buffer
        hot = self.sink.flush(reps, n, cells, deposit[idx])
        if hot.size:
            deposit[idx[hot]] = 0.0

    # ------------------------------------------------------------------
    def event_pass(self, active: np.ndarray, book_pass=None) -> None:
        """Advance every ``active`` lane by exactly one event.

        The pass books its collisions, facet crossings and census
        events on the sink, and the per-lane work counts on the books,
        before the handlers run; given ``book_pass``, it also books an
        ``EventPassStats`` row of its occupancy and hands it to
        ``book_pass(stats)``.  The distance pipeline allocates no
        full-length temporaries: distances, macroscopic cross sections,
        event codes and masks live in the run's workspace buffers.
        """
        ctx = self.ctx
        a = self.arena
        ws = ctx.ws
        n = len(a)
        # foreach(particle): calculate_time_to_events() — from the cached
        # microscopics, with the exact arithmetic chain of
        # :func:`repro.xs.macroscopic.macroscopic_cross_section`.
        m = ctx.provider.macroscopic_into(
            ws, n, self.mat_idx, self.micro_s, self.micro_c, self.micro_f,
            a.local_density,
        )
        dist = ctx.run["distances"](
            n, ws, a.energy, a.mfp_to_collision, m.sigma_t,
            *self.pos, *self.omega, *self.cells, *ctx.mesh.deltas,
            a.dt_to_census,
        )
        event = ctx.dispatch.run(
            "select_events", n, dist.d_collision, dist.d_facet,
            dist.d_census,
            out=ws.i64("event", n), lowest=ws.f64("ev_lowest", n),
            scratch=ws.bool_("ev_scratch", n),
        )
        masks = {}
        n_event = {}
        for kind, _, name, code in _KINDS:
            mask = ws.bool_(name, n)
            np.equal(event, code, out=mask)
            np.logical_and(mask, active, out=mask)
            masks[kind] = mask
            n_event[kind] = int(np.count_nonzero(mask))
        stats = None
        if book_pass is not None:
            # Every active lane has exactly one event.
            stats = EventPassStats(
                sum(n_event.values()), n_event[EventKind.COLLISION],
                n_event[EventKind.FACET], n_event[EventKind.CENSUS],
            )
            book_pass(stats)
        counts = self.sink.record_pass(event, active, n_event, stats)
        rows = slice(self.lo, self.lo + n)
        coll, facet = ctx.books.coll_pp[rows], ctx.books.facet_pp[rows]
        np.add(coll, masks[EventKind.COLLISION], out=coll)
        np.add(facet, masks[EventKind.FACET], out=facet)
        # One handler per event kind, via the shared mapping.
        for kind, role, *_ in _KINDS:
            if n_event[kind]:
                self.handlers[role](
                    masks[kind], counts[kind], dist, m.sigma_a, m.sigma_f,
                    m.sigma_t,
                )

    # ------------------------------------------------------------------
    # Event handlers — one per entry in the shared EVENT_KERNELS mapping,
    # all with the same signature so the pass dispatches uniformly.

    def handle_collisions(self, cmask, n, dist, sigma_a, sigma_f,
                          sigma_t) -> None:
        """foreach(colliding_particle): handle_collision()"""
        ctx = self.ctx
        a = self.arena
        sink = self.sink
        config = ctx.config
        prov = ctx.provider
        c = np.nonzero(cmask)[0]
        rc = sink.replicas(c)
        d = dist.d_collision[c]
        sp = dist.speed[c]
        omega = self.omega
        # Fancy-index gathers are copies already; the kernel and the
        # extensions below read these, and none writes them.
        omega_c, sigma_t_c, mat_c = _at(omega, c), sigma_t[c], self.mat_idx[c]
        for p, o in zip(self.pos, omega_c):
            p[c] = p[c] + o * d
        a.dt_to_census[c] = np.maximum(ZERO, a.dt_to_census[c] - d / sp)
        weight_before = a.weight[c]
        counters_at_event = self.rng.counters[c]
        u_angle, u_turn, u_mfp = self.rng.next_uniform(c, 3)
        sink.charge("rng_draws", n, 3)
        e_new, w_new, *o_new, mfp_new, dep, term, below = ctx.run["collide"](
            c.size,
            a.energy[c],
            weight_before,
            *omega_c,
            sigma_a[c],
            sigma_t_c,
            prov.mat_a[mat_c],
            u_angle,
            u_turn,
            u_mfp,
            sink.ecut_at(rc),
            sink.wcut_at(rc),
            defer_weight_cutoff=config.use_russian_roulette,
        )
        a.energy[c] = e_new
        a.weight[c] = w_new
        for o, new in zip(omega, o_new):
            o[c] = new
        a.mfp_to_collision[c] = mfp_new
        a.deposit_buffer[c] += dep
        if self.trace is not None:
            self.trace(EventKind.COLLISION, c + self.lo, *_at(self.cells, c))

        # ---- fission banking (multiplying media extension) -------------
        fissile_here = prov.mat_fissile[mat_c] & (sigma_t_c > ZERO)
        # Their last read: released before the refresh, the handler's peak.
        del omega_c, sigma_t_c, mat_c
        if fissile_here.any():
            sel = c[fissile_here]
            u_fission = self.rng.next_uniform(sel)
            sink.cadd("rng_draws", sink.replicas(sel))
            counts = ctx.dispatch.run(
                "fission_bank",
                sel.size,
                weight_before[fissile_here],
                prov.mat_nu[self.mat_idx[sel]],
                sigma_f[sel],
                sigma_t[sel],
                u_fission,
            )
            born = counts > 0
            if born.any():
                self.bank_secondaries(
                    sel[born], counts[born],
                    counters_at_event[fissile_here][born],
                )

        dead = c[term]
        if dead.size:
            rdead = sink.replicas(dead)
            ndead = sink.count(rdead)
            self.flush(dead, rdead, ndead, _at(self.cells, dead))
            a.alive[dead] = False
            sink.charge("terminations", ndead)

        # ---- Russian roulette (extension) ------------------------------
        if config.use_russian_roulette and below.any():
            sel = c[below]
            rsel = sink.replicas(sel)
            u_roulette = self.rng.next_uniform(sel)
            sink.cadd("rng_draws", rsel)
            survive, restored = ctx.dispatch.run(
                "roulette", sel.size, a.weight[sel], u_roulette,
                sink.wcut_at(rsel),
            )
            # With per-lane cutoffs ``restored`` is an array aligned with
            # ``sel``; slice it down to the survivor lanes.
            restored_s = restored[survive] if np.ndim(restored) else restored
            killed = sel[~survive]
            if killed.size:
                rkilled = sink.replicas(killed)
                nkilled = sink.count(rkilled)
                sink.charge("roulette_kills", nkilled)
                sink.csum(
                    "roulette_loss_energy", rkilled,
                    a.weight[killed] * a.energy[killed],
                )
                a.weight[killed] = 0.0
                self.flush(killed, rkilled, nkilled, _at(self.cells, killed))
                a.alive[killed] = False
                sink.charge("terminations", nkilled)
            survivors = sel[survive]
            if survivors.size:
                rsurv = sink.replicas(survivors)
                sink.cadd("roulette_survivals", rsurv)
                sink.csum(
                    "roulette_gain_energy", rsurv,
                    (restored_s - a.weight[survivors]) * a.energy[survivors],
                )
                a.weight[survivors] = restored_s

        # The energy changed: refresh the cached microscopic values.
        surv = c[a.alive[c]]
        if surv.size:
            self.refresh(self, surv)

    def bank_children(self, parents, counts, counters_at_event, derive_id):
        """Bank ``counts[j]`` copies of each parent lane ``parents[j]``.

        The copies are one block of the arena's own type, so every
        per-axis field, the cached bins and an ensemble's ``replica_id``
        come along.  Each child gets ``derive_id(seed, parent id, parent
        counter, child index)`` and an unflushed, in-flight state: a
        child's identity derives from its parent's (id and event counter),
        so every traversal order banks bit-identical children.  Returns
        the block, the parent lane of each child and the children's RNG
        key word 0 (scalar, or one per child).
        """
        lanes = np.repeat(parents, counts)
        counter = np.repeat(counters_at_event, counts)
        first = np.cumsum(counts) - counts
        child = np.arange(lanes.size) - np.repeat(first, counts)
        seed = self.rng.seed
        seeds = seed[lanes] if np.ndim(seed) else seed
        block = self.arena.subset(lanes)
        block.particle_id[...] = derive_id(
            seeds, block.particle_id, counter, child
        )
        block.deposit_buffer[...] = 0.0
        block.alive[...] = True
        block.censused[...] = False
        self.ctx.bank.append((block, lanes + self.lo, counter, child))
        return block, lanes, seeds

    def bank_secondaries(self, parents, counts, counters_at_event) -> None:
        """Bank the fission secondaries of the given parent lanes (each
        with at least one).

        Birth consumes ``ndim + 1`` draws from each child's own stream, in
        one call: direction (one per axis but one), energy, first optical
        distance.
        """
        prov = self.ctx.provider
        sink = self.sink
        block, lanes, seeds = self.bank_children(
            parents, counts, counters_at_event, secondary_id
        )
        ndim = len(block.pos)
        rng = VectorParticleRNG(seeds, block.particle_id)
        u = rng.next_uniform(None, ndim + 1)
        for omega, value in zip(block.omega, EMISSION[ndim][1](*u[:-2])):
            omega[...] = value
        mat = self.mat_idx[lanes]
        block.energy[...] = sample_secondary_energy(
            u[-2], prov.mat_fission_energy_ev[mat]
        )
        block.mfp_to_collision[...] = sample_mean_free_paths(u[-1])
        block.weight[...] = 1.0
        block.rng_counter[...] = rng.counters
        # Birth initialisation of the cached bins (like the source
        # sampler's) — a history's first counted lookup then walks from
        # the right line.  Bins the backend does not seed start at 0.
        for name in ("scatter_bin", "capture_bin", "fission_bin"):
            getattr(block, name)[...] = 0
        for mi in range(prov.nmaterials):
            sel = mat == mi
            if not sel.any():
                continue
            for name, bins in prov.birth_bins_batch(
                mi, block.energy[sel]
            ).items():
                getattr(block, name)[sel] = bins
        rlanes = sink.replicas(lanes)
        nlanes = sink.count(rlanes)
        sink.cadd("fissions", sink.replicas(parents))
        sink.charge("secondaries_banked", nlanes)
        sink.charge("rng_draws", nlanes, ndim + 1)
        sink.csum(
            "fission_injected_energy", rlanes, block.energy, running=True
        )

    def handle_facets(self, fmask, n, dist, sigma_a, sigma_f,
                      sigma_t) -> None:
        """foreach(particle_encountering_facet): handle_facet()

        Every crossing lane reads its destination's density: the facet
        lanes' ``n`` less the reflected and the escaped ones (a lane is
        never both: the boundary reflects or lets go), counted from
        those few lanes."""
        ctx = self.ctx
        a = self.arena
        sink = self.sink
        imap = ctx.config.importance_map
        f = fmask.nonzero()[0]
        rf = sink.replicas(f)
        # Gathered once: the flush, kernel, trace and ratios read these.
        cells_f, omega_f = _at(self.cells, f), _at(self.omega, f)
        d, ax = dist.d_facet[f], dist.axis[f]
        for p, o, face, i in zip(self.pos, omega_f, dist.face, INTS):
            new = p[f]
            new += o * d
            # Snap onto the facet plane: rounding never strands a lane.
            hit = np.equal(ax, i).nonzero()[0]
            new[hit] = face[f[hit]]
            p[f] = new
        for field, spend, rate in ((a.dt_to_census, np.divide, dist.speed),
                                   (a.mfp_to_collision, np.multiply, sigma_t)):
            new = field[f]
            new -= spend(d, rate[f])
            field[f] = np.maximum(ZERO, new, out=new)
        del new, d  # each copy is released once scattered: a lower peak
        # Performed unconditionally at every facet.
        self.flush(f, rf, n, cells_f)
        *out, reflected, escaped = ctx.run["cross_facet"](
            f.size, *cells_f, *omega_f, ax, ctx.mesh, ctx.config.boundary)
        del omega_f, ax
        # The kernel moves no escaping lane and turns only reflected ones.
        cells_x = out[:len(cells_f)]
        for field, new in zip(self.cells, cells_x):
            field[f] = new
        turned = reflected.nonzero()[0]
        if turned.size:
            rows = f[turned]
            for field, new in zip(self.omega, out[len(cells_f):]):
                field[rows] = new[turned]
            nturned = sink.count(sink.replicas(rows))
            sink.charge("reflections", nturned)
            n = n - nturned
        del out
        if self.trace is not None:
            self.trace(EventKind.FACET, f + self.lo, *cells_f)
        gone = f[escaped]
        if gone.size:
            rgone = sink.replicas(gone)
            ngone = sink.count(rgone)
            sink.charge("escapes", ngone)
            sink.csum("escaped_energy", rgone,
                      a.weight[gone] * a.energy[gone])
            a.alive[gone] = False
            n = n - ngone
        crossed = f
        if gone.size or turned.size:
            crossing = ~(reflected | escaped)
            crossed = f[crossing]
            cells_x = [c[crossing] for c in cells_x]
            if imap is not None:
                cells_f = [c[crossing] for c in cells_f]
        # Load the destination cell's density — the random read — by the
        # flat index the material and importance maps read too.
        flat_x = ctx.mesh.flat_index(*cells_x)
        a.local_density[crossed] = ctx.mesh.density.take(flat_x)
        sink.charge("density_reads", n)
        if crossed.size and ctx.provider.nmaterials > 1:
            new_mat = ctx.material_map.take(flat_x)
            changed = crossed[new_mat != self.mat_idx[crossed]]
            self.mat_idx[crossed] = new_mat
            if changed.size:
                # Entered a different material: the cached microscopic
                # values are stale (multi-material extension).
                self.refresh(self, changed)

        # ---- importance splitting / roulette (VR extension) ------------
        if imap is None or not crossed.size:
            return
        ratios = (imap.take(flat_x)
                  / imap.take(ctx.mesh.flat_index(*cells_f)))
        changed_r = ratios != 1.0
        sel = crossed[changed_r]
        if not sel.size:
            return
        counters_before = self.rng.counters[sel]
        u_imp = self.rng.next_uniform(sel)
        sink.cadd("rng_draws", sink.replicas(sel))
        r = ratios[changed_r]

        # splits (entering higher importance)
        up = r > 1.0
        if up.any():
            n_after = split_counts(r[up], u_imp[up])
            many = n_after > 1
            if many.any():
                self.bank_clones(
                    sel[up][many], n_after[many], counters_before[up][many]
                )

        # roulette (entering lower importance)
        down = ~up
        if down.any():
            dsel = sel[down]
            survive = u_imp[down] < r[down]
            surv = dsel[survive]
            if surv.size:
                rsurv = sink.replicas(surv)
                sink.cadd("roulette_survivals", rsurv)
                boosted = a.weight[surv] / r[down][survive]
                sink.csum(
                    "roulette_gain_energy", rsurv,
                    (boosted - a.weight[surv]) * a.energy[surv],
                )
                a.weight[surv] = boosted
            dead_i = dsel[~survive]
            if dead_i.size:
                rdead = sink.replicas(dead_i)
                ndead = sink.count(rdead)
                sink.charge("roulette_kills", ndead)
                sink.csum(
                    "roulette_loss_energy", rdead,
                    a.weight[dead_i] * a.energy[dead_i],
                )
                a.weight[dead_i] = 0.0
                a.alive[dead_i] = False
                sink.charge("terminations", ndead)

    def bank_clones(self, parents, nsplit, counters_before) -> None:
        """Split each parent lane ``nsplit`` ways: bank ``nsplit - 1``
        clones of its current state and share the weight equally."""
        a = self.arena
        w_each = a.weight[parents] / nsplit
        block, lanes, _ = self.bank_children(
            parents, nsplit - 1, counters_before, clone_id
        )
        block.weight[...] = np.repeat(w_each, nsplit - 1)
        block.rng_counter[...] = 0
        self.sink.cadd("splits", self.sink.replicas(parents))
        self.sink.cadd("clones_banked", self.sink.replicas(lanes))
        a.weight[parents] = w_each

    def handle_census(self, zmask, n, dist, sigma_a, sigma_f,
                      sigma_t) -> None:
        """handle_census(): fly remaining lanes to the end of the timestep."""
        a = self.arena
        pos = self.pos
        z = np.nonzero(zmask)[0]
        cells_z = _at(self.cells, z)
        *new_pos, new_mfp = self.ctx.run["census"](
            z.size,
            *_at(pos, z), *_at(self.omega, z),
            a.mfp_to_collision[z], sigma_t[z], dist.d_census[z],
        )
        for p, new in zip(pos, new_pos):
            p[z] = new
        a.mfp_to_collision[z] = new_mfp
        a.dt_to_census[z] = 0.0
        self.flush(z, self.sink.replicas(z), n, cells_z)
        a.censused[z] = True
        if self.trace is not None:
            self.trace(EventKind.CENSUS, z + self.lo, *cells_z)
