"""The Over Particles parallelisation scheme (paper §V-A, Listing 1).

Depth-first traversal: a worker follows particle histories from birth (or
census restore) to their next census or termination.  The driver advances
a *block* of histories together — ``config.op_block_size`` lanes march
through their own event sequences in lock-step waves, one event per lane
per wave, with the per-event work vectorised across the block through the
shared kernel layer (:mod:`repro.kernels`).  Block size 1 reproduces the
classic one-history-at-a-time traversal exactly; larger blocks change
only the *interleaving* of histories, not any history's draw sequence —
the counter-based RNG gives every history its own stream, so final
particle states are bit-identical for every block size (the parity suite
asserts this for block sizes 1, 7, 64 and N).

The population lives in one :class:`~repro.particles.arena.ParticleArena`:
blocks gather their lanes from the arena's SoA fields and scatter final
state back with vector fancy-indexing; fission secondaries and VR clones
are banked as field records and appended to the arena in deterministic
(parent, event, child) order — no per-particle object is ever constructed
on this path (the kernel audit enforces that).

The defining performance properties the paper attributes to this scheme
remain visible in the code structure:

* *register caching* — the microscopic cross sections and flight state
  live in block-local arrays for the whole history; the lookup tables are
  touched only when the energy changes (collisions) or the particle
  enters a different material;
* *deep branching* — the event dispatch plus the facet logic nest several
  levels;
* *scattered atomics* — tally flushes happen wherever each history
  happens to be, spread randomly in time and space;
* *load imbalance* — histories have very different lengths; the
  per-history work is recorded so the scheduling substrate can replay it
  under different OpenMP-style schedules.

Beyond the paper's configuration, the driver supports its §IX extensions:
vacuum boundaries, Russian roulette, multi-material meshes, and fission.
Secondaries are banked during the sweep, sorted into the deterministic
(parent, event, child) order the depth-first traversal would have
produced, and their histories processed until the bank drains, within
the same timestep.

Cross-section search accounting is *exact*, not approximated: the
cached-linear walk length and the bisection probe count of each lane are
computed by the counting kernels in :mod:`repro.kernels.xs`, which the
parity suite proves element-wise identical to the scalar searches.
"""

from __future__ import annotations

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import SearchStrategy, SimulationConfig
from repro.kernels import EVENT_KERNELS, KernelDispatch, Workspace
from repro.kernels import xs as kernel_xs
from repro.kernels.batch import EventKind, split_counts
from repro.mesh.structured import StructuredMesh
from repro.particles.arena import ParticleArena, ParticleRecord
from repro.physics.fission import sample_secondary_energy, secondary_id
from repro.physics.importance import clone_id
from repro.rng.distributions import sample_isotropic_direction, sample_mean_free_paths
from repro.rng.stream import ParticleRNG, VectorParticleRNG


class _SweepContext:
    """Shared run state threaded through every block (one per run)."""

    def __init__(self, config: SimulationConfig, mesh: StructuredMesh,
                 books: ReplicaBooks, dispatch: KernelDispatch,
                 ws: Workspace, provider=None):
        self.mesh = mesh
        #: The run's replica books.  A block never spans replicas, so its
        #: whole attribution is :meth:`bind` — the block then charges the
        #: bound replica's config/counters/tally directly.
        self.books = books
        self.dispatch = dispatch
        self.ws = ws
        #: The cross-section backend.  All material data and lookups go
        #: through it; the driver never touches tables directly.
        self.provider = (
            provider if provider is not None else config.resolved_provider()
        )
        self.material_map = config.resolved_material_map()
        self.importance_map = config.importance_map
        self.mat_a = self.provider.mat_a
        self.mat_molar = self.provider.mat_molar
        self.mat_nu = self.provider.mat_nu
        self.mat_fissile = self.provider.mat_fissile
        self.bind(0)
        #: Banked offspring as ``(parent_index, parent_counter, child_index,
        #: ParticleRecord)``.  Sorting by the first three fields before the
        #: bank joins the arena reproduces exactly the order in which a
        #: one-history-at-a-time traversal would have appended them.
        self.bank: list[tuple[int, int, int, ParticleRecord]] = []
        #: Optional event trace: (history_index, EventKind int, flat cell).
        #: Consumed by :mod:`repro.simexec` for discrete-event replay.
        self.trace: list[tuple[int, int, int]] | None = None

    def bind(self, r: int) -> None:
        """Point the context at replica ``r``'s row of the books (O(1))."""
        self.config = self.books.members[r]
        self.counters = self.books.counters[r]
        self.tally = self.books.tallies[r]

    def material_at(self, cellx: int, celly: int) -> int:
        return int(self.material_map[celly, cellx])


def _spawn_secondary(
    ctx: _SweepContext,
    parent_id: int,
    parent_counter: int,
    child_index: int,
    x: float,
    y: float,
    cellx: int,
    celly: int,
    local_density: float,
    dt_remaining: float,
) -> ParticleRecord:
    """Bank-record for one fission secondary at the parent's position.

    The child's identity derives deterministically from the parent's state
    (id and event counter), so both schemes bank bit-identical children.
    Birth consumes three draws from the child's own stream: direction,
    energy, first optical distance.
    """
    cid = secondary_id(ctx.config.seed, parent_id, parent_counter, child_index)
    rng = ParticleRNG(ctx.config.seed, cid)
    u_dir = rng.next_uniform()
    u_energy = rng.next_uniform()
    u_mfp = rng.next_uniform()
    mi = ctx.material_at(cellx, celly)
    prov = ctx.provider
    ox, oy = sample_isotropic_direction(u_dir)
    energy = sample_secondary_energy(
        u_energy, float(prov.mat_fission_energy_ev[mi])
    )
    # Birth initialisation of the cached bins (like the source sampler's) —
    # the history's first counted lookup then walks from the right line.
    return ParticleRecord(
        x=x,
        y=y,
        omega_x=ox,
        omega_y=oy,
        energy=energy,
        weight=1.0,
        cellx=cellx,
        celly=celly,
        particle_id=cid,
        dt_to_census=dt_remaining,
        mfp_to_collision=sample_mean_free_paths(u_mfp),
        rng_counter=rng.counter,
        local_density=local_density,
        **prov.birth_bins(mi, energy),
    )


class _Block:
    """One block of alive histories advanced in lock-step waves.

    State is gathered from the arena's SoA fields into block-local arrays
    ("registers"), every wave advances each still-active lane by exactly
    one event through the shared kernel layer, and the final state is
    scattered back into the same arena slots.  Each lane draws from its
    own counter-based stream, so no lane's history depends on which other
    lanes share the block.
    """

    def __init__(self, ctx: _SweepContext, arena: ParticleArena,
                 idx: np.ndarray):
        self.ctx = ctx
        self.arena = arena
        self.idx = np.asarray(idx, dtype=np.int64)
        n = self.n = self.idx.size
        gather = self.idx
        self.x = arena.x[gather]
        self.y = arena.y[gather]
        self.omega_x = arena.omega_x[gather]
        self.omega_y = arena.omega_y[gather]
        self.energy = arena.energy[gather]
        self.weight = arena.weight[gather]
        self.cellx = arena.cellx[gather]
        self.celly = arena.celly[gather]
        self.dt = arena.dt_to_census[gather]
        self.mfp = arena.mfp_to_collision[gather]
        self.deposit = arena.deposit_buffer[gather]
        self.local_density = arena.local_density[gather]
        self.sbin = arena.scatter_bin[gather]
        self.cbin = arena.capture_bin[gather]
        self.fbin = arena.fission_bin[gather]
        self.pid = arena.particle_id[gather]
        self.rng = VectorParticleRNG(
            ctx.config.seed, self.pid, arena.rng_counter[gather]
        )
        self.alive = np.ones(n, dtype=bool)
        self.active = np.ones(n, dtype=bool)
        self.mat_idx = ctx.material_map[self.celly, self.cellx]
        self.micro_s = np.zeros(n)
        self.micro_c = np.zeros(n)
        self.micro_f = np.zeros(n)
        # History-start refresh of the cached microscopic values — counted,
        # walking/bisecting from each lane's carried bins.
        self.lookup_all(np.arange(n))

    # ------------------------------------------------------------------
    def lookup_all(self, lanes: np.ndarray) -> None:
        """Refresh microscopic cross sections for the given lanes with
        exact per-strategy search accounting."""
        ctx = self.ctx
        counters = ctx.counters
        strategy = ctx.config.search
        run = ctx.dispatch.run
        prov = ctx.provider
        caches = {
            "scatter_bin": self.sbin,
            "capture_bin": self.cbin,
            "fission_bin": self.fbin,
        }
        for mi in range(prov.nmaterials):
            sel = lanes[self.mat_idx[lanes] == mi]
            if sel.size == 0:
                continue
            e = self.energy[sel]
            if not prov.mat_fissile[mi]:
                self.micro_f[sel] = 0.0
            lk = prov.lookup(mi, e, run)
            for cache_field, grid, new_bins in lk.searches:
                bins_arr = caches[cache_field]
                if strategy is SearchStrategy.CACHED_LINEAR:
                    counters.xs_linear_probes += int(
                        kernel_xs.linear_walk_probes(
                            grid, e, bins_arr[sel], new_bins
                        ).sum()
                    )
                else:
                    counters.xs_binary_probes += int(
                        kernel_xs.bisection_probes(grid, e).sum()
                    )
                bins_arr[sel] = new_bins
            self.micro_s[sel] = lk.micro_s
            self.micro_c[sel] = lk.micro_c
            if lk.micro_f is not None:
                self.micro_f[sel] = lk.micro_f
            counters.xs_lookups += len(lk.searches) * sel.size

    def macroscopic(self):
        """(Σ_s, Σ_a, Σ_f, Σ_t) block arrays from the cached microscopics,
        with the exact arithmetic chain of the scalar helper — shared with
        the Over Events driver via the provider (part of the OP ≡ OE
        fingerprint contract)."""
        m = self.ctx.provider.macroscopic_into(
            self.ctx.ws, self.n, self.mat_idx,
            self.micro_s, self.micro_c, self.micro_f,
            self.local_density,
        )
        return m.sigma_s, m.sigma_a, m.sigma_f, m.sigma_t

    def trace_events(self, lanes: np.ndarray, kind: EventKind,
                     cells_x: np.ndarray, cells_y: np.ndarray) -> None:
        trace = self.ctx.trace
        if trace is None:
            return
        nx = self.ctx.mesh.nx
        for j, lane in enumerate(lanes):
            trace.append(
                (int(self.idx[lane]), int(kind),
                 int(cells_y[j]) * nx + int(cells_x[j]))
            )

    # ------------------------------------------------------------------
    def run(self) -> None:
        while self.active.any():
            self.wave()
        self.writeback()

    def wave(self) -> None:
        """Advance every active lane by exactly one event."""
        ctx = self.ctx
        dispatch = ctx.dispatch
        ws = ctx.ws
        n = self.n
        sigma_s, sigma_a, sigma_f, sigma_t = self.macroscopic()
        dist = dispatch.run(
            "distances",
            n,
            ws,
            self.energy,
            self.mfp,
            sigma_t,
            self.x,
            self.y,
            self.omega_x,
            self.omega_y,
            self.cellx,
            self.celly,
            ctx.mesh.dx,
            ctx.mesh.dy,
            self.dt,
        )
        event = dispatch.run(
            "select_events",
            n,
            dist.d_collision,
            dist.d_facet,
            dist.d_census,
            out=ws.i64("event", n),
            scratch=ws.bool_("ev_scratch", n),
        )
        handlers = {
            "collide": self.handle_collisions,
            "cross_facet": self.handle_facets,
            "census": self.handle_census,
        }
        masks = {
            kind: self.active & (event == int(kind)) for kind in EVENT_KERNELS
        }
        for kind, kernel_name in EVENT_KERNELS.items():
            if masks[kind].any():
                handlers[kernel_name](masks[kind], dist, sigma_a, sigma_f, sigma_t)

    # ------------------------------------------------------------------
    def handle_collisions(self, cmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        ctx = self.ctx
        config = ctx.config
        counters = ctx.counters
        c = np.nonzero(cmask)[0]
        d = dist.d_collision[c]
        sp = dist.speed[c]
        self.x[c] = self.x[c] + self.omega_x[c] * d
        self.y[c] = self.y[c] + self.omega_y[c] * d
        self.dt[c] = np.maximum(0.0, self.dt[c] - d / sp)
        weight_before = self.weight[c].copy()
        counters_at_event = self.rng.counters[c].copy()
        u_angle = self.rng.next_uniform(cmask)
        u_sense = self.rng.next_uniform(cmask)
        u_mfp = self.rng.next_uniform(cmask)
        counters.rng_draws += 3 * c.size
        a_ratio = ctx.mat_a[self.mat_idx[c]]
        (e_new, w_new, ox_new, oy_new, mfp_new, dep, term, below) = ctx.dispatch.run(
            "collide",
            c.size,
            self.energy[c],
            self.weight[c],
            self.omega_x[c],
            self.omega_y[c],
            sigma_a[c],
            sigma_t[c],
            a_ratio,
            u_angle,
            u_sense,
            u_mfp,
            config.energy_cutoff_ev,
            config.weight_cutoff,
            defer_weight_cutoff=config.use_russian_roulette,
        )
        self.energy[c] = e_new
        self.weight[c] = w_new
        self.omega_x[c] = ox_new
        self.omega_y[c] = oy_new
        self.mfp[c] = mfp_new
        self.deposit[c] += dep
        counters.collisions += c.size
        for lane in c:
            ctx.books.coll_pp[self.idx[lane]] += 1
        self.trace_events(c, EventKind.COLLISION, self.cellx[c], self.celly[c])

        # ---- fission banking (multiplying media extension) -------------
        fissile_here = ctx.mat_fissile[self.mat_idx[c]] & (sigma_t[c] > 0.0)
        if fissile_here.any():
            fis_mask = np.zeros(self.n, dtype=bool)
            fis_mask[c[fissile_here]] = True
            u_fission = self.rng.next_uniform(fis_mask)
            counters.rng_draws += int(fissile_here.sum())
            sel = c[fissile_here]
            counts = ctx.dispatch.run(
                "fission_bank",
                sel.size,
                weight_before[fissile_here],
                ctx.mat_nu[self.mat_idx[sel]],
                sigma_f[sel],
                sigma_t[sel],
                u_fission,
            )
            self.bank_secondaries(sel, counts, counters_at_event[fissile_here])

        dead = c[term]
        if dead.size:
            ctx.tally.flush_vec(
                self.cellx[dead], self.celly[dead], self.deposit[dead]
            )
            self.deposit[dead] = 0.0
            self.alive[dead] = False
            self.active[dead] = False
            counters.tally_flushes += dead.size
            counters.terminations += dead.size

        # ---- Russian roulette (extension) ------------------------------
        if config.use_russian_roulette and below.any():
            r_mask = np.zeros(self.n, dtype=bool)
            r_mask[c[below]] = True
            u_roulette = self.rng.next_uniform(r_mask)
            counters.rng_draws += int(below.sum())
            sel = c[below]
            w = self.weight[sel]
            survive, restored = ctx.dispatch.run(
                "roulette", sel.size, w, u_roulette, config.weight_cutoff
            )
            killed = sel[~survive]
            if killed.size:
                counters.roulette_kills += killed.size
                counters.roulette_loss_energy += float(
                    (self.weight[killed] * self.energy[killed]).sum()
                )
                self.weight[killed] = 0.0
                ctx.tally.flush_vec(
                    self.cellx[killed], self.celly[killed], self.deposit[killed]
                )
                self.deposit[killed] = 0.0
                self.alive[killed] = False
                self.active[killed] = False
                counters.tally_flushes += killed.size
                counters.terminations += killed.size
            survivors = sel[survive]
            if survivors.size:
                counters.roulette_survivals += survivors.size
                counters.roulette_gain_energy += float(
                    (
                        (restored - self.weight[survivors])
                        * self.energy[survivors]
                    ).sum()
                )
                self.weight[survivors] = restored

        # The energy changed: refresh the cached microscopic values.
        surv = c[self.alive[c]]
        if surv.size:
            self.lookup_all(surv)

    def bank_secondaries(self, sel, counts, counters_at_event) -> None:
        ctx = self.ctx
        c = ctx.counters
        for j, lane in enumerate(sel):
            n_children = int(counts[j])
            if n_children <= 0:
                continue
            c.fissions += 1
            gi = int(self.idx[lane])
            for k in range(n_children):
                child = _spawn_secondary(
                    ctx,
                    int(self.pid[lane]),
                    int(counters_at_event[j]),
                    k,
                    float(self.x[lane]),
                    float(self.y[lane]),
                    int(self.cellx[lane]),
                    int(self.celly[lane]),
                    float(self.local_density[lane]),
                    float(self.dt[lane]),
                )
                c_energy, c_weight = child.energy_weight
                c.fission_injected_energy += c_weight * c_energy
                c.secondaries_banked += 1
                c.rng_draws += 3
                ctx.bank.append((gi, int(counters_at_event[j]), k, child))

    def handle_facets(self, fmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        ctx = self.ctx
        config = ctx.config
        counters = ctx.counters
        f = np.nonzero(fmask)[0]
        old_cx_f = self.cellx[f].copy()
        old_cy_f = self.celly[f].copy()
        d = dist.d_facet[f]
        sp = dist.speed[f]
        st = sigma_t[f]
        self.x[f] = self.x[f] + self.omega_x[f] * d
        self.y[f] = self.y[f] + self.omega_y[f] * d
        self.dt[f] = np.maximum(0.0, self.dt[f] - d / sp)
        self.mfp[f] = np.maximum(0.0, self.mfp[f] - d * st)
        # Snap the hit coordinate exactly onto the facet plane so rounding
        # never strands a particle outside its cell.
        ax = dist.axis[f]
        hit_x = ax == 0
        fx = f[hit_x]
        self.x[fx] = np.where(
            self.omega_x[fx] > 0.0, dist.x_hi[fx], dist.x_lo[fx]
        )
        fy = f[~hit_x]
        self.y[fy] = np.where(
            self.omega_y[fy] > 0.0, dist.y_hi[fy], dist.y_lo[fy]
        )
        # Flush the deposition register onto the tally mesh — the atomic
        # read-modify-write of §VI-A, performed unconditionally.
        ctx.tally.flush_vec(self.cellx[f], self.celly[f], self.deposit[f])
        self.deposit[f] = 0.0
        counters.tally_flushes += f.size
        new_cx, new_cy, new_ox, new_oy, reflected, escaped = ctx.dispatch.run(
            "cross_facet",
            f.size,
            self.cellx[f], self.celly[f],
            self.omega_x[f], self.omega_y[f], ax, ctx.mesh, config.boundary,
        )
        counters.facets += f.size
        for lane in f:
            ctx.books.facet_pp[self.idx[lane]] += 1
        self.trace_events(f, EventKind.FACET, old_cx_f, old_cy_f)
        gone = f[escaped]
        if gone.size:
            counters.escapes += gone.size
            counters.escaped_energy += float(
                (self.weight[gone] * self.energy[gone]).sum()
            )
            self.alive[gone] = False
            self.active[gone] = False
        stay = ~escaped
        self.cellx[f[stay]] = new_cx[stay]
        self.celly[f[stay]] = new_cy[stay]
        self.omega_x[f[stay]] = new_ox[stay]
        self.omega_y[f[stay]] = new_oy[stay]
        crossed = f[stay & ~reflected]
        # Load the destination cell's density — the random read.
        self.local_density[crossed] = ctx.mesh.density_at_vec(
            self.cellx[crossed], self.celly[crossed]
        )
        counters.density_reads += crossed.size
        counters.reflections += int(reflected.sum())
        if crossed.size:
            new_mat = ctx.material_map[
                self.celly[crossed], self.cellx[crossed]
            ]
            changed = crossed[new_mat != self.mat_idx[crossed]]
            self.mat_idx[crossed] = new_mat
            if changed.size:
                # Entered a different material: the cached microscopic
                # values are stale (multi-material extension).
                self.lookup_all(changed)

        # ---- importance splitting / roulette (VR extension) ------------
        if ctx.importance_map is not None and crossed.size:
            imap = ctx.importance_map
            cross_in_f = stay & ~reflected
            ratios = (
                imap[self.celly[crossed], self.cellx[crossed]]
                / imap[old_cy_f[cross_in_f], old_cx_f[cross_in_f]]
            )
            changed_r = ratios != 1.0
            sel = crossed[changed_r]
            if sel.size:
                counters_before = self.rng.counters[sel].copy()
                imp_mask = np.zeros(self.n, dtype=bool)
                imp_mask[sel] = True
                u_imp = self.rng.next_uniform(imp_mask)
                counters.rng_draws += sel.size
                r = ratios[changed_r]

                # splits (entering higher importance)
                up = r > 1.0
                if up.any():
                    n_after = split_counts(r[up], u_imp[up])
                    for pi, nsplit, ctr in zip(
                        sel[up], n_after, counters_before[up]
                    ):
                        if nsplit <= 1:
                            continue
                        counters.splits += 1
                        gi = int(self.idx[pi])
                        w_each = float(self.weight[pi]) / int(nsplit)
                        for k in range(int(nsplit) - 1):
                            cid = clone_id(
                                config.seed, int(self.pid[pi]), int(ctr), k
                            )
                            clone = ParticleRecord(
                                x=float(self.x[pi]),
                                y=float(self.y[pi]),
                                omega_x=float(self.omega_x[pi]),
                                omega_y=float(self.omega_y[pi]),
                                energy=float(self.energy[pi]),
                                weight=w_each,
                                cellx=int(self.cellx[pi]),
                                celly=int(self.celly[pi]),
                                particle_id=cid,
                                dt_to_census=float(self.dt[pi]),
                                mfp_to_collision=float(self.mfp[pi]),
                                rng_counter=0,
                                local_density=float(self.local_density[pi]),
                                scatter_bin=int(self.sbin[pi]),
                                capture_bin=int(self.cbin[pi]),
                                fission_bin=int(self.fbin[pi]),
                            )
                            counters.clones_banked += 1
                            ctx.bank.append((gi, int(ctr), k, clone))
                        self.weight[pi] = w_each

                # roulette (entering lower importance)
                down = ~up
                if down.any():
                    dsel = sel[down]
                    survive = u_imp[down] < r[down]
                    surv = dsel[survive]
                    if surv.size:
                        counters.roulette_survivals += surv.size
                        boosted = self.weight[surv] / r[down][survive]
                        counters.roulette_gain_energy += float(
                            (
                                (boosted - self.weight[surv])
                                * self.energy[surv]
                            ).sum()
                        )
                        self.weight[surv] = boosted
                    dead_i = dsel[~survive]
                    if dead_i.size:
                        counters.roulette_kills += dead_i.size
                        counters.roulette_loss_energy += float(
                            (
                                self.weight[dead_i] * self.energy[dead_i]
                            ).sum()
                        )
                        self.weight[dead_i] = 0.0
                        self.alive[dead_i] = False
                        self.active[dead_i] = False
                        counters.terminations += dead_i.size

    def handle_census(self, zmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        ctx = self.ctx
        counters = ctx.counters
        z = np.nonzero(zmask)[0]
        new_x, new_y, new_mfp = ctx.dispatch.run(
            "census",
            z.size,
            self.x[z], self.y[z],
            self.omega_x[z], self.omega_y[z],
            self.mfp[z], sigma_t[z], dist.d_census[z],
        )
        self.x[z] = new_x
        self.y[z] = new_y
        self.mfp[z] = new_mfp
        self.dt[z] = 0.0
        ctx.tally.flush_vec(self.cellx[z], self.celly[z], self.deposit[z])
        self.deposit[z] = 0.0
        counters.tally_flushes += z.size
        counters.census_events += z.size
        self.trace_events(z, EventKind.CENSUS, self.cellx[z], self.celly[z])
        self.active[z] = False

    # ------------------------------------------------------------------
    def writeback(self) -> None:
        """Scatter final lane state back into the arena (vectorised)."""
        arena = self.arena
        idx = self.idx
        arena.x[idx] = self.x
        arena.y[idx] = self.y
        arena.omega_x[idx] = self.omega_x
        arena.omega_y[idx] = self.omega_y
        arena.energy[idx] = self.energy
        arena.weight[idx] = self.weight
        arena.cellx[idx] = self.cellx
        arena.celly[idx] = self.celly
        arena.dt_to_census[idx] = self.dt
        arena.mfp_to_collision[idx] = self.mfp
        arena.deposit_buffer[idx] = self.deposit
        arena.local_density[idx] = self.local_density
        arena.scatter_bin[idx] = self.sbin
        arena.capture_bin[idx] = self.cbin
        arena.fission_bin[idx] = self.fbin
        arena.alive[idx] = self.alive
        arena.rng_counter[idx] = self.rng.counters

