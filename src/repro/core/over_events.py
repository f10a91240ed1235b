"""The Over Events parallelisation scheme (paper §V-B, Listing 2).

Breadth-first traversal: every pass advances *all* in-flight particles by
exactly one event — distances are computed for the whole population, the
next event of each particle is determined, and the collision / facet /
census kernels each process their subset.  The paper's observations map
directly onto this implementation:

* *tight vectorisable loops* — every kernel is a numpy array operation
  over the particle batch, now housed in :mod:`repro.kernels` and invoked
  through the timed dispatch table;
* *no register caching* — cached state (microscopic cross sections, cached
  energy bins, local density, material index) must live in per-particle
  arrays and is streamed from memory every pass;
* *gather/scatter* — kernels visit the whole particle list and select
  their subset by mask; occupancy per pass is recorded in
  :class:`repro.core.counters.EventPassStats` so the machine model can
  price the wasted traffic;
* *batched atomics* — tally flushes happen together in one scatter-add per
  pass (``np.add.at``), the analogue of the separate tally loop the paper
  introduced to enable vectorisation (§VI-G).

The pass loop allocates no per-pass temporaries: every intermediate array
(distance budgets, macroscopic cross sections, event masks) lives in a
:class:`repro.kernels.Workspace` buffer that is sized once and reused
until the population grows.  Cross-section refreshes hoist the bin search
out of the hot path — a particle whose energy is bitwise-unchanged since
its last search in the same material reuses its cached bins, counted in
``Counters.xs_bin_reuses``.

The population lives in one :class:`~repro.particles.arena.ParticleArena`
that every kernel views in place.  The driver also supports the §IX
extensions (vacuum boundaries, Russian roulette, multi-material meshes,
fission).  Fission secondaries are banked as field records and appended
to the arena between passes, advancing with the population — no
per-particle object is ever constructed (the kernel audit enforces that).

The physics — including per-particle RNG streams and the deterministic
derivation of secondary identities — is identical to the Over Particles
scheme; the test suite checks final states match bit-for-bit and tallies
match to accumulation-order rounding.
"""

from __future__ import annotations

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import SimulationConfig
from repro.core.counters import EventPassStats
from repro.kernels import EVENT_KERNELS, KernelDispatch, Workspace
from repro.kernels.batch import EventKind, split_counts
from repro.mesh.structured import StructuredMesh
from repro.particles.arena import ParticleArena, ParticleRecord
from repro.physics.fission import sample_secondary_energy, secondary_id
from repro.physics.importance import clone_id
from repro.rng.distributions import sample_isotropic_direction, sample_mean_free_paths
from repro.rng.stream import ParticleRNG, VectorParticleRNG


class _EventContext:
    """Run-wide state for the Over Events driver."""

    def __init__(self, config: SimulationConfig, mesh: StructuredMesh,
                 books: ReplicaBooks, store: ParticleArena,
                 dispatch: KernelDispatch, ws: Workspace, provider=None):
        self.config = config
        self.mesh = mesh
        #: Every count, sum and tally flush is attributed through the
        #: run's replica books; ``config`` supplies the uniform fields
        #: only (mesh, materials, scheme options).  The kernel dispatches
        #: stay fused across all replicas.
        self.books = books
        self.store = store
        self.dispatch = dispatch
        self.ws = ws
        #: The cross-section backend.  All material data and lookups go
        #: through it; the driver never touches tables directly.
        self.provider = (
            provider if provider is not None else config.resolved_provider()
        )
        self.material_map = config.resolved_material_map()
        self.mat_a = self.provider.mat_a
        self.mat_molar = self.provider.mat_molar
        self.mat_nu = self.provider.mat_nu
        self.mat_fissile = self.provider.mat_fissile
        n = len(store)
        self.micro_s = np.zeros(n, dtype=np.float64)
        self.micro_c = np.zeros(n, dtype=np.float64)
        self.micro_f = np.zeros(n, dtype=np.float64)
        self.mat_idx = self.material_map[store.celly, store.cellx]
        self.rng = VectorParticleRNG(
            books.lane_seeds(), store.particle_id, store.rng_counter
        )
        self.pending_children: list[ParticleRecord] = []
        #: Parent lane of each pending child (it inherits that replica).
        self.pending_parents: list[int] = []
        # Bin-reuse hoist state: the energy (bitwise) and material at each
        # particle's last bin search.  NaN / -1 mean "never searched".
        self.last_e = np.full(n, np.nan)
        self.last_mat = np.full(n, -1, dtype=np.int64)

    def flush(self, idx: np.ndarray) -> None:
        """Batched tally flush of the selected lanes' deposit registers
        (the §VI-G separate tally loop)."""
        store = self.store
        self.books.flush(
            idx, (store.cellx, store.celly), store.deposit_buffer
        )

    # ------------------------------------------------------------------
    def refresh_micro(self, idx: np.ndarray) -> None:
        """Re-gather microscopic cross sections for the given particles,
        grouped by material (the vectorised bisection of §V-B).

        Particles whose energy is bitwise-unchanged since their last
        search in the same material skip the search entirely: the cached
        bins and interpolated values are still exact.  The lookup is still
        counted (the data was still needed); only the probes are saved.
        """
        if idx.size == 0:
            return
        store = self.store
        run = self.dispatch.run
        prov = self.provider
        for mi in range(prov.nmaterials):
            sel = idx[self.mat_idx[idx] == mi]
            if sel.size == 0:
                continue
            k = prov.lookups_per_refresh(mi)
            e = store.energy[sel]
            reuse = (self.last_mat[sel] == mi) & (e == self.last_e[sel])
            fresh = sel[~reuse]
            if fresh.size:
                ef = store.energy[fresh]
                lk = prov.lookup(mi, ef, run)
                self.micro_s[fresh] = lk.micro_s
                self.micro_c[fresh] = lk.micro_c
                if lk.micro_f is not None:
                    self.micro_f[fresh] = lk.micro_f
                for cache_field, _grid, bins in lk.searches:
                    getattr(store, cache_field)[fresh] = bins
                self.books.cadd(
                    "xs_binary_probes", fresh,
                    k * prov.binary_probe_estimate(mi),
                )
                self.last_e[fresh] = ef
                self.last_mat[fresh] = mi
            if not prov.mat_fissile[mi]:
                self.micro_f[sel] = 0.0
            self.books.cadd("xs_lookups", sel, k)
            self.books.cadd("xs_bin_reuses", sel[reuse], k)

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Σ_s, Σ_a, Σ_f, Σ_t) arrays from the cached microscopic values.

        The arithmetic chain is exactly
        :func:`repro.xs.macroscopic.macroscopic_cross_section`, computed
        into workspace buffers so the pass loop allocates nothing — shared
        with the Over Particles driver via the provider (part of the
        OP ≡ OE fingerprint contract).
        """
        n = len(self.store)
        m = self.provider.macroscopic_into(
            self.ws, n, self.mat_idx,
            self.micro_s, self.micro_c, self.micro_f,
            self.store.local_density,
        )
        return m.sigma_s, m.sigma_a, m.sigma_f, m.sigma_t

    # ------------------------------------------------------------------
    def bank_secondaries(
        self,
        parents: np.ndarray,
        counts: np.ndarray,
        counters_at_event: np.ndarray,
        weights_before: np.ndarray,
    ) -> None:
        """Create fission secondaries for the given parent indices.

        Identity and birth draws are derived exactly as in the Over
        Particles driver, so the two schemes bank bit-identical children.
        """
        store = self.store
        for j, pi in enumerate(parents):
            n_children = int(counts[j])
            if n_children <= 0:
                continue
            c = self.books.counters_for(pi)
            seed_pi = self.books.seed_for(pi)
            c.fissions += 1
            for k in range(n_children):
                cid = secondary_id(
                    seed_pi,
                    int(store.particle_id[pi]),
                    int(counters_at_event[j]),
                    k,
                )
                rng = ParticleRNG(seed_pi, cid)
                u_dir = rng.next_uniform()
                u_energy = rng.next_uniform()
                u_mfp = rng.next_uniform()
                fission_energy = float(
                    self.provider.mat_fission_energy_ev[int(self.mat_idx[pi])]
                )
                ox, oy = sample_isotropic_direction(u_dir)
                energy = sample_secondary_energy(u_energy, fission_energy)
                child = ParticleRecord(
                    x=float(store.x[pi]),
                    y=float(store.y[pi]),
                    omega_x=ox,
                    omega_y=oy,
                    energy=energy,
                    weight=1.0,
                    cellx=int(store.cellx[pi]),
                    celly=int(store.celly[pi]),
                    particle_id=cid,
                    dt_to_census=float(store.dt_to_census[pi]),
                    mfp_to_collision=sample_mean_free_paths(u_mfp),
                    rng_counter=rng.counter,
                    local_density=float(store.local_density[pi]),
                )
                c.fission_injected_energy += 1.0 * energy
                c.secondaries_banked += 1
                c.rng_draws += 3
                self.pending_children.append(child)
                self.pending_parents.append(pi)

    def absorb_children(self) -> None:
        """Append banked secondaries to the population between passes."""
        if not self.pending_children:
            return
        chunk = type(self.store).from_records(self.pending_children)
        n_new = len(chunk)
        self.store.extend(chunk)
        self.micro_s = np.concatenate([self.micro_s, np.zeros(n_new)])
        self.micro_c = np.concatenate([self.micro_c, np.zeros(n_new)])
        self.micro_f = np.concatenate([self.micro_f, np.zeros(n_new)])
        self.mat_idx = np.concatenate(
            [self.mat_idx, self.material_map[chunk.celly, chunk.cellx]]
        )
        self.last_e = np.concatenate([self.last_e, np.full(n_new, np.nan)])
        self.last_mat = np.concatenate(
            [self.last_mat, np.full(n_new, -1, dtype=np.int64)]
        )
        self.books.inherit(np.asarray(self.pending_parents, dtype=np.int64))
        self.pending_parents = []
        # Extend the RNG with the live counters (the store's counter field
        # is only synchronised at the end of the step).
        self.rng = VectorParticleRNG(
            self.books.lane_seeds(),
            np.concatenate([self.rng.particle_ids, chunk.particle_id]),
            np.concatenate([self.rng.counters, chunk.rng_counter]),
        )
        new_idx = np.arange(len(self.store) - n_new, len(self.store))
        self.refresh_micro(new_idx)
        self.pending_children = []

    # ------------------------------------------------------------------
    # Event handlers — one per entry in the shared EVENT_KERNELS mapping.
    # All take the same signature so the pass loop can dispatch uniformly.

    def handle_collisions(self, cmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        """foreach(colliding_particle): handle_collision()"""
        store = self.store
        config = self.config
        c = np.nonzero(cmask)[0]
        d = dist.d_collision[c]
        sp = dist.speed[c]
        store.x[c] = store.x[c] + store.omega_x[c] * d
        store.y[c] = store.y[c] + store.omega_y[c] * d
        store.dt_to_census[c] = np.maximum(
            0.0, store.dt_to_census[c] - d / sp
        )
        weight_before = store.weight[c].copy()
        counters_at_event = self.rng.counters[c].copy()
        u_angle = self.rng.next_uniform(cmask)
        u_sense = self.rng.next_uniform(cmask)
        u_mfp = self.rng.next_uniform(cmask)
        self.books.cadd("rng_draws", c, 3)
        a_ratio = self.mat_a[self.mat_idx[c]]
        (e_new, w_new, ox_new, oy_new, mfp_new, dep, term, below) = self.dispatch.run(
            "collide",
            c.size,
            store.energy[c],
            store.weight[c],
            store.omega_x[c],
            store.omega_y[c],
            sigma_a[c],
            sigma_t[c],
            a_ratio,
            u_angle,
            u_sense,
            u_mfp,
            self.books.ecut_at(c),
            self.books.wcut_at(c),
            defer_weight_cutoff=config.use_russian_roulette,
        )
        store.energy[c] = e_new
        store.weight[c] = w_new
        store.omega_x[c] = ox_new
        store.omega_y[c] = oy_new
        store.mfp_to_collision[c] = mfp_new
        store.deposit_buffer[c] += dep
        self.books.cadd("collisions", c)
        self.books.coll_pp[c] += 1

        # ---- fission banking (extension) ------------------------------
        fissile_here = self.mat_fissile[self.mat_idx[c]] & (sigma_t[c] > 0.0)
        if fissile_here.any():
            fis_mask = np.zeros(len(store), dtype=bool)
            fis_mask[c[fissile_here]] = True
            u_fission = self.rng.next_uniform(fis_mask)
            sel = c[fissile_here]
            self.books.cadd("rng_draws", sel)
            counts = self.dispatch.run(
                "fission_bank",
                sel.size,
                weight_before[fissile_here],
                self.mat_nu[self.mat_idx[sel]],
                sigma_f[sel],
                sigma_t[sel],
                u_fission,
            )
            self.bank_secondaries(
                sel,
                counts,
                counters_at_event[fissile_here],
                weight_before[fissile_here],
            )

        dead = c[term]
        if dead.size:
            self.flush(dead)
            store.deposit_buffer[dead] = 0.0
            store.alive[dead] = False
            self.books.cadd("terminations", dead)

        # ---- Russian roulette (extension) ------------------------------
        if config.use_russian_roulette and below.any():
            r_mask = np.zeros(len(store), dtype=bool)
            r_mask[c[below]] = True
            u_roulette = self.rng.next_uniform(r_mask)
            sel = c[below]
            self.books.cadd("rng_draws", sel)
            w = store.weight[sel]
            survive, restored = self.dispatch.run(
                "roulette", sel.size, w, u_roulette, self.books.wcut_at(sel)
            )
            # With per-lane cutoffs ``restored`` is an array aligned with
            # ``sel``; slice it down to the survivor lanes.
            restored_s = restored[survive] if np.ndim(restored) else restored
            killed = sel[~survive]
            if killed.size:
                self.books.cadd("roulette_kills", killed)
                self.books.csum(
                    "roulette_loss_energy", killed,
                    store.weight[killed] * store.energy[killed],
                )
                store.weight[killed] = 0.0
                self.flush(killed)
                store.deposit_buffer[killed] = 0.0
                store.alive[killed] = False
                self.books.cadd("terminations", killed)
            survivors = sel[survive]
            if survivors.size:
                self.books.cadd("roulette_survivals", survivors)
                self.books.csum(
                    "roulette_gain_energy", survivors,
                    (restored_s - store.weight[survivors])
                    * store.energy[survivors],
                )
                store.weight[survivors] = restored_s

        surv = c[store.alive[c]]
        if surv.size:
            self.refresh_micro(surv)

    def handle_facets(self, fmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        """foreach(particle_encountering_facet): handle_facet()"""
        store = self.store
        config = self.config
        f = np.nonzero(fmask)[0]
        old_cx_f = store.cellx[f].copy()
        old_cy_f = store.celly[f].copy()
        d = dist.d_facet[f]
        sp = dist.speed[f]
        st = sigma_t[f]
        store.x[f] = store.x[f] + store.omega_x[f] * d
        store.y[f] = store.y[f] + store.omega_y[f] * d
        store.dt_to_census[f] = np.maximum(
            0.0, store.dt_to_census[f] - d / sp
        )
        store.mfp_to_collision[f] = np.maximum(
            0.0, store.mfp_to_collision[f] - d * st
        )
        ax = dist.axis[f]
        hit_x = ax == 0
        fx = f[hit_x]
        store.x[fx] = np.where(
            store.omega_x[fx] > 0.0, dist.x_hi[fx], dist.x_lo[fx]
        )
        fy = f[~hit_x]
        store.y[fy] = np.where(
            store.omega_y[fy] > 0.0, dist.y_hi[fy], dist.y_lo[fy]
        )
        # Batched tally loop — the separate atomic pass of §VI-G.
        self.flush(f)
        store.deposit_buffer[f] = 0.0
        new_cx, new_cy, new_ox, new_oy, reflected, escaped = self.dispatch.run(
            "cross_facet",
            f.size,
            store.cellx[f], store.celly[f],
            store.omega_x[f], store.omega_y[f], ax, self.mesh, config.boundary,
        )
        self.books.cadd("facets", f)
        self.books.facet_pp[f] += 1
        gone = f[escaped]
        if gone.size:
            self.books.cadd("escapes", gone)
            self.books.csum(
                "escaped_energy", gone,
                store.weight[gone] * store.energy[gone],
            )
            store.alive[gone] = False
        stay = ~escaped
        store.cellx[f[stay]] = new_cx[stay]
        store.celly[f[stay]] = new_cy[stay]
        store.omega_x[f[stay]] = new_ox[stay]
        store.omega_y[f[stay]] = new_oy[stay]
        crossed = f[stay & ~reflected]
        store.local_density[crossed] = self.mesh.density_at_vec(
            store.cellx[crossed], store.celly[crossed]
        )
        self.books.cadd("density_reads", crossed)
        self.books.cadd("reflections", f[reflected])
        # Multi-material extension: particles entering a different
        # material must refresh their cached microscopic values.
        if crossed.size:
            new_mat = self.material_map[
                store.celly[crossed], store.cellx[crossed]
            ]
            changed = crossed[new_mat != self.mat_idx[crossed]]
            self.mat_idx[crossed] = new_mat
            if changed.size:
                self.refresh_micro(changed)

        # ---- importance splitting / roulette (VR extension) ------------
        if config.importance_map is not None and crossed.size:
            imap = config.importance_map
            cross_in_f = stay & ~reflected
            ratios = (
                imap[store.celly[crossed], store.cellx[crossed]]
                / imap[old_cy_f[cross_in_f], old_cx_f[cross_in_f]]
            )
            changed_r = ratios != 1.0
            sel = crossed[changed_r]
            if sel.size:
                counters_before = self.rng.counters[sel].copy()
                imp_mask = np.zeros(len(store), dtype=bool)
                imp_mask[sel] = True
                u_imp = self.rng.next_uniform(imp_mask)
                self.books.cadd("rng_draws", sel)
                r = ratios[changed_r]

                # splits (entering higher importance)
                up = r > 1.0
                if up.any():
                    n_after = split_counts(r[up], u_imp[up])
                    for pi, n, ctr in zip(
                        sel[up], n_after, counters_before[up]
                    ):
                        if n <= 1:
                            continue
                        cc = self.books.counters_for(pi)
                        cc.splits += 1
                        w_each = float(store.weight[pi]) / int(n)
                        for k in range(int(n) - 1):
                            cid = clone_id(
                                self.books.seed_for(pi),
                                int(store.particle_id[pi]),
                                int(ctr),
                                k,
                            )
                            child = ParticleRecord(
                                x=float(store.x[pi]),
                                y=float(store.y[pi]),
                                omega_x=float(store.omega_x[pi]),
                                omega_y=float(store.omega_y[pi]),
                                energy=float(store.energy[pi]),
                                weight=w_each,
                                cellx=int(store.cellx[pi]),
                                celly=int(store.celly[pi]),
                                particle_id=cid,
                                dt_to_census=float(store.dt_to_census[pi]),
                                mfp_to_collision=float(
                                    store.mfp_to_collision[pi]
                                ),
                                rng_counter=0,
                                local_density=float(store.local_density[pi]),
                                scatter_bin=int(store.scatter_bin[pi]),
                                capture_bin=int(store.capture_bin[pi]),
                                fission_bin=int(store.fission_bin[pi]),
                            )
                            cc.clones_banked += 1
                            self.pending_children.append(child)
                            self.pending_parents.append(pi)
                        store.weight[pi] = w_each

                # roulette (entering lower importance)
                down = ~up
                if down.any():
                    dsel = sel[down]
                    survive = u_imp[down] < r[down]
                    surv = dsel[survive]
                    if surv.size:
                        self.books.cadd("roulette_survivals", surv)
                        boosted = store.weight[surv] / r[down][survive]
                        self.books.csum(
                            "roulette_gain_energy", surv,
                            (boosted - store.weight[surv])
                            * store.energy[surv],
                        )
                        store.weight[surv] = boosted
                    dead_i = dsel[~survive]
                    if dead_i.size:
                        self.books.cadd("roulette_kills", dead_i)
                        self.books.csum(
                            "roulette_loss_energy", dead_i,
                            store.weight[dead_i] * store.energy[dead_i],
                        )
                        store.weight[dead_i] = 0.0
                        store.alive[dead_i] = False
                        self.books.cadd("terminations", dead_i)

    def handle_census(self, zmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        """handle_census(): fly remaining lanes to the end of the timestep."""
        store = self.store
        z = np.nonzero(zmask)[0]
        new_x, new_y, new_mfp = self.dispatch.run(
            "census",
            z.size,
            store.x[z], store.y[z],
            store.omega_x[z], store.omega_y[z],
            store.mfp_to_collision[z], sigma_t[z], dist.d_census[z],
        )
        store.x[z] = new_x
        store.y[z] = new_y
        store.mfp_to_collision[z] = new_mfp
        store.dt_to_census[z] = 0.0
        self.flush(z)
        store.deposit_buffer[z] = 0.0
        store.censused[z] = True
        self.books.cadd("census_events", z)


def _event_pass(ctx: _EventContext, handlers: dict, active: np.ndarray,
                n: int, pass_span=None) -> None:
    """One breadth-first pass: advance every active particle by exactly
    one event.  ``pass_span`` (when telemetry is on) receives the pass
    occupancy as attributes."""
    store = ctx.store
    ws = ctx.ws
    dispatch = ctx.dispatch
    mesh = ctx.mesh

    # foreach(particle): calculate_time_to_events()
    sigma_s, sigma_a, sigma_f, sigma_t = ctx.macroscopic()
    dist = dispatch.run(
        "distances",
        n,
        ws,
        store.energy,
        store.mfp_to_collision,
        sigma_t,
        store.x,
        store.y,
        store.omega_x,
        store.omega_y,
        store.cellx,
        store.celly,
        mesh.dx,
        mesh.dy,
        store.dt_to_census,
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

    masks = {}
    n_event = {}
    for kind in EVENT_KERNELS:
        m = ws.bool_("mask_" + kind.name, n)
        np.equal(event, int(kind), out=m)
        np.logical_and(m, active, out=m)
        masks[kind] = m
        n_event[kind] = int(m.sum())
    stats = EventPassStats(
        n_active=int(active.sum()),
        n_collision=n_event[EventKind.COLLISION],
        n_facet=n_event[EventKind.FACET],
        n_census=n_event[EventKind.CENSUS],
    )
    ctx.books.record_pass(
        stats, active, masks[EventKind.COLLISION], masks[EventKind.FACET],
        masks[EventKind.CENSUS],
    )
    if pass_span is not None:
        pass_span.attrs["active"] = stats.n_active
        pass_span.attrs["collisions"] = stats.n_collision
        pass_span.attrs["facets"] = stats.n_facet
        pass_span.attrs["census"] = stats.n_census

    # ---- one handler per event kind, via the shared mapping -------------
    for kind, kernel_name in EVENT_KERNELS.items():
        if n_event[kind]:
            handlers[kernel_name](
                masks[kind], dist, sigma_a, sigma_f, sigma_t
            )

    # ---- fission secondaries join the population -------------------------
    ctx.absorb_children()

