"""3-D transport drivers: Over Particles and Over Events.

Both schemes mirror their 2-D counterparts event for event — same
counter-based draw protocol (six draws at birth: position ×3, direction
×2, first optical distance; three per collision), same flush discipline,
same census semantics — so the scheme-equivalence and conservation
properties carry over unchanged, which is precisely the paper's
geometry-independence hypothesis (§IV-C).

The population lives in one
:class:`~repro.particles.arena.ParticleArena3` (SoA, single contiguous
buffer, §VI-D): the source emits vectorised directly into the arena, the
Over Events passes address its fields by name (``arena["x"]``), and the
depth-first Over Particles tracker walks per-index
:class:`~repro.particles.arena.Particle3View` proxies — no AoS record
type remains.

The medium is the single homogeneous material of the paper's setup
(multi-material/fission composition in 3-D is left to the same future-work
list the paper keeps them on).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.counters import Counters
from repro.core.stepper import drive_census_loop
from repro.kernels import KernelDispatch, batch, batch3
from repro.kernels.dispatch import KERNEL_TABLE_3D
from repro.obs.spans import NULL_RECORDER
from repro.particles.arena import ParticleArena3
from repro.physics.constants import speed_from_energy_ev
from repro.physics.events import (
    EventKind,
    distance_to_collision,
    select_event,
)
from repro.rng.stream import ParticleRNG, VectorParticleRNG
from repro.volume.collision3 import collide3
from repro.volume.events3 import distance_to_facet_3d
from repro.volume.facet3 import cross_facet_3d
from repro.volume.mesh3 import StructuredMesh3D, Tally3D
from repro.volume.problems3 import Volume3DConfig
from repro.xs.macroscopic import macroscopic_cross_section

__all__ = [
    "Transport3DResult",
    "run_over_particles_3d",
    "run_over_events_3d",
    "SCALAR_KERNEL_TABLE_3D",
]

#: Scalar kernel surface of the depth-first 3-D tracker — same names as
#: the batch entries in ``KERNEL_TABLE_3D`` so the profiles of both
#: schemes rank comparably under ``run3d --profile-kernels``.
SCALAR_KERNEL_TABLE_3D = {
    "facet_distances_3d": distance_to_facet_3d,
    "collide_3d": collide3,
    "cross_facet_3d": cross_facet_3d,
}


@dataclass
class Transport3DResult:
    """Output of a 3-D run (mirrors the 2-D ``TransportResult`` API the
    validation helpers need)."""

    config: Volume3DConfig
    tally: Tally3D
    counters: Counters
    arena: ParticleArena3
    wallclock_s: float
    #: Driver name ("over_particles_3d" / "over_events_3d") — a plain
    #: string, unlike the 2-D result's Scheme enum.
    scheme: str | None = None

    def in_flight_energy_ev(self) -> float:
        """Weighted energy carried by live particles."""
        alive = self.arena.alive
        return float(
            (self.arena.weight[alive] * self.arena.energy[alive]).sum()
        )

    def alive_count(self) -> int:
        """Histories still alive."""
        return int(self.arena.alive.sum())


def _sample_source_3d(config: Volume3DConfig, mesh: StructuredMesh3D):
    """Six-draw vectorised birth, emitted straight into a fresh arena.

    Bit-identical to the retired scalar loop: the vector RNG consumes the
    same per-history counters, and every kinematics helper has an
    element-wise-identical batch twin.  The arena's ``rng_counter``
    carries every stream's position on to the drivers."""
    src = config.source
    n = config.nparticles
    arena = ParticleArena3(n)
    rng = VectorParticleRNG(config.seed, arena.particle_id)
    u = [rng.next_uniform() for _ in range(6)]
    arena.x[...] = src.x0 + u[0] * (src.x1 - src.x0)
    arena.y[...] = src.y0 + u[1] * (src.y1 - src.y0)
    arena.z[...] = src.z0 + u[2] * (src.z1 - src.z0)
    ox, oy, oz = batch3.sample_isotropic_direction_3d(u[3], u[4])
    arena.ox[...] = ox
    arena.oy[...] = oy
    arena.oz[...] = oz
    arena.energy[...] = src.energy_ev
    arena.weight[...] = src.weight
    cx, cy, cz = mesh.cell_of_point_vec(arena.x, arena.y, arena.z)
    arena.cellx[...] = cx
    arena.celly[...] = cy
    arena.cellz[...] = cz
    arena.mfp[...] = -np.log(1.0 - u[5])
    arena.dt[...] = config.dt
    arena.density[...] = mesh.density_at_vec(cx, cy, cz)
    arena.rng_counter[...] = rng.counters
    return arena


# ---------------------------------------------------------------------------
# Over Particles
# ---------------------------------------------------------------------------

def run_over_particles_3d(
    config: Volume3DConfig, recorder=None
) -> Transport3DResult:
    """Depth-first 3-D transport (the Listing 1 loop in one more axis).

    ``recorder`` receives run/timestep spans only — the scalar tracker
    fires one kernel call per event, so per-kernel spans would dwarf the
    payload; the kernel *profile* is still accumulated through the
    dispatch table and lands on ``counters.kernel_profile``.
    """
    t0 = time.perf_counter()
    rec = NULL_RECORDER if recorder is None else recorder
    mesh = StructuredMesh3D(
        config.nx, config.ny, config.nz,
        config.width, config.height, config.depth, config.density,
    )
    tally = Tally3D(config.nx, config.ny, config.nz)
    provider = config.resolved_provider()
    arena = _sample_source_3d(config, mesh)
    counters = Counters(nparticles=len(arena))
    counters.rng_draws += 6 * len(arena)
    coll_pp = np.zeros(len(arena), dtype=np.int64)
    facet_pp = np.zeros(len(arena), dtype=np.int64)
    dispatch = KernelDispatch(SCALAR_KERNEL_TABLE_3D)

    def begin_step(step: int) -> None:
        if step > 0:
            arena.dt[arena.alive] = config.dt

    def run_step(step: int) -> None:
        for i in range(len(arena)):
            if not arena.alive[i]:
                continue
            _track_history_3d(
                arena.proxy(i), i, mesh, tally, provider, config,
                counters, coll_pp, facet_pp, dispatch,
            )

    drive_census_loop(
        rec, config.ntimesteps, {"scheme": "over_particles_3d"},
        begin_step, run_step,
    )

    counters.collisions_per_particle = coll_pp
    counters.facets_per_particle = facet_pp
    counters.kernel_profile = dispatch.profile()
    counters.arena_nbytes = arena.nbytes()
    return Transport3DResult(
        config=config, tally=tally, counters=counters, arena=arena,
        wallclock_s=time.perf_counter() - t0,
        scheme="over_particles_3d",
    )


def _track_history_3d(
    p, index, mesh, tally, provider, config, counters,
    coll_pp, facet_pp, dispatch,
):
    rng = ParticleRNG(config.seed, p.particle_id, p.rng_counter)
    molar = float(provider.mat_molar[0])
    a_ratio = float(provider.mat_a[0])
    nlookups = provider.lookups_per_refresh(0)

    def sigmas():
        with dispatch.timed("xs_lookup", nlookups):
            micro_s, micro_c, _micro_f = provider.micro_scalar(0, p.energy)
        counters.xs_lookups += nlookups
        s = float(macroscopic_cross_section(micro_s, p.local_density, molar))
        a = float(macroscopic_cross_section(micro_c, p.local_density, molar))
        return s + a, a, micro_s, micro_c

    sigma_t, sigma_a, micro_s, micro_c = sigmas()
    speed = speed_from_energy_ev(p.energy)

    while True:
        d_coll = distance_to_collision(p.mfp_to_collision, sigma_t)
        bounds = mesh.cell_bounds(p.cellx, p.celly, p.cellz)
        d_facet, axis = dispatch.run(
            "facet_distances_3d", 1,
            p.x, p.y, p.z, p.ox, p.oy, p.oz, *bounds
        )
        d_census = p.dt_to_census * speed
        event = select_event(d_coll, d_facet, d_census)

        if event is EventKind.COLLISION:
            p.x += p.ox * d_coll
            p.y += p.oy * d_coll
            p.z += p.oz * d_coll
            p.dt_to_census = max(0.0, p.dt_to_census - d_coll / speed)
            u1 = rng.next_uniform()
            u2 = rng.next_uniform()
            u3 = rng.next_uniform()
            counters.rng_draws += 3
            out = dispatch.run(
                "collide_3d", 1,
                p.energy, p.weight, p.ox, p.oy, p.oz, sigma_a, sigma_t,
                a_ratio, u1, u2, u3,
                config.energy_cutoff_ev, config.weight_cutoff,
            )
            p.energy, p.weight = out.energy, out.weight
            p.ox, p.oy, p.oz = out.ox, out.oy, out.oz
            p.mfp_to_collision = out.mfp_to_collision
            p.deposit_buffer += out.deposit
            counters.collisions += 1
            coll_pp[index] += 1
            if out.terminated:
                tally.flush(p.cellx, p.celly, p.cellz, p.deposit_buffer)
                p.deposit_buffer = 0.0
                counters.tally_flushes += 1
                counters.terminations += 1
                p.alive = False
                break
            sigma_t, sigma_a, micro_s, micro_c = sigmas()
            speed = speed_from_energy_ev(p.energy)

        elif event is EventKind.FACET:
            p.x += p.ox * d_facet
            p.y += p.oy * d_facet
            p.z += p.oz * d_facet
            p.dt_to_census = max(0.0, p.dt_to_census - d_facet / speed)
            p.mfp_to_collision = max(0.0, p.mfp_to_collision - d_facet * sigma_t)
            x_lo, x_hi, y_lo, y_hi, z_lo, z_hi = bounds
            if axis == 0:
                p.x = x_hi if p.ox > 0.0 else x_lo
            elif axis == 1:
                p.y = y_hi if p.oy > 0.0 else y_lo
            else:
                p.z = z_hi if p.oz > 0.0 else z_lo
            tally.flush(p.cellx, p.celly, p.cellz, p.deposit_buffer)
            p.deposit_buffer = 0.0
            counters.tally_flushes += 1
            (ncx, ncy, ncz, nox, noy, noz, reflected, escaped) = dispatch.run(
                "cross_facet_3d", 1,
                p.cellx, p.celly, p.cellz, p.ox, p.oy, p.oz, axis, mesh,
                config.boundary,
            )
            counters.facets += 1
            facet_pp[index] += 1
            if escaped:
                counters.escapes += 1
                counters.escaped_energy += p.weight * p.energy
                p.alive = False
                break
            p.cellx, p.celly, p.cellz = ncx, ncy, ncz
            p.ox, p.oy, p.oz = nox, noy, noz
            if reflected:
                counters.reflections += 1
            else:
                p.local_density = mesh.density_at(ncx, ncy, ncz)
                counters.density_reads += 1
                s = float(macroscopic_cross_section(micro_s, p.local_density, molar))
                a = float(macroscopic_cross_section(micro_c, p.local_density, molar))
                sigma_t, sigma_a = s + a, a

        else:
            p.x += p.ox * d_census
            p.y += p.oy * d_census
            p.z += p.oz * d_census
            p.mfp_to_collision = max(0.0, p.mfp_to_collision - d_census * sigma_t)
            p.dt_to_census = 0.0
            tally.flush(p.cellx, p.celly, p.cellz, p.deposit_buffer)
            p.deposit_buffer = 0.0
            counters.tally_flushes += 1
            counters.census_events += 1
            break

    p.rng_counter = rng.counter


# ---------------------------------------------------------------------------
# Over Events
# ---------------------------------------------------------------------------

def run_over_events_3d(
    config: Volume3DConfig, recorder=None, *, arena=None, books=None,
) -> Transport3DResult:
    """Breadth-first 3-D transport (the Listing 2 passes in one more axis).

    ``recorder`` receives the span tree (run → timestep → event_pass →
    kernel:*); physics is bit-identical with or without it.

    ``arena``/``books`` support seed-only ensemble fusion: the caller
    passes a pre-fused population plus the
    :class:`~repro.core.books.ReplicaBooks` of its members (per-lane
    replica index, per-replica Counters/Tally3D).  The 3-D scheme has no
    fission or variance reduction, so the population is static and the
    only per-member quantity is the seed.  A run given neither is one
    replica of ``config`` through the same books.
    """
    t0 = time.perf_counter()
    rec = NULL_RECORDER if recorder is None else recorder
    mesh = StructuredMesh3D(
        config.nx, config.ny, config.nz,
        config.width, config.height, config.depth, config.density,
    )
    provider = config.resolved_provider()
    a = arena if arena is not None else _sample_source_3d(config, mesh)
    n = len(a)
    books = books or ReplicaBooks(
        (config,), np.zeros(n, dtype=np.int64),
        lambda: Tally3D(config.nx, config.ny, config.nz),
    )
    rng = VectorParticleRNG(books.lane_seeds(), a.particle_id, a.rng_counter)
    cadd = books.cadd
    cells = (a.cellx, a.celly, a.cellz)

    def flush3(idx):
        """Deposit flush, attributed per replica in subsequence order."""
        books.flush(idx, cells, a.deposit)
        a["deposit"][idx] = 0.0

    books.charge_births(6)
    coll_pp = books.coll_pp
    facet_pp = books.facet_pp
    molar = float(provider.mat_molar[0])
    a_ratio = float(provider.mat_a[0])
    nlookups = provider.lookups_per_refresh(0)
    dispatch = KernelDispatch(
        KERNEL_TABLE_3D, recorder=rec if rec.enabled else None
    )

    micro_s = np.zeros(n)
    micro_c = np.zeros(n)

    def refresh(idx):
        if idx.size == 0:
            return
        lk = provider.lookup(0, a["energy"][idx], dispatch.run)
        micro_s[idx] = lk.micro_s
        micro_c[idx] = lk.micro_c
        cadd("xs_lookups", idx, nlookups)

    def begin_step(step: int) -> None:
        # The 3-D driver's census-boundary bookkeeping historically ran
        # inside the timestep span; ``run_step`` keeps it there so the
        # span tree (and the physics) is unchanged by the loop hoist.
        pass

    def run_step(step: int) -> None:
                if step > 0:
                    books.rearm_census(a["dt"], a["alive"])
                a["censused"][:] = ~a["alive"]
                refresh(np.nonzero(a["alive"])[0])

                npass = 0
                while True:
                    active = a["alive"] & ~a["censused"]
                    if not active.any():
                        break
                    with rec.span("event_pass", index=npass):
                        sigma_s = macroscopic_cross_section(micro_s, a["density"], molar)
                        sigma_a = macroscopic_cross_section(micro_c, a["density"], molar)
                        sigma_t = sigma_s + sigma_a
                        speed = batch.speed_from_energy(a["energy"])
                        d_coll = batch.distance_to_collision(a["mfp"], sigma_t)
                        x_lo = a["cellx"] * mesh.dx
                        x_hi = (a["cellx"] + 1) * mesh.dx
                        y_lo = a["celly"] * mesh.dy
                        y_hi = (a["celly"] + 1) * mesh.dy
                        z_lo = a["cellz"] * mesh.dz
                        z_hi = (a["cellz"] + 1) * mesh.dz
                        d_facet, axis = dispatch.run(
                            "facet_distances_3d", n,
                            a["x"], a["y"], a["z"], a["ox"], a["oy"], a["oz"],
                            x_lo, x_hi, y_lo, y_hi, z_lo, z_hi,
                        )
                        d_census = a["dt"] * speed
                        event = dispatch.run("select_events", n, d_coll, d_facet, d_census)

                        cmask = active & (event == int(EventKind.COLLISION))
                        fmask = active & (event == int(EventKind.FACET))
                        zmask = active & (event == int(EventKind.CENSUS))

                        if cmask.any():
                            c = np.nonzero(cmask)[0]
                            d = d_coll[c]
                            a["x"][c] += a["ox"][c] * d
                            a["y"][c] += a["oy"][c] * d
                            a["z"][c] += a["oz"][c] * d
                            a["dt"][c] = np.maximum(0.0, a["dt"][c] - d / speed[c])
                            u1 = rng.next_uniform(cmask)
                            u2 = rng.next_uniform(cmask)
                            u3 = rng.next_uniform(cmask)
                            cadd("rng_draws", c, 3)
                            (e_new, w_new, nox, noy, noz, mfp_new, dep, term) = dispatch.run(
                                "collide_3d", c.size,
                                a["energy"][c], a["weight"][c],
                                a["ox"][c], a["oy"][c], a["oz"][c],
                                sigma_a[c], sigma_t[c], a_ratio,
                                u1, u2, u3,
                                config.energy_cutoff_ev, config.weight_cutoff,
                            )
                            a["energy"][c] = e_new
                            a["weight"][c] = w_new
                            a["ox"][c], a["oy"][c], a["oz"][c] = nox, noy, noz
                            a["mfp"][c] = mfp_new
                            a["deposit"][c] += dep
                            cadd("collisions", c)
                            coll_pp[c] += 1
                            dead = c[term]
                            if dead.size:
                                flush3(dead)
                                a["alive"][dead] = False
                                cadd("terminations", dead)
                            refresh(c[~term])

                        if fmask.any():
                            f = np.nonzero(fmask)[0]
                            d = d_facet[f]
                            a["x"][f] += a["ox"][f] * d
                            a["y"][f] += a["oy"][f] * d
                            a["z"][f] += a["oz"][f] * d
                            a["dt"][f] = np.maximum(0.0, a["dt"][f] - d / speed[f])
                            a["mfp"][f] = np.maximum(0.0, a["mfp"][f] - d * sigma_t[f])
                            ax = axis[f]
                            for axis_i, (coord, o, lo, hi) in enumerate(
                                (("x", "ox", x_lo, x_hi), ("y", "oy", y_lo, y_hi),
                                 ("z", "oz", z_lo, z_hi))
                            ):
                                sel = f[ax == axis_i]
                                a[coord][sel] = np.where(
                                    a[o][sel] > 0.0, hi[sel], lo[sel]
                                )
                            flush3(f)
                            (ncx, ncy, ncz, nox, noy, noz, reflected, escaped) = dispatch.run(
                                "cross_facet_3d", f.size,
                                a["cellx"][f], a["celly"][f], a["cellz"][f],
                                a["ox"][f], a["oy"][f], a["oz"][f], ax, mesh,
                                config.boundary,
                            )
                            cadd("facets", f)
                            facet_pp[f] += 1
                            gone = f[escaped]
                            if gone.size:
                                cadd("escapes", gone)
                                books.csum(
                                    "escaped_energy", gone,
                                    a["weight"][gone] * a["energy"][gone],
                                )
                                a["alive"][gone] = False
                            stay = ~escaped
                            a["cellx"][f[stay]] = ncx[stay]
                            a["celly"][f[stay]] = ncy[stay]
                            a["cellz"][f[stay]] = ncz[stay]
                            a["ox"][f[stay]] = nox[stay]
                            a["oy"][f[stay]] = noy[stay]
                            a["oz"][f[stay]] = noz[stay]
                            crossed = f[stay & ~reflected]
                            a["density"][crossed] = mesh.density_at_vec(
                                a["cellx"][crossed], a["celly"][crossed], a["cellz"][crossed]
                            )
                            cadd("density_reads", crossed)
                            cadd("reflections", f[reflected])

                        if zmask.any():
                            z = np.nonzero(zmask)[0]
                            d = d_census[z]
                            a["x"][z] += a["ox"][z] * d
                            a["y"][z] += a["oy"][z] * d
                            a["z"][z] += a["oz"][z] * d
                            a["mfp"][z] = np.maximum(0.0, a["mfp"][z] - d * sigma_t[z])
                            a["dt"][z] = 0.0
                            flush3(z)
                            a["censused"][z] = True
                            cadd("census_events", z)
                    npass += 1

    drive_census_loop(
        rec, config.ntimesteps, {"scheme": "over_events_3d"},
        begin_step, run_step,
    )

    counters = books.fold()
    counters.kernel_profile = dispatch.profile()
    counters.arena_nbytes = a.nbytes()
    a["rng_counter"] = rng.counters
    return Transport3DResult(
        config=config, tally=books.tally, counters=counters, arena=a,
        wallclock_s=time.perf_counter() - t0,
        scheme="over_events_3d",
    )
