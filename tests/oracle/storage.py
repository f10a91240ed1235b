"""Per-particle storage references: energy-bin searches, the AoS source
sampler and packing AoS records into an arena.

The two bin searches are the paper's (§VI-A): a plain bisection, and the
cached linear search that walks from the bin of the previous lookup.  Each
counts its probe steps into a :class:`~repro.xs.lookup.LookupStats`.
"""

from __future__ import annotations

from repro.particles.arena import ParticleArena
from repro.particles.particle import Particle
from tests.oracle.kinematics import (
    sample_isotropic_direction,
    sample_mean_free_paths,
    sample_position_in_box,
)
from tests.oracle.rng import ParticleRNG

__all__ = [
    "binary_search_bin",
    "cached_linear_search_bin",
    "sample_source_aos",
    "from_particles",
]


def _clamped_bin(table, e: float) -> int | None:
    """The first or last bin for an energy off the grid, else ``None``."""
    if e <= table.energy[0]:
        return 0
    if e >= table.energy[-1]:
        return len(table) - 2
    return None


def binary_search_bin(table, e: float, stats=None) -> int:
    """The ``bin`` with ``energy[bin] <= e < energy[bin+1]``, by bisection;
    energies off the grid clamp to the first/last bin."""
    clamped = _clamped_bin(table, e)
    if stats is not None:
        stats.lookups += 1
    if clamped is not None:
        return clamped
    lo, hi, probes = 0, len(table) - 1, 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if table.energy[mid] <= e:
            lo = mid
        else:
            hi = mid
    if stats is not None:
        stats.binary_probes += probes
    return lo


def cached_linear_search_bin(table, e: float, cached_bin: int,
                             stats=None) -> int:
    """The bracketing bin, walking linearly from ``cached_bin`` (clamped
    into the table) — a short walk after a collision's small energy
    change, and still correct after any jump."""
    clamped = _clamped_bin(table, e)
    if stats is not None:
        stats.lookups += 1
    if clamped is not None:
        return clamped
    b = min(max(cached_bin, 0), len(table) - 2)
    probes = 0
    while table.energy[b + 1] <= e:
        b += 1
        probes += 1
    while table.energy[b] > e:
        b -= 1
        probes += 1
    if stats is not None:
        stats.linear_probes += probes
    return b


def sample_source_aos(mesh, region, nparticles: int, seed: int, dt: float,
                      start_id: int = 0, scatter_table=None,
                      capture_table=None) -> list[Particle]:
    """Birth ``nparticles`` 2-D histories one at a time, each from its own
    stream: x, y, direction angle and first optical distance, in that
    draw order (paper §IV-F).  The tables, when given, seed the cached
    bins with the birth energy's bin."""
    sbin = cbin = 0
    if scatter_table is not None:
        sbin = binary_search_bin(scatter_table, region.energy_ev)
    if capture_table is not None:
        cbin = binary_search_bin(capture_table, region.energy_ev)
    particles = []
    for pid in range(start_id, start_id + nparticles):
        rng = ParticleRNG(seed, pid)
        u1, u2, u3, u4 = (rng.next_uniform() for _ in range(4))
        x, y = sample_position_in_box(u1, u2, region.x0, region.x1,
                                      region.y0, region.y1)
        ox, oy = sample_isotropic_direction(u3)
        cellx, celly = mesh.cell_of_point(x, y)
        p = Particle(
            x=x, y=y, omega_x=ox, omega_y=oy, energy=region.energy_ev,
            weight=region.weight, cellx=cellx, celly=celly, particle_id=pid,
            dt_to_census=dt, mfp_to_collision=sample_mean_free_paths(u4),
            rng_counter=rng.counter,
        )
        p.local_density = mesh.density_at(cellx, celly)
        p.scatter_bin = sbin
        p.capture_bin = cbin
        particles.append(p)
    return particles


def from_particles(particles) -> ParticleArena:
    """Pack AoS records into an arena (census flags cleared)."""
    arena = ParticleArena(len(particles))
    for name in Particle.__slots__:
        getattr(arena, name)[...] = [getattr(p, name) for p in particles]
    return arena
