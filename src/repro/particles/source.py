"""Particle source sampling.

Random numbers determine the initial particle locations and directions
within a bounded source region (paper §IV-F).  Each particle consumes
exactly four draws at birth, in a fixed order:

1. x position within the region,
2. y position within the region,
3. isotropic direction angle,
4. optical distance (mean free paths) to its first collision.

A region with a third pair of bounds (``z0``/``z1``) follows the same
protocol — one draw per position axis, one fewer than that for the
direction, one optical distance: six.

Because the RNG is counter-based and keyed per particle, a population
emitted at once is bit-identical to its histories born one at a time (the
parity suite's scalar sampler, ``tests/oracle/storage.py``).
:func:`sample_source` emits vectorised, in place, into a
:class:`~repro.particles.arena.ParticleArena`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import batch
from repro.mesh.structured import StructuredMesh
from repro.particles.arena import ParticleArena, ParticleArena3
from repro.rng.stream import VectorParticleRNG

__all__ = ["SourceRegion", "sample_source"]

#: Draws consumed per particle at birth (x, y, angle, first mfp).
DRAWS_PER_BIRTH = 4

#: Per number of source-region axes: the arena type the population is
#: emitted into and the isotropic direction sampler its direction draws feed.
EMISSION = {
    2: (ParticleArena, batch.sample_isotropic_direction),
    3: (ParticleArena3, batch.sample_isotropic_direction_3d),
}


@dataclass(frozen=True)
class SourceRegion:
    """A bounded, mono-energetic, isotropic particle source.

    Attributes
    ----------
    x0, x1, y0, y1:
        Axis-aligned bounds of the emission box, metres.
    energy_ev:
        Birth kinetic energy of every particle (eV).
    weight:
        Birth statistical weight of every particle.
    z0, z1:
        Bounds along a third axis; ``None`` (both) for a 2-D region.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    energy_ev: float
    weight: float = 1.0
    z0: float | None = None
    z1: float | None = None

    @property
    def bounds(self) -> tuple:
        """``(lo, hi)`` of the emission box along each axis."""
        pairs = (self.x0, self.x1), (self.y0, self.y1), (self.z0, self.z1)
        return pairs if self.z0 is not None else pairs[:2]

    def __post_init__(self) -> None:
        if (self.z0 is None) != (self.z1 is None):
            raise ValueError("a source region needs both z bounds or neither")
        if not all(lo < hi for lo, hi in self.bounds):
            raise ValueError("source region must have positive extent")
        if self.energy_ev <= 0:
            raise ValueError("source energy must be positive")
        if self.weight <= 0:
            raise ValueError("source weight must be positive")


def sample_source(
    mesh: StructuredMesh,
    region: SourceRegion,
    nparticles: int,
    seed: int,
    dt: float,
    start_id: int = 0,
    provider=None,
) -> ParticleArena:
    """Emit ``nparticles`` directly into a fresh :class:`ParticleArena`
    (a :class:`ParticleArena3` for a 3-D ``mesh`` and ``region``).

    All field fills are vectorised, in place, into the arena's single
    buffer — no per-particle object is ever constructed.  Each history's
    RNG stream starts at counter 0 and is advanced by the four birth
    draws; the arena carries the advanced counters so transport resumes
    the same streams.  When a cross-section ``provider``
    (:class:`repro.xs.provider.XsProvider`) is given, the cached energy
    bins are initialised to the birth energy's bin in material 0 (part of
    birth initialisation, like the cached density) so the cached linear
    search never walks from bin 0.
    """
    arena_type, sample_direction = EMISSION[len(region.bounds)]
    arena = arena_type(nparticles)
    arena.particle_id[...] = np.arange(
        start_id, start_id + nparticles, dtype=np.uint64
    )
    rng = VectorParticleRNG(seed, arena.particle_id)
    ndim = len(arena.pos)
    # Every birth draw in one call, used row by row in the draw order.
    u = rng.next_uniform(None, 2 * ndim)
    for coord, (lo, hi), row in zip(arena.pos, region.bounds, u):
        coord[...] = lo + row * (hi - lo)
    for omega, value in zip(arena.omega, sample_direction(*u[ndim:-1])):
        omega[...] = value
    arena.mfp_to_collision[...] = batch.sample_mean_free_paths(u[-1])
    arena.energy[...] = region.energy_ev
    arena.weight[...] = region.weight
    arena.dt_to_census[...] = dt
    for cell, value in zip(arena.cells, mesh.cell_of_point_vec(*arena.pos)):
        cell[...] = value
    arena.local_density[...] = mesh.density_at_vec(*arena.cells)
    arena.rng_counter[...] = rng.counters
    if provider is not None:
        for field, bins in provider.source_bins_batch(0, arena.energy).items():
            getattr(arena, field)[...] = bins
    return arena

