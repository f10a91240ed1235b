"""Particle state storage.

The data structure describing particles is itself a studied design axis of
the paper (§VI-D, Fig 5): the Over Particles scheme favours an Array of
Structures (AoS) layout — each history loads its particle once into
registers and works on it to census — while the GPU and the Over Events
scheme require Structure of Arrays (SoA) for coalescing/vectorisation.

This reproduction commits to one canonical SoA representation:

* :class:`repro.particles.arena.ParticleArena` — the single-buffer SoA
  arena every stage views in place, with zero-copy shared-memory
  sharding, block appends, compaction and sort hooks;
* :class:`repro.particles.particle.Particle` — the detached AoS record
  :meth:`ParticleArena.to_particles` produces (the pickled-list payload
  the shard hand-off bench measures the arena handle against);
* :mod:`repro.particles.source` — bounded-region source sampling (§IV-F)
  emitting vectorised straight into an arena.
"""

from repro.particles.arena import ParticleArena, ParticleArena3
from repro.particles.particle import Particle
from repro.particles.source import SourceRegion, sample_source

__all__ = [
    "Particle",
    "ParticleArena",
    "ParticleArena3",
    "SourceRegion",
    "sample_source",
]
