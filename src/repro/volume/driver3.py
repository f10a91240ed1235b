"""The 3-D Over Events entry point the repository benchmark names.

A 3-D run is a :class:`~repro.core.config.SimulationConfig` with ``nz``
set, run by :class:`~repro.core.simulation.Simulation` like any other:
the census stepper drives the very same
:meth:`~repro.core.event_pass.WorkingSet.event_pass` over a
:class:`~repro.particles.arena.ParticleArena3` whose axis tuples carry a
third entry, and the one source sampler turns the third pair of source
bounds into six birth draws (position ×3, direction ×2, first optical
distance; a collision draws three, as in 2-D).  Nothing here dispatches a
kernel or walks a history.
"""

from __future__ import annotations

from repro.core.config import Scheme, SimulationConfig
from repro.core.simulation import TransportResult
from repro.core.stepper import run_stepped
from repro.mesh.structured import StructuredMesh
from repro.particles.source import sample_source

__all__ = ["run_over_events_3d"]


def _sample_source_3d(config: SimulationConfig, mesh: StructuredMesh):
    """The six-draw birth of ``config``'s histories, emitted straight into
    a fresh arena.  The cached energy bins start at zero: the 3-D
    problems search by bisection, which does not read them."""
    return sample_source(
        mesh, config.source, config.nparticles, config.seed, config.dt
    )


def run_over_events_3d(config: SimulationConfig,
                       recorder=None) -> TransportResult:
    """Breadth-first 3-D transport (the Listing 2 passes in one more axis):
    the in-place Over Events strategy of the census stepper.

    ``recorder`` receives the span tree (run → timestep → event_pass →
    kernel:*); physics is bit-identical with or without it.
    """
    arena = _sample_source_3d(config, config.build_mesh())
    return run_stepped(
        config, Scheme.OVER_EVENTS, arena=arena, recorder=recorder,
    )
