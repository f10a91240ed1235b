"""3-D transport: the same event pass over one more axis.

The paper chose a 2-D grid on the hypothesis that what limits performance
is *independent of the geometry* (§IV-C).  This module is that claim in
code: a 3-D run is the 2-D run's
:class:`~repro.core.stepper.CensusStepper` driving the very same
:meth:`~repro.core.event_pass.WorkingSet.event_pass` and handlers — Over
Events in place, Over Particles in gathered blocks of 64 — over a
:class:`~repro.particles.arena.ParticleArena3` whose axis tuples carry a
third entry.  Nothing here dispatches a kernel or walks a history; what a
3-D run adds is data: its kernel row
(:data:`repro.kernels.dispatch.PASS_KERNELS`, aliases of the same kernel
bodies), the one mesh and tally over a third axis
(:class:`~repro.volume.problems3.Volume3DConfig` builds them) and a
source box with a third pair of bounds, which the one source sampler turns
into six birth draws (position ×3, direction ×2, first optical distance;
a collision draws three, as in 2-D).

The medium is one homogeneous material; a fissile one multiplies, and
its children are banked as in 2-D.
"""

from __future__ import annotations

from repro.core.config import Scheme
from repro.core.simulation import TransportResult
from repro.core.stepper import run_stepped
from repro.mesh.structured import StructuredMesh
from repro.particles.source import sample_source
from repro.volume.problems3 import Volume3DConfig

__all__ = ["run_over_particles_3d", "run_over_events_3d"]


def _sample_source_3d(config: Volume3DConfig, mesh: StructuredMesh):
    """The six-draw birth of ``config``'s histories, emitted straight into
    a fresh arena.  The cached energy bins start at zero: a 3-D run
    searches by bisection, which does not read them."""
    return sample_source(
        mesh, config.source, config.nparticles, config.seed, config.dt
    )


def run_over_particles_3d(
    config: Volume3DConfig, recorder=None
) -> TransportResult:
    """Depth-first 3-D transport (the Listing 1 loop in one more axis):
    the blocked lock-step Over Particles strategy of the census stepper.

    ``recorder`` receives the span tree (run → timestep → census_wave →
    kernel:*); physics is bit-identical with or without it.
    """
    return run_stepped(config, Scheme.OVER_PARTICLES, recorder=recorder)


def run_over_events_3d(
    config: Volume3DConfig, recorder=None, *, arena=None, books=None,
) -> TransportResult:
    """Breadth-first 3-D transport (the Listing 2 passes in one more axis):
    the in-place Over Events strategy of the census stepper.

    ``recorder`` receives the span tree (run → timestep → event_pass →
    kernel:*); physics is bit-identical with or without it.

    ``arena``/``books`` support ensemble fusion: the caller
    passes a pre-fused population plus the
    :class:`~repro.core.books.ReplicaBooks` of its members.  A run given
    neither is one replica of ``config`` through the same books.
    """
    if arena is None:
        arena = _sample_source_3d(config, config.build_mesh())
    return run_stepped(
        config, Scheme.OVER_EVENTS, arena=arena, books=books,
        recorder=recorder,
    )
