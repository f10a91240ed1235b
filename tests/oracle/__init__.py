"""The scalar reference implementation: one particle, one call.

The batch kernels of :mod:`repro.kernels` are the transport physics, for
either traversal scheme and any number of axes.  This package is the
independent oracle the parity suites pin them against lane by lane, bit
for bit: the per-history forms of the paper's kernels (§IV–V) written
with Python scalars and branches.  Each exists once for every dimension —
a position, direction or cell is a tuple with one entry per mesh axis,
and a collision turns in the plane or about an azimuth by the length of
its direction.

Nothing under ``src/`` imports it.  It takes from ``repro.kernels`` only
the event numbering and the two distance constants, and nothing from
``repro.core`` (``tests/test_oracle.py`` checks this), so it cannot turn
into the batch kernel under another name.
"""

from tests.oracle.events import (
    CollisionOutcome,
    collide,
    cross_facet,
    distance_to_census,
    distance_to_collision,
    distance_to_facet,
    russian_roulette,
    select_event,
    should_terminate,
)
from tests.oracle.kinematics import (
    elastic_scatter_kinematics,
    rotate_direction,
    sample_isotropic_direction,
    sample_mean_free_paths,
    sample_position_in_box,
    speed_from_energy_ev,
)
from tests.oracle.rng import ParticleRNG, stream_of, threefry2x64
from tests.oracle.storage import (
    binary_search_bin,
    cached_linear_search_bin,
    from_particles,
    sample_source_aos,
)

__all__ = [
    "CollisionOutcome",
    "collide",
    "cross_facet",
    "distance_to_census",
    "distance_to_collision",
    "distance_to_facet",
    "russian_roulette",
    "select_event",
    "should_terminate",
    "elastic_scatter_kinematics",
    "rotate_direction",
    "sample_isotropic_direction",
    "sample_mean_free_paths",
    "sample_position_in_box",
    "speed_from_energy_ev",
    "ParticleRNG",
    "stream_of",
    "threefry2x64",
    "binary_search_bin",
    "cached_linear_search_bin",
    "from_particles",
    "sample_source_aos",
]
