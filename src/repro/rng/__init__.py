"""Counter-based random number generation (Random123 / Threefry).

The paper (Section IV-F) selects Random123's Threefry counter-based RNG
(CBRNG) because it is stateless, reproducible and trivially parallel: each
particle carries a ``(key, counter)`` pair and every draw is a pure function
of that pair.  This package reimplements Threefry-2x64 from scratch in two
forms:

* :func:`repro.rng.threefry.threefry2x64` — scalar reference implementation
  operating on Python integers;
* :func:`repro.rng.threefry.threefry2x64_vec` — numpy-vectorised form every
  transport draw goes through, in either scheme, bit-identical to the
  scalar form.

:class:`repro.rng.stream.VectorParticleRNG` wraps the cipher into the
streams of a batch of particles (:class:`repro.rng.stream.ParticleRNG` is
its one-particle scalar reference), and :mod:`repro.rng.distributions`
holds the scalar reference samplers (isotropic directions, exponential
numbers of mean-free-paths).
"""

from repro.rng.threefry import (
    THREEFRY_DEFAULT_ROUNDS,
    threefry2x64,
    threefry2x64_vec,
)
from repro.rng.stream import ParticleRNG, VectorParticleRNG, uniform_from_bits
from repro.rng.distributions import (
    sample_isotropic_direction,
    sample_mean_free_paths,
)

__all__ = [
    "THREEFRY_DEFAULT_ROUNDS",
    "threefry2x64",
    "threefry2x64_vec",
    "ParticleRNG",
    "VectorParticleRNG",
    "uniform_from_bits",
    "sample_isotropic_direction",
    "sample_mean_free_paths",
]
