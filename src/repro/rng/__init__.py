"""Counter-based random number generation (Random123 / Threefry).

The paper (Section IV-F) selects Random123's Threefry counter-based RNG
(CBRNG) because it is stateless, reproducible and trivially parallel: each
particle carries a ``(key, counter)`` pair and every draw is a pure function
of that pair.  This package reimplements Threefry-2x64 from scratch over
numpy ``uint64`` arrays (:func:`repro.rng.threefry.threefry2x64_vec`), and
:class:`repro.rng.stream.VectorParticleRNG` wraps it into the streams of a
batch of particles — every transport draw, in either scheme, goes through
it.  The samplers the draws feed are batch kernels
(:mod:`repro.kernels.batch`); the scalar cipher and one-particle stream
they are checked against live with the tests (``tests/oracle/``).
"""

from repro.rng.threefry import THREEFRY_DEFAULT_ROUNDS, threefry2x64_vec
from repro.rng.stream import VectorParticleRNG, uniform_from_bits

__all__ = [
    "THREEFRY_DEFAULT_ROUNDS",
    "threefry2x64_vec",
    "VectorParticleRNG",
    "uniform_from_bits",
]
