"""The scalar Threefry-2x64 cipher and the one-particle stream.

:func:`threefry2x64` works on Python integers masked to 64 bits and is the
known-answer reference the vectorised cipher
(:func:`repro.rng.threefry.threefry2x64_vec`) is checked against.
:class:`ParticleRNG` is the stream of one particle as the paper's mini-app
keeps it (§IV-F): key ``(seed, particle_id)``, a counter ticked once per
draw, the low output word turned into a uniform on ``[0, 1)``.
"""

from __future__ import annotations

from repro.rng.stream import uniform_from_bits
from repro.rng.threefry import (
    ROTATION_2X64,
    SKEIN_KS_PARITY64,
    THREEFRY_DEFAULT_ROUNDS,
)

__all__ = ["threefry2x64", "ParticleRNG", "stream_of"]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _rotl64(x: int, r: int) -> int:
    """Rotate the 64-bit integer ``x`` left by ``r`` bits."""
    return ((x << r) | (x >> (64 - r))) & _MASK64


def threefry2x64(
    counter: tuple[int, int],
    key: tuple[int, int],
    rounds: int = THREEFRY_DEFAULT_ROUNDS,
) -> tuple[int, int]:
    """Encrypt the counter words ``(c0, c1)`` with the key words
    ``(k0, k1)``; ``0 <= rounds <= 32``.  Returns two 64-bit words."""
    if not 0 <= rounds <= 32:
        raise ValueError(f"rounds must be in [0, 32], got {rounds}")
    ks0 = key[0] & _MASK64
    ks1 = key[1] & _MASK64
    ks = (ks0, ks1, SKEIN_KS_PARITY64 ^ ks0 ^ ks1)
    x0 = (counter[0] + ks0) & _MASK64
    x1 = (counter[1] + ks1) & _MASK64
    for i in range(rounds):
        x0 = (x0 + x1) & _MASK64
        x1 = _rotl64(x1, ROTATION_2X64[i % 8])
        x1 ^= x0
        if i % 4 == 3:
            inject = i // 4 + 1
            x0 = (x0 + ks[inject % 3]) & _MASK64
            x1 = (x1 + ks[(inject + 1) % 3] + inject) & _MASK64
    return x0, x1


class ParticleRNG:
    """Counter-based stream of one particle; ``counter`` is where it
    resumes (a particle restored from census continues where it left
    off)."""

    __slots__ = ("seed", "particle_id", "counter", "rounds")

    def __init__(self, seed: int, particle_id: int, counter: int = 0,
                 rounds: int = THREEFRY_DEFAULT_ROUNDS):
        if seed < 0 or particle_id < 0 or counter < 0:
            raise ValueError("seed, particle_id and counter must be non-negative")
        self.seed = seed & _MASK64
        self.particle_id = particle_id & _MASK64
        self.counter = counter
        self.rounds = rounds

    def next_uniform(self) -> float:
        """Draw one uniform on ``[0, 1)``; advances the counter."""
        bits, _ = threefry2x64(
            (self.counter, 0), (self.seed, self.particle_id), self.rounds
        )
        self.counter += 1
        return uniform_from_bits(bits)

    def clone(self) -> "ParticleRNG":
        """Copy the stream, preserving the counter position."""
        return ParticleRNG(self.seed, self.particle_id, self.counter, self.rounds)


def stream_of(vec, index: int) -> ParticleRNG:
    """The scalar stream of lane ``index`` of a
    :class:`~repro.rng.stream.VectorParticleRNG`, at its current counter."""
    seed = vec.seed[index] if vec.seed.ndim else vec.seed
    return ParticleRNG(int(seed), int(vec.particle_ids[index]),
                       int(vec.counters[index]), vec.rounds)
