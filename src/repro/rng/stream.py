"""Per-particle random number streams built on Threefry.

The mini-app stores a ``(key, counter)`` pair per particle (paper §IV-F):
the key identifies the particle (and the global seed), the counter advances
by one per random draw.  Because the generator is a pure function of the
pair, the Over Particles and Over Events schemes consume *identical* random
sequences for a given particle — which is what lets the test suite assert
that both schemes produce bit-identical tallies.

Draw discipline
---------------
Each draw ticks the counter once and returns the *low* output word converted
to a double in ``[0, 1)``.  A counter-tick-per-draw (rather than caching the
second word) is deliberately chosen so every draw is a function of its
counter alone, with no cached state to keep in step.

Because a draw is a pure function of its counter, an event that needs
``k`` draws takes them in one call: ``next_uniform(sel, k)`` enciphers
counters ``c … c+k-1`` of every selected stream at once and ticks each
counter by ``k`` — row ``j`` of the result is bit-for-bit what the
``j``-th of ``k`` successive single-draw calls would have returned.  A
collision's three draws and a birth's four (2-D) or six (3-D) are each
one call; the order the rows are *used* in is the draw order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.rng.threefry import THREEFRY_DEFAULT_ROUNDS, threefry2x64_vec

__all__ = ["uniform_from_bits", "VectorParticleRNG"]

#: 2**-53 — one ULP at 1.0; scaling a 53-bit integer by this gives [0, 1).
_INV_2_53 = 1.0 / 9007199254740992.0

#: Most counters one Threefry call covers; wider draws run in lane blocks.
_BLOCK_COUNTERS = 1 << 14

# The per-draw constants as 0-d arrays: a ufunc takes them for less per
# call than scalars, with the same bits.  A draw's counter is the pair
# ``(c + j, 0)``.
_SHIFT = np.array(11, dtype=np.uint64)
_SCALE = np.array(_INV_2_53)
_COUNTER_HI = np.array(0, dtype=np.uint64)


@lru_cache(maxsize=64)
def _draw_offsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The counter offsets ``0 … k-1`` of a ``k``-draw call as a
    ``(k, 1)`` column, and ``k`` as a 0-d ``uint64``; both read-only,
    and every call shares them."""
    offsets = np.arange(k, dtype=np.uint64)[:, None]
    tick = np.array(k, dtype=np.uint64)
    offsets.flags.writeable = tick.flags.writeable = False
    return offsets, tick


def uniform_from_bits(bits: int | np.ndarray) -> float | np.ndarray:
    """Convert 64 random bits to a double uniform on ``[0, 1)``.

    Uses the top 53 bits so every representable output is equally likely and
    the result is always strictly less than 1.
    """
    if isinstance(bits, np.ndarray):
        return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return (int(bits) >> 11) * _INV_2_53


class VectorParticleRNG:
    """Vectorised counter-based streams for an array of particles.

    Holds ``particle_id`` and ``counter`` arrays; each call to
    :meth:`next_uniform` draws ``k`` uniforms per *selected* particle and
    ticks only those counters, reproducing exactly what one scalar stream
    per particle would have produced.
    """

    def __init__(
        self,
        seed: int | np.ndarray,
        particle_ids: np.ndarray,
        counters: np.ndarray | None = None,
        rounds: int = THREEFRY_DEFAULT_ROUNDS,
    ):
        self.particle_ids = np.asarray(particle_ids, dtype=np.uint64).copy()
        if np.ndim(seed) == 0:
            self.seed = np.array(int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        else:
            # Per-lane seeds (ensemble fusion): key word 0 varies by lane so
            # each replica's stream is bit-identical to a standalone run
            # seeded with its own scalar seed.
            seed = np.asarray(seed, dtype=np.uint64)
            if seed.shape != self.particle_ids.shape:
                raise ValueError("per-lane seed must match particle_ids in shape")
            self.seed = seed.copy()
        n = self.particle_ids.shape[0]
        if counters is None:
            self.counters = np.zeros(n, dtype=np.uint64)
        else:
            counters = np.asarray(counters, dtype=np.uint64)
            if counters.shape != self.particle_ids.shape:
                raise ValueError("counters must match particle_ids in shape")
            self.counters = counters.copy()
        self.rounds = rounds

    def next_uniform(self, mask: np.ndarray | None = None, k: int = 1) -> np.ndarray:
        """Draw ``k`` uniforms for each particle selected by ``mask``.

        ``mask`` is a boolean mask or an array of distinct indices (``None``
        selects every particle).  Returns the ``n`` draws of the ``n``
        selected particles when ``k == 1``, else a ``(k, n)`` array whose
        row ``j`` — drawn at counter ``c + j`` — is what the ``j``-th of
        ``k`` single-draw calls would have returned.
        """
        sel = slice(None) if mask is None else np.asarray(mask)
        ids, ctrs = self.particle_ids[sel], self.counters[sel]
        per_lane = self.seed.ndim != 0
        seed = self.seed[sel] if per_lane else self.seed
        n = ids.shape[0]
        out = np.empty((k, n))
        # Lane blocks of at most _BLOCK_COUNTERS counters keep one cipher
        # call's state buffers in cache.
        width = max(1, _BLOCK_COUNTERS // k)
        offsets, tick = _draw_offsets(k)
        for s in range(0, n, width):
            lanes = slice(s, s + width)
            bits, _ = threefry2x64_vec(
                ctrs[lanes] + offsets, _COUNTER_HI,
                seed[lanes] if per_lane else seed, ids[lanes],
                self.rounds,
            )
            # uniform_from_bits, in place.
            np.right_shift(bits, _SHIFT, out=bits)
            np.multiply(bits, _SCALE, out=out[:, lanes])
        # One counter write-back; uint64 array addition wraps.
        self.counters[sel] = ctrs + tick
        return out[0] if k == 1 else out
