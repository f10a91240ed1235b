"""Threefry-2x64 counter-based random number generator.

Threefry is the Threefish block cipher with the tweak removed and the number
of rounds reduced, introduced by Salmon et al., *Parallel random numbers: as
easy as 1, 2, 3* (SC'11) — reference [16] of the paper.  It maps a 128-bit
counter and a 128-bit key to 128 bits of output, and passes the full
BigCrush battery at 20 rounds (13 rounds is "Crush-resistant" and is the
r123 default for the 2x64 variant; we default to the conservative 20 used by
``threefry2x64`` in the paper's mini-app).

:func:`threefry2x64_vec` runs the cipher over numpy ``uint64`` arrays with
wrapping arithmetic, in place on two state buffers and one scratch
buffer.  Every transport draw, in either scheme, goes through it (via
:meth:`repro.rng.stream.VectorParticleRNG.next_uniform`), and so does
every banked child's id (:func:`repro.physics.fission.derived_id`).  The
scalar cipher on Python integers, the known-answer reference it is
checked against, lives with the tests (``tests/oracle/rng.py``).

The implementation follows the Random123 reference code: an 8-entry rotation
schedule, key injection every 4 rounds, and the Skein key-schedule parity
constant.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "THREEFRY_DEFAULT_ROUNDS",
    "SKEIN_KS_PARITY64",
    "ROTATION_2X64",
    "threefry2x64_vec",
]

#: Number of cipher rounds used by default (full Threefry-2x64-20).
THREEFRY_DEFAULT_ROUNDS = 20

#: Skein key-schedule parity constant for 64-bit words.
SKEIN_KS_PARITY64 = 0x1BD11BDAA9FC1A22

#: Rotation schedule for the 2x64 variant (repeats with period 8).
ROTATION_2X64 = (16, 42, 12, 31, 16, 32, 24, 21)

# The cipher's constants as 0-d ``uint64`` arrays: a ufunc takes a 0-d
# operand for less per call than a ``np.uint64`` scalar, with the same bits.
_PARITY = np.array(SKEIN_KS_PARITY64, dtype=np.uint64)
_ROT = tuple(np.array(r, dtype=np.uint64) for r in ROTATION_2X64)
_ROT_INV = tuple(np.array(64 - r, dtype=np.uint64) for r in ROTATION_2X64)
#: Injection ``s`` (1 … 8 over at most 32 rounds) adds ``s`` to the second
#: word.
_INJECT = tuple(np.array(s, dtype=np.uint64) for s in range(9))


def threefry2x64_vec(
    c0: np.ndarray,
    c1: np.ndarray,
    k0: np.ndarray,
    k1: np.ndarray,
    rounds: int = THREEFRY_DEFAULT_ROUNDS,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Threefry-2x64 over numpy ``uint64`` arrays.

    All four inputs broadcast against each other; the result has the
    broadcast shape; element-wise it is the Random123 ``threefry2x64``.
    The rounds run in place: the two returned state words and one scratch
    buffer (which also rebuilds the parity key word per injection, so the
    key is never materialised at the broadcast shape) are all it allocates.
    """
    if not 0 <= rounds <= 32:
        raise ValueError(f"rounds must be in [0, 32], got {rounds}")

    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    k0 = np.asarray(k0, dtype=np.uint64)
    k1 = np.asarray(k1, dtype=np.uint64)
    shape = np.broadcast(c0, c1, k0, k1).shape
    x0 = np.add(c0, k0, out=np.empty(shape, np.uint64))
    x1 = np.add(c1, k1, out=np.empty(shape, np.uint64))
    tmp = np.empty(shape, np.uint64)
    if k0.ndim and k1.ndim:
        lone = None
    else:
        # One key word is 0-d: fold the parity into it once, as a 0-d.
        lone, other = (k0, k1) if k0.ndim == 0 else (k1, k0)
        lone = np.bitwise_xor(lone, _PARITY, out=np.empty((), np.uint64))

    for i in range(rounds):
        r = i % 8
        np.add(x0, x1, out=x0)
        np.right_shift(x1, _ROT_INV[r], out=tmp)
        np.left_shift(x1, _ROT[r], out=x1)
        np.bitwise_or(x1, tmp, out=x1)
        np.bitwise_xor(x1, x0, out=x1)
        if i % 4 == 3:
            inject = i // 4 + 1
            for x, j in ((x0, inject % 3), (x1, (inject + 1) % 3)):
                if j < 2:
                    np.add(x, (k0, k1)[j], out=x)
                    continue
                # The third key word, parity ^ k0 ^ k1, rebuilt in ``tmp``.
                if lone is not None:
                    np.bitwise_xor(other, lone, out=tmp)
                else:
                    np.bitwise_xor(k0, k1, out=tmp)
                    np.bitwise_xor(tmp, _PARITY, out=tmp)
                np.add(x, tmp, out=x)
            # (x1 + ks) + inject: wrapping addition is associative.
            np.add(x1, _INJECT[inject], out=x1)

    return x0, x1
