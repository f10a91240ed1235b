"""Fission: secondary-particle production in multiplying media.

The paper's medium is non-multiplying, with fission named as future work
(§IV-D, §IX).  This extension implements the standard implicit treatment,
layered *around* the existing collision accounting so the non-multiplying
path is untouched:

* at a collision, capture and fission together form the absorption share
  (``σ_a = σ_c + σ_f``), so the weight reduction and local energy deposit
  of :func:`repro.kernels.batch.collide` already cover both;
* additionally, fission *banks* secondaries: with pre-collision weight
  ``w`` the expected yield is ``w ν σ_f / σ_t``, realised as an integer by
  adding a uniform draw and flooring (unbiased);
* each secondary is born at the fission site with unit weight, an
  isotropic direction and an energy from a simplified exponential fission
  spectrum, drawn from its **own** counter-based stream.

Secondary identity is derived deterministically from the parent's state by
running Threefry over ``(parent_id, event_counter « 8 | child_index)`` —
both parallelisation schemes therefore produce bit-identical secondaries
regardless of traversal order, preserving the scheme-equivalence property
the test-suite relies on.
"""

from __future__ import annotations

import numpy as np

from repro.rng.threefry import threefry2x64_vec

__all__ = [
    "FISSION_ID_DOMAIN",
    "derived_id",
    "secondary_id",
    "expected_secondaries",
    "realised_secondaries",
    "sample_secondary_energy",
]

#: Key-domain separator so secondary ids cannot collide with the primary
#: id sequence or with other derived streams.
FISSION_ID_DOMAIN = 0xF15510


def derived_id(domain: int, seed, parent_id, parent_counter, index):
    """Threefry over ``(parent_id, counter«8 | index)`` keyed by
    ``(seed, domain)``: the id of a child derived from its parent.

    Every argument but ``domain`` broadcasts, so one call derives the ids
    of a whole bank of children (scalars give one ``numpy.uint64``).
    """
    index = np.asarray(index)
    if np.any((index < 0) | (index > 0xFF)):
        raise ValueError("at most 256 children per parent event")
    # uint64 shifts wrap, like the 64-bit mask of the scalar form.
    word = (np.asarray(parent_counter, dtype=np.uint64) << np.uint64(8)) \
        | index.astype(np.uint64)
    out, _ = threefry2x64_vec(parent_id, word, seed, np.uint64(domain))
    return out[()]


def secondary_id(seed, parent_id, parent_counter, child_index):
    """Deterministic, collision-resistant id(s) for fission secondaries.

    ``(parent_id, counter«8 | index)`` is unique per banked secondary
    (counters strictly increase along a history; ≤255 secondaries per
    event), and Threefry scatters it over the 64-bit id space so derived
    streams are statistically independent of every other stream.
    """
    return derived_id(
        FISSION_ID_DOMAIN, seed, parent_id, parent_counter, child_index
    )


def expected_secondaries(
    weight: float, nu: float, sigma_f: float, sigma_t: float
) -> float:
    """Expected secondary yield of one collision, ``w ν σ_f / σ_t``."""
    if sigma_t <= 0.0:
        return 0.0
    return weight * nu * sigma_f / sigma_t


def realised_secondaries(expected: float, u: float) -> int:
    """Unbiased integer realisation: ``floor(expected + u)``.

    ``E[floor(x + U)] = x`` for ``U ~ U[0,1)`` — the yield is conserved in
    expectation without carrying fractional particles.
    """
    return int(np.floor(expected + u))


def sample_secondary_energy(u, mean_ev):
    """Simplified fission spectrum: exponential with the given mean, per
    draw (scalars or arrays).

    A Watt spectrum's shape is not needed for performance fidelity; the
    exponential keeps the one-draw birth protocol and a realistic fast
    emission energy scale (~2 MeV).
    """
    return -mean_ev * np.log(1.0 - u)
