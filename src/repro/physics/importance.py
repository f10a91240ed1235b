"""Geometry splitting and roulette with importance maps.

A classic variance-reduction pair from the Monte Carlo literature the
paper cites (§IV-E, Lux & Koblinger): assign every mesh cell an
*importance* ``I``; when a particle crosses from importance ``I_old`` into
``I_new``:

* ``r = I_new / I_old > 1`` — the particle is entering a region that
  matters more (e.g. deeper into a shield whose transmission we want):
  **split** it into ``n`` copies of weight ``w/n``, where ``n`` is the
  unbiased integer realisation of ``r``;
* ``r < 1`` — entering a region that matters less: play **roulette** with
  survival probability ``r``, survivors boosted to ``w/r``.

Both moves conserve expected weight exactly; splitting conserves it
*per event* (``n · w/n = w``), roulette per expectation (ledgered exactly
per run by the validation layer).  One random draw is consumed per
importance-changing crossing, and clone identities derive from the parent
state through the same domain-separated Threefry construction as fission
secondaries — so the two parallelisation schemes split identically.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batch import MAX_SPLIT  # noqa: F401  (re-exported)
from repro.physics.fission import derived_id

__all__ = [
    "SPLIT_ID_DOMAIN",
    "MAX_SPLIT",
    "split_count",
    "clone_id",
]

#: Key-domain separator for split-clone ids (distinct from fission's).
SPLIT_ID_DOMAIN = 0x5B711


def split_count(ratio: float, u: float) -> int:
    """Unbiased number of particles after an importance-increasing
    crossing: ``floor(r + u)``, clamped to ``[1, MAX_SPLIT]``.

    ``E[floor(r + U)] = r`` — the expected weight entering the region is
    conserved without fractional particles.
    """
    if ratio <= 1.0:
        return 1
    return int(min(np.floor(ratio + u), MAX_SPLIT))


def clone_id(seed, parent_id, parent_counter, clone_index):
    """Deterministic id(s) for split clones (same construction as fission
    secondaries, different key domain; arguments broadcast)."""
    return derived_id(
        SPLIT_ID_DOMAIN, seed, parent_id, parent_counter, clone_index
    )
