"""Variance reduction: weighted histories and their termination cutoffs.

In an analogue calculation a particle streams until absorbed; the mini-app
instead gives every history a statistical weight (paper §IV-E).  Absorption
reduces the weight (implicit capture, :func:`repro.kernels.batch.collide`),
and a history ends only when its weight falls below a fixed cutoff or its
energy drops below the energy of interest
(:func:`repro.kernels.batch.apply_cutoffs`).

An optional *Russian roulette* mode is provided as an extension (it is the
standard companion of implicit capture in production codes): instead of
deterministic termination at the weight cutoff, a low-weight history
survives with probability ``weight / roulette_weight`` and is restored to
``roulette_weight`` (:func:`repro.kernels.batch.roulette`) — unbiased by
construction.  The paper's experiments use deterministic cutoff, which is
the default everywhere.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_ENERGY_CUTOFF_EV",
    "DEFAULT_WEIGHT_CUTOFF",
]

#: Histories below this energy are no longer "of interest" (thermal floor).
DEFAULT_ENERGY_CUTOFF_EV = 1.0e-2

#: Histories below this fraction of their birth weight terminate.
DEFAULT_WEIGHT_CUTOFF = 1.0e-3
