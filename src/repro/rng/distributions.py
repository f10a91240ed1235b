"""Samplers used by the transport physics.

The mini-app draws random numbers for (paper §IV-F):

* initial particle positions inside a bounded source region,
* initial (isotropic) directions,
* on a scattering collision: the scattering angle, the energy dampening,
  and the new number of mean-free-paths until the next collision.

These are the scalar forms, one particle per call: the reference the
vectorised samplers in :mod:`repro.kernels.batch` — which both schemes
run, for source births and banked children alike — are pinned against
draw for draw (the scalar source sampler and the parity suite use them).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sample_position_in_box",
    "sample_isotropic_direction",
    "sample_mean_free_paths",
]


def sample_position_in_box(
    u1: float, u2: float, x0: float, x1: float, y0: float, y1: float
) -> tuple[float, float]:
    """Map two uniforms to a point in the axis-aligned box ``[x0,x1]×[y0,y1]``."""
    return x0 + u1 * (x1 - x0), y0 + u2 * (y1 - y0)


def sample_isotropic_direction(u: float) -> tuple[float, float]:
    """Map one uniform to a unit direction isotropic in the 2D plane.

    Uses numpy's cos/sin so the scalar (Over Particles) and vectorised
    (Over Events) paths produce bit-identical directions — libm and numpy's
    SIMD transcendentals can differ in the last ulp.
    """
    theta = 2.0 * math.pi * u
    return float(np.cos(theta)), float(np.sin(theta))


def sample_mean_free_paths(u: float) -> float:
    """Sample the optical distance to the next collision, ``-ln(1 - u)``.

    The flight distance through a medium of macroscopic total cross section
    Σ_t is exponentially distributed; in optical units (mean free paths) it
    is a unit exponential.  ``1 - u`` keeps the argument strictly positive
    because the uniform generator produces values in ``[0, 1)``.
    """
    # numpy's log for bit-parity with the vectorised path.
    return float(-np.log(1.0 - u))
