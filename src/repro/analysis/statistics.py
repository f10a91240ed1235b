"""Independent-batch statistics for tally estimates.

The Monte Carlo method "statistically determines the solution ... relying
heavily upon the central limit theorem" (paper §III).  The standard way to
quantify that statistics is independent batches: run B replicas of the
problem under independent random streams (distinct seeds — free with a
counter-based RNG), and report the batch mean and its standard error per
cell.  The relative error of any well-behaved tally shrinks as 1/√B, which
the test-suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, SimulationConfig
from repro.ensemble import EnsembleSpec, run_ensemble

__all__ = ["BatchStatistics", "batch_statistics"]


@dataclass(frozen=True)
class BatchStatistics:
    """Per-cell batch statistics of the energy-deposition tally.

    Attributes
    ----------
    mean:
        Batch-mean deposition per cell.
    stderr:
        Standard error of the batch mean per cell.
    nbatches:
        Number of independent batches.
    total_mean / total_stderr:
        Statistics of the mesh-integrated deposition.
    """

    mean: np.ndarray
    stderr: np.ndarray
    nbatches: int
    total_mean: float
    total_stderr: float

    def relative_error(self, floor: float = 0.0) -> np.ndarray:
        """Per-cell relative standard error (cells at or below ``floor``
        mean report 0 rather than dividing by ~zero)."""
        out = np.zeros_like(self.mean)
        ok = self.mean > floor
        out[ok] = self.stderr[ok] / self.mean[ok]
        return out

    def max_relative_error(self, significance: float = 1e-6) -> float:
        """Largest relative error over cells holding at least
        ``significance`` of the total deposition."""
        if self.total_mean <= 0:
            return 0.0
        significant = self.mean > significance * self.total_mean
        if not significant.any():
            return 0.0
        return float(
            (self.stderr[significant] / self.mean[significant]).max()
        )


def batch_statistics(
    config: SimulationConfig,
    nbatches: int,
    scheme: Scheme = Scheme.OVER_EVENTS,
    base_seed: int | None = None,
) -> BatchStatistics:
    """Run ``nbatches`` independent replicas and aggregate their tallies.

    The batches are the replicas of one fused ensemble: batch ``b`` reuses
    the configuration with seed ``base_seed + 1000·b``, and the
    counter-based RNG guarantees the streams are independent — each
    replica's tally is bit-identical to its standalone run.  Sample
    variance uses the (B−1) denominator; totals integrate over every mesh
    axis, in any dimension.
    """
    if nbatches < 2:
        raise ValueError("need at least two batches for a variance estimate")
    seed0 = config.seed if base_seed is None else base_seed
    spec = EnsembleSpec(config.with_(seed=seed0), nbatches, seed_stride=1000)
    stack = np.stack(
        [r.tally.deposition for r in run_ensemble(spec, scheme).replicas]
    )

    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / np.sqrt(nbatches)
    totals = stack.sum(axis=tuple(range(1, stack.ndim)))
    return BatchStatistics(
        mean=mean,
        stderr=stderr,
        nbatches=nbatches,
        total_mean=float(totals.mean()),
        total_stderr=float(totals.std(ddof=1) / np.sqrt(nbatches)),
    )
