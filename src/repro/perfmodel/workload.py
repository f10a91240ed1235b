"""Scale-free workload characterisation and rescaling.

A :class:`Workload` captures what the transport algorithm *does* per
particle — event rates, search work, tally-address statistics, the shape of
the per-history work distribution, and the Over Events pass structure —
measured from a real reduced-scale run.

Rescaling to the paper's problem sizes uses two laws, both validated by the
test-suite against multi-resolution runs:

* **facet crossings per particle scale linearly with mesh resolution** —
  crossings = (path length) × (|Ω_x|+|Ω_y|) / cell size and the physical
  path length is resolution-independent;
* **collisions per particle are resolution-invariant** — they depend only
  on cross sections and densities.

Tally conflict probability rescales inversely with the number of mesh
cells: the deposition footprint is a fixed *area* of the problem, so the
number of distinct cells it covers grows with resolution².
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.counters import Counters
from repro.core.simulation import TransportResult

__all__ = ["Workload"]


@dataclass(frozen=True)
class Workload:
    """Per-particle workload statistics at a given problem scale.

    Attributes
    ----------
    name:
        Problem label ("stream", "scatter", "csp").
    nparticles:
        Histories at this scale.
    mesh_nx:
        Mesh resolution at this scale (square meshes).
    collisions_pp, facets_pp, census_pp:
        Mean events per particle.
    reflections_pp, flushes_pp, density_reads_pp, lookups_pp, draws_pp:
        Other per-particle operation rates.
    linear_probes_per_lookup, binary_probes_per_lookup:
        Mean search steps per cross-section lookup for each strategy.
    conflict_probability:
        Probability two tally flushes target the same cell.
    work_cv:
        Coefficient of variation of the per-history work (collisions
        weighted by the collision/facet cost ratio; drives imbalance).
    work_samples:
        The measured per-history work distribution (arbitrary units),
        resampled when an exact schedule simulation is wanted.
    oe_passes:
        Over Events outer-loop passes executed.
    oe_occupancy:
        Mean fraction of the particle list active per OE pass.
    event_mix:
        (collision, facet, census) fractions of all events — drives the
        GPU divergence estimate and the OE kernel split.
    xs_table_bytes:
        Total bytes of the cross-section tables (working set of the
        energy-bin search).
    """

    name: str
    nparticles: int
    mesh_nx: int
    collisions_pp: float
    facets_pp: float
    census_pp: float
    reflections_pp: float
    flushes_pp: float
    density_reads_pp: float
    lookups_pp: float
    draws_pp: float
    linear_probes_per_lookup: float
    binary_probes_per_lookup: float
    conflict_probability: float
    work_cv: float
    work_samples: np.ndarray
    oe_passes: int
    oe_occupancy: float
    event_mix: tuple[float, float, float]
    xs_table_bytes: float = 2 * 25_000 * 16.0

    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: TransportResult) -> "Workload":
        """Characterise a finished transport run, in 2-D or 3-D.

        The machine models are dimension-agnostic: they consume operation
        rates and working-set sizes.  A 3-D mesh maps to the 2-D edge
        length with the same cell count (``mesh_bytes`` is what the cache
        model uses).
        """
        c: Counters = result.counters
        shape = result.tally.shape
        mesh_nx = (result.config.nx if len(shape) == 2
                   else round(math.prod(shape) ** 0.5))
        n = max(c.nparticles, 1)
        lookups = max(c.xs_lookups, 1)
        total_events = max(c.total_events, 1)

        # Work per history in "facet units": collisions weighted by the
        # measured grind-time ratio (≈6, §VI-A).
        work = (6.0 * c.collisions_per_particle + c.facets_per_particle).astype(
            np.float64
        )
        if work.size == 0 or work.mean() == 0:
            work = np.ones(n)
        cv = float(work.std() / work.mean()) if work.mean() > 0 else 0.0

        return cls(
            name=result.config.name,
            nparticles=n,
            mesh_nx=mesh_nx,
            collisions_pp=c.collisions / n,
            facets_pp=c.facets / n,
            census_pp=c.census_events / n,
            reflections_pp=c.reflections / n,
            flushes_pp=c.tally_flushes / n,
            density_reads_pp=c.density_reads / n,
            lookups_pp=c.xs_lookups / n,
            draws_pp=c.rng_draws / n,
            linear_probes_per_lookup=c.xs_linear_probes / lookups,
            binary_probes_per_lookup=c.xs_binary_probes / lookups,
            conflict_probability=c.tally_conflict_probability,
            work_cv=cv,
            work_samples=work,
            oe_passes=max(len(c.oe_passes), 1),
            oe_occupancy=c.oe_mean_occupancy(),
            event_mix=(
                c.collisions / total_events,
                c.facets / total_events,
                c.census_events / total_events,
            ),
            xs_table_bytes=2.0 * result.config.xs_nentries * 16.0,
        )

    # ------------------------------------------------------------------
    def scaled(self, nparticles: int, mesh_nx: int) -> "Workload":
        """Rescale to a different particle count and mesh resolution.

        Facet-linked rates (facets, reflections, flushes, density reads,
        and the OE pass count, which tracks the longest history) scale by
        ``mesh_nx / self.mesh_nx``; collision-linked rates are invariant;
        the tally conflict probability scales by the inverse cell-count
        ratio.
        """
        if nparticles < 1 or mesh_nx < 1:
            raise ValueError("scale targets must be positive")
        r = mesh_nx / self.mesh_nx
        cells_ratio = (self.mesh_nx / mesh_nx) ** 2
        # Flushes: the facet-driven share scales with r; the per-history
        # (census/termination) share is invariant.
        facet_flushes = self.facets_pp
        other_flushes = max(self.flushes_pp - facet_flushes, 0.0)
        work = self.work_samples * (
            (6.0 * self.collisions_pp + r * self.facets_pp)
            / max(6.0 * self.collisions_pp + self.facets_pp, 1e-300)
        )
        # The OE pass count tracks the *longest* history's event count, so
        # it scales by the history-length growth factor (only the facet
        # share of events grows with resolution), not by r directly —
        # collision-dominated problems keep almost the same pass count.
        events_old = max(self.collisions_pp + self.facets_pp + self.census_pp, 1e-300)
        events_new = self.collisions_pp + r * self.facets_pp + self.census_pp
        pass_factor = events_new / events_old
        return replace(
            self,
            nparticles=nparticles,
            mesh_nx=mesh_nx,
            facets_pp=self.facets_pp * r,
            reflections_pp=self.reflections_pp * r,
            flushes_pp=facet_flushes * r + other_flushes,
            density_reads_pp=self.density_reads_pp * r,
            conflict_probability=min(1.0, self.conflict_probability * cells_ratio),
            oe_passes=int(np.ceil(self.oe_passes * pass_factor)),
            work_samples=work,
            event_mix=self._scaled_mix(r),
        )

    def _scaled_mix(self, r: float) -> tuple[float, float, float]:
        coll = self.collisions_pp
        fac = self.facets_pp * r
        cen = self.census_pp
        tot = max(coll + fac + cen, 1e-300)
        return (coll / tot, fac / tot, cen / tot)

    # ------------------------------------------------------------------
    def work_distribution(self, n: int, seed: int = 0) -> np.ndarray:
        """Resample the measured per-history work distribution to ``n``
        items (for exact schedule simulations at paper scale)."""
        if n <= self.work_samples.size:
            return self.work_samples[:n].copy()
        reps = int(np.ceil(n / self.work_samples.size))
        tiled = np.tile(self.work_samples, reps)[:n]
        # Deterministic shuffle so chunk assignments are not artificially
        # periodic.
        rng = np.random.default_rng(seed)
        rng.shuffle(tiled)
        return tiled

    def mesh_bytes(self) -> int:
        """Bytes of one cell-centred float64 field at this scale."""
        return self.mesh_nx * self.mesh_nx * 8

    def warp_event_coherence(self) -> float:
        """Probability two random in-flight particles are at the same event
        type — the GPU warp-coherence proxy (1.0 = no divergence)."""
        return float(sum(f * f for f in self.event_mix))
