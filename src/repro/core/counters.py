"""Instrumentation counters.

Everything the performance model needs to price a run on a machine model is
collected here while the *real* transport executes: event counts, memory
touches (density reads, tally flushes), cross-section search work, RNG
draws, the per-particle work distribution (for load-imbalance and
scheduling studies), and per-pass occupancy statistics of the Over Events
scheme (for vectorisation-efficiency and gather-cost modelling).

The counters are *algorithm facts*, independent of the host executing the
Python: the same run on any machine yields the same counters, which is what
makes the downstream machine models reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Counters", "EventPassStats"]


@dataclass
class EventPassStats:
    """Occupancy of one Over Events pass.

    Attributes
    ----------
    n_active:
        Particles still being advanced when the pass started (the gather
        loop visits the whole list; this is how many lanes do useful work).
    n_collision, n_facet, n_census:
        Particles handled by each event kernel in this pass.
    """

    n_active: int
    n_collision: int
    n_facet: int
    n_census: int


@dataclass
class Counters:
    """Aggregate instrumentation for one transport run."""

    nparticles: int = 0

    # --- event counts ---------------------------------------------------
    collisions: int = 0
    facets: int = 0
    census_events: int = 0
    terminations: int = 0
    reflections: int = 0

    # --- boundary leakage (vacuum boundaries, extension) ------------------
    escapes: int = 0
    escaped_energy: float = 0.0

    # --- Russian roulette ledger (extension) ------------------------------
    roulette_kills: int = 0
    roulette_survivals: int = 0
    roulette_loss_energy: float = 0.0
    roulette_gain_energy: float = 0.0

    # --- fission (multiplying media, extension) ---------------------------
    fissions: int = 0
    secondaries_banked: int = 0
    fission_injected_energy: float = 0.0

    # --- importance splitting (variance reduction, extension) -------------
    splits: int = 0
    clones_banked: int = 0

    # --- memory-touch counts --------------------------------------------
    tally_flushes: int = 0
    density_reads: int = 0

    # --- cross-section search work ---------------------------------------
    xs_lookups: int = 0
    xs_binary_probes: int = 0
    xs_linear_probes: int = 0
    #: Lookups that skipped the bin search because the particle's energy
    #: (and material) were unchanged since its last search (OE hoist).
    #: Still counted in ``xs_lookups``; only the probes are saved.
    xs_bin_reuses: int = 0

    # --- RNG -------------------------------------------------------------
    rng_draws: int = 0

    # --- kernel-layer instrumentation (host-dependent, not in snapshot) ---
    #: Per-kernel ``{name: [calls, items, seconds]}`` from the dispatch
    #: table.  Wall-clock depends on the host, so this is excluded from
    #: :attr:`_SCALAR_FIELDS` and shard-invariance checks.
    kernel_profile: dict = field(default_factory=dict)
    #: Workspace buffer churn: how many passes had to grow a buffer vs.
    #: how many reused one already sized (allocation-avoidance evidence).
    workspace_allocations: int = 0
    workspace_reuses: int = 0
    #: Final-population arena footprint in bytes (storage-layer accounting,
    #: §VI-D).  Alignment padding makes shard footprints non-additive, so —
    #: like :attr:`kernel_profile` — this is excluded from
    #: :attr:`_SCALAR_FIELDS`; the pool reduction overwrites it with the
    #: merged population's footprint.
    arena_nbytes: int = 0

    # --- per-particle work distribution (load imbalance, §VI-C) ----------
    collisions_per_particle: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    facets_per_particle: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    # --- Over Events pass structure (§V-B) --------------------------------
    oe_passes: list[EventPassStats] = field(default_factory=list)

    # --- tally address statistics (atomic contention) ---------------------
    tally_conflict_probability: float = 0.0

    # ----------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        """Collisions + facets + census events."""
        return self.collisions + self.facets + self.census_events

    def events_per_particle(self) -> np.ndarray:
        """Total events per particle — the per-history work distribution."""
        return self.collisions_per_particle + self.facets_per_particle

    def load_imbalance(self) -> float:
        """``max / mean`` of per-particle events.

        1.0 means perfectly uniform histories; the csp problem shows the
        largest value of the three test cases (paper §VI-C).
        """
        ev = self.events_per_particle()
        if ev.size == 0 or ev.mean() == 0:
            return 1.0
        return float(ev.max() / ev.mean())

    def mean_facets_per_particle(self) -> float:
        """Facet events per history (≈7000 in the paper's stream problem)."""
        if self.nparticles == 0:
            return 0.0
        return self.facets / self.nparticles

    def mean_collisions_per_particle(self) -> float:
        """Collision events per history."""
        if self.nparticles == 0:
            return 0.0
        return self.collisions / self.nparticles

    def oe_mean_occupancy(self) -> float:
        """Mean fraction of the particle list active per OE pass.

        The OE kernels visit the whole list each pass ("particles are
        gathered from memory", §V-B); occupancy below 1 is wasted streaming
        traffic and wasted vector lanes.
        """
        if not self.oe_passes:
            return 1.0
        total = sum(p.n_active for p in self.oe_passes)
        return total / (len(self.oe_passes) * max(self.nparticles, 1))

    #: Scalar fields captured by :meth:`snapshot` — every physics/work
    #: count that must be invariant under shard partitioning and recovery.
    _SCALAR_FIELDS = (
        "nparticles", "collisions", "facets", "census_events",
        "terminations", "reflections", "escapes", "escaped_energy",
        "roulette_kills", "roulette_survivals", "roulette_loss_energy",
        "roulette_gain_energy", "fissions", "secondaries_banked",
        "fission_injected_energy", "splits", "clones_banked",
        "tally_flushes", "density_reads", "xs_lookups", "xs_binary_probes",
        "xs_linear_probes", "xs_bin_reuses", "rng_draws",
    )

    def snapshot(self) -> dict:
        """Every scalar counter as a plain dict, for exact comparison.

        The worker pool reduces per-shard partial counters with
        :meth:`merge_disjoint`; because every scalar here is additive and
        the per-particle arrays concatenate, the reduction is invariant
        under the shard partition *and* under shard retries (a retried
        shard's partial result is discarded, never merged twice).  The
        chaos and property suites assert that invariance by comparing
        snapshots of faulted, pooled, and serial runs.
        """
        return {f: getattr(self, f) for f in self._SCALAR_FIELDS}

    def merge_disjoint(self, other: "Counters") -> None:
        """Accumulate a run over a *disjoint* set of histories
        (worker-pool shard reduction, §VI-F privatise-then-reduce).

        Population counts add and the per-particle work arrays are
        concatenated in call order, so the merged distribution covers every
        history exactly once.  Partial results from a shard that died
        mid-run must never reach this method — the pool re-executes the
        whole shard and merges only its complete payload, which is what
        keeps the reduction exact under recovery.
        """
        for name in self._SCALAR_FIELDS + ("workspace_allocations",
                                           "workspace_reuses"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, (calls, items, seconds) in other.kernel_profile.items():
            acc = self.kernel_profile.setdefault(name, [0, 0, 0.0])
            acc[0] += calls
            acc[1] += items
            acc[2] += seconds
        self.oe_passes.extend(other.oe_passes)
        # Keep the max conflict probability — conservative for contention.
        self.tally_conflict_probability = max(
            self.tally_conflict_probability, other.tally_conflict_probability
        )
        # Peak footprint across the merged runs (overwritten with the merged
        # population's own footprint where one exists, e.g. pool reduction).
        self.arena_nbytes = max(self.arena_nbytes, other.arena_nbytes)
        self.collisions_per_particle = np.concatenate(
            [self.collisions_per_particle, other.collisions_per_particle]
        )
        self.facets_per_particle = np.concatenate(
            [self.facets_per_particle, other.facets_per_particle]
        )
