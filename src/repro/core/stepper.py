"""The unified census stepper — one census loop for every driver.

Historically ``over_particles.py`` and ``over_events.py`` (and the 3-D
driver) each owned a private copy of the same census scaffolding: source
emission, the ``for step in range(ntimesteps)`` loop, the census-boundary
``dt_to_census`` reset, fission-bank bookkeeping and the final counter
wiring.  This module hoists all of that into one place:

* :func:`drive_census_loop` — the census loop itself (run span →
  timestep spans).  Every driver routes through it; the
  ``repro.kernels`` audit rejects any new ``range(ntimesteps)`` loop
  outside this module.
* :class:`CensusStepper` / :func:`run_stepped` — the full transport
  driver, for a :class:`~repro.core.config.SimulationConfig` in two
  dimensions or three (the config builds the mesh and the tally and
  names the births' draw count; the source region's axes pick the arena
  the population is emitted into).
  Each census step's transport is delegated to a pluggable
  scheme strategy (OP blocked lock-step or OE breadth-first) chosen per
  step by a *plan*, so the scheme becomes a per-census-step decision
  rather than a per-run constant.
* :class:`StepDecision` / :class:`SwitchPlan` — declarative switch
  schedules.  ``SwitchPlan.fixed(scheme)`` reproduces the legacy
  single-scheme drivers bit-for-bit; arbitrary schedules (including
  adversarial every-step switching) remain physics-bit-identical because
  every history owns a counter-based RNG stream and all census-boundary
  state lives in the arena.

Parity argument (the headline test of the adaptive PR): at a census
boundary the entire transport state of a history is its arena row —
position, direction, energy, weight, cached bins, ``dt_to_census``,
``mfp_to_collision`` and the RNG counter.  Both strategies read exactly
that state at step entry and leave exactly that state at step exit
(OP synchronises RNG counters per block writeback, the stepper
synchronises OE counters at every step end), so *which* strategy
advances a given step cannot change any history's event sequence.  Only
instrumentation that prices traversal order (xs probe/bin-reuse
counters, workspace churn, kernel profile) may differ between
schedules; the physics counters, tallies and final population are
invariant, which :func:`repro.ensemble.engine.population_fingerprint`
makes checkable in one hash.

Switch-boundary population maintenance (``sort_by`` / ``compact``) is
also parity-safe: sorting permutes storage order only (the fingerprint
sorts by ``particle_id`` internally), and compaction parks dead
histories in a morgue that is re-appended before the result is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import Scheme, SimulationConfig
from repro.core.event_pass import PassContext, WorkingSet
from repro.core.over_events import HoistedRefresh, run_passes
from repro.core.over_particles import run_block, trace_hook
from repro.kernels import KernelDispatch, Workspace
from repro.kernels.dispatch import KERNEL_TABLES
from repro.obs.live import NULL_PROBE
from repro.obs.spans import NULL_RECORDER
from repro.particles.source import sample_source

__all__ = [
    "StepDecision",
    "SwitchPlan",
    "CensusStepper",
    "drive_census_loop",
    "run_stepped",
    "scheme_label",
    "validate_scheme_options",
]

_SORT_KEYS = (None, "energy", "cell", "particle_id")


def scheme_label(plan) -> Scheme:
    """The scheme a run under ``plan`` reports: a fixed scheme, or a plan
    that keeps to one, as itself; anything that switches (``AUTO``'s
    scheduler, a switching :class:`SwitchPlan`) as ``Scheme.AUTO``."""
    if isinstance(plan, Scheme):
        return plan
    return getattr(plan, "fixed_scheme", None) or Scheme.AUTO


def validate_scheme_options(config: SimulationConfig, scheme) -> None:
    """The one place scheme / block-size combinations are validated.

    ``Simulation.run``, :func:`run_stepped` and the worker pool all call
    this instead of re-validating per driver.  Accepts the two fixed
    schemes, ``Scheme.AUTO`` and explicit :class:`SwitchPlan` instances.
    """
    if isinstance(scheme, SwitchPlan):
        return
    if not isinstance(scheme, Scheme):
        valid = ", ".join(s.value for s in Scheme)
        raise ValueError(
            f"unknown scheme: {scheme!r} (valid schemes: {valid})"
        )
    if config.op_block_size < 1 and scheme is not Scheme.OVER_EVENTS:
        raise ValueError(
            f"op_block_size must be >= 1 for scheme {scheme.value!r}, "
            f"got {config.op_block_size}"
        )


@dataclass(frozen=True)
class StepDecision:
    """What one census step should do.

    ``scheme`` picks the strategy (a fixed scheme, never ``AUTO``);
    ``block_size`` overrides ``config.op_block_size`` for an OP step
    (block size is physics-invariant, so any value is parity-safe);
    ``sort_key`` / ``compact`` request population maintenance *before*
    the step runs (both physics-invariant, see module docstring);
    ``reason`` is free-form scheduler provenance for the switch trace.
    """

    scheme: Scheme
    block_size: int | None = None
    sort_key: str | None = None
    compact: bool = False
    reason: str = ""

    def __post_init__(self):
        if self.scheme not in (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS):
            raise ValueError(
                f"a StepDecision needs a concrete scheme "
                f"(over_particles or over_events), got {self.scheme!r}"
            )
        if self.block_size is not None:
            if self.scheme is not Scheme.OVER_PARTICLES:
                raise ValueError(
                    "block_size only applies to over_particles steps"
                )
            if self.block_size < 1:
                raise ValueError(
                    f"block_size must be >= 1, got {self.block_size}"
                )
        if self.sort_key not in _SORT_KEYS:
            raise ValueError(
                f"sort_key must be one of {_SORT_KEYS[1:]}, "
                f"got {self.sort_key!r}"
            )


@dataclass(frozen=True)
class SwitchPlan:
    """A declarative switch schedule: one decision per census step.

    Steps beyond the last decision repeat it, so a one-entry plan is a
    fixed-scheme run.  Frozen and built from frozen decisions, so a plan
    pickles cleanly into pool workers.
    """

    decisions: tuple[StepDecision, ...]

    def __post_init__(self):
        if not self.decisions:
            raise ValueError("a SwitchPlan needs at least one decision")

    @classmethod
    def fixed(cls, scheme: Scheme) -> "SwitchPlan":
        """The legacy single-scheme run, as a plan."""
        return cls((StepDecision(scheme=scheme),))

    @property
    def fixed_scheme(self) -> Scheme | None:
        """The single scheme this plan uses, or ``None`` if it switches
        schemes or performs boundary maintenance."""
        schemes = {d.scheme for d in self.decisions}
        boundary = any(d.sort_key or d.compact for d in self.decisions)
        if len(schemes) == 1 and not boundary:
            return next(iter(schemes))
        return None

    def decide(self, step: int, stepper) -> StepDecision:
        return self.decisions[min(step, len(self.decisions) - 1)]


def drive_census_loop(recorder, ntimesteps, run_attrs, begin_step,
                      run_step) -> None:
    """THE census loop.  All transport drivers route through here.

    ``begin_step(step)`` runs census-boundary bookkeeping *outside* the
    timestep span (dt re-arm, scheme decisions, population maintenance);
    ``run_step(step)`` advances every live history to census *inside*
    it.  The kernels audit (``python -m repro.kernels --check``) rejects
    any census-loop reimplementation outside this module, so the loop
    structure — and the span tree shape telemetry consumers rely on —
    stays single-sourced.
    """
    rec = NULL_RECORDER if recorder is None else recorder
    with rec.span("run", **run_attrs):
        for step in range(ntimesteps):
            begin_step(step)
            with rec.span("timestep", step=step):
                run_step(step)


class _OPStrategy:
    """Blocked lock-step depth-first transport for one census step.

    Replica-segment scheduling of :func:`repro.core.over_particles.run_block`
    (gather a block, run the one event pass over it until no lane is
    active, scatter it back): each round sweeps every replica's lanes in
    blocks (a plain run is one segment), then drains the child bank.
    Blocks are cut from one replica's lanes in its own storage order —
    the order of that replica's standalone arena — so no block spans
    replicas, every block charges its replica's whole-batch sink, and
    every replica sees exactly the block passes, bank drains and tally
    flushes of its standalone run.

    What this strategy hands the shared pass: exact search accounting
    (``exact_refresh``), the event-trace hook, no pass booking, and the
    bank joined *sorted*, at round end.
    """

    scheme = Scheme.OVER_PARTICLES

    def __init__(self, stepper: "CensusStepper"):
        self.stepper = stepper
        self.trace = (
            trace_hook(stepper.trace, stepper.mesh)
            if stepper.trace is not None else None
        )

    def begin_step(self, step: int) -> None:
        pass

    def run_step(self, step: int, decision: StepDecision, rec) -> None:
        stepper = self.stepper
        arena = stepper.arena
        books = stepper.books
        ctx = stepper.pass_ctx
        block_size = decision.block_size or stepper.config.op_block_size
        lo = 0
        while lo < len(arena):
            hi = len(arena)
            for r, lanes in books.segments(lo, hi):
                for cursor in range(0, lanes.size, block_size):
                    block = lanes[cursor:cursor + block_size]
                    idx = block[arena.alive[block]]
                    if idx.size:
                        with rec.span(
                            "census_wave", lo=int(block[0]),
                            hi=int(block[-1]) + 1, lanes=int(idx.size),
                        ):
                            run_block(
                                ctx, arena, idx, books.sinks[r], self.trace
                            )
            lo = hi
            # Drain the bank within the timestep: offspring join the
            # population in the deterministic (parent, event, child)
            # order a one-history-at-a-time traversal would have banked
            # them in, and are tracked in the next round.
            if ctx.bank:
                ctx.join_bank(arena, ordered=True)

    def end_step(self) -> None:
        # Every block synchronised its RNG counters into the arena on the
        # way out; the OE working set's positional caches are now stale.
        self.stepper.oe_dirty = True


class _OEStrategy:
    """Breadth-first event-pass transport for one census step.

    Runs the one event pass over the run arena in place
    (:func:`repro.core.over_events.run_passes`).  The working set
    persists across consecutive OE steps — preserving the cross-timestep
    bin-reuse cache a pure-OE run relies on — and is rebuilt whenever
    another strategy (or boundary maintenance) touched the population,
    because its positional caches (micro-XS arrays, material index, RNG
    gather) would be stale.

    What this strategy hands the shared pass: the bin-reuse hoist with
    estimated probes (``HoistedRefresh``), the run's books as a per-lane
    sink, an ``EventPassStats`` row per pass, and the bank joined in
    insertion order after every pass.
    """

    scheme = Scheme.OVER_EVENTS

    def __init__(self, stepper: "CensusStepper"):
        self.stepper = stepper
        self.work = None

    def begin_step(self, step: int) -> None:
        stepper = self.stepper
        if self.work is None or stepper.oe_dirty:
            self.work = WorkingSet(
                stepper.pass_ctx, stepper.arena,
                np.arange(len(stepper.arena)), stepper.books,
                HoistedRefresh(),
            )
            stepper.oe_dirty = False

    def run_step(self, step: int, decision: StepDecision, rec) -> None:
        run_passes(self.work, rec)

    def end_step(self) -> None:
        # Synchronising every step (not just at run end) is what makes
        # an OE→OP hand-off read the right streams.
        self.work.sync_rng()


class CensusStepper:
    """Owns the census loop, source emission, census-boundary
    bookkeeping and the run's replica books; delegates each step's
    transport to a scheme strategy picked by the plan.

    ``books`` carries the R >= 1 replicas sharing ``arena`` (an ensemble
    passes its own); a run given none is one replica of ``config`` —
    there is no other path."""

    def __init__(self, config: SimulationConfig, *, arena=None, tally=None,
                 trace=None, recorder=None, books=None, provider=None,
                 probe=None):
        self.config = config
        self.rec = NULL_RECORDER if recorder is None else recorder
        #: Live-plane publisher (repro.obs.live); NULL_PROBE when off.
        self.probe = NULL_PROBE if probe is None else probe
        self.trace = trace
        #: The config supplies what depends on the dimension: the mesh,
        #: the tally type and the births' draw count.
        self.mesh = config.build_mesh()
        #: The cross-section backend, built exactly once per run and
        #: threaded into every context (and the source sampler).
        self.provider = (
            provider if provider is not None else config.resolved_provider()
        )
        if arena is None:
            arena = sample_source(
                self.mesh, config.source, config.nparticles, config.seed,
                config.dt,
                provider=self.provider,
            )
        self.arena = arena
        self.dispatch = KernelDispatch(
            KERNEL_TABLES[len(self.mesh.deltas)],
            recorder=self.rec if self.rec.enabled else None,
        )
        self.ws = Workspace()
        #: Per-replica counters/tallies, per-lane replica and work arrays,
        #: and the run totals (``counters`` / ``tally`` below).
        self.books = books or ReplicaBooks(
            (config,), np.zeros(len(arena), dtype=np.int64),
            config.build_tally, tally,
        )
        self.counters = self.books.totals
        self.tally = self.books.tally
        self.books.charge_births(config.BIRTH_DRAWS)
        #: Run-wide state of the one event pass, shared by both
        #: strategies (so there is one child bank).
        self.pass_ctx = PassContext(
            config, self.mesh, self.books, self.dispatch, self.ws,
            self.provider,
        )
        #: Dead histories parked by compact-at-switch (arena rows and
        #: their books rows), re-appended before the result is built so
        #: population accounting and fingerprints match an uncompacted
        #: run.
        self.morgue: list[tuple] = []
        #: True while the arena may disagree with the OE context's
        #: positional caches (set by OP steps and boundary maintenance).
        self.oe_dirty = True
        self._strategies: dict[Scheme, object] = {}
        self.result_scheme = Scheme.AUTO

    # ------------------------------------------------------------------
    def alive_count(self) -> int:
        return int(self.arena.alive.sum())

    def total_events(self) -> int:
        """Events executed so far, over every replica."""
        return self.books.live_totals()[0]

    def _probe_step(self, step: int) -> None:
        """Publish this shard's in-progress counter totals to the live
        plane."""
        events, xs, probes = self.books.live_totals()
        self.probe.step_complete(
            step=step,
            alive=self.alive_count(),
            events=int(events),
            xs_lookups=int(xs),
            xs_probes=int(probes),
        )

    def _strategy(self, scheme: Scheme):
        strat = self._strategies.get(scheme)
        if strat is None:
            cls = (
                _OPStrategy if scheme is Scheme.OVER_PARTICLES
                else _OEStrategy
            )
            strat = cls(self)
            self._strategies[scheme] = strat
        return strat

    def _apply_boundary(self, decision: StepDecision) -> None:
        """Population maintenance at a switch boundary (physics-invariant:
        sorting permutes storage only; compaction parks dead histories in
        the morgue until finalisation)."""
        if decision.sort_key is None and not decision.compact:
            return
        if self.trace is not None:
            raise ValueError(
                "switch-boundary sort/compact is incompatible with event "
                "tracing (traces address histories by arena index)"
            )
        if decision.sort_key is not None:
            self.books.permute(self.arena.sort_by(decision.sort_key))
            self.oe_dirty = True
        if decision.compact:
            dead = np.nonzero(~self.arena.alive)[0]
            if dead.size:
                self.morgue.append(
                    (self.arena.subset(dead), self.books.take(dead))
                )
                self.books.permute(np.nonzero(self.arena.alive)[0])
                self.arena.compact()
                self.oe_dirty = True

    # ------------------------------------------------------------------
    def run(self, plan) -> None:
        config = self.config
        rec = self.rec
        self.result_scheme = scheme_label(plan)
        announce = self.result_scheme is Scheme.AUTO
        state: dict = {}

        def begin_step(step: int) -> None:
            decision = plan.decide(step, self)
            prev = state.get("scheme")
            if announce and decision.scheme is not prev:
                if decision.scheme is Scheme.OVER_PARTICLES:
                    block = decision.block_size or config.op_block_size
                else:
                    block = 0
                rec.event(
                    "scheme_switch",
                    step=step,
                    scheme=decision.scheme.value,
                    prev=prev.value if prev is not None else "",
                    reason=decision.reason,
                    block_size=int(block),
                    alive=self.alive_count(),
                )
            state["scheme"] = decision.scheme
            state["decision"] = decision
            self._apply_boundary(decision)
            if step > 0:
                self.books.rearm_census(
                    self.arena.dt_to_census, self.arena.alive
                )
            # A pass advances ``alive & ~censused``, whichever strategy
            # runs it: every live history is in flight again.
            self.arena.censused[:] = ~self.arena.alive
            strategy = self._strategy(decision.scheme)
            strategy.begin_step(step)
            state["strategy"] = strategy

        def run_step(step: int) -> None:
            decision = state["decision"]
            strategy = state["strategy"]
            strategy.run_step(step, decision, rec)
            strategy.end_step()
            if self.probe.enabled:
                self._probe_step(step)

        label = self.result_scheme.value
        drive_census_loop(
            rec, config.ntimesteps, {"scheme": label}, begin_step, run_step
        )
        self._finalize()

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        arena = self.arena
        books = self.books
        # Dead histories parked by compact-at-switch rejoin the
        # population (storage order differs from an uncompacted run, but
        # fingerprints sort by particle_id, so parity is unaffected).
        for dead_arena, dead_rows in self.morgue:
            arena.extend(dead_arena)
            books.append(dead_rows)
        self.morgue = []
        counters = books.fold()
        for c, t in zip(
            books.counters + [counters], books.tallies + [books.tally]
        ):
            c.tally_conflict_probability = t.conflict_probability()
        counters.kernel_profile = self.dispatch.profile()
        counters.workspace_allocations = self.ws.allocations
        counters.workspace_reuses = self.ws.reuses
        counters.arena_nbytes = arena.nbytes()


def _coerce_plan(config: SimulationConfig, plan):
    """Normalise the ``plan`` argument: a Scheme becomes a fixed plan
    (``AUTO`` becomes a live adaptive scheduler); plan objects pass
    through."""
    if plan is None:
        return SwitchPlan.fixed(Scheme.OVER_PARTICLES)
    if isinstance(plan, Scheme):
        if plan is Scheme.AUTO:
            from repro.adaptive import AdaptiveScheduler

            return AdaptiveScheduler(config)
        return SwitchPlan.fixed(plan)
    return plan


def run_stepped(config: SimulationConfig, plan=None, *, arena=None,
                tally=None, trace=None, recorder=None, books=None,
                provider=None, probe=None):
    """Run the unified census stepper — the one transport driver, in two
    dimensions or three.

    ``plan`` is a :class:`Scheme` (``AUTO`` builds a live
    :class:`repro.adaptive.AdaptiveScheduler`), a :class:`SwitchPlan`,
    or any object with ``decide(step, stepper) -> StepDecision``.

    ``arena`` is a pre-sampled population advanced in place (pool shard
    views, scheme-equivalence tests; sampled from the config's source
    when omitted), ``tally`` an existing tally to accumulate into,
    ``trace`` a list receiving the Over Particles event trace
    ``(history_index, event_kind, flat_cell)`` for :mod:`repro.simexec`,
    ``recorder`` / ``probe`` the purely observational telemetry hooks.
    ``books`` (:class:`~repro.core.books.ReplicaBooks`) fuses R replicas
    into ``arena``: ``config`` then supplies the uniform fields only and
    the per-replica results stay on the books.
    """
    from repro.core.simulation import TransportResult

    t0 = time.perf_counter()
    if plan is None or isinstance(plan, (Scheme, SwitchPlan)):
        validate_scheme_options(
            config, plan if plan is not None else Scheme.OVER_PARTICLES
        )
    plan = _coerce_plan(config, plan)
    stepper = CensusStepper(
        config, arena=arena, tally=tally, trace=trace, recorder=recorder,
        books=books, provider=provider, probe=probe,
    )
    stepper.run(plan)
    return TransportResult(
        config=config,
        scheme=stepper.result_scheme,
        tally=stepper.tally,
        counters=stepper.counters,
        arena=stepper.arena,
        wallclock_s=time.perf_counter() - t0,
    )
