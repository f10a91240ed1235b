"""The unified census stepper — source emission, the census loop, the
census-boundary bookkeeping, the one step method and the one pass loop
of every driver, in one place:

* :func:`drive_census_loop` — the census loop itself (run span →
  timestep spans).  Every driver routes through it; the
  ``repro.kernels`` audit rejects any new ``range(ntimesteps)`` loop
  outside this module.
* :class:`CensusStepper` / :func:`run_stepped` — the full transport
  driver, for a :class:`~repro.core.config.SimulationConfig` in two
  dimensions or three (the config builds the mesh and the tally and
  names the births' draw count; the source region's axes pick the arena
  the population is emitted into).
  Each census step runs the one step method (``_step``) over zero-copy
  windows of the run arena under the scheme the run's *plan* picks (a
  fixed :class:`Scheme`, or a plan object with ``decide(step, stepper)
  -> StepDecision``), which differ by one row of data (``_traversal``):
  Over Particles windows of ``op_block_size`` lanes, or Over Events' one
  window over the whole arena.  ``Scheme.AUTO`` is the rule
  :data:`AUTO_RULE`: Over Events every step, compacting the arena at a
  boundary where more than :data:`COMPACT_DEAD_FRACTION` of it is dead
  (the widest width wins on every measured workload, see
  ``results/WIDTH.md``).
* :class:`StepDecision` — what one census step runs: the scheme and
  compaction at the boundary.

Parity argument: at a census boundary the entire transport state of a
history is its arena row — position, direction, energy, weight, cached
bins, ``dt_to_census``, ``mfp_to_collision`` and the RNG counter.  Every
window reads exactly that state at its start and leaves exactly that
state at its end (each synchronises its RNG counters into the arena), so
*which* scheme advances a given step cannot change any history's event
sequence.  Only instrumentation that prices traversal order (xs
probe/bin-reuse counters, workspace churn, kernel profile) may differ
between schedules; the physics counters, tallies and final population
are invariant, which
:func:`repro.ensemble.engine.population_fingerprint` makes checkable in
one hash.

Compaction at a census boundary is also parity-safe: it parks dead
histories in a morgue that is re-appended before the result is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.books import ReplicaBooks
from repro.core.config import Scheme, SimulationConfig
from repro.core.event_pass import PassContext, WorkingSet
from repro.core.over_events import HoistedRefresh, book_pass
from repro.core.over_particles import exact_refresh, trace_hook
from repro.kernels import KernelDispatch, Workspace
from repro.kernels.dispatch import KERNEL_TABLES
from repro.obs.live import NULL_PROBE
from repro.obs.spans import NULL_RECORDER
from repro.particles.source import sample_source

__all__ = [
    "AUTO_RULE",
    "COMPACT_DEAD_FRACTION",
    "StepDecision",
    "CensusStepper",
    "drive_census_loop",
    "run_stepped",
    "scheme_label",
    "validate_scheme_options",
]


def scheme_label(plan) -> Scheme:
    """The scheme a run under ``plan`` reports: a :class:`Scheme` as
    itself, a ``decide`` object (``AUTO``'s rule, or any other) as
    ``Scheme.AUTO``."""
    return plan if isinstance(plan, Scheme) else Scheme.AUTO


def validate_scheme_options(scheme) -> None:
    """The one place a run's plan is validated (``Simulation.run``,
    ``run_ensemble`` and :func:`run_stepped` call it): a :class:`Scheme`
    or an object with ``decide(step, stepper) -> StepDecision``."""
    if not isinstance(scheme, Scheme) and not hasattr(scheme, "decide"):
        valid = ", ".join(s.value for s in Scheme)
        raise ValueError(
            f"unknown scheme: {scheme!r} (valid schemes: {valid})"
        )


@dataclass(frozen=True)
class StepDecision:
    """What one census step runs.

    ``scheme`` picks the step method (a fixed scheme, never ``AUTO``);
    ``compact`` parks the dead histories in the morgue *before* the step
    runs (physics-invariant, see module docstring); ``reason`` is
    free-form plan provenance for the switch trace.
    """

    scheme: Scheme
    compact: bool = False
    reason: str = ""

    def __post_init__(self):
        if self.scheme not in (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS):
            raise ValueError(
                f"a StepDecision needs a concrete scheme "
                f"(over_particles or over_events), got {self.scheme!r}"
            )


#: ``Scheme.AUTO`` compacts the arena at a census boundary where more
#: than this fraction of it is dead.
COMPACT_DEAD_FRACTION = 0.5


class _AutoRule:
    """``Scheme.AUTO``'s plan: Over Events every step, the dead parked in
    the morgue first wherever more than :data:`COMPACT_DEAD_FRACTION` of
    the arena is dead."""

    def decide(self, step: int, stepper) -> StepDecision:
        total = len(stepper.arena)
        dead = total - stepper.alive_count()
        return StepDecision(
            Scheme.OVER_EVENTS,
            compact=dead > COMPACT_DEAD_FRACTION * total,
            reason="widest width",
        )


AUTO_RULE = _AutoRule()


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


class CensusStepper:
    """Owns the census loop, source emission, census-boundary
    bookkeeping and the run's replica books, and runs each step's
    transport by the one step method (:meth:`_step`) over windows of the
    run arena, with the row of data the plan's scheme picks.

    ``books`` carries the R >= 1 replicas sharing ``arena`` (an ensemble
    passes its own); a run given none is one replica of ``config`` —
    there is no other path."""

    def __init__(self, config: SimulationConfig, *, arena=None, trace=None,
                 recorder=None, books=None, provider=None, probe=None):
        self.config = config
        self.rec = NULL_RECORDER if recorder is None else recorder
        #: Live-plane publisher (repro.obs.live); NULL_PROBE when off.
        self.probe = NULL_PROBE if probe is None else probe
        #: The config supplies what depends on the dimension: the mesh,
        #: the tally type and the births' draw count.
        self.mesh = config.build_mesh()
        #: The Over Particles event-trace hook for :mod:`repro.simexec`.
        self.trace = (
            trace_hook(trace, self.mesh) if trace is not None else None
        )
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
            config.build_tally,
        )
        self.counters = self.books.totals
        self.tally = self.books.tally
        self.books.charge_births(config.BIRTH_DRAWS)
        #: Run-wide state of the one event pass, shared by both schemes
        #: (so there is one child bank).
        self.pass_ctx = PassContext(
            config, self.mesh, self.books, self.dispatch, self.ws,
            self.provider,
        )
        #: Dead histories parked by a compaction (arena rows and
        #: their books rows), re-appended before the result is built so
        #: population accounting and fingerprints match an uncompacted
        #: run.
        self.morgue: list[tuple] = []
        #: The whole-arena window's working set, kept across consecutive
        #: Over Events steps (it carries the bin-reuse cache); ``None``
        #: once an Over Particles step or a compaction has left its
        #: positional caches (micro-XS, material index, RNG gather) stale.
        self.work = None

    # ------------------------------------------------------------------
    def alive_count(self) -> int:
        return int(self.arena.alive.sum())

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

    def _compact(self, step: int) -> None:
        """Park the dead histories in the morgue before a step; they
        rejoin at finalisation, so the physics cannot tell.  Each
        compaction that parks any is recorded as a ``compaction`` event
        (``step``, ``parked``, the ``alive`` it keeps)."""
        dead = np.nonzero(~self.arena.alive)[0]
        if dead.size:
            self.rec.event(
                "compaction", step=step, parked=int(dead.size),
                alive=len(self.arena) - int(dead.size),
            )
            self.morgue.append(
                (self.arena.subset(dead), self.books.take(dead))
            )
            self.books.permute(np.nonzero(self.arena.alive)[0])
            self.arena.compact()
            self.work = None

    def _traversal(self, scheme: Scheme) -> tuple:
        """``(width, refresh)``, the one row of data by which the paper's
        two schemes differ (§V).  Over Particles: ``census_wave`` windows
        of ``op_block_size`` lanes of one replica; children join after
        each round, key-ordered.  Over Events: width ``None``, one window
        kept across consecutive such steps (``HoistedRefresh`` keeps its
        bin-reuse cache); each pass is booked and spanned, and its
        children join after it, in bank order."""
        if scheme is Scheme.OVER_PARTICLES:
            return self.config.op_block_size, exact_refresh
        return None, HoistedRefresh()

    def _step(self, scheme: Scheme, rec) -> None:
        """THE step method: advance every live history to census or
        termination in rounds of zero-copy windows (``arena.view``), each
        round's children joining in the (parent, event, child) order a
        one-history-at-a-time traversal banks them in, for the next.  An
        Over Particles window never spans replicas, so every replica sees
        the windows, bank joins and tally flushes of its standalone run.
        """
        width, refresh = self._traversal(scheme)
        arena, ctx = self.arena, self.pass_ctx
        lo = 0
        while lo < len(arena):
            with self.books.windows(arena, lo, width, ctx.bank) as windows:
                for sink, start, stop in windows:
                    lanes = int(np.count_nonzero(arena.alive[start:stop]))
                    if not lanes:
                        continue
                    if width is None:
                        if self.work is None:
                            self.work = WorkingSet(
                                ctx, arena, 0, sink, refresh, self.trace
                            )
                        self._passes(self.work, rec, per_pass=True)
                        continue
                    with rec.span(
                        "census_wave", lo=start, hi=stop, lanes=lanes
                    ):
                        self._passes(WorkingSet(
                            ctx, arena.view(start, stop), start, sink,
                            refresh, self.trace,
                        ), NULL_RECORDER, per_pass=False)
            lo = len(arena)
            if ctx.bank:
                ctx.join_bank(arena, ordered=True)
        if width is not None:
            self.work = None

    def _passes(self, work: WorkingSet, rec, per_pass: bool) -> None:
        """THE pass loop: refresh the cached cross sections of every live
        lane of the window, pass until no lane is active — ``per_pass``,
        booking each pass and joining its children after it, in bank
        order — and synchronise the window's RNG counters into the arena.
        """
        ctx = self.pass_ctx
        work.refresh(work, np.nonzero(work.arena.alive)[0])
        npass = 0
        while np.count_nonzero(active := work.active()):
            with rec.span("event_pass", index=npass) as pass_span:
                work.event_pass(
                    active,
                    partial(book_pass, pass_span)
                    if per_pass else None,
                )
                if per_pass and ctx.bank:
                    ctx.join_bank(self.arena)
                    work.refresh(work, work.grow())
            npass += 1
        work.sync_rng()

    # ------------------------------------------------------------------
    def run(self, plan) -> None:
        """Run every census step under ``plan``: a fixed :class:`Scheme`
        as one ``StepDecision(scheme)``; ``Scheme.AUTO`` as
        :data:`AUTO_RULE`; anything else is asked ``decide`` per step, and
        each switch (the first decision included) is announced as a
        ``scheme_switch`` event."""
        config = self.config
        rec = self.rec
        label = scheme_label(plan).value
        if plan is Scheme.AUTO:
            plan = AUTO_RULE
        fixed = StepDecision(plan) if isinstance(plan, Scheme) else None
        decision = None

        def begin_step(step: int) -> None:
            nonlocal decision
            prev = decision
            decision = fixed or plan.decide(step, self)
            if fixed is None and (
                prev is None or decision.scheme is not prev.scheme
            ):
                rec.event(
                    "scheme_switch",
                    step=step,
                    scheme=decision.scheme.value,
                    prev=prev.scheme.value if prev is not None else "",
                    reason=decision.reason,
                    alive=self.alive_count(),
                )
            if decision.compact:
                self._compact(step)
            if step > 0:
                self.books.rearm_census(
                    self.arena.dt_to_census, self.arena.alive
                )
            # A pass advances ``alive & ~censused``, whichever scheme
            # runs it: every live history is in flight again.
            self.arena.censused[:] = ~self.arena.alive

        def run_step(step: int) -> None:
            self._step(decision.scheme, rec)
            if self.probe.enabled:
                self._probe_step(step)

        drive_census_loop(
            rec, config.ntimesteps, {"scheme": label}, begin_step, run_step
        )
        self._finalize()

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        arena = self.arena
        books = self.books
        # Dead histories parked by a compaction rejoin the
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


def run_stepped(config: SimulationConfig, plan=Scheme.OVER_PARTICLES, *,
                arena=None, trace=None, recorder=None, books=None,
                provider=None, probe=None):
    """Run the unified census stepper — the one transport driver, in two
    dimensions or three.

    ``plan`` is a :class:`Scheme` (``AUTO`` runs :data:`AUTO_RULE`) or
    any object with ``decide(step, stepper) -> StepDecision``.

    ``arena`` is a pre-sampled population advanced in place (pool shard
    views, scheme-equivalence tests; sampled from the config's source
    when omitted), ``trace`` a list receiving the Over Particles event trace
    ``(history_index, event_kind, flat_cell)`` for :mod:`repro.simexec`,
    ``recorder`` / ``probe`` the purely observational telemetry hooks.
    ``books`` (:class:`~repro.core.books.ReplicaBooks`) fuses R replicas
    into ``arena``: ``config`` then supplies the uniform fields only and
    the per-replica results stay on the books.
    """
    from repro.core.simulation import TransportResult

    t0 = time.perf_counter()
    validate_scheme_options(plan)
    if trace is not None and plan is not Scheme.OVER_PARTICLES:
        raise ValueError("trace records only a Scheme.OVER_PARTICLES run")
    stepper = CensusStepper(
        config, arena=arena, trace=trace, recorder=recorder, books=books,
        provider=provider, probe=probe,
    )
    stepper.run(plan)
    return TransportResult(
        config=config,
        scheme=scheme_label(plan),
        tally=stepper.tally,
        counters=stepper.counters,
        arena=stepper.arena,
        wallclock_s=time.perf_counter() - t0,
    )
