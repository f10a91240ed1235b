"""Adaptive per-census-step scheme scheduler.

``AdaptiveScheduler`` is the one scheduler behind ``Scheme.AUTO``: the
census stepper (:func:`repro.core.stepper.run_stepped`) runs a fixed
:class:`~repro.core.config.Scheme` as itself and asks anything else
``decide(step, stepper)``.  It is purely a *scheduling* policy: it
never touches particle state directly, only returns
:class:`~repro.core.stepper.StepDecision` objects, so every run it
steers is bit-identical in physics to the corresponding fixed-scheme
run — the parity guarantee lives in the stepper, not here.  Its knobs
are the module constants below.

Policy
------
1. **Probe** — step 0 runs the first scheme in :data:`PROBE_ORDER`, step 1
   the other (when the run is long enough to amortise the probe).
2. **Measure** — between ``decide`` calls the scheduler reads the live
   event-counter delta from ``stepper.total_events()`` and the wall-clock
   delta, giving an events/sec rate for whichever scheme just ran.
3. **Exploit** — from step 2 on, pick the scheme with the best measured
   rate; the incumbent keeps the slot unless the challenger's rate
   beats it by :data:`SWITCH_MARGIN` (hysteresis, avoids flapping on
   noise).
4. **Re-probe** — measured rates go stale as the population decays; if
   the alive count has shifted by more than :data:`REPROBE_RATIO` since a
   scheme was last timed, it gets one fresh probe step.  A challenger
   that is abandoned again after a single step was a *failed
   challenge*; after :data:`MAX_CHALLENGES` failures the scheme is retired
   for the rest of the run, so flapping overhead is bounded.
5. **Shape** — OP block size tracks the alive count: one full-width
   block amortises per-block dispatch overhead in the vectorised
   backend and tiny late-time populations don't pay for mostly-empty
   waves.  A switch into OE on a mostly-dead arena requests
   ``compact=True`` so event passes stop scanning corpses.
"""

from __future__ import annotations

import time

from repro.core.config import Scheme, SimulationConfig
from repro.core.stepper import StepDecision

__all__ = ["AdaptiveScheduler"]

#: Scheme probed at step 0; the other is probed at step 1.  Step 0 is
#: atypical — pure fresh emission, no census carry-over — so its measured
#: rate runs hot.  OP leads: the inflated opening rate then belongs to the
#: scheme whose challenge is cheapest to retire (one bounded flap step,
#: then a strike), while the scheme probed second faces the comparison
#: with a fresh, representative measurement.
PROBE_ORDER = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)
#: Challenger must beat the incumbent's rate by this factor.
SWITCH_MARGIN = 1.15
#: Re-probe a scheme when ``alive`` has shifted by this factor since it
#: was last measured.
REPROBE_RATIO = 2.0
#: Request ``compact=True`` when switching into OE with more than this
#: fraction of the arena dead.
COMPACT_DEAD_FRACTION = 0.5
#: Never shrink the OP block below this.
MIN_BLOCK_SIZE = 8
#: Retire a scheme after this many failed challenges (picked on a
#: rate/re-probe decision, then abandoned after a single step).
MAX_CHALLENGES = 1


class _Rate:
    """Last measured events/sec for one scheme."""

    __slots__ = ("events_per_s", "alive_at_measure")

    def __init__(self, events_per_s: float, alive_at_measure: int):
        self.events_per_s = events_per_s
        self.alive_at_measure = alive_at_measure


class AdaptiveScheduler:
    """Telemetry-driven plan: probe both schemes, then exploit."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self._rates: dict[Scheme, _Rate] = {}
        self._strikes: dict[Scheme, int] = {}
        self._pending: tuple[Scheme, int, float] | None = None
        #: ``(step, StepDecision)`` history, for traces and tests.
        self.decisions: list[tuple[int, StepDecision]] = []

    # ------------------------------------------------------------------
    def _settle(self, stepper) -> None:
        """Fold the just-finished step into the rate table."""
        if self._pending is None:
            return
        scheme, events_before, t_before = self._pending
        self._pending = None
        d_events = stepper.total_events() - events_before
        d_t = time.perf_counter() - t_before
        if d_events <= 0 or d_t <= 0.0:
            return  # empty or unmeasurable step: keep the old rate
        self._rates[scheme] = _Rate(d_events / d_t, stepper.alive_count())

    def _pick(self, step: int, stepper, alive: int) -> tuple[Scheme, str]:
        if step < 2 and len(self._rates) < 2:
            probe = PROBE_ORDER[step % 2]
            if step == 1 and stepper.config.ntimesteps < 3:
                # Too short to amortise a second probe: stay put.
                incumbent = self.decisions[-1][1].scheme
                return incumbent, "short-run"
            return probe, "probe"
        incumbent = self.decisions[-1][1].scheme
        challenger = (
            Scheme.OVER_EVENTS if incumbent is Scheme.OVER_PARTICLES
            else Scheme.OVER_PARTICLES
        )
        if self._rates.get(challenger) is None:
            return challenger, "probe"
        if (
            self._strikes.get(challenger, 0) >= MAX_CHALLENGES
            # The incumbent's probe step was unmeasurable (the population
            # died during it): there is no rate to challenge.
            or incumbent not in self._rates
        ):
            return incumbent, "hold"
        inc_rate = self._rates[incumbent].events_per_s
        # The incumbent's rate refreshes every step for free; the
        # challenger's goes stale as the population decays.  Rates fall
        # roughly with the alive count once per-step overhead dominates,
        # so never extrapolate a stale rate upward: discount it by the
        # population shrink since it was measured.  Without this, a
        # scheme probed on a dense early population looks ever better as
        # the incumbent's fresh rate decays, and the scheduler flaps.
        cha = self._rates[challenger]
        ratio = alive / max(1, cha.alive_at_measure)
        cha_rate = cha.events_per_s * min(1.0, ratio)
        # Re-probe only when the alive count drifted AND the challenger
        # was competitive when last measured — re-timing a scheme that
        # lost decisively costs a full census step for no information.
        drifted = ratio > REPROBE_RATIO or ratio < 1.0 / REPROBE_RATIO
        if drifted and cha_rate * REPROBE_RATIO >= inc_rate:
            self._note_failed_challenge(incumbent)
            return challenger, "reprobe"
        if cha_rate > SWITCH_MARGIN * inc_rate:
            self._note_failed_challenge(incumbent)
            return challenger, (
                f"rate {cha_rate / max(inc_rate, 1e-30):.2f}x"
            )
        return incumbent, "hold"

    def _note_failed_challenge(self, incumbent: Scheme) -> None:
        """Strike ``incumbent`` if it was a one-step challenger.

        Called when the pick is about to switch away from ``incumbent``.
        If the incumbent itself took over on a rate/re-probe decision
        exactly one step ago, that challenge failed: it gets a strike,
        and after :data:`MAX_CHALLENGES` strikes the scheme is retired from
        consideration (probes are never struck).
        """
        last = self.decisions[-1][1]
        challenged = last.reason == "reprobe" or (
            last.reason or ""
        ).startswith("rate")
        one_step = (
            len(self.decisions) >= 2
            and self.decisions[-2][1].scheme is not incumbent
        )
        if challenged and one_step:
            self._strikes[incumbent] = self._strikes.get(incumbent, 0) + 1

    def decide(self, step: int, stepper) -> StepDecision:
        self._settle(stepper)
        alive = stepper.alive_count()
        scheme, reason = self._pick(step, stepper, alive)

        block_size = None
        compact = False
        if scheme is Scheme.OVER_PARTICLES and alive > 0:
            base_block = stepper.config.op_block_size
            shaped = max(MIN_BLOCK_SIZE, alive)
            if shaped != base_block:
                block_size = shaped
        prev = self.decisions[-1][1].scheme if self.decisions else None
        if scheme is Scheme.OVER_EVENTS and prev is Scheme.OVER_PARTICLES:
            total = len(stepper.arena)
            dead_frac = 1.0 - alive / total if total else 0.0
            compact = dead_frac > COMPACT_DEAD_FRACTION

        decision = StepDecision(
            scheme=scheme, block_size=block_size, compact=compact,
            reason=reason,
        )
        self.decisions.append((step, decision))
        self._pending = (
            scheme, stepper.total_events(), time.perf_counter()
        )
        return decision
