"""A scripted switch schedule for the switch-parity suites.

The census stepper runs a fixed ``Scheme`` as itself and asks anything
else ``decide(step, stepper)``.  :class:`ScriptedPlan` is such an object
written out in advance, so a suite can switch scheme and compact at
chosen census steps and check that the physics cannot tell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stepper import StepDecision


@dataclass(frozen=True)
class ScriptedPlan:
    """One decision per census step; steps past the last repeat it.

    Frozen and built from frozen decisions, so it pickles into pool
    workers."""

    decisions: tuple[StepDecision, ...]

    def decide(self, step: int, stepper) -> StepDecision:
        return self.decisions[min(step, len(self.decisions) - 1)]
