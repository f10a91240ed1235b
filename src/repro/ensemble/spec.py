"""Ensemble member specification: which configs may be fused, and how a
``--replicas N --sweep param=lo:hi:steps`` request expands into N member
configs.

Fusion requires the members to share everything the fused kernel
dispatches treat as uniform — mesh geometry, material set, particle
count, traversal options.  Only the per-lane quantities (RNG seed,
cutoffs, timestep length, source spectrum) may differ; they are gathered
into :class:`~repro.core.books.ReplicaBooks` arrays indexed by each
particle's ``replica_id``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.config import SimulationConfig, check_seed

__all__ = [
    "FUSIBLE_FIELDS",
    "SWEEPABLE_PARAMS",
    "EnsembleSpec",
    "SweepSpec",
    "validate_members",
]

#: Config fields allowed to differ between fused members.  Everything
#: else (mesh, materials, nparticles, boundary, VR options, block size,
#: search strategy, …) must be uniform: the fused run resolves them once
#: from member 0.
FUSIBLE_FIELDS = frozenset(
    {"seed", "energy_cutoff_ev", "weight_cutoff", "dt", "source"}
)

#: Parameters a ``--sweep`` may vary (dotted names address the source).
SWEEPABLE_PARAMS = (
    "energy_cutoff_ev",
    "weight_cutoff",
    "dt",
    "source.energy_ev",
    "source.weight",
)


def validate_members(members) -> tuple:
    """Check that the member configs agree on every non-fusible field.

    Returns the members as a tuple; raises ``ValueError`` naming the
    first offending field otherwise.
    """
    members = tuple(members)
    if not members:
        raise ValueError("an ensemble needs at least one member")
    base = members[0]
    for i, m in enumerate(members[1:], start=1):
        for f in dataclasses.fields(SimulationConfig):
            if f.name in FUSIBLE_FIELDS:
                continue
            a, b = getattr(base, f.name), getattr(m, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                same = (
                    a is not None and b is not None and np.array_equal(a, b)
                )
            else:
                same = a == b
            if not same:
                raise ValueError(
                    f"ensemble members must agree on {f.name!r} "
                    f"(member {i} differs from member 0); only "
                    f"{sorted(FUSIBLE_FIELDS)} may vary"
                )
    return members


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: ``steps`` values linearly spaced on
    ``[lo, hi]``, assigned to replicas cyclically (replica r gets value
    ``r % steps``)."""

    param: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.param not in SWEEPABLE_PARAMS:
            raise ValueError(
                f"cannot sweep {self.param!r}; sweepable parameters are "
                f"{SWEEPABLE_PARAMS}"
            )
        if self.steps < 1:
            raise ValueError("sweep needs at least one step")

    @classmethod
    def parse(cls, text: str) -> "SweepSpec":
        """Parse the CLI form ``param=lo:hi:steps``."""
        try:
            param, rest = text.split("=", 1)
            lo, hi, steps = rest.split(":")
            return cls(param.strip(), float(lo), float(hi), int(steps))
        except ValueError as exc:
            if "cannot sweep" in str(exc) or "at least one" in str(exc):
                raise
            raise ValueError(
                f"bad sweep spec {text!r}; expected param=lo:hi:steps"
            ) from None

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class EnsembleSpec:
    """N replicas of a base problem: replica r runs with seed
    ``base.seed + r * seed_stride`` and any swept parameter values."""

    base: SimulationConfig
    nreplicas: int
    seed_stride: int = 1
    sweeps: tuple[SweepSpec, ...] = ()

    def __post_init__(self):
        if self.nreplicas < 1:
            raise ValueError("nreplicas must be >= 1")
        # Member seeds are linear in r: the last replica's is the extreme.
        last = self.nreplicas - 1
        check_seed(self.base.seed + last * self.seed_stride,
                   f"replica {last}'s seed (seed + r*seed_stride)")

    def members(self) -> tuple[SimulationConfig, ...]:
        """Expand into the member configs (validated fusible)."""
        out = []
        sweep_values = [(s, s.values()) for s in self.sweeps]
        for r in range(self.nreplicas):
            changes: dict = {"seed": self.base.seed + r * self.seed_stride}
            source = self.base.source
            for sweep, vals in sweep_values:
                v = float(vals[r % len(vals)])
                if sweep.param.startswith("source."):
                    source = dataclasses.replace(
                        source, **{sweep.param.split(".", 1)[1]: v}
                    )
                else:
                    changes[sweep.param] = v
            if source is not self.base.source:
                changes["source"] = source
            out.append(self.base.with_(**changes))
        return validate_members(out)
