"""Transport ↔ heat-conduction coupling.

The paper's §VI-F observes that in real use "the application would likely
be collecting tallies to update the source terms of another application,
and the energy deposition would need to be merged from all threads at
every timestep" — the very requirement that made per-timestep tally
merging expensive.  This module implements that host-code pattern: the
transport's per-timestep energy deposition becomes the volumetric heating
source of the ``hot`` conduction solver, alternating

    transport step  →  deposition tally  →  q(x, y)  →  implicit heat step

so the repository contains a working instance of the coupling the paper
only gestures at.  The conversion treats the mesh cells as unit-thickness
volumes of a material with the given heat capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comparisons.hot import HotSolver
from repro.core.config import Scheme, SimulationConfig
from repro.physics.constants import EV_TO_J

__all__ = ["CoupledResult", "run_coupled"]


@dataclass(frozen=True)
class CoupledResult:
    """Outcome of a coupled transport/conduction calculation.

    Attributes
    ----------
    temperature:
        Final temperature field [K], shape ``(ny, nx)``.
    deposition_per_step:
        The transport tally of each timestep [eV per cell].
    cg_iterations:
        CG iterations each heat solve needed.
    total_deposited_ev:
        Energy handed from transport to conduction over the run.
    """

    temperature: np.ndarray
    deposition_per_step: list
    cg_iterations: list
    total_deposited_ev: float


def run_coupled(
    config: SimulationConfig,
    nsteps: int,
    initial_temperature: float = 300.0,
    conductivity: float = 1.0e-3,
    heat_capacity_j_per_k: float = 1.0e-12,
    heat_dt: float = 1.0e-3,
    scheme: Scheme = Scheme.OVER_EVENTS,
) -> CoupledResult:
    """Alternate transport and conduction for ``nsteps`` timesteps.

    Each step runs one transport timestep (continuing the same particle
    population), converts the step's fresh deposition into a heating
    impulse (``ΔT = E_dep · eV→J / C_cell`` delivered over one conduction
    step), and advances the implicit conduction solve with that source.

    Parameters
    ----------
    config:
        Transport configuration (its ``ntimesteps`` is ignored; stepping
        is driven here).
    nsteps:
        Coupled steps to run.
    initial_temperature:
        Uniform starting temperature [K].
    conductivity:
        Thermal diffusivity of the conduction solve.
    heat_capacity_j_per_k:
        Heat capacity of one cell — converts deposited joules to kelvins.
    heat_dt:
        Conduction timestep.  Heat diffuses on a far slower timescale than
        a 1e-7 s transport step resolves, so the standard multirate
        coupling advances conduction by ``heat_dt`` per exchange using the
        transport step's average heating power.
    """
    if nsteps < 1:
        raise ValueError("need at least one coupled step")
    if heat_capacity_j_per_k <= 0:
        raise ValueError("heat capacity must be positive")

    # The transport drivers advance censused populations when ntimesteps>1;
    # for host-driven stepping we run one timestep at a time against a
    # persistent tally and difference it per step.
    from repro.core.stepper import run_stepped

    step_cfg = config.with_(ntimesteps=1)
    if heat_dt <= 0:
        raise ValueError("heat_dt must be positive")
    heat = HotSolver(
        np.full((config.ny, config.nx), float(initial_temperature)),
        conductivity=conductivity,
        dt=heat_dt,
    )

    depositions = []
    iterations = []
    population = None  # ParticleArena, carried between steps
    total = 0.0

    for step in range(nsteps):
        result = run_stepped(step_cfg, scheme, arena=population)
        population = result.arena
        population.dt_to_census[population.alive] = step_cfg.dt

        dep = result.tally.deposition.copy()
        depositions.append(dep)
        total += float(dep.sum())

        # The step's deposit enters as an energy impulse: a source that,
        # integrated over one conduction step, raises each cell by exactly
        # ΔT = E·(eV→J)/C — energy-conserving whatever the two timescales.
        q = dep * EV_TO_J / (heat_capacity_j_per_k * heat_dt)
        heat.solve_timestep(source=q)
        iterations.append(heat.last_iterations)

    return CoupledResult(
        temperature=heat.t,
        deposition_per_step=depositions,
        cg_iterations=iterations,
        total_deposited_ev=total,
    )
