"""The AoS particle record.

One record holds everything a thread needs to follow a history from birth
to census: position, direction, energy, statistical weight, mesh cell,
remaining time to census, remaining optical distance to collision, and the
per-particle RNG identity (paper §IV-F, §VI-D).

The record also carries the *cached* state the Over Particles scheme keeps
in registers between events (§V-A): the current cell's density-derived
macroscopic cross sections, and the last-used energy bin of each
cross-section table (for the cached linear search, §VI-A).
"""

from __future__ import annotations

__all__ = ["Particle"]


class Particle:
    """Mutable particle state (Array-of-Structures layout).

    Attributes
    ----------
    x, y:
        Position in metres.
    omega_x, omega_y:
        Unit direction of flight.
    energy:
        Kinetic energy in eV.
    weight:
        Statistical weight (the particle represents ``weight`` physical
        particles; variance reduction reduces it instead of killing the
        history, §IV-E).
    cellx, celly:
        Containing mesh cell indices.
    mfp_to_collision:
        Remaining optical distance to the next collision, in mean free
        paths.
    dt_to_census:
        Remaining time in the current timestep, in seconds.
    alive:
        False once the history has terminated (weight/energy cutoff).
    particle_id:
        Unique id; RNG key word (with the global seed).
    rng_counter:
        Threefry counter — advances once per random draw.
    scatter_bin, capture_bin, fission_bin:
        Cached energy-bin indices for the cached linear search (the
        fission bin is used only in multiplying media).
    local_density:
        Cached mass density of the containing cell (kg/m³).
    deposit_buffer:
        Energy deposition accumulated in a register since the last flush.
    """

    __slots__ = (
        "x",
        "y",
        "omega_x",
        "omega_y",
        "energy",
        "weight",
        "cellx",
        "celly",
        "mfp_to_collision",
        "dt_to_census",
        "alive",
        "particle_id",
        "rng_counter",
        "scatter_bin",
        "capture_bin",
        "fission_bin",
        "local_density",
        "deposit_buffer",
    )

    def __init__(
        self,
        x: float,
        y: float,
        omega_x: float,
        omega_y: float,
        energy: float,
        weight: float,
        cellx: int,
        celly: int,
        particle_id: int,
        dt_to_census: float,
        mfp_to_collision: float = 0.0,
        rng_counter: int = 0,
    ):
        self.x = x
        self.y = y
        self.omega_x = omega_x
        self.omega_y = omega_y
        self.energy = energy
        self.weight = weight
        self.cellx = cellx
        self.celly = celly
        self.mfp_to_collision = mfp_to_collision
        self.dt_to_census = dt_to_census
        self.alive = True
        self.particle_id = particle_id
        self.rng_counter = rng_counter
        self.scatter_bin = 0
        self.capture_bin = 0
        self.fission_bin = 0
        self.local_density = 0.0
        self.deposit_buffer = 0.0

    def direction_norm_error(self) -> float:
        """|‖Ω‖² − 1| — should stay at rounding level through scatters."""
        return abs(self.omega_x * self.omega_x + self.omega_y * self.omega_y - 1.0)
