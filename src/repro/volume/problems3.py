"""3-D problem configuration and the three test-case factories.

The factories mirror the 2-D suite (§IV-B) in one more dimension: stream
(centred source, near-vacuum cube), scatter (dense cube) and csp (corner
source, dense cube in the centre).  Mesh extent stays 1 m so the per-facet
arithmetic is directly comparable with the 2-D problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from repro.core.config import SearchStrategy, check_seed
from repro.core.problems import HIGH_DENSITY, LOW_DENSITY, SOURCE_ENERGY_EV
from repro.mesh.boundary import BoundaryCondition
from repro.physics.variance import DEFAULT_ENERGY_CUTOFF_EV, DEFAULT_WEIGHT_CUTOFF
from repro.mesh.structured import StructuredMesh
from repro.mesh.tally import EnergyDepositionTally
from repro.xs.materials import hydrogenous_moderator
from repro.xs.provider import XsMode, resolve_provider

__all__ = [
    "SourceBox3D",
    "Volume3DConfig",
    "stream3_problem",
    "scatter3_problem",
    "csp3_problem",
]


@dataclass(frozen=True)
class SourceBox3D:
    """A mono-energetic isotropic box source in 3-D."""

    x0: float
    x1: float
    y0: float
    y1: float
    z0: float
    z1: float
    energy_ev: float
    weight: float = 1.0

    @property
    def bounds(self) -> tuple:
        """``(lo, hi)`` of the emission box along each axis."""
        return (self.x0, self.x1), (self.y0, self.y1), (self.z0, self.z1)

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1 and self.z0 < self.z1):
            raise ValueError("source box must have positive extent")
        if self.energy_ev <= 0 or self.weight <= 0:
            raise ValueError("energy and weight must be positive")


@dataclass(frozen=True)
class Volume3DConfig:
    """Full specification of one 3-D transport calculation."""

    name: str
    nx: int
    ny: int
    nz: int
    density: np.ndarray
    source: SourceBox3D
    nparticles: int
    width: float = 1.0
    height: float = 1.0
    depth: float = 1.0
    dt: float = 1.0e-7
    ntimesteps: int = 1
    seed: int = 7
    molar_mass_g_mol: float = 1.0
    energy_cutoff_ev: float = DEFAULT_ENERGY_CUTOFF_EV
    weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF
    xs_nentries: int = 2500
    boundary: BoundaryCondition = BoundaryCondition.REFLECTIVE
    #: Cross-section backend: "multigroup" (paper default) or "ce"
    #: (continuous-energy union grid, :mod:`repro.xs.ce`).
    xs_mode: str = "multigroup"
    #: Explicit CE material set; ``None`` uses the synthetic default
    #: library (material 0, the homogeneous medium of the 3-D problems).
    ce_materials: tuple | None = None

    # What the census stepper and the one event pass read beyond the
    # fields above is the same for every 3-D run: one homogeneous material
    # (the paper's non-multiplying medium by default; a fissile CE material
    # multiplies, and its children are banked per axis like 2-D ones),
    # without Russian roulette or importance maps (still future work in
    # 3-D), so these are constants, not settings.
    #: RNG draws a history consumes at birth (position ×3, direction ×2,
    #: first mfp).
    BIRTH_DRAWS: ClassVar[int] = 6
    #: Histories an Over Particles block advances together.
    op_block_size: ClassVar[int] = 64
    search: ClassVar[SearchStrategy] = SearchStrategy.BINARY
    use_russian_roulette: ClassVar[bool] = False
    importance_map: ClassVar[None] = None

    def __post_init__(self) -> None:
        if self.nparticles < 1:
            raise ValueError("need at least one particle")
        check_seed(self.seed)
        if self.dt <= 0 or self.ntimesteps < 1:
            raise ValueError("invalid time parameters")
        density = np.asarray(self.density, dtype=np.float64)
        if density.shape != (self.nz, self.ny, self.nx):
            raise ValueError(
                f"density shape {density.shape} != ({self.nz}, {self.ny}, {self.nx})"
            )
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "xs_mode", XsMode.coerce(self.xs_mode))
        if self.ce_materials is not None and not self.ce_materials:
            raise ValueError("ce_materials must be None or non-empty")

    def resolved_provider(self):
        """Build this run's cross-section provider (one material).

        Multigroup wraps the same ``make_*_table(xs_nentries)`` pair the
        pre-provider driver built, carried by a
        :func:`~repro.xs.materials.hydrogenous_moderator` whose molar mass
        is the config's — bit-identical tables and metadata.
        """
        if self.xs_mode is XsMode.CONTINUOUS_ENERGY:
            return resolve_provider(
                self.xs_mode,
                ce_materials=self.ce_materials,
                nmaterials=1,
                xs_nentries=self.xs_nentries,
            )
        return resolve_provider(
            self.xs_mode,
            materials=(
                hydrogenous_moderator(self.xs_nentries, self.molar_mass_g_mol),
            ),
            xs_nentries=self.xs_nentries,
        )

    def with_(self, **changes) -> "Volume3DConfig":
        """Copy with fields replaced."""
        return replace(self, **changes)

    def resolved_material_map(self) -> np.ndarray:
        """Per-cell material indices: material 0 everywhere (a zero-stride
        view — nothing is stored)."""
        return np.broadcast_to(np.int64(0), (self.nz, self.ny, self.nx))

    def build_mesh(self) -> StructuredMesh:
        """The mesh this config describes."""
        return StructuredMesh.grid(
            (self.nx, self.ny, self.nz),
            (self.width, self.height, self.depth), self.density,
        )

    def build_tally(self) -> EnergyDepositionTally:
        """An empty energy-deposition tally over the mesh."""
        return EnergyDepositionTally(self.nx, self.ny, self.nz)

    def total_source_energy_ev(self) -> float:
        """Conservation budget per run."""
        return self.nparticles * self.source.energy_ev * self.source.weight


def _centre_box() -> SourceBox3D:
    return SourceBox3D(
        x0=0.45, x1=0.55, y0=0.45, y1=0.55, z0=0.45, z1=0.55,
        energy_ev=SOURCE_ENERGY_EV,
    )


def stream3_problem(n: int = 24, nparticles: int = 50, **overrides) -> Volume3DConfig:
    """3-D stream: centred source, near-vacuum cube."""
    density = np.full((n, n, n), LOW_DENSITY)
    return Volume3DConfig(
        name="stream3", nx=n, ny=n, nz=n, density=density,
        source=_centre_box(), nparticles=nparticles, **overrides,
    )


def scatter3_problem(n: int = 24, nparticles: int = 50, **overrides) -> Volume3DConfig:
    """3-D scatter: centred source, homogeneously dense cube."""
    density = np.full((n, n, n), HIGH_DENSITY)
    return Volume3DConfig(
        name="scatter3", nx=n, ny=n, nz=n, density=density,
        source=_centre_box(), nparticles=nparticles, **overrides,
    )


def csp3_problem(n: int = 24, nparticles: int = 50, **overrides) -> Volume3DConfig:
    """3-D csp: corner source, dense cube spanning [0.4, 0.6]³."""
    density = np.full((n, n, n), LOW_DENSITY)
    lo, hi = int(0.4 * n), int(np.ceil(0.6 * n))
    density[lo:hi, lo:hi, lo:hi] = HIGH_DENSITY
    return Volume3DConfig(
        name="csp3", nx=n, ny=n, nz=n, density=density,
        source=SourceBox3D(
            x0=0.0, x1=0.1, y0=0.0, y1=0.1, z0=0.0, z1=0.1,
            energy_ev=SOURCE_ENERGY_EV,
        ),
        nparticles=nparticles, **overrides,
    )
