"""Simulation configuration.

A :class:`SimulationConfig` fully determines a transport run: mesh, source,
material, cutoffs, RNG seed and the algorithmic options the paper studies
(scheme, data layout, energy-bin search strategy).  Two configs with equal
fields produce bit-reproducible runs — the property the counter-based RNG
buys (paper §IV-F).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from repro.mesh.boundary import BoundaryCondition
from repro.particles.source import SourceRegion
from repro.physics.variance import DEFAULT_ENERGY_CUTOFF_EV, DEFAULT_WEIGHT_CUTOFF
from repro.xs.materials import hydrogenous_moderator
from repro.xs.provider import XsMode, resolve_provider

__all__ = [
    "Scheme",
    "Layout",
    "SearchStrategy",
    "SimulationConfig",
    "check_seed",
]


class Scheme(Enum):
    """Parallelisation scheme (paper §V).

    ``AUTO`` is a rule: Over Events every census step, compacting the
    arena where more than half of it is dead
    (:data:`repro.core.stepper.AUTO_RULE`); physics is bit-identical to
    either fixed scheme.
    """

    OVER_PARTICLES = "over_particles"
    OVER_EVENTS = "over_events"
    AUTO = "auto"


class Layout(Enum):
    """Particle data layout (paper §VI-D).

    The layout does not change the physics; it changes the memory-access
    pattern, which the machine model prices.  The Over Events scheme and the
    GPU ports only support SoA.
    """

    AOS = "aos"
    SOA = "soa"


class SearchStrategy(Enum):
    """Energy-bin search for cross-section lookups (paper §VI-A)."""

    BINARY = "binary"
    CACHED_LINEAR = "cached_linear"


@dataclass(frozen=True)
class SimulationConfig:
    """Full specification of one transport calculation, in two dimensions
    or three (``nz`` set): the number of axes is data to every route.

    Attributes
    ----------
    name:
        Problem label ("stream", "scatter", "csp", their 3-D forms, or
        custom).
    nx, ny:
        Mesh cells per axis.
    width, height:
        Mesh physical extent [m].
    density:
        Cell-centred density field, shape ``shape[::-1]`` — ``(ny, nx)``
        or ``(nz, ny, nx)`` [kg/m³].
    source:
        The particle source region, with one pair of bounds per axis.
    nparticles:
        Histories per timestep.
    dt:
        Timestep length [s]; the paper fixes 1e-7 s to control the number of
        events per timestep.
    ntimesteps:
        Number of timesteps to run.
    seed:
        Global RNG seed (Threefry key word 0), in ``[0, 2**64)``.
    molar_mass_g_mol:
        Molar mass of the single homogeneous medium; also sets the elastic
        scattering mass ratio ``A ≈ M`` (in neutron masses).
    energy_cutoff_ev, weight_cutoff:
        Variance-reduction termination thresholds (§IV-E).
    xs_nentries:
        Points per cross-section table (§IV-D).
    search:
        Energy-bin search strategy (§VI-A).
    layout:
        Particle data layout (§VI-D).
    boundary:
        Problem-boundary treatment.  The paper's experiments all use
        reflective boundaries (§IV-C); vacuum (leakage) boundaries are an
        extension for shielding-style problems.
    use_russian_roulette:
        Replace the deterministic weight-cutoff termination with Russian
        roulette (unbiased stochastic termination) — the standard
        companion of implicit capture, provided as an extension.
    materials:
        Tuple of :class:`repro.xs.materials.Material`.  ``None`` (the
        paper's setup) means one homogeneous non-multiplying medium built
        from ``molar_mass_g_mol`` and ``xs_nentries``.  Multigroup mode
        only; ignored under the continuous-energy backend.
    xs_mode:
        Which cross-section backend the run uses
        (:class:`repro.xs.provider.XsMode`): the paper's multigroup
        tables, or the continuous-energy union-grid backend.
    ce_materials:
        Tuple of :class:`repro.xs.ce.CEMaterial` for the CE backend;
        ``None`` means the deterministic synthetic library sized by
        ``xs_nentries``.  CE mode only.
    material_map:
        Per-cell material index, shape ``shape[::-1]``; ``None`` means
        material 0 everywhere.  Multi-material meshes and fission are the
        paper's §IX future work, implemented here as extensions.
    importance_map:
        Optional per-cell importances enabling geometry splitting/roulette
        at importance-changing facet crossings (§IV-E's variance-reduction
        family); ``None`` disables the technique.
    op_block_size:
        The Over Particles window width: lanes of the run arena (one
        replica's; dead lanes ride along) advanced together, in place.
        Width 1 reproduces the classic one-history-at-a-time traversal;
        wider windows vectorise the per-event work while the
        counter-based RNG keeps every history's draw sequence — and
        therefore its final state — bit-identical.
    nz, depth:
        Cells and extent [m] along a third axis; ``nz=None`` is the
        paper's 2-D grid.
    """

    name: str
    nx: int
    ny: int
    width: float
    height: float
    density: np.ndarray
    source: SourceRegion
    nparticles: int
    dt: float = 1.0e-7
    ntimesteps: int = 1
    seed: int = 7
    molar_mass_g_mol: float = 1.0
    energy_cutoff_ev: float = DEFAULT_ENERGY_CUTOFF_EV
    weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF
    xs_nentries: int = 25_000
    search: SearchStrategy = SearchStrategy.CACHED_LINEAR
    layout: Layout = Layout.AOS
    boundary: BoundaryCondition = BoundaryCondition.REFLECTIVE
    use_russian_roulette: bool = False
    materials: tuple | None = None
    material_map: np.ndarray | None = None
    importance_map: np.ndarray | None = None
    op_block_size: int = 64
    xs_mode: str = "multigroup"
    ce_materials: tuple | None = None
    nz: int | None = None
    depth: float = 1.0

    @property
    def shape(self) -> tuple:
        """Cells per axis, x first."""
        return (self.nx, self.ny) if self.nz is None else (
            self.nx, self.ny, self.nz)

    @property
    def extent(self) -> tuple:
        """Mesh extent per axis [m], x first."""
        return (self.width, self.height, self.depth)[:len(self.shape)]

    @property
    def BIRTH_DRAWS(self) -> int:
        """RNG draws a history consumes at birth: one per position axis,
        one fewer than that for the direction, one first mfp."""
        return 2 * len(self.shape)

    def __post_init__(self) -> None:
        if self.nparticles < 1:
            raise ValueError("need at least one particle")
        check_seed(self.seed)
        if self.op_block_size < 1:
            raise ValueError("op_block_size must be at least 1")
        if self.dt <= 0:
            raise ValueError("timestep must be positive")
        if self.ntimesteps < 1:
            raise ValueError("need at least one timestep")
        if self.molar_mass_g_mol <= 0:
            raise ValueError("molar mass must be positive")
        if len(self.source.bounds) != len(self.shape):
            raise ValueError(
                f"a {len(self.shape)}-D mesh needs a source with "
                f"{len(self.shape)} pairs of bounds"
            )
        cells = self.shape[::-1]
        density = np.asarray(self.density, dtype=np.float64)
        if density.shape != cells:
            raise ValueError(f"density shape {density.shape} != {cells}")
        object.__setattr__(self, "density", density)
        if self.material_map is not None:
            mmap = np.ascontiguousarray(self.material_map, dtype=np.int64)
            if mmap.shape != cells:
                raise ValueError(
                    f"material_map shape {mmap.shape} != {cells}"
                )
            nmat = self._declared_nmaterials()
            if mmap.min() < 0 or (nmat is not None and mmap.max() >= nmat):
                raise ValueError("material_map indices out of range")
            object.__setattr__(self, "material_map", mmap)
        if self.materials is not None and len(self.materials) == 0:
            raise ValueError("materials, when given, must be non-empty")
        if self.ce_materials is not None and len(self.ce_materials) == 0:
            raise ValueError("ce_materials, when given, must be non-empty")
        object.__setattr__(self, "xs_mode", XsMode.coerce(self.xs_mode))
        if self.importance_map is not None:
            imap = np.ascontiguousarray(self.importance_map, dtype=np.float64)
            if imap.shape != cells:
                raise ValueError(
                    f"importance_map shape {imap.shape} != {cells}"
                )
            if np.any(imap <= 0):
                raise ValueError("importances must be positive")
            object.__setattr__(self, "importance_map", imap)

    def with_(self, **changes) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def build_mesh(self):
        """The mesh this config describes."""
        from repro.mesh.structured import StructuredMesh

        return StructuredMesh.grid(self.shape, self.extent, self.density)

    def build_tally(self):
        """An empty energy-deposition tally over the mesh."""
        from repro.mesh.tally import EnergyDepositionTally

        return EnergyDepositionTally(*self.shape)

    def total_source_energy_ev(self) -> float:
        """Weighted energy injected per timestep — the conservation budget."""
        return self.nparticles * self.source.energy_ev * self.source.weight

    def resolved_materials(self) -> tuple:
        """The material set, defaulting to the paper's single homogeneous
        non-multiplying medium.  Builds tables; call once per run."""
        if self.materials is not None:
            return tuple(self.materials)
        return (
            hydrogenous_moderator(self.xs_nentries, self.molar_mass_g_mol),
        )

    def resolved_material_map(self) -> np.ndarray:
        """Per-cell material indices: material 0 everywhere when not
        configured (a zero-stride view — nothing is stored)."""
        if self.material_map is not None:
            return self.material_map
        return np.broadcast_to(np.int64(0), self.shape[::-1])

    def _declared_nmaterials(self) -> int | None:
        """Material count the map may index, or ``None`` when open-ended
        (CE mode with the synthetic library, which sizes itself to the
        map)."""
        if XsMode.coerce(self.xs_mode) is XsMode.CONTINUOUS_ENERGY:
            if self.ce_materials is not None:
                return len(self.ce_materials)
            return None
        return len(self.materials) if self.materials else 1

    def resolved_provider(self):
        """Build this config's cross-section backend
        (:class:`repro.xs.provider.XsProvider`).  Builds tables/grids;
        call once per run and thread the instance through."""
        mode = XsMode.coerce(self.xs_mode)
        if mode is XsMode.CONTINUOUS_ENERGY:
            nmat = 1
            if self.material_map is not None:
                nmat = int(self.material_map.max()) + 1
            return resolve_provider(
                mode,
                ce_materials=self.ce_materials,
                nmaterials=nmat,
                xs_nentries=self.xs_nentries,
            )
        return resolve_provider(
            mode,
            materials=self.resolved_materials(),
            xs_nentries=self.xs_nentries,
        )


def check_seed(seed: int, what: str = "seed") -> None:
    """Refuse, in one line, a seed outside ``[0, 2**64)``: the Threefry key
    word is 64 bits, so any other value would run another seed's streams
    under this one's name."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} must be in [0, 2**64), got {seed}")
