"""The three test problems of the paper (§IV-B, Fig 2).

* **stream** — particles start in the centre of a mesh of homogeneously
  negligible density (1e-30 kg/m³) and stream; reflective boundaries make a
  particle cross the whole mesh several times per timestep.  At the paper's
  scale (4000² cells) ≈7000 facets are encountered per particle.
* **scatter** — homogeneously dense mesh (1e3 kg/m³): particles rattle in
  or near their birth cell, depositing energy until they fall below the
  energy of interest.  The paper simulates 10× more particles here.
* **csp** (centre square problem) — particles start in the bottom-left and
  stream across a near-vacuum mesh with a dense square in the centre; the
  most realistic balance of facet and collision events.

All problems share the paper's timestep (1e-7 s) and a 1 MeV mono-energetic
source.  The mesh is 1 m × 1 m: with a 4000² mesh this reproduces the
"≈7000 facets per particle" figure exactly — a 1 MeV neutron flies 1.38 m
per timestep and the mean of |Ω_x|+|Ω_y| over isotropic directions is 4/π,
giving 1.38 × (4/π) / (1/4000) ≈ 7000 crossings.

Factories take ``nx``/``nparticles`` overrides so the test-suite and the
pure-Python benchmarks can run reduced-scale instances; event statistics
per particle either do not depend on the mesh resolution (collisions) or
scale linearly with it (facet crossings), which the perf model exploits and
the characterisation bench validates.

``stream3`` / ``scatter3`` / ``csp3`` are the same three problems in one
more dimension (the §IV-C future-work extension): a cube of ``n³`` cells
over the same 1 m extent, so the per-facet arithmetic is directly
comparable with the 2-D problems, with ``xs_nentries`` 2 500 and binary
search as overridable defaults.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SearchStrategy, SimulationConfig
from repro.particles.source import SourceRegion

__all__ = [
    "PAPER_MESH_SIZE",
    "PAPER_TIMESTEP_S",
    "PAPER_NPARTICLES_STREAM",
    "PAPER_NPARTICLES_SCATTER",
    "PAPER_NPARTICLES_CSP",
    "SOURCE_ENERGY_EV",
    "LOW_DENSITY",
    "HIGH_DENSITY",
    "stream_problem",
    "scatter_problem",
    "csp_problem",
    "stream3_problem",
    "scatter3_problem",
    "csp3_problem",
    "PROBLEM_FACTORIES",
]

#: Mesh cells per axis used throughout the paper's evaluation.
PAPER_MESH_SIZE = 4000

#: Timestep chosen "to make runtimes acceptable" (§IV-B).
PAPER_TIMESTEP_S = 1.0e-7

#: Particles per timestep in the paper's runs.
PAPER_NPARTICLES_STREAM = 1_000_000
PAPER_NPARTICLES_SCATTER = 10_000_000
PAPER_NPARTICLES_CSP = 1_000_000

#: Mono-energetic source energy: 1 MeV.
SOURCE_ENERGY_EV = 1.0e6

#: The paper's homogeneous low density (stream, csp background) [kg/m³].
LOW_DENSITY = 1.0e-30

#: The paper's homogeneous high density (scatter, csp square) [kg/m³].
HIGH_DENSITY = 1.0e3

#: Physical mesh extent [m] (see module docstring).
MESH_WIDTH_M = 1.0


def _centre_source(width: float, height: float) -> SourceRegion:
    """A box of one-tenth the mesh width, centred."""
    cx, cy = width / 2.0, height / 2.0
    half = width / 20.0
    return SourceRegion(
        x0=cx - half, x1=cx + half, y0=cy - half, y1=cy + half,
        energy_ev=SOURCE_ENERGY_EV,
    )


def _corner_source(width: float, height: float) -> SourceRegion:
    """A box of one-tenth the mesh width in the bottom-left corner."""
    return SourceRegion(
        x0=0.0, x1=width / 10.0, y0=0.0, y1=height / 10.0,
        energy_ev=SOURCE_ENERGY_EV,
    )


def stream_problem(
    nx: int = PAPER_MESH_SIZE,
    ny: int | None = None,
    nparticles: int = PAPER_NPARTICLES_STREAM,
    **overrides,
) -> SimulationConfig:
    """The stream test case: centre source, homogeneously negligible density."""
    ny = nx if ny is None else ny
    density = np.full((ny, nx), LOW_DENSITY)
    return SimulationConfig(
        name="stream",
        nx=nx,
        ny=ny,
        width=MESH_WIDTH_M,
        height=MESH_WIDTH_M,
        density=density,
        source=_centre_source(MESH_WIDTH_M, MESH_WIDTH_M),
        nparticles=nparticles,
        dt=overrides.pop("dt", PAPER_TIMESTEP_S),
        **overrides,
    )


def scatter_problem(
    nx: int = PAPER_MESH_SIZE,
    ny: int | None = None,
    nparticles: int = PAPER_NPARTICLES_SCATTER,
    **overrides,
) -> SimulationConfig:
    """The scatter test case: centre source, homogeneously dense mesh."""
    ny = nx if ny is None else ny
    density = np.full((ny, nx), HIGH_DENSITY)
    return SimulationConfig(
        name="scatter",
        nx=nx,
        ny=ny,
        width=MESH_WIDTH_M,
        height=MESH_WIDTH_M,
        density=density,
        source=_centre_source(MESH_WIDTH_M, MESH_WIDTH_M),
        nparticles=nparticles,
        dt=overrides.pop("dt", PAPER_TIMESTEP_S),
        **overrides,
    )


def csp_problem(
    nx: int = PAPER_MESH_SIZE,
    ny: int | None = None,
    nparticles: int = PAPER_NPARTICLES_CSP,
    **overrides,
) -> SimulationConfig:
    """The centre square problem: corner source, dense square in the middle.

    The square spans ``[0.4, 0.6] × [0.4, 0.6]`` of the mesh extent.
    """
    ny = nx if ny is None else ny
    density = np.full((ny, nx), LOW_DENSITY)
    x = (np.arange(nx) + 0.5) / nx
    y = (np.arange(ny) + 0.5) / ny
    in_sq_x = (x >= 0.4) & (x <= 0.6)
    in_sq_y = (y >= 0.4) & (y <= 0.6)
    density[np.ix_(in_sq_y, in_sq_x)] = HIGH_DENSITY
    return SimulationConfig(
        name="csp",
        nx=nx,
        ny=ny,
        width=MESH_WIDTH_M,
        height=MESH_WIDTH_M,
        density=density,
        source=_corner_source(MESH_WIDTH_M, MESH_WIDTH_M),
        nparticles=nparticles,
        dt=overrides.pop("dt", PAPER_TIMESTEP_S),
        **overrides,
    )


def _cube(name, density, box, nparticles, overrides) -> SimulationConfig:
    """An ``n³``-cell 3-D problem over the 1 m cube, emitting from the box
    ``[lo, hi]³``."""
    n = density.shape[0]
    lo, hi = box
    return SimulationConfig(
        name=name, nx=n, ny=n, nz=n, width=MESH_WIDTH_M, height=MESH_WIDTH_M,
        depth=MESH_WIDTH_M, density=density,
        source=SourceRegion(x0=lo, x1=hi, y0=lo, y1=hi, z0=lo, z1=hi,
                            energy_ev=SOURCE_ENERGY_EV),
        nparticles=nparticles,
        **{"dt": PAPER_TIMESTEP_S, "xs_nentries": 2500,
           "search": SearchStrategy.BINARY, **overrides},
    )


def stream3_problem(n: int = 24, nparticles: int = 50,
                    **overrides) -> SimulationConfig:
    """3-D stream: centred source, near-vacuum cube."""
    return _cube("stream3", np.full((n, n, n), LOW_DENSITY), (0.45, 0.55),
                 nparticles, overrides)


def scatter3_problem(n: int = 24, nparticles: int = 50,
                     **overrides) -> SimulationConfig:
    """3-D scatter: centred source, homogeneously dense cube."""
    return _cube("scatter3", np.full((n, n, n), HIGH_DENSITY), (0.45, 0.55),
                 nparticles, overrides)


def csp3_problem(n: int = 24, nparticles: int = 50,
                 **overrides) -> SimulationConfig:
    """3-D csp: corner source, dense cube spanning [0.4, 0.6]³."""
    density = np.full((n, n, n), LOW_DENSITY)
    lo, hi = int(0.4 * n), int(np.ceil(0.6 * n))
    density[lo:hi, lo:hi, lo:hi] = HIGH_DENSITY
    return _cube("csp3", density, (0.0, 0.1), nparticles, overrides)


#: Name → factory, for sweep drivers.
PROBLEM_FACTORIES = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}
