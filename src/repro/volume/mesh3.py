"""3-D structured mesh and tally.

Layout: fields are ``(nz, ny, nx)`` arrays, flat index
``(iz * ny + iy) * nx + ix`` — x is the unit-stride axis, as in the 2-D
mesh, so the "adjacent x-crossing" cache-locality property carries over.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.tally import flat_view

__all__ = ["StructuredMesh3D", "Tally3D"]


class StructuredMesh3D:
    """Uniform 3-D grid over ``[0,w]×[0,h]×[0,d]`` with cell densities."""

    def __init__(
        self,
        nx: int,
        ny: int,
        nz: int,
        width: float = 1.0,
        height: float = 1.0,
        depth: float = 1.0,
        density: np.ndarray | None = None,
    ):
        if min(nx, ny, nz) < 1:
            raise ValueError("mesh must have at least one cell per axis")
        if min(width, height, depth) <= 0:
            raise ValueError("mesh extent must be positive")
        self.nx, self.ny, self.nz = int(nx), int(ny), int(nz)
        self.width, self.height, self.depth = float(width), float(height), float(depth)
        self.dx = self.width / self.nx
        self.dy = self.height / self.ny
        self.dz = self.depth / self.nz
        #: Cell extents, one per axis.
        self.deltas = (self.dx, self.dy, self.dz)
        if density is None:
            self.density = np.zeros((self.nz, self.ny, self.nx), dtype=np.float64)
        else:
            density = np.asarray(density, dtype=np.float64)
            if density.shape != (self.nz, self.ny, self.nx):
                raise ValueError(
                    f"density shape {density.shape} != (nz, ny, nx) = "
                    f"({self.nz}, {self.ny}, {self.nx})"
                )
            if np.any(density < 0):
                raise ValueError("densities must be non-negative")
            self.density = density.copy()

    @property
    def ncells(self) -> int:
        """Total cell count."""
        return self.nx * self.ny * self.nz

    def cell_of_point(self, x: float, y: float, z: float) -> tuple[int, int, int]:
        """Cell containing the point; boundary points clamp inward."""
        if not (
            0.0 <= x <= self.width
            and 0.0 <= y <= self.height
            and 0.0 <= z <= self.depth
        ):
            raise ValueError(f"point ({x}, {y}, {z}) outside mesh")
        return (
            min(int(x / self.dx), self.nx - 1),
            min(int(y / self.dy), self.ny - 1),
            min(int(z / self.dz), self.nz - 1),
        )

    def cell_of_point_vec(self, x, y, z):
        """Vectorised :meth:`cell_of_point` (no bounds check)."""
        ix = np.minimum((x / self.dx).astype(np.int64), self.nx - 1)
        iy = np.minimum((y / self.dy).astype(np.int64), self.ny - 1)
        iz = np.minimum((z / self.dz).astype(np.int64), self.nz - 1)
        return ix, iy, iz

    def cell_bounds(self, ix: int, iy: int, iz: int):
        """``(x_lo, x_hi, y_lo, y_hi, z_lo, z_hi)`` of one cell."""
        return (
            ix * self.dx, (ix + 1) * self.dx,
            iy * self.dy, (iy + 1) * self.dy,
            iz * self.dz, (iz + 1) * self.dz,
        )

    def density_at(self, ix: int, iy: int, iz: int) -> float:
        """Cell-centred density — the same random read as in 2-D."""
        return float(self.density[iz, iy, ix])

    def density_at_vec(self, ix, iy, iz):
        """Vectorised density gather."""
        return self.density[iz, iy, ix]


class Tally3D:
    """Energy-deposition tally over a 3-D mesh (atomic semantics counted)."""

    def __init__(self, nx: int, ny: int, nz: int):
        if min(nx, ny, nz) < 1:
            raise ValueError("tally needs at least one cell per axis")
        self.nx, self.ny, self.nz = int(nx), int(ny), int(nz)
        self.deposition = np.zeros((self.nz, self.ny, self.nx), dtype=np.float64)
        self.flushes = 0

    def flush(self, ix: int, iy: int, iz: int, energy: float) -> None:
        """One atomic read-modify-write (zero deposits still count)."""
        self.deposition[iz, iy, ix] += energy
        self.flushes += 1

    def flush_vec(self, ix, iy, iz, energy) -> None:
        """Batched scatter-add with atomic (accumulating) semantics, on
        the flat cell index (see ``EnergyDepositionTally.flush_vec``)."""
        cell = (iz * self.ny + iy) * self.nx + ix
        np.add.at(flat_view(self.deposition), cell, energy)
        self.flushes += int(len(ix))

    def conflict_probability(self) -> float:
        """Not measured in 3-D: the tally keeps no per-cell flush
        histogram (one scatter-add per flush instead of two)."""
        return 0.0

    def merge(self, other: "Tally3D") -> None:
        """Add another tally's deposits and flush count into this one."""
        self.deposition += other.deposition
        self.flushes += other.flushes

    def total(self) -> float:
        """Total deposited energy."""
        return float(self.deposition.sum())
