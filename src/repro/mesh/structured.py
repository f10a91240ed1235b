"""Two-dimensional structured mesh with cell-centred densities.

The mini-app deliberately uses a simple uniform structured grid so that the
performance characteristics that are *independent of geometry* are exposed
(paper §IV-C): facet intersection reduces to a Cartesian ray/axis-plane
check, while the data-dependence pattern (random density reads, random tally
writes) is identical to what an unstructured code would see.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StructuredMesh"]


class StructuredMesh:
    """Uniform 2-D structured grid over ``[0, width] × [0, height]``.

    Cells are indexed ``(ix, iy)`` with ``0 <= ix < nx`` and
    ``0 <= iy < ny``; flat indices are ``iy * nx + ix`` (row-major in ``iy``)
    to match a C array layout.

    Parameters
    ----------
    nx, ny:
        Number of cells along x and y.
    width, height:
        Physical extent in metres.
    density:
        Optional cell-centred mass density field, shape ``(ny, nx)`` in
        kg/m³.  Defaults to zero; problem factories fill it in.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        width: float = 1.0,
        height: float = 1.0,
        density: np.ndarray | None = None,
    ):
        if nx < 1 or ny < 1:
            raise ValueError("mesh must have at least one cell per axis")
        if width <= 0 or height <= 0:
            raise ValueError("mesh extent must be positive")
        self.nx = int(nx)
        self.ny = int(ny)
        self.width = float(width)
        self.height = float(height)
        self.dx = self.width / self.nx
        self.dy = self.height / self.ny
        #: Cell extents, one per axis.
        self.deltas = (self.dx, self.dy)
        if density is None:
            self.density = np.zeros((self.ny, self.nx), dtype=np.float64)
        else:
            density = np.asarray(density, dtype=np.float64)
            if density.shape != (self.ny, self.nx):
                raise ValueError(
                    f"density shape {density.shape} != (ny, nx) = "
                    f"({self.ny}, {self.nx})"
                )
            if np.any(density < 0):
                raise ValueError("densities must be non-negative")
            self.density = density.copy()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    @property
    def ncells(self) -> int:
        """Total cell count."""
        return self.nx * self.ny

    def flat_index(self, ix, iy):
        """Flat cell index for ``(ix, iy)``; works on scalars and arrays."""
        return iy * self.nx + ix

    def cell_of_point(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing the point ``(x, y)``; boundary points clamp inward."""
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            raise ValueError(f"point ({x}, {y}) outside mesh")
        ix = min(int(x / self.dx), self.nx - 1)
        iy = min(int(y / self.dy), self.ny - 1)
        return ix, iy

    def cell_of_point_vec(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_of_point` (no bounds check)."""
        ix = np.minimum((x / self.dx).astype(np.int64), self.nx - 1)
        iy = np.minimum((y / self.dy).astype(np.int64), self.ny - 1)
        return ix, iy

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def cell_bounds(self, ix: int, iy: int) -> tuple[float, float, float, float]:
        """``(x_lo, x_hi, y_lo, y_hi)`` of cell ``(ix, iy)``."""
        return ix * self.dx, (ix + 1) * self.dx, iy * self.dy, (iy + 1) * self.dy

    def density_at(self, ix: int, iy: int) -> float:
        """Cell-centred mass density — the random read of the algorithm."""
        return float(self.density[iy, ix])

    def density_at_vec(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Vectorised gather of cell densities (the OE scheme's gather)."""
        return self.density[iy, ix]

    # ------------------------------------------------------------------
    # Memory accounting (used by the performance model)
    # ------------------------------------------------------------------
    def density_nbytes(self) -> int:
        """Footprint of the density field in bytes."""
        return int(self.density.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StructuredMesh(nx={self.nx}, ny={self.ny}, "
            f"width={self.width}, height={self.height})"
        )
