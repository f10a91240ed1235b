"""Structured mesh with cell-centred densities, in any number of axes.

The mini-app deliberately uses a simple uniform structured grid so that the
performance characteristics that are *independent of geometry* are exposed
(paper §IV-C): facet intersection reduces to a Cartesian ray/axis-plane
check, while the data-dependence pattern (random density reads, random tally
writes) is identical to what an unstructured code would see.  The paper's
grid is 2-D; the §IV-C future-work extension runs the same mesh over a third
axis (:mod:`repro.volume`) — the number of axes is data, not a second class.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["StructuredMesh", "flat_cell"]

#: Per-axis attribute names: cell count, cell size, extent.
_AXIS_NAMES = (("nx", "dx", "width"), ("ny", "dy", "height"),
               ("nz", "dz", "depth"))


def flat_cell(shape, cells):
    """THE flat cell index of per-axis ``cells`` on a grid of ``shape``
    cells (x first): Horner order with x fastest — ``iy·nx + ix`` in 2-D,
    ``(iz·ny + iy)·nx + ix`` in 3-D.  Works on scalars and arrays."""
    flat = cells[-1]
    for cell, n in zip(cells[-2::-1], shape[-2::-1]):
        flat = flat * n + cell
    return flat


class StructuredMesh:
    """Uniform structured grid over ``[0, extent₀] × [0, extent₁] × …``.

    ``shape`` holds the cells per axis, x first.  The cell-centred mass
    density (kg/m³, zero unless a problem factory fills it in) is stored
    last axis first — ``(ny, nx)``, ``(nz, ny, nx)`` — so x is the
    unit-stride axis and the flat index is :func:`flat_cell`'s, a C array
    layout.  Every method takes one argument per axis.

    ``StructuredMesh(nx, ny, width, height, density)`` builds the paper's
    2-D grid (extents in metres); :meth:`grid` builds one over any number
    of axes.
    """

    def __init__(self, nx: int, ny: int, width: float = 1.0,
                 height: float = 1.0, density: np.ndarray | None = None):
        self._build((nx, ny), (width, height), density)

    @classmethod
    def grid(cls, shape, extent, density=None) -> "StructuredMesh":
        """A mesh of ``shape`` cells over ``extent`` metres, one entry per
        axis, x first; ``density`` is stored last axis first."""
        mesh = cls.__new__(cls)
        mesh._build(shape, extent, density)
        return mesh

    def _build(self, shape, extent, density) -> None:
        if min(shape) < 1:
            raise ValueError("mesh must have at least one cell per axis")
        if min(extent) <= 0:
            raise ValueError("mesh extent must be positive")
        self.shape = tuple(int(n) for n in shape)
        self.extent = tuple(float(e) for e in extent)
        #: Cell extents, one per axis.
        self.deltas = tuple(e / n for e, n in zip(self.extent, self.shape))
        per_axis = zip(self.shape, self.deltas, self.extent)
        for names, values in zip(_AXIS_NAMES, per_axis):
            self.__dict__.update(zip(names, values))
        if density is None:
            self.density = np.zeros(self.shape[::-1], dtype=np.float64)
        else:
            density = np.asarray(density, dtype=np.float64)
            if density.shape != self.shape[::-1]:
                raise ValueError(
                    f"density shape {density.shape} != cells per axis, "
                    f"last axis first, {self.shape[::-1]}"
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
        return math.prod(self.shape)

    def flat_index(self, *cells):
        """Flat cell index (:func:`flat_cell`); works on scalars and arrays."""
        return flat_cell(self.shape, cells)

    def cell_of_point(self, *point: float) -> tuple[int, ...]:
        """Cell containing the point; boundary points clamp inward."""
        if not all(0.0 <= p <= e for p, e in zip(point, self.extent)):
            raise ValueError(f"point {point} outside mesh")
        return tuple(
            min(int(p / d), n - 1)
            for p, d, n in zip(point, self.deltas, self.shape)
        )

    def cell_of_point_vec(self, *points: np.ndarray) -> tuple[np.ndarray, ...]:
        """Vectorised :meth:`cell_of_point` (no bounds check)."""
        return tuple(
            np.minimum((p / d).astype(np.int64), n - 1)
            for p, d, n in zip(points, self.deltas, self.shape)
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def cell_bounds(self, *cell: int) -> tuple[float, ...]:
        """``(x_lo, x_hi, y_lo, y_hi, …)`` of one cell."""
        return tuple(
            bound for c, d in zip(cell, self.deltas)
            for bound in (c * d, (c + 1) * d)
        )

    def density_at(self, *cell: int) -> float:
        """Cell-centred mass density — the random read of the algorithm."""
        return float(self.density[cell[::-1]])

    def density_at_vec(self, *cells: np.ndarray) -> np.ndarray:
        """Vectorised gather of cell densities (the OE scheme's gather)."""
        return self.density[cells[::-1]]

    # ------------------------------------------------------------------
    # Memory accounting (used by the performance model)
    # ------------------------------------------------------------------
    def density_nbytes(self) -> int:
        """Footprint of the density field in bytes."""
        return int(self.density.nbytes)
