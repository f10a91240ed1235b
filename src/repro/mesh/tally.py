"""Energy-deposition tallies.

The tally is the write-side mesh dependency of the algorithm (paper §V-C):
particles accumulate deposited energy in a register between events, and the
value is flushed onto the tally mesh at every facet encounter and at census
— "every facet encounter results in an atomic read-modify-write operation"
(§VI-A).

Two variants are implemented, matching §VI-F:

* :class:`EnergyDepositionTally` — the shared tally, where every flush has
  atomic semantics.  Running serially we simply add, but we *account* every
  flush and keep per-cell flush counts so the machine model can price atomic
  latency and contention.
* :class:`PrivatizedTally` — one private copy per (simulated) thread,
  removing the atomic at the cost of ``nthreads×`` the memory footprint
  (0.3 GB → 31 GB for the csp problem at 256 threads in the paper) and a
  merge ("compress") step.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.structured import flat_cell

__all__ = ["EnergyDepositionTally", "PrivatizedTally", "flat_view"]


def flat_view(field: np.ndarray) -> np.ndarray:
    """The cells of a tally ``field`` as a 1-D array sharing its memory.

    ``ravel`` of a C-contiguous array is a view; of anything else it is a
    copy, and a flush into a copy would be lost — so that is refused.
    """
    if not field.flags.c_contiguous:
        raise ValueError("tally fields must be C-contiguous to flush into")
    return field.ravel()


class EnergyDepositionTally:
    """Shared energy-deposition tally over a mesh of ``(nx, ny[, nz])``
    cells, in any number of axes; fields are stored last axis first
    (``(ny, nx)``, ``(nz, ny, nx)``), like the mesh's.

    Attributes
    ----------
    deposition:
        Accumulated energy per cell (eV, weighted).
    flush_counts:
        Number of flushes per cell — the atomic write-address histogram used
        by the contention model.
    flushes:
        Total number of (atomic) flush operations.

    ``fields``, when given, is an existing ``(deposition, flush_counts)``
    pair to tally into instead of fresh zeros (see :meth:`rows`).
    """

    def __init__(self, *shape: int, fields=None):
        if min(shape) < 1:
            raise ValueError("tally needs at least one cell per axis")
        self.shape = tuple(int(n) for n in shape)
        if fields is None:
            fields = (np.zeros(self.shape[::-1], dtype=np.float64),
                      np.zeros(self.shape[::-1], dtype=np.int64))
        self.deposition, self.flush_counts = fields
        self.flushes = 0

    def rows(self) -> list["EnergyDepositionTally"]:
        """One tally per index ``i`` of the last axis (stored slowest),
        over the other axes, whose fields are views of row ``i`` of this
        tally's — a flush into either lands in the same cells.  Their
        ``flushes`` counts are the caller's to keep."""
        return [
            EnergyDepositionTally(*self.shape[:-1], fields=fields)
            for fields in zip(self.deposition, self.flush_counts)
        ]

    def flush(self, *cell_and_energy) -> None:
        """Atomically add ``energy`` into one cell: ``flush(ix, iy[, iz],
        energy)``.

        Zero deposits still count as flushes — the mini-app performs the
        atomic unconditionally at each facet encounter.
        """
        *cell, energy = cell_and_energy
        at = tuple(cell[::-1])
        self.deposition[at] += energy
        self.flush_counts[at] += 1
        self.flushes += 1

    def flush_vec(self, *cells_and_energy: np.ndarray) -> None:
        """Vectorised flush used by the Over Events tally loop:
        ``flush_vec(ix, iy[, iz], energy)``.

        ``np.add.at`` is an unbuffered (scatter-add) accumulate, the numpy
        analogue of a loop of atomic adds: repeated indices accumulate
        correctly, in lane order.  It runs on the flat cell index
        (:func:`~repro.mesh.structured.flat_cell`) over flat views of the
        fields — numpy's 1-D fast path, same adds in the same order as the
        per-axis form.
        """
        *cells, energy = cells_and_energy
        cell = flat_cell(self.shape, cells)
        np.add.at(flat_view(self.deposition), cell, energy)
        np.add.at(flat_view(self.flush_counts), cell, 1)
        self.flushes += int(len(cells[0]))

    def merge(self, other: "EnergyDepositionTally") -> None:
        """Add another tally's deposits and flush histogram into this one
        (the reduce of privatise-then-reduce, §VI-F)."""
        self.deposition += other.deposition
        self.flush_counts += other.flush_counts
        self.flushes += other.flushes

    def total(self) -> float:
        """Total deposited energy over the mesh."""
        return float(self.deposition.sum())

    def conflict_probability(self) -> float:
        """Probability two uniformly chosen flushes hit the same cell.

        ``sum_c p_c**2`` over the flush-address histogram — the collision
        probability that, scaled by concurrency, drives the atomic
        contention cost in the machine model.  Returns 0 when no flush has
        occurred.
        """
        total = self.flush_counts.sum()
        if total == 0:
            return 0.0
        p = self.flush_counts.astype(np.float64).ravel() / float(total)
        return float(np.dot(p, p))

    def reset(self) -> None:
        """Zero the tally (start of a timestep when coupled to a host code)."""
        self.deposition[:] = 0.0
        self.flush_counts[:] = 0
        self.flushes = 0


class PrivatizedTally:
    """Per-thread private tallies with an explicit merge (§VI-F).

    Each simulated thread owns a full copy of the tally mesh; flushes are
    plain (non-atomic) adds into the owner's copy.  :meth:`merged` performs
    the compression used for end-of-solve validation; a real host code would
    need it every timestep, which the paper found *slower* than atomics.
    """

    def __init__(self, nx: int, ny: int, nthreads: int):
        if nthreads < 1:
            raise ValueError("need at least one thread")
        self.nx = int(nx)
        self.ny = int(ny)
        self.nthreads = int(nthreads)
        self.copies = np.zeros((self.nthreads, self.ny, self.nx), dtype=np.float64)
        self.flushes = 0

    def flush(self, thread: int, ix: int, iy: int, energy: float) -> None:
        """Non-atomic add into thread-private copy ``thread``."""
        self.copies[thread, iy, ix] += energy
        self.flushes += 1

    def merged(self) -> np.ndarray:
        """Reduce all private copies into one field (the compress step)."""
        return self.copies.sum(axis=0)

    def merge_flops(self) -> int:
        """Floating adds required by one merge — priced by the perf model."""
        return (self.nthreads - 1) * self.nx * self.ny

    def nbytes(self) -> int:
        """Total footprint — grows linearly with thread count (0.3→31 GB
        for csp at 256 threads in the paper)."""
        return int(self.copies.nbytes)

    @staticmethod
    def predict_nbytes(nx: int, ny: int, nthreads: int) -> int:
        """Footprint of a would-be privatised tally, without allocating it
        (at paper scale the 256-thread tally genuinely cannot be allocated
        on most hosts — which is the §VI-F capacity point)."""
        return nthreads * ny * nx * 8
