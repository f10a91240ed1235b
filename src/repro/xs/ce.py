"""Continuous-energy cross-section data: nuclides, materials, union grids.

The multigroup tables in :mod:`repro.xs.tables` carry one pre-mixed
(scatter, capture[, fission]) table pair per *material*.  Real
continuous-energy Monte Carlo codes instead carry pointwise data per
*nuclide* and mix macroscopic cross sections at lookup time from the
material's composition — and the lookup itself becomes the hot path
(Tramm et al.'s XSBench isolates exactly this kernel).

This module implements the standard "unionized energy grid with a
double-index pointer table" acceleration from XSBench:

* every nuclide keeps its own (energy, value) grids;
* per material, the union of its nuclides' energy points is formed once at
  construction; alongside it a pointer table ``ptr[n_nuclides, n_union]``
  records, for each union bin, the bracketing bin on each nuclide's own
  grid (nuclide grid points are a subset of the union grid, so the nuclide
  bin is constant across a union bin).  Each nuclide's pointers are one
  contiguous row, so a lookup gathers them with one ``take``;
* a logarithmic hash over the union grid (OpenMC's energy-grid hashing)
  narrows each bin search to a window of a few points: ``M`` buckets
  uniform in ``log E`` (``M`` the largest power of two ``<= n_union/2``),
  and per bucket ``hash_lo``, the lowest union bin any energy that can
  round into the bucket may have.  The window bounds are taken one whole
  bucket outside the bucket on each side, so floating-point rounding in
  ``log`` can never put an energy outside its window, and the hashed
  search (:func:`repro.kernels.xs.union_bins`) equals the bisection bit
  for bit;
* a runtime lookup then costs **one** bin search (on the union grid,
  hashed, or cached-linear — the same strategies as multigroup) plus one
  gather + linear interpolation per nuclide per reaction.

The library is synthetic (resonance-peaked, fixed seeds) so CE problems
run hermetically with no external nuclear-data files, mirroring how
:mod:`repro.xs.tables` fakes ENDF-shaped multigroup data.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.xs.tables import (
    DEFAULT_EMAX_EV,
    DEFAULT_EMIN_EV,
    _log_energy_grid,
    _resonances,
)

__all__ = [
    "CENuclide",
    "CEMaterial",
    "UnionGrid",
    "build_union_grid",
    "make_nuclide",
    "default_ce_materials",
    "DEFAULT_CE_NPOINTS",
]

#: Default per-nuclide energy-grid size for the synthetic CE library.  Small
#: enough that union-grid construction is cheap in tests; the bench specs
#: scale it up to make the lookup measurably hot.
DEFAULT_CE_NPOINTS = 4_000


@dataclass(frozen=True, eq=False)
class CENuclide:
    """Pointwise continuous-energy data for one nuclide.

    Attributes
    ----------
    name:
        Nuclide label ("H1", "U235", ...).
    awr:
        Atomic weight ratio — doubles as the molar mass contribution in
        g/mol for the synthetic library.
    energy:
        Strictly increasing energy grid in eV.
    scatter / capture:
        Microscopic cross sections in barns on ``energy``.
    fission:
        Microscopic fission cross section, or ``None`` for non-fissionable
        nuclides.
    """

    name: str
    awr: float
    energy: np.ndarray
    scatter: np.ndarray
    capture: np.ndarray
    fission: np.ndarray | None = None

    def __post_init__(self) -> None:
        energy = np.asarray(self.energy, dtype=np.float64)
        if energy.ndim != 1 or energy.shape[0] < 2:
            raise ValueError("nuclide energy grid must be 1-D with >= 2 points")
        if not np.all(np.diff(energy) > 0):
            raise ValueError("nuclide energy grid must be strictly increasing")
        if not (energy[0] > 0 and np.isfinite(energy[-1])):
            raise ValueError("nuclide energies must be positive and finite")
        object.__setattr__(self, "energy", energy)
        for reaction in ("scatter", "capture", "fission"):
            value = getattr(self, reaction)
            if value is None:
                continue
            value = np.asarray(value, dtype=np.float64)
            if value.shape != energy.shape:
                raise ValueError(f"{reaction} grid shape != energy grid shape")
            if np.any(value < 0):
                raise ValueError(f"{reaction} cross sections must be non-negative")
            object.__setattr__(self, reaction, value)

    @property
    def fissile(self) -> bool:
        return self.fission is not None

    def nbytes(self) -> int:
        total = self.energy.nbytes + self.scatter.nbytes + self.capture.nbytes
        if self.fission is not None:
            total += self.fission.nbytes
        return int(total)


@dataclass(frozen=True, eq=False)
class CEMaterial:
    """A material as a composition of nuclides with atom fractions.

    Attributes
    ----------
    name:
        Material label.
    composition:
        Tuple of ``(nuclide, atom_fraction)`` pairs; fractions need not be
        normalised (they are used as-is, matching how number densities mix).
    nu:
        Mean fission neutron yield (used when any nuclide is fissile).
    fission_energy_ev:
        Birth energy of fission secondaries in eV.
    """

    name: str
    composition: tuple
    nu: float = 2.43
    fission_energy_ev: float = 2.0e6

    def __post_init__(self) -> None:
        if not self.composition:
            raise ValueError("a CE material needs at least one nuclide")
        comp = tuple((nuc, float(frac)) for nuc, frac in self.composition)
        for _nuc, frac in comp:
            if frac <= 0:
                raise ValueError("atom fractions must be positive")
        object.__setattr__(self, "composition", comp)

    @property
    def molar_mass_g_mol(self) -> float:
        """Fraction-weighted molar mass (AWR doubles as g/mol here)."""
        total = sum(frac for _nuc, frac in self.composition)
        return sum(nuc.awr * frac for nuc, frac in self.composition) / total

    @property
    def a_ratio(self) -> float:
        """Scattering mass ratio fed to the collision kinematics."""
        return self.molar_mass_g_mol

    @property
    def fissile(self) -> bool:
        return any(nuc.fissile for nuc, _frac in self.composition)


@dataclass(frozen=True, eq=False)
class UnionGrid:
    """Prepared lookup structure for one material (XSBench's unionized grid).

    Attributes
    ----------
    energy:
        Union of the member nuclides' energy points (unique, increasing) —
        the single grid every runtime bin search runs on.  Duck-compatible
        with the probe kernels in :mod:`repro.kernels.xs`, which only read
        ``.energy``.
    ptr:
        ``(n_nuclides, n_union)`` int64 double-index table, one C-contiguous
        row per nuclide: ``ptr[j, k]`` is the bin on nuclide ``j``'s own
        grid bracketing energies in union bin ``k``.  Precomputing it turns
        the per-nuclide searches into gathers.
    nuclides / fracs:
        The material's nuclides and their atom fractions, lookup order.
    fissile:
        Whether any member nuclide carries fission data.
    hash_lo:
        ``(M + 1,)`` log-hash table: ``hash_lo[m]`` is the lowest union bin
        of any energy whose bucket index rounds to ``m``; bucket ``M``
        collects everything at or above the top of the grid (``+inf`` and
        NaN included).
    hash_log_lo / hash_scale:
        Bucket of ``e`` is ``trunc((log(max(e, energy[0])) - hash_log_lo)
        * hash_scale)``, capped at ``M``.
    hash_steps:
        Halving steps that resolve the widest bucket window:
        ``ceil(log2(widest window + 1))``.
    """

    energy: np.ndarray
    ptr: np.ndarray
    nuclides: tuple
    fracs: np.ndarray
    fissile: bool
    hash_lo: np.ndarray
    hash_log_lo: float
    hash_scale: float
    hash_steps: int
    nbins_log2: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "nbins_log2",
            int(np.ceil(np.log2(max(self.energy.shape[0], 2)))),
        )

    def nbytes(self) -> int:
        """Footprint of the lookup data: union grid, pointer rows, log
        hash (``hash_lo``, 128 KiB on a 37 498-point grid) and the
        nuclides' own tables."""
        total = self.energy.nbytes + self.ptr.nbytes + self.fracs.nbytes
        total += self.hash_lo.nbytes
        total += sum(nuc.nbytes() for nuc in self.nuclides)
        return int(total)


def _log_hash(energy: np.ndarray) -> dict:
    """The log-hash fields of :class:`UnionGrid` for a union grid.

    Bucket ``m`` may hold energies whose true log lies anywhere in bucket
    ``m ± 1`` once ``log`` has rounded, so its window runs from the bin
    of edge ``m − 1`` to the bin of edge ``m + 2``: one ``exp`` over the
    ``M + 3`` edges ``−1 … M + 1`` and one ``searchsorted`` build it.  On
    grids so narrow in ``log E`` that a bucket nears the rounding error of
    ``log``, ``M`` halves until a bucket is ``2**-32`` of the log scale
    wide: a rounding error in ``log`` then moves the bucket index by at
    most ``2**-16``.
    """
    n = energy.shape[0]
    log_lo = float(np.log(energy[0]))
    log_hi = float(np.log(energy[-1]))
    span = log_hi - log_lo
    nbuckets = 1 << max((n // 2).bit_length() - 1, 0)
    tolerance = 2.0**-32 * max(1.0, abs(log_lo), abs(log_hi))
    while nbuckets > 1 and span / nbuckets < tolerance:
        nbuckets //= 2
    scale = nbuckets / max(span, tolerance)
    edges = np.exp(log_lo + np.arange(-1, nbuckets + 2) / scale)
    bins = np.clip(np.searchsorted(energy, edges, side="right") - 1, 0, n - 1)
    lo = bins[: nbuckets + 1]
    hi = np.append(bins[3:], n - 1)
    return {
        "hash_lo": lo.astype(np.intp),
        "hash_log_lo": log_lo,
        "hash_scale": scale,
        "hash_steps": int((hi - lo).max()).bit_length(),
    }


#: Per-process memo of prepared grids keyed by material identity (CE
#: materials are immutable), so repeated provider construction — pool
#: shards, bench repeats — builds each union grid once.
_GRID_CACHE: "weakref.WeakKeyDictionary[CEMaterial, UnionGrid]" = (
    weakref.WeakKeyDictionary()
)


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of NaN-free floats, without the ``numpy.ma`` import
    that ``np.unique`` triggers (≈15 ms of a cold process's set-up)."""
    values = np.sort(values)
    keep = np.empty(values.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def build_union_grid(material: CEMaterial) -> UnionGrid:
    """Build the unionized energy grid, its per-nuclide pointer rows and
    its log hash for a material."""
    hit = _GRID_CACHE.get(material)
    if hit is not None:
        return hit
    nuclides = tuple(nuc for nuc, _frac in material.composition)
    fracs = np.array([frac for _nuc, frac in material.composition], dtype=np.float64)
    union = _unique(np.concatenate([nuc.energy for nuc in nuclides]))
    ptr = np.empty((len(nuclides), union.shape[0]), dtype=np.int64)
    for j, nuc in enumerate(nuclides):
        bins = np.searchsorted(nuc.energy, union, side="right") - 1
        np.clip(bins, 0, nuc.energy.shape[0] - 2, out=ptr[j])
    grid = UnionGrid(
        energy=union,
        ptr=ptr,
        nuclides=nuclides,
        fracs=fracs,
        fissile=material.fissile,
        **_log_hash(union),
    )
    _GRID_CACHE[material] = grid
    return grid


def make_nuclide(
    name: str,
    awr: float,
    npoints: int,
    *,
    seed: int,
    smooth_scatter: float = 20.0,
    smooth_capture: float = 5.0,
    n_res: int = 40,
    amp: float = 30.0,
    fissile: bool = False,
    emin: float = DEFAULT_EMIN_EV,
    emax: float = DEFAULT_EMAX_EV,
) -> CENuclide:
    """Generate one synthetic resonance-peaked nuclide.

    Reuses the deterministic resonance generator behind the multigroup
    tables with nuclide-specific seeds, so the library is identical across
    runs and machines (workers rebuild it independently from the seed).
    The grid is log-spaced but jittered per nuclide so distinct nuclides
    contribute distinct points to the union grid — without the jitter the
    union would collapse back onto a single shared grid and the
    double-index pointers would be trivial.
    """
    rng = np.random.default_rng(seed)
    grid = _log_energy_grid(npoints, emin, emax)
    log_grid = np.log(grid)
    jitter = rng.uniform(-0.35, 0.35, size=npoints)
    jitter[0] = jitter[-1] = 0.0  # shared bounds: no cross-nuclide extrapolation
    spacing = np.diff(log_grid, prepend=log_grid[0] - (log_grid[1] - log_grid[0]))
    energy = np.exp(log_grid + jitter * spacing)
    energy = _unique(energy)
    scatter = smooth_scatter + 5.0 * np.exp(-energy / 1.0e6)
    scatter = scatter + _resonances(energy, seed=seed + 1, n_res=n_res, amp=amp)
    capture = smooth_capture / np.sqrt(np.maximum(energy, 1e-12))
    capture = capture + _resonances(energy, seed=seed + 2, n_res=n_res, amp=amp) + 0.05
    fission = None
    if fissile:
        fission = 4.0 / np.sqrt(np.maximum(energy, 1e-12)) + 1.0
        fission = fission + _resonances(energy, seed=seed + 3, n_res=n_res, amp=amp)
    return CENuclide(
        name=name,
        awr=awr,
        energy=energy,
        scatter=scatter,
        capture=capture,
        fission=fission,
    )


_DEFAULT_CACHE: dict = {}


def default_ce_materials(
    nmaterials: int = 1,
    npoints: int = DEFAULT_CE_NPOINTS,
    *,
    seed: int = 7000,
) -> tuple:
    """The built-in synthetic CE library: ``nmaterials`` hermetic materials.

    Material 0 is a hydrogenous moderator (light smooth nuclide dominant,
    heavy resonance-dense diluent); material 1, when requested, is a
    fissile fuel.  Further materials repeat the moderator recipe with
    shifted seeds.  Cached by ``(nmaterials, npoints, seed)`` — the
    generator is deterministic, so pool workers rebuilding from the same
    config arrive at bit-identical data.
    """
    key = (int(nmaterials), int(npoints), int(seed))
    hit = _DEFAULT_CACHE.get(key)
    if hit is not None:
        return hit
    if nmaterials < 1:
        raise ValueError("need at least one material")
    mats = []
    for i in range(nmaterials):
        base = seed + 100 * i
        if i == 1:
            heavy = make_nuclide(
                f"U235_{i}", 235.0, npoints, seed=base + 10,
                smooth_scatter=10.0, smooth_capture=8.0,
                n_res=60, amp=45.0, fissile=True,
            )
            oxygen = make_nuclide(
                f"O16_{i}", 16.0, max(npoints // 2, 2), seed=base + 20,
                smooth_scatter=4.0, smooth_capture=0.2, n_res=10, amp=5.0,
            )
            mats.append(CEMaterial(
                name=f"ce_fuel_{i}",
                composition=((heavy, 1.0), (oxygen, 2.0)),
            ))
        else:
            light = make_nuclide(
                f"H1_{i}", 1.0, max(npoints // 2, 2), seed=base + 10,
                smooth_scatter=20.0, smooth_capture=0.3, n_res=8, amp=4.0,
            )
            heavy = make_nuclide(
                f"Fe56_{i}", 56.0, npoints, seed=base + 20,
                smooth_scatter=12.0, smooth_capture=2.5,
                n_res=50, amp=35.0,
            )
            mats.append(CEMaterial(
                name=f"ce_moderator_{i}",
                composition=((light, 2.0), (heavy, 1.0)),
            ))
    result = tuple(mats)
    _DEFAULT_CACHE[key] = result
    return result
