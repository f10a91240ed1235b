"""Backend-neutral cross-section provider layer.

Every transport driver used to reach straight into
:class:`repro.xs.tables.CrossSectionTable` — the multigroup data model was
baked into the physics, kernel, driver, pool, ensemble, and volume layers
alike.  This module is the single seam between "what cross-section data
looks like" and "what the transport loop needs":

* :class:`XsProvider` — the protocol.  Given a material index and a batch
  of energies it returns microscopic (scatter, capture, fission) values
  plus the bin-search bookkeeping (which cache field to update, which grid
  was searched) the drivers need for their exact probe accounting; a
  shared helper converts microscopic to macroscopic cross sections with
  the exact ufunc chain both schemes already agree on bit-for-bit.
* :class:`MultigroupProvider` — wraps the existing per-material table
  pairs.  It is a pure refactor: lookup order, kernel dispatch names, and
  probe arithmetic reproduce the pre-provider drivers bit-identically
  (the parity suite pins run fingerprints to pre-refactor goldens).
* :class:`ContinuousEnergyProvider` — per-nuclide pointwise data on a
  unionized energy grid with double-index pointers
  (:mod:`repro.xs.ce`): one bin search per lookup regardless of nuclide
  count, then gathered interpolation per nuclide per reaction.

An AST audit (``python -m repro.kernels --check``) enforces the seam: no
module outside ``repro/xs/`` may touch ``CrossSectionTable`` or raw table
arrays again.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.kernels import xs as kernel_xs
from repro.xs.ce import build_union_grid, default_ce_materials
from repro.xs.lookup import LookupStats
from repro.xs.macroscopic import AVOGADRO, BARNS_TO_M2

__all__ = [
    "XsMode",
    "MicroLookup",
    "MacroXs",
    "XsProvider",
    "MultigroupProvider",
    "ContinuousEnergyProvider",
    "resolve_provider",
]


class XsMode(str, Enum):
    """Which cross-section backend a run uses."""

    MULTIGROUP = "multigroup"
    CONTINUOUS_ENERGY = "ce"

    @classmethod
    def coerce(cls, value) -> "XsMode":
        """Accept an :class:`XsMode` or its string value (CLI-friendly)."""
        if isinstance(value, cls):
            return value
        return cls(str(value))


@dataclass(frozen=True)
class MicroLookup:
    """One batch lookup's results for a single material.

    Attributes
    ----------
    micro_s / micro_c:
        Microscopic scatter / capture cross sections in barns, one per lane.
    micro_f:
        Microscopic fission cross sections, or ``None`` for non-fissile
        materials (callers zero their fission buffer).
    searches:
        One ``(cache_field, grid, bins)`` triple per bin search performed:
        the arena bin-cache field to refresh, the searched grid (exposes
        ``.energy`` for the probe kernels), and the found bins.  Length is
        the lookup count per lane — multigroup searches one table per
        reaction, the union grid searches once for all reactions.
    """

    micro_s: np.ndarray
    micro_c: np.ndarray
    micro_f: np.ndarray | None
    searches: tuple


@dataclass(frozen=True)
class MacroXs:
    """Macroscopic cross sections per lane, in 1/m."""

    sigma_s: np.ndarray
    sigma_a: np.ndarray
    sigma_f: np.ndarray
    sigma_t: np.ndarray


def _direct_run(name: str, nitems: int, *args):
    """Dispatch-free kernel runner for provider use outside a driver."""
    return _DIRECT_KERNELS[name](*args)


class XsProvider(ABC):
    """Protocol every cross-section backend implements.

    Concrete providers populate the material metadata arrays the drivers
    gather from per lane:

    ``mat_a`` (scattering mass ratio), ``mat_molar`` (g/mol), ``mat_nu``
    (fission yield), ``mat_fissile`` (bool), ``mat_fission_energy_ev``
    (secondary birth energy) — all indexed by material id.
    """

    mode: XsMode
    materials: tuple
    mat_a: np.ndarray
    mat_molar: np.ndarray
    mat_nu: np.ndarray
    mat_fissile: np.ndarray
    mat_fission_energy_ev: np.ndarray

    @property
    def nmaterials(self) -> int:
        return len(self.materials)

    # -- lookup ----------------------------------------------------------

    @abstractmethod
    def lookup(self, mi: int, e: np.ndarray, run=None) -> MicroLookup:
        """Batch microscopic lookup for material ``mi`` at energies ``e``.

        ``run`` is a kernel dispatcher with the :meth:`KernelDispatch.run`
        signature; ``None`` executes the kernels directly (no accounting).
        """

    @abstractmethod
    def lookups_per_refresh(self, mi: int) -> int:
        """Bin searches one batch lookup performs per lane."""

    @abstractmethod
    def binary_probe_estimate(self, mi: int) -> int:
        """Probe count the Over Events accounting books per fresh lane."""

    @abstractmethod
    def birth_bins_batch(self, mi: int, e: np.ndarray) -> dict:
        """Bin-cache seed fields for a batch of newborn particles."""

    def source_bins_batch(self, mi: int, e: np.ndarray) -> dict:
        """Bin-cache seed fields for source emission.

        Defaults to :meth:`birth_bins_batch`; multigroup narrows it to the
        scatter/capture bins because the legacy source sampler never
        seeded the fission bin (preserved for probe-count parity).
        """
        return self.birth_bins_batch(mi, e)

    # -- macroscopic conversion (shared, exact) --------------------------

    def macroscopic_into(
        self,
        ws,
        n: int,
        mat_idx: np.ndarray,
        micro_s: np.ndarray,
        micro_c: np.ndarray,
        micro_f: np.ndarray,
        density: np.ndarray,
    ) -> MacroXs:
        """Microscopic barns → macroscopic 1/m, the bit-parity ufunc chain.

        Both schemes call exactly this sequence (same ops, same order, same
        workspace buffer names) — it is part of the OP ≡ OE fingerprint
        contract, so providers share one implementation.  ``ws`` may be
        ``None`` to allocate fresh buffers (protocol-level callers).
        """
        molar = _buf(ws, "molar", n)
        np.take(self.mat_molar, mat_idx, out=molar)
        numdens = _buf(ws, "numdens", n)
        np.multiply(density, 1.0e3, out=numdens)
        np.divide(numdens, molar, out=numdens)
        np.multiply(numdens, AVOGADRO, out=numdens)
        sigma_s = _buf(ws, "sigma_s", n)
        np.multiply(numdens, micro_s, out=sigma_s)
        np.multiply(sigma_s, BARNS_TO_M2, out=sigma_s)
        sigma_f = _buf(ws, "sigma_f", n)
        np.multiply(numdens, micro_f, out=sigma_f)
        np.multiply(sigma_f, BARNS_TO_M2, out=sigma_f)
        sigma_a = _buf(ws, "sigma_a", n)
        np.multiply(numdens, micro_c, out=sigma_a)
        np.multiply(sigma_a, BARNS_TO_M2, out=sigma_a)
        np.add(sigma_a, sigma_f, out=sigma_a)
        sigma_t = _buf(ws, "sigma_t", n)
        np.add(sigma_s, sigma_a, out=sigma_t)
        return MacroXs(sigma_s=sigma_s, sigma_a=sigma_a, sigma_f=sigma_f,
                       sigma_t=sigma_t)

    def macro_xs(
        self,
        mat_idx: np.ndarray,
        energy: np.ndarray,
        density: np.ndarray,
        *,
        run=None,
        stats: LookupStats | None = None,
    ) -> MacroXs:
        """The protocol in one call: material ids + energies → macroscopic.

        Groups lanes by material, performs the backend lookup, converts to
        macroscopic, and (optionally) books exact binary-search probe
        counts into ``stats``.  The drivers inline these steps for their
        cache/probe-accounting variants; this entry point serves tests,
        analysis code, and new consumers.
        """
        mat_idx = np.asarray(mat_idx, dtype=np.int64)
        energy = np.asarray(energy, dtype=np.float64)
        density = np.broadcast_to(
            np.asarray(density, dtype=np.float64), energy.shape
        )
        n = energy.shape[0]
        micro_s = np.zeros(n, dtype=np.float64)
        micro_c = np.zeros(n, dtype=np.float64)
        micro_f = np.zeros(n, dtype=np.float64)
        for mi in range(self.nmaterials):
            sel = np.nonzero(mat_idx == mi)[0]
            if sel.size == 0:
                continue
            lk = self.lookup(mi, energy[sel], run)
            micro_s[sel] = lk.micro_s
            micro_c[sel] = lk.micro_c
            if lk.micro_f is not None:
                micro_f[sel] = lk.micro_f
            if stats is not None:
                stats.lookups += len(lk.searches) * sel.size
                for _field, grid, _bins in lk.searches:
                    stats.binary_probes += int(
                        kernel_xs.bisection_probes(grid, energy[sel]).sum()
                    )
        return self.macroscopic_into(
            None, n, mat_idx, micro_s, micro_c, micro_f, density
        )

    def nbytes(self) -> int:
        """Approximate data footprint of the backend in bytes."""
        return 0


def _buf(ws, name: str, n: int) -> np.ndarray:
    if ws is not None:
        return ws.f64(name, n)
    return np.empty(n, dtype=np.float64)


def _material_meta(provider: XsProvider, materials) -> None:
    provider.mat_a = np.array([m.a_ratio for m in materials], dtype=np.float64)
    provider.mat_molar = np.array(
        [m.molar_mass_g_mol for m in materials], dtype=np.float64
    )
    provider.mat_nu = np.array([m.nu for m in materials], dtype=np.float64)
    provider.mat_fissile = np.array([m.fissile for m in materials], dtype=bool)
    provider.mat_fission_energy_ev = np.array(
        [m.fission_energy_ev for m in materials], dtype=np.float64
    )


class MultigroupProvider(XsProvider):
    """The paper's multigroup tables behind the provider protocol.

    A pure adapter: every kernel dispatch, search order, and probe count
    matches the pre-provider drivers bit-for-bit.  ``nentries_hint`` feeds
    the Over Events closed-form probe estimate (``ceil(log2(nentries))``),
    which historically uses the *configured* table size rather than the
    actual table length — preserved exactly for counter parity.
    """

    mode = XsMode.MULTIGROUP

    def __init__(self, materials, nentries_hint: int | None = None):
        self.materials = tuple(materials)
        if not self.materials:
            raise ValueError("need at least one material")
        _material_meta(self, self.materials)
        if nentries_hint is None:
            nentries_hint = max(len(m.scatter) for m in self.materials)
        self.nbins_log2 = int(np.ceil(np.log2(max(int(nentries_hint), 2))))

    def lookup(self, mi: int, e: np.ndarray, run=None) -> MicroLookup:
        run = run or _direct_run
        mat = self.materials[mi]
        n = e.shape[0]
        sbins, micro_s = run("xs_lookup", n, mat.scatter, e)
        cbins, micro_c = run("xs_lookup", n, mat.capture, e)
        searches = [
            ("scatter_bin", mat.scatter, sbins),
            ("capture_bin", mat.capture, cbins),
        ]
        micro_f = None
        if mat.fissile:
            fbins, micro_f = run("xs_lookup", n, mat.fission, e)
            searches.append(("fission_bin", mat.fission, fbins))
        return MicroLookup(micro_s, micro_c, micro_f, tuple(searches))

    def lookups_per_refresh(self, mi: int) -> int:
        return 3 if self.materials[mi].fissile else 2

    def binary_probe_estimate(self, mi: int) -> int:
        return self.nbins_log2

    def birth_bins_batch(self, mi: int, e: np.ndarray) -> dict:
        mat = self.materials[mi]
        bins = {
            "scatter_bin": kernel_xs.search_bins(mat.scatter, e),
            "capture_bin": kernel_xs.search_bins(mat.capture, e),
        }
        if mat.fissile:
            bins["fission_bin"] = kernel_xs.search_bins(mat.fission, e)
        return bins

    def source_bins_batch(self, mi: int, e: np.ndarray) -> dict:
        mat = self.materials[mi]
        return {
            "scatter_bin": kernel_xs.search_bins(mat.scatter, e),
            "capture_bin": kernel_xs.search_bins(mat.capture, e),
        }

    def nbytes(self) -> int:
        total = 0
        for mat in self.materials:
            total += mat.scatter.nbytes() + mat.capture.nbytes()
            if mat.fissile:
                total += mat.fission.nbytes()
        return total


class ContinuousEnergyProvider(XsProvider):
    """Continuous-energy backend on per-material unionized grids.

    One bin search per lookup (the union grid) regardless of how many
    nuclides or reactions the material mixes; the precomputed double-index
    pointer table turns the per-nuclide searches into gathers (XSBench's
    unionized-grid mode).  The bin cache holds the *union-grid* bin, so the
    cached-linear strategy works unchanged.
    """

    mode = XsMode.CONTINUOUS_ENERGY

    def __init__(self, materials):
        self.materials = tuple(materials)
        if not self.materials:
            raise ValueError("need at least one material")
        _material_meta(self, self.materials)
        self.grids = tuple(build_union_grid(m) for m in self.materials)

    def lookup(self, mi: int, e: np.ndarray, run=None) -> MicroLookup:
        run = run or _direct_run
        grid = self.grids[mi]
        bins, micro_s, micro_c, micro_f = run(
            "xs_lookup_ce", e.shape[0], grid, e
        )
        if not grid.fissile:
            micro_f = None
        return MicroLookup(
            micro_s, micro_c, micro_f, (("scatter_bin", grid, bins),)
        )

    def lookups_per_refresh(self, mi: int) -> int:
        return 1

    def binary_probe_estimate(self, mi: int) -> int:
        return self.grids[mi].nbins_log2

    def birth_bins_batch(self, mi: int, e: np.ndarray) -> dict:
        return {"scatter_bin": kernel_xs.union_bins(self.grids[mi], e)}

    def nbytes(self) -> int:
        return sum(grid.nbytes() for grid in self.grids)


def resolve_provider(
    xs_mode,
    *,
    materials=None,
    ce_materials=None,
    nmaterials: int = 1,
    xs_nentries: int | None = None,
) -> XsProvider:
    """Build the provider a config asks for.

    Multigroup wraps ``materials`` (already resolved by the config layer);
    CE uses ``ce_materials`` or falls back to the deterministic synthetic
    library sized by ``xs_nentries`` so CE runs are hermetic.
    """
    mode = XsMode.coerce(xs_mode)
    if mode is XsMode.CONTINUOUS_ENERGY:
        if ce_materials is None:
            npoints = int(xs_nentries) if xs_nentries else None
            kwargs = {} if npoints is None else {"npoints": npoints}
            ce_materials = default_ce_materials(max(int(nmaterials), 1), **kwargs)
        return ContinuousEnergyProvider(ce_materials)
    if materials is None:
        raise ValueError("multigroup mode needs resolved materials")
    return MultigroupProvider(materials, nentries_hint=xs_nentries)


_DIRECT_KERNELS = {
    "xs_lookup": kernel_xs.xs_lookup,
    "xs_lookup_ce": kernel_xs.ce_lookup,
}
