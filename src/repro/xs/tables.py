"""Microscopic cross-section tables.

Real continuous-energy Monte Carlo codes interpolate pointwise nuclear data
(e.g. ENDF/B) with tables of 10⁴–10⁵ energy points per nuclide per reaction.
``neutral`` mimics this with two synthetic tables (capture and elastic
scatter) for a single material, loaded once at start-up (paper §IV-D).

The synthetic data follows the gross shape of real neutron cross sections:
a 1/v (here 1/√E) capture tail at low energy and a slowly varying scattering
cross section, plus a deterministic pseudo-resonance structure so that
consecutive lookups actually exercise the interpolation machinery rather
than hitting a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CrossSectionTable",
    "make_capture_table",
    "make_scatter_table",
    "DEFAULT_NENTRIES",
    "DEFAULT_EMIN_EV",
    "DEFAULT_EMAX_EV",
]

#: Number of (energy, value) pairs per table.  The paper aims for tables
#: "representative of the nuclear data lookup tables" used in real codes —
#: continuous-energy libraries carry 10⁴–10⁵ points per nuclide per
#: reaction, so the two tables total ~0.8 MB and spill the L2 caches of
#: every tested CPU; this is what makes the energy-bin search strategy a
#: measurable optimisation (§VI-A).
DEFAULT_NENTRIES = 25_000

#: Energy grid bounds in eV — thermal to fast.
DEFAULT_EMIN_EV = 1.0e-5
DEFAULT_EMAX_EV = 2.0e7


@dataclass(frozen=True)
class CrossSectionTable:
    """An energy-indexed microscopic cross-section table.

    Attributes
    ----------
    energy:
        Monotonically increasing energy grid in eV.
    value:
        Microscopic cross section in barns at each grid point.
    name:
        Human-readable reaction name ("capture", "elastic_scatter", ...).
    """

    energy: np.ndarray
    value: np.ndarray
    name: str = "xs"

    def __post_init__(self) -> None:
        energy = np.asarray(self.energy, dtype=np.float64)
        value = np.asarray(self.value, dtype=np.float64)
        if energy.ndim != 1 or value.ndim != 1:
            raise ValueError("energy and value must be 1-D arrays")
        if energy.shape != value.shape:
            raise ValueError("energy and value must have the same length")
        if energy.shape[0] < 2:
            raise ValueError("a table needs at least two points")
        if not np.all(np.diff(energy) > 0):
            raise ValueError("energy grid must be strictly increasing")
        if np.any(value < 0):
            raise ValueError("cross sections must be non-negative")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "value", value)

    def __len__(self) -> int:
        return self.energy.shape[0]

    def interpolate_at_bin(self, e: float, bin_index: int) -> float:
        """Linearly interpolate the value at energy ``e`` within ``bin_index``.

        ``bin_index`` must satisfy ``energy[bin] <= e <= energy[bin+1]``
        (clamped behaviour outside the grid is handled by the lookup layer).
        """
        e0 = self.energy[bin_index]
        e1 = self.energy[bin_index + 1]
        v0 = self.value[bin_index]
        v1 = self.value[bin_index + 1]
        t = (e - e0) / (e1 - e0)
        return float(v0 + t * (v1 - v0))

    def nbytes(self) -> int:
        """Approximate memory footprint of the table in bytes."""
        return int(self.energy.nbytes + self.value.nbytes)


def _log_energy_grid(nentries: int, emin: float, emax: float) -> np.ndarray:
    """Logarithmic energy grid, matching how nuclear data libraries space points."""
    return np.logspace(np.log10(emin), np.log10(emax), nentries)


def _resonances(energy: np.ndarray, seed: int, n_res: int, amp: float) -> np.ndarray:
    """Deterministic pseudo-resonance structure added on top of the smooth part.

    Uses a fixed-seed generator so tables are identical across runs and
    machines — the paper's tables are generated once and loaded at start-up.
    Each Lorentzian ``h·w² / ((log E − c)² + w²)`` is evaluated in one
    scratch buffer in that expression's operation order, so every value
    keeps the expression's exact bits (the table hashes are pinned in
    ``tests/test_xs_provider.py``).
    """
    rng = np.random.default_rng(seed)
    log_e = np.log(energy)
    centres = rng.uniform(np.log(1.0), np.log(1.0e6), size=n_res)
    widths = rng.uniform(0.01, 0.1, size=n_res)
    heights = rng.uniform(0.2, 1.0, size=n_res) * amp
    out = np.zeros_like(energy)
    buf = np.empty_like(energy)
    for c, w, h in zip(centres, widths, heights):
        w2 = w**2
        np.subtract(log_e, c, out=buf)
        np.square(buf, out=buf)
        buf += w2
        np.divide(h * w2, buf, out=buf)
        out += buf
    return out


def make_capture_table(
    nentries: int = DEFAULT_NENTRIES,
    emin: float = DEFAULT_EMIN_EV,
    emax: float = DEFAULT_EMAX_EV,
) -> CrossSectionTable:
    """Build the dummy capture (absorption) cross-section table.

    Shape: a 1/√E ("one over v") thermal tail plus resonances — the classic
    profile of a neutron capture cross section.
    """
    energy = _log_energy_grid(nentries, emin, emax)
    smooth = 10.0 / np.sqrt(np.maximum(energy, 1e-12))
    value = smooth + _resonances(energy, seed=101, n_res=60, amp=30.0) + 0.1
    return CrossSectionTable(energy=energy, value=value, name="capture")


def make_scatter_table(
    nentries: int = DEFAULT_NENTRIES,
    emin: float = DEFAULT_EMIN_EV,
    emax: float = DEFAULT_EMAX_EV,
) -> CrossSectionTable:
    """Build the dummy elastic-scatter cross-section table.

    Shape: slowly varying with mild resonance structure, roughly constant in
    the thermal range — typical of elastic scattering data.
    """
    energy = _log_energy_grid(nentries, emin, emax)
    smooth = 100.0 + 15.0 * np.exp(-energy / 1.0e6)
    value = smooth + _resonances(energy, seed=202, n_res=40, amp=25.0)
    return CrossSectionTable(energy=energy, value=value, name="elastic_scatter")
