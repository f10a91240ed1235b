"""The cross-section provider seam: multigroup bit-parity + the CE backend.

Two proof obligations guard the provider refactor:

* **MultigroupProvider is a pure adapter** — run fingerprints, event
  counters, exact probe statistics, and tally bytes must equal the
  pre-refactor goldens captured from the seed implementation, across all
  three paper problems × both schemes × serial/pooled/ensemble execution.
* **ContinuousEnergyProvider keeps the contracts** — OP ≡ OE ≡ AUTO
  population parity, conservation, and the union-grid lookup agreeing
  bit-for-bit with a brute-force per-nuclide reference (including the
  grid-edge and single-bin cases the paper's §VI-A cached-linear search
  is known to be sensitive to).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scheme, Simulation, csp_problem, scatter_problem, stream_problem
from repro.core.validation import energy_balance_error, population_accounted
from repro.ensemble.engine import population_fingerprint
from repro.kernels.audit import audit as audit_xs_table_access
from repro.kernels.xs import ce_lookup, linear_walk_probes, search_bins, union_bins
from repro.xs.ce import (
    CEMaterial,
    CENuclide,
    build_union_grid,
    default_ce_materials,
    make_nuclide,
)
from repro.xs.materials import fissile_fuel, hydrogenous_moderator, make_fission_table
from repro.xs.provider import (
    ContinuousEnergyProvider,
    MultigroupProvider,
    XsMode,
    resolve_provider,
)
from repro.xs.tables import make_capture_table, make_scatter_table

# ---------------------------------------------------------------------------
# Multigroup golden parity (pre-refactor seed values, captured verbatim)
# ---------------------------------------------------------------------------

#: (fingerprint, collisions, xs_lookups, xs_binary_probes,
#:  xs_linear_probes, sha256(tally.deposition)[:16]) per problem × scheme
#: for ``fac(nx=24, nparticles=40, ntimesteps=2, seed=11)``.
GOLD = {
    ("stream", Scheme.OVER_PARTICLES): (
        "db870115e6f48daba47152821d47b3345c47346be9043d32303fb85596782bdf",
        0, 160, 0, 0, "606f558e014930f9"),
    ("stream", Scheme.OVER_EVENTS): (
        "db870115e6f48daba47152821d47b3345c47346be9043d32303fb85596782bdf",
        0, 160, 1200, 0, "606f558e014930f9"),
    ("scatter", Scheme.OVER_PARTICLES): (
        "501d919053b254bf7097283a523ab648d5261b2f3872073b3554b5e4bb1807e1",
        773, 1624, 0, 1214270, "e49aa742d3d0635e"),
    ("scatter", Scheme.OVER_EVENTS): (
        "501d919053b254bf7097283a523ab648d5261b2f3872073b3554b5e4bb1807e1",
        773, 1624, 23520, 0, "e49aa742d3d0635e"),
    ("csp", Scheme.OVER_PARTICLES): (
        "554c4b581cd65173a17245026a597f3a08c2ed9c394ee550fcb4290a368fd050",
        257, 664, 0, 388054, "745a49a261e304fe"),
    ("csp", Scheme.OVER_EVENTS): (
        "554c4b581cd65173a17245026a597f3a08c2ed9c394ee550fcb4290a368fd050",
        257, 664, 8760, 0, "745a49a261e304fe"),
}

FACTORIES = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}


def _signature(res):
    c = res.counters
    dep = hashlib.sha256(
        np.ascontiguousarray(res.tally.deposition).tobytes()
    ).hexdigest()[:16]
    return (population_fingerprint(res.arena), c.collisions, c.xs_lookups,
            c.xs_binary_probes, c.xs_linear_probes, dep)


@pytest.mark.parametrize("problem,scheme", sorted(GOLD, key=str))
def test_multigroup_matches_seed_goldens(problem, scheme):
    """The provider refactor must be invisible: bit-identical runs."""
    cfg = FACTORIES[problem](nx=24, nparticles=40, ntimesteps=2, seed=11)
    res = Simulation(cfg).run(scheme=scheme)
    assert _signature(res) == GOLD[(problem, scheme)]


def _fissile_config():
    material_map = np.zeros((24, 24), dtype=np.int64)
    material_map[:, 12:] = 1
    return csp_problem(
        nx=24, nparticles=40, ntimesteps=2, seed=11,
        materials=(hydrogenous_moderator(2000, 1.0), fissile_fuel(2000)),
        material_map=material_map,
    )


@pytest.mark.parametrize(
    "scheme", [Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS]
)
def test_multigroup_fissile_matches_seed_goldens(scheme):
    res = Simulation(_fissile_config()).run(scheme=scheme)
    c = res.counters
    assert population_fingerprint(res.arena) == (
        "54a51ff31081345be5e5e861e09745c04086f6f9fc7f4bf263e4eee02f5a4701"
    )
    assert (c.collisions, c.fissions, c.secondaries_banked, c.xs_lookups) \
        == (226, 1, 1, 745)
    assert hashlib.sha256(
        np.ascontiguousarray(res.tally.deposition).tobytes()
    ).hexdigest()[:16] == "8b3d6cdbc194b62e"


def test_multigroup_pooled_and_ensemble_match_serial():
    """The same provider feeds serial, pooled, and fused execution."""
    from repro.ensemble import EnsembleSpec, run_ensemble

    cfg = csp_problem(nx=24, nparticles=40, ntimesteps=2, seed=11)
    gold_fp = GOLD[("csp", Scheme.OVER_EVENTS)][0]
    pooled = Simulation(cfg).run(scheme=Scheme.OVER_EVENTS, nworkers=2)
    assert population_fingerprint(pooled.arena) == gold_fp
    ens = run_ensemble(
        EnsembleSpec(cfg, 2, seed_stride=1), Scheme.OVER_EVENTS
    )
    assert population_fingerprint(ens.replicas[0].arena) == gold_fp


# ---------------------------------------------------------------------------
# Continuous-energy backend: parity, conservation, pooled execution
# ---------------------------------------------------------------------------

def _ce_config(**overrides):
    kw = dict(nx=24, nparticles=40, ntimesteps=2, seed=11,
              xs_mode="ce", xs_nentries=1200)
    kw.update(overrides)
    return csp_problem(**kw)


@pytest.fixture(scope="module")
def ce_results():
    cfg = _ce_config()
    return {
        scheme: Simulation(cfg).run(scheme=scheme)
        for scheme in (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS,
                       Scheme.AUTO)
    }


def test_ce_scheme_parity(ce_results):
    fps = {
        s: population_fingerprint(r.arena) for s, r in ce_results.items()
    }
    assert len(set(fps.values())) == 1, fps
    deps = {
        hashlib.sha256(
            np.ascontiguousarray(r.tally.deposition).tobytes()
        ).hexdigest()
        for r in ce_results.values()
    }
    assert len(deps) == 1


def test_ce_conservation(ce_results):
    for res in ce_results.values():
        assert energy_balance_error(res) < 1e-10
        assert population_accounted(res)


def test_ce_probe_accounting(ce_results):
    """CE is one search per refresh: OP walks linearly, OE bisects."""
    op = ce_results[Scheme.OVER_PARTICLES].counters
    oe = ce_results[Scheme.OVER_EVENTS].counters
    assert op.xs_lookups == oe.xs_lookups > 0
    assert op.xs_linear_probes > 0 and op.xs_binary_probes == 0
    assert oe.xs_binary_probes > 0 and oe.xs_linear_probes == 0


def test_ce_pooled_matches_serial(ce_results):
    """Workers rebuild the deterministic CE library from the config."""
    pooled = Simulation(_ce_config()).run(
        scheme=Scheme.OVER_EVENTS, nworkers=2
    )
    assert population_fingerprint(pooled.arena) == population_fingerprint(
        ce_results[Scheme.OVER_EVENTS].arena
    )


def test_ce_multimaterial_fissile_parity():
    """material_map index 1 selects the synthetic fissile CE fuel."""
    material_map = np.zeros((24, 24), dtype=np.int64)
    material_map[:, 12:] = 1
    cfg = _ce_config(material_map=material_map)
    prov = cfg.resolved_provider()
    assert bool(prov.mat_fissile[1]) and not bool(prov.mat_fissile[0])
    rp = Simulation(cfg).run(scheme=Scheme.OVER_PARTICLES)
    re_ = Simulation(cfg).run(scheme=Scheme.OVER_EVENTS)
    assert population_fingerprint(rp.arena) == population_fingerprint(re_.arena)
    assert energy_balance_error(rp) < 1e-10 and population_accounted(rp)


# ---------------------------------------------------------------------------
# Provider protocol units
# ---------------------------------------------------------------------------

def test_resolve_provider_modes():
    mg = resolve_provider("multigroup",
                          materials=(hydrogenous_moderator(64),))
    ce = resolve_provider("ce", nmaterials=2, xs_nentries=64)
    assert mg.mode is XsMode.MULTIGROUP and isinstance(mg, MultigroupProvider)
    assert ce.mode is XsMode.CONTINUOUS_ENERGY
    assert isinstance(ce, ContinuousEnergyProvider)
    assert ce.nmaterials == 2 and ce.nbytes() > 0
    with pytest.raises(ValueError):
        resolve_provider("multigroup")
    with pytest.raises(ValueError):
        XsMode.coerce("nuclear-data-files")


def test_macro_xs_books_stats_and_sums():
    from repro.xs.lookup import LookupStats

    prov = MultigroupProvider((hydrogenous_moderator(256),))
    stats = LookupStats()
    e = np.geomspace(1.0, 1e6, 50)
    macro = prov.macro_xs(np.zeros(50, dtype=np.int64), e, 1.0, stats=stats)
    assert stats.lookups == 2 * 50
    assert stats.binary_probes > 0
    np.testing.assert_array_equal(macro.sigma_t, macro.sigma_s + macro.sigma_a)
    assert np.all(macro.sigma_f == 0.0)


# ---------------------------------------------------------------------------
# Union grid: structure + brute-force lookup reference
# ---------------------------------------------------------------------------

def _toy_material(npoints=60, fissile=False):
    nucs = (
        (make_nuclide("A", 1.0, npoints // 2, seed=41, fissile=fissile), 2.0),
        (make_nuclide("B", 56.0, npoints, seed=42), 1.0),
    )
    return CEMaterial(name="toy", composition=nucs)


def test_union_grid_structure():
    grid = build_union_grid(_toy_material())
    union = grid.energy
    assert np.all(np.diff(union) > 0)
    # One C-contiguous pointer row per nuclide.
    assert grid.ptr.shape == (len(grid.nuclides), union.shape[0])
    assert grid.ptr.flags.c_contiguous
    for j, nuc in enumerate(grid.nuclides):
        # Every nuclide point appears in the union; pointers bracket.
        assert np.isin(nuc.energy, union).all()
        assert grid.ptr[j].min() >= 0
        assert grid.ptr[j].max() <= nuc.energy.shape[0] - 2
    # Identity-keyed cache: same material object -> same grid object.
    assert build_union_grid(_toy_material()) is not build_union_grid(
        _toy_material()
    )


# ---------------------------------------------------------------------------
# The hashed union-grid search is exact: union_bins == search_bins
# ---------------------------------------------------------------------------

#: The toy grid and both materials of the default 25 000-entry library.
_HASH_GRIDS = {
    "toy": lambda: build_union_grid(_toy_material(fissile=True)),
    "default0": lambda: build_union_grid(default_ce_materials(2, 25_000)[0]),
    "default1": lambda: build_union_grid(default_ce_materials(2, 25_000)[1]),
}

#: Inputs outside the grid that every search must clamp the same way.
_HOSTILE_ENERGIES = np.array([
    0.0, -0.0, -1.0, -1e300, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, 1e-310, np.finfo(np.float64).tiny, 1e300,
    np.finfo(np.float64).max, -np.finfo(np.float64).max,
])


def _assert_union_bins_exact(grid, e):
    e = np.asarray(e, dtype=np.float64)
    with np.errstate(all="raise"):
        got = union_bins(grid, e)
    np.testing.assert_array_equal(got, search_bins(grid, e))


@pytest.mark.parametrize("name", sorted(_HASH_GRIDS))
def test_union_bins_equals_search_bins_on_every_edge(name):
    """Every grid point and its ``nextafter`` neighbours, every bucket
    edge and its neighbours, values below and above the range, and the
    hostile floats (0, -1, ±inf, subnormals, NaN) — bit-equal to the
    bisection, with no floating-point warning."""
    grid = _HASH_GRIDS[name]()
    nbuckets = grid.hash_lo.shape[0] - 1
    assert nbuckets & (nbuckets - 1) == 0
    assert nbuckets <= max(grid.energy.shape[0] // 2, 1)
    edges = np.exp(
        grid.hash_log_lo + np.arange(-1, nbuckets + 2) / grid.hash_scale
    )
    points = np.concatenate([grid.energy, edges])
    lo, hi = grid.energy[0], grid.energy[-1]
    _assert_union_bins_exact(grid, np.concatenate([
        points,
        np.nextafter(points, np.inf),
        np.nextafter(points, -np.inf),
        [lo / 10.0, lo / 1e30, hi * 10.0, hi * 1e30],
        _HOSTILE_ENERGIES,
    ]))


@pytest.mark.parametrize("name", sorted(_HASH_GRIDS))
@given(energies=st.lists(st.floats(width=64), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_union_bins_equals_search_bins_on_any_float(name, energies):
    _assert_union_bins_exact(_HASH_GRIDS[name](), energies)


def test_union_bins_exact_on_edge_aligned_and_degenerate_grids():
    """Log-uniform grids put a grid point on every other bucket edge, so
    an energy a few ulps off a point can round into the next bucket:
    only the guard bucket keeps those exact.  Two points, three, and a
    grid so narrow in log E that its buckets would near the rounding
    error of ``log`` are exact too."""
    for energy in (
        np.geomspace(1.0, 2.0**20, 1025),
        np.geomspace(1e-5, 2e7, 4097),
        np.array([1.0, 1e6]),
        np.geomspace(1e-5, 2e7, 3),
        1.0 + np.arange(64) * 2.0**-50,
    ):
        nuc = CENuclide(
            name="n", awr=1.0, energy=energy,
            scatter=np.ones_like(energy), capture=np.ones_like(energy),
        )
        grid = build_union_grid(CEMaterial("m", composition=((nuc, 1.0),)))
        ulps = np.arange(1, 4)[:, None] * 2.0**-53
        e = np.concatenate([
            energy, np.nextafter(energy, np.inf),
            np.nextafter(energy, -np.inf), _HOSTILE_ENERGIES,
            (energy * (1 + 2 * ulps)).ravel(), (energy * (1 - ulps)).ravel(),
        ])
        _assert_union_bins_exact(grid, e)


def test_ce_nuclide_energies_must_be_positive():
    for energy in ((0.0, 1.0), (-1.0, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            CENuclide("x", 1.0, np.array(energy),
                      np.ones(2), np.ones(2))


#: sha256[:16] of the cross-section data, captured at commit 7f65f5b (the
#: out-of-place resonance loop, the ``(n_union, n_nuclides)`` pointer
#: table, transposed here): the 25 000-entry multigroup (energy, value)
#: tables, every array of the default 25 000-point, two-material CE
#: library, and each material's union grid and pointer rows.
TABLE_SHA = {
    "scatter": "45344028b0bc8cac",
    "capture": "8ed58547d9fb9daa",
    "fission": "dd450fc959f5f0e3",
    "ce_library": "789d2187998a33b3",
    "ce_moderator_0": ("12e2c4111a75e519", "394faff0be650d99"),
    "ce_fuel_1": ("ed71579dea0d6fa9", "06bde86c54a307d8"),
}


def _sha(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:16]


def test_cross_section_tables_are_bit_identical():
    for name, make in (("scatter", make_scatter_table),
                       ("capture", make_capture_table),
                       ("fission", make_fission_table)):
        table = make(25_000)
        assert _sha(table.energy, table.value) == TABLE_SHA[name], name
    mats = default_ce_materials(2, 25_000)
    arrays = [
        values
        for mat in mats
        for nuc, _frac in mat.composition
        for values in (nuc.energy, nuc.scatter, nuc.capture, nuc.fission)
        if values is not None
    ]
    assert _sha(*arrays) == TABLE_SHA["ce_library"]
    for mat in mats:
        grid = build_union_grid(mat)
        assert (_sha(grid.energy), _sha(grid.ptr)) == TABLE_SHA[mat.name]


def _bruteforce_micro(material, e):
    """Per-nuclide own-grid search + interpolation (no union grid)."""
    e = np.asarray(e, dtype=np.float64)
    out = np.zeros((3, e.shape[0]))
    for nuc, frac in material.composition:
        nb = np.clip(
            np.searchsorted(nuc.energy, e, side="right") - 1,
            0, nuc.energy.shape[0] - 2,
        )
        t = (e - nuc.energy[nb]) / (nuc.energy[nb + 1] - nuc.energy[nb])
        for k, vals in enumerate((nuc.scatter, nuc.capture, nuc.fission)):
            if vals is None:
                continue
            out[k] += frac * (vals[nb] + t * (vals[nb + 1] - vals[nb]))
    return out


@given(
    st.lists(
        st.floats(min_value=1e-5, max_value=2e7, allow_nan=False),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_ce_lookup_matches_bruteforce(energies):
    material = _toy_material(fissile=True)
    grid = build_union_grid(material)
    e = np.array(energies)
    _bins, ms, mc, mf = ce_lookup(grid, e)
    ref = _bruteforce_micro(material, e)
    np.testing.assert_array_equal(ms, ref[0])
    np.testing.assert_array_equal(mc, ref[1])
    np.testing.assert_array_equal(mf, ref[2])


def test_ce_lookup_energy_grid_edges():
    """At/below/above the grid bounds: clamped bins, finite values."""
    material = _toy_material()
    grid = build_union_grid(material)
    lo, hi = grid.energy[0], grid.energy[-1]
    e = np.array([lo / 10.0, lo, (lo + hi) / 2.0, hi, hi * 10.0])
    bins, ms, mc, _mf = ce_lookup(grid, e)
    assert bins[0] == bins[1] == 0
    assert bins[3] == bins[4] == grid.energy.shape[0] - 2
    assert np.isfinite(ms).all() and np.isfinite(mc).all()
    # Exactly at the shared bounds the mixture interpolates to the
    # fraction-weighted endpoint values (t = 0 and t = 1 per nuclide).
    for idx, take in ((1, 0), (3, -1)):
        expect_s = sum(
            frac * nuc.scatter[take] for nuc, frac in material.composition
        )
        assert ms[idx] == pytest.approx(expect_s, rel=0, abs=0)


def test_ce_single_bin_nuclide():
    """Two grid points (one bin) is the degenerate table the search
    edge-cases collapse onto; the provider must still mix correctly."""
    nuc = CENuclide(
        name="flat", awr=10.0,
        energy=np.array([1.0, 1e6]),
        scatter=np.array([3.0, 5.0]),
        capture=np.array([1.0, 1.0]),
    )
    material = CEMaterial(name="one-bin", composition=((nuc, 1.0),))
    prov = ContinuousEnergyProvider((material,))
    grid = prov.grids[0]
    assert grid.energy.shape[0] == 2 and grid.nbins_log2 == 1
    e = np.array([0.5, 1.0, 5e5, 1e6, 2e6])
    _bins, ms, _mc, _mf = ce_lookup(grid, e)
    t = (e - 1.0) / (1e6 - 1.0)
    np.testing.assert_array_equal(ms, 3.0 + t * 2.0)
    lk = prov.lookup(0, e[2:3])
    assert lk.micro_s[0] == ms[2] and lk.micro_c[0] == 1.0
    assert lk.micro_f is None


def test_ce_nuclide_validation():
    with pytest.raises(ValueError):
        CENuclide("x", 1.0, np.array([1.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CENuclide("x", 1.0, np.array([2.0, 1.0]),
                  np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CENuclide("x", 1.0, np.array([1.0, 2.0]),
                  np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CEMaterial("x", composition=())


# ---------------------------------------------------------------------------
# Cached-linear search after large jumps (paper §VI-A failure mode)
# ---------------------------------------------------------------------------

@given(
    cached=st.integers(min_value=-5, max_value=4000),
    exp=st.floats(min_value=-4.9, max_value=7.2),
)
@settings(max_examples=80, deadline=None)
def test_linear_walk_probes_equal_walk_distance(cached, exp):
    """The probe count of the cached walk is exactly the bin distance —
    the quantity that blows up when fission-sized energy jumps defeat
    the cache (the paper's caveat on this optimisation)."""
    prov = resolve_provider("ce", xs_nentries=256)
    grid = prov.grids[0]
    e = np.array([10.0 ** exp])
    bins = search_bins(grid, e)
    probes = linear_walk_probes(
        grid, e, np.array([cached], dtype=np.int64), bins
    )
    nbins = grid.energy.shape[0] - 1
    if e[0] <= grid.energy[0] or e[0] >= grid.energy[-1]:
        assert probes[0] == 0
    else:
        assert probes[0] == abs(int(bins[0]) - int(np.clip(cached, 0, nbins - 1)))


# ---------------------------------------------------------------------------
# The seam stays sealed
# ---------------------------------------------------------------------------

def test_xs_table_access_audit_clean():
    assert audit_xs_table_access() == []
