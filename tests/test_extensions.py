"""The §IX extensions: vacuum boundaries, Russian roulette, multi-material
meshes, and fission — correctness, conservation, and scheme equivalence.

The paper's experiments all run a single non-multiplying medium inside
reflective boundaries; these features are its named future work, built
here with the same discipline as the core: every energy path is ledgered
exactly, and the two parallelisation schemes produce bit-identical
populations regardless of traversal order.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import Scheme, Simulation, csp_problem, scatter_problem, stream_problem
from repro.core.config import SimulationConfig
from repro.core.counters import Counters
from repro.core.validation import energy_balance_error, population_accounted
from repro.ensemble import population_fingerprint, run_ensemble
from repro.mesh.boundary import BoundaryCondition
from repro.particles.source import SourceRegion
from repro.physics.fission import (
    FISSION_ID_DOMAIN,
    expected_secondaries,
    realised_secondaries,
    sample_secondary_energy,
    secondary_id,
)
from repro.xs.materials import (
    Material,
    fissile_fuel,
    heavy_reflector,
    hydrogenous_moderator,
)
from tests.oracle import threefry2x64


def _state_by_id(result):
    """(x, energy, weight, counter, alive) per particle id, either scheme."""
    st = result.arena
    return {
        int(st.particle_id[i]): (
            float(st.x[i]),
            float(st.energy[i]),
            float(st.weight[i]),
            int(st.rng_counter[i]),
            bool(st.alive[i]),
        )
        for i in range(len(st))
    }


def _assert_scheme_equivalent(cfg):
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert _state_by_id(a) == _state_by_id(b)
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)
    for field in ("collisions", "facets", "terminations", "escapes",
                  "secondaries_banked", "roulette_kills", "rng_draws"):
        assert getattr(a.counters, field) == getattr(b.counters, field), field
    return a, b


# ---------------------------------------------------------------------------
# Vacuum boundaries
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def vacuum_runs():
    cfg = csp_problem(nx=64, nparticles=50, boundary=BoundaryCondition.VACUUM)
    return _assert_scheme_equivalent(cfg)


def test_vacuum_particles_escape(vacuum_runs):
    a, _ = vacuum_runs
    assert a.counters.escapes > 0
    assert a.counters.reflections == 0


def test_vacuum_energy_ledger_exact(vacuum_runs):
    a, b = vacuum_runs
    assert energy_balance_error(a) < 1e-12
    assert energy_balance_error(b) < 1e-12
    assert a.counters.escaped_energy > 0


def test_vacuum_population_accounted(vacuum_runs):
    a, b = vacuum_runs
    assert population_accounted(a)
    assert population_accounted(b)


def test_vacuum_shortens_stream_histories():
    """Without reflections, stream histories end at the first wall."""
    refl = stream_problem(nx=64, nparticles=30)
    vac = stream_problem(nx=64, nparticles=30, boundary=BoundaryCondition.VACUUM)
    r = Simulation(refl).run(Scheme.OVER_EVENTS)
    v = Simulation(vac).run(Scheme.OVER_EVENTS)
    assert v.counters.facets < r.counters.facets
    assert v.counters.escapes == 30  # every streaming particle leaves


# ---------------------------------------------------------------------------
# Russian roulette
# ---------------------------------------------------------------------------

def _roulette_cfg(**kw):
    # Disable the energy cutoff so the weight cutoff (and hence the
    # roulette) governs termination.
    return scatter_problem(
        nx=64, nparticles=40, ntimesteps=4,
        energy_cutoff_ev=1e-30, weight_cutoff=1e-2,
        use_russian_roulette=True, **kw,
    )


@pytest.fixture(scope="module")
def roulette_runs():
    return _assert_scheme_equivalent(_roulette_cfg())


def test_roulette_plays(roulette_runs):
    a, _ = roulette_runs
    c = a.counters
    assert c.roulette_kills + c.roulette_survivals > 10


def test_roulette_ledger_balances(roulette_runs):
    a, b = roulette_runs
    assert energy_balance_error(a) < 1e-12
    assert energy_balance_error(b) < 1e-12


def test_roulette_survivors_restored():
    """Across seeds, some histories survive the roulette at 10× cutoff."""
    survivals = 0
    for seed in (1, 2, 3, 4):
        r = Simulation(_roulette_cfg(seed=seed)).run(Scheme.OVER_EVENTS)
        survivals += r.counters.roulette_survivals
        if r.counters.roulette_survivals:
            # the gain ledger records the restoration to 10 × cutoff
            assert r.counters.roulette_gain_energy > 0.0
    assert survivals > 0


def test_roulette_unbiased_deposition():
    """Roulette changes individual histories, not the expected answer: the
    mean deposition over seeds stays near the deterministic-cutoff run."""
    det = scatter_problem(
        nx=64, nparticles=120, ntimesteps=4,
        energy_cutoff_ev=1e-30, weight_cutoff=1e-2,
    )
    base = Simulation(det).run(Scheme.OVER_EVENTS).tally.total()
    totals = []
    for seed in (11, 12, 13):
        r = Simulation(
            det.with_(use_russian_roulette=True, seed=seed)
        ).run(Scheme.OVER_EVENTS)
        totals.append(r.tally.total())
    assert np.mean(totals) == pytest.approx(base, rel=0.05)


# ---------------------------------------------------------------------------
# Multi-material meshes
# ---------------------------------------------------------------------------

def _two_material_cfg(nparticles=50, **kw):
    """Moderator background with a heavy-reflector slab mid-mesh."""
    nx = 64
    density = np.full((nx, nx), 1e-30)
    density[:, 28:36] = 200.0
    mmap = np.zeros((nx, nx), dtype=np.int64)
    mmap[:, 28:36] = 1
    return SimulationConfig(
        name="two-material",
        nx=nx, ny=nx, width=1.0, height=1.0,
        density=density,
        material_map=mmap,
        materials=(hydrogenous_moderator(2500), heavy_reflector(2500)),
        source=SourceRegion(x0=0.05, x1=0.15, y0=0.45, y1=0.55, energy_ev=1e6),
        nparticles=nparticles, dt=1e-7, seed=5, xs_nentries=2500, **kw,
    )


@pytest.fixture(scope="module")
def two_material_runs():
    return _assert_scheme_equivalent(_two_material_cfg())


def test_multi_material_conserves(two_material_runs):
    a, b = two_material_runs
    assert energy_balance_error(a) < 1e-12
    assert energy_balance_error(b) < 1e-12


def test_multi_material_kinematics_differ_by_region(two_material_runs):
    """Collisions in the heavy slab barely dampen the energy (A=200), so
    colliding histories stay fast — unlike the hydrogenous csp physics."""
    a, _ = two_material_runs
    e = a.arena.energy
    collided = e[(e < 1e6) & (e > 0)]
    assert collided.size, "some particles must collide in the slab"
    # A=200 elastic floor: E'/E >= (199/201)² ≈ 0.980 per collision
    assert collided.min() > 0.5e6


def test_multi_material_map_validation():
    cfg = _two_material_cfg()
    with pytest.raises(ValueError):
        cfg.with_(material_map=np.zeros((3, 3), dtype=np.int64))
    bad = np.full((64, 64), 7, dtype=np.int64)
    with pytest.raises(ValueError):
        cfg.with_(material_map=bad)


def test_material_factories():
    m = hydrogenous_moderator(512)
    assert not m.fissile and m.a_ratio == 1.0
    h = heavy_reflector(512)
    assert h.a_ratio == 200.0
    f = fissile_fuel(512)
    assert f.fissile and f.fission is not None
    with pytest.raises(ValueError):
        Material("bad", -1.0, m.scatter, m.capture)
    with pytest.raises(ValueError):
        Material("bad", 1.0, m.scatter, m.capture, nu=0.0)


def test_single_material_default_unchanged():
    """The default configuration still reproduces the paper's single
    homogeneous medium — bit-identical to an explicit materials tuple."""
    base = csp_problem(nx=48, nparticles=30)
    explicit = base.with_(
        materials=(hydrogenous_moderator(base.xs_nentries),),
    )
    a = Simulation(base).run(Scheme.OVER_PARTICLES)
    b = Simulation(explicit).run(Scheme.OVER_PARTICLES)
    assert np.array_equal(a.tally.deposition, b.tally.deposition)


# ---------------------------------------------------------------------------
# Fission
# ---------------------------------------------------------------------------

def _fission_cfg(nparticles=80, seed=3, **kw):
    """Moderated source streaming into a fissile block."""
    nx = 64
    density = np.full((nx, nx), 1e-30)
    density[24:40, 24:40] = 400.0
    mmap = np.zeros((nx, nx), dtype=np.int64)
    mmap[24:40, 24:40] = 1
    return SimulationConfig(
        name="fission",
        nx=nx, ny=nx, width=1.0, height=1.0,
        density=density,
        material_map=mmap,
        materials=(hydrogenous_moderator(2500), fissile_fuel(2500)),
        source=SourceRegion(x0=0.05, x1=0.15, y0=0.45, y1=0.55, energy_ev=1e6),
        nparticles=nparticles, dt=1e-7,
        ntimesteps=kw.pop("ntimesteps", 3), seed=seed,
        xs_nentries=2500, **kw,
    )


@pytest.fixture(scope="module")
def fission_runs():
    return _assert_scheme_equivalent(_fission_cfg())


def test_fission_banks_secondaries(fission_runs):
    a, _ = fission_runs
    c = a.counters
    assert c.secondaries_banked > 0
    assert c.fissions > 0
    assert c.nparticles == 80 + c.secondaries_banked


def test_fission_energy_ledger_exact(fission_runs):
    a, b = fission_runs
    assert a.counters.fission_injected_energy > 0
    assert energy_balance_error(a) < 1e-12
    assert energy_balance_error(b) < 1e-12
    assert population_accounted(a)
    assert population_accounted(b)


def test_fission_subcritical(fission_runs):
    """The fuel's reaction balance keeps the chain subcritical: the bank
    drains, and secondaries are fewer than primaries."""
    a, _ = fission_runs
    assert a.counters.secondaries_banked < 80


def test_fission_secondaries_deterministic():
    """Identical configs bank identical secondaries (id-for-id)."""
    a = Simulation(_fission_cfg()).run(Scheme.OVER_PARTICLES)
    b = Simulation(_fission_cfg()).run(Scheme.OVER_PARTICLES)
    ids_a = sorted(a.arena.particle_id.tolist())
    ids_b = sorted(b.arena.particle_id.tolist())
    assert ids_a == ids_b


def test_fission_secondary_ids_unique(fission_runs):
    a, _ = fission_runs
    ids = a.arena.particle_id.tolist()
    assert len(ids) == len(set(ids))


def test_fission_helpers():
    assert expected_secondaries(1.0, 2.43, 2.0, 10.0) == pytest.approx(0.486)
    assert expected_secondaries(1.0, 2.43, 2.0, 0.0) == 0.0
    assert realised_secondaries(0.4, 0.59) == 0
    assert realised_secondaries(0.4, 0.61) == 1
    assert realised_secondaries(2.3, 0.0) == 2
    e = sample_secondary_energy(0.5, 2.0e6)
    assert e == pytest.approx(2.0e6 * np.log(2.0))
    a = secondary_id(7, 123, 55, 0)
    b = secondary_id(7, 123, 55, 1)
    c = secondary_id(7, 124, 55, 0)
    assert len({a, b, c}) == 3
    assert secondary_id(7, 123, 55, 0) == a  # deterministic
    # The scalar cipher over (parent_id, counter«8 | index) is the reference,
    # and a whole bank derives its ids in one broadcast call.
    assert a == threefry2x64((123, 55 << 8), (7, FISSION_ID_DOMAIN))[0]
    bank = secondary_id(7, np.array([123, 124], dtype=np.uint64), 55,
                        np.array([1, 0]))
    assert bank.tolist() == [b, c]
    with pytest.raises(ValueError):
        secondary_id(7, 1, 1, 300)
    with pytest.raises(ValueError):
        secondary_id(7, 1, 1, np.array([0, 256]))
    assert FISSION_ID_DOMAIN != 0


def test_fission_realisation_unbiased():
    """E[floor(x + U)] = x over a uniform grid of draws."""
    us = (np.arange(10000) + 0.5) / 10000
    x = 1.37
    mean = np.mean([realised_secondaries(x, float(u)) for u in us])
    assert mean == pytest.approx(x, abs=1e-3)


# ---------------------------------------------------------------------------
# Combined extensions
# ---------------------------------------------------------------------------

def test_everything_at_once():
    """Fission + roulette + vacuum boundaries together, both schemes."""
    cfg = _fission_cfg(
        boundary=BoundaryCondition.VACUUM,
        use_russian_roulette=True,
        energy_cutoff_ev=1e-30,
        weight_cutoff=1e-2,
        ntimesteps=2,
    )
    a, b = _assert_scheme_equivalent(cfg)
    assert energy_balance_error(a) < 1e-12
    assert population_accounted(a)
    assert a.counters.escapes > 0


# ---------------------------------------------------------------------------
# Importance splitting / geometry roulette (variance reduction)
# ---------------------------------------------------------------------------

def _deep_penetration_cfg(importance: bool, seed: int = 9, nparticles: int = 60):
    """A thick absorbing wall with a dense detector slab behind it;
    importance doubles through the wall and stays flat beyond, so the
    splitting amplifies exactly the histories that can reach the
    detector."""
    nx = 48
    density = np.full((nx, nx), 1e-30)
    wall = slice(21, 29)
    detector = slice(40, 48)
    density[:, wall] = 10.0
    density[:, detector] = 50.0
    imap = None
    if importance:
        imap = np.ones((nx, nx))
        for j, col in enumerate(range(21, nx)):
            imap[:, col] = 2.0 ** min(j // 2, 4)
    return SimulationConfig(
        name="deep", nx=nx, ny=nx, width=1.0, height=1.0, density=density,
        importance_map=imap,
        source=SourceRegion(x0=0.02, x1=0.08, y0=0.4, y1=0.6, energy_ev=1e6),
        nparticles=nparticles, dt=1e-7, ntimesteps=2, seed=seed,
        xs_nentries=2500, boundary=BoundaryCondition.VACUUM,
    )


@pytest.fixture(scope="module")
def importance_runs():
    return _assert_scheme_equivalent(_deep_penetration_cfg(True))


def test_importance_splits_and_roulettes(importance_runs):
    a, _ = importance_runs
    c = a.counters
    assert c.splits > 0 and c.clones_banked > 0
    assert c.nparticles == 60 + c.clones_banked


def test_importance_ledger_exact(importance_runs):
    a, b = importance_runs
    assert energy_balance_error(a) < 1e-12
    assert energy_balance_error(b) < 1e-12
    assert population_accounted(a)


def test_importance_clone_weights_split_exactly(importance_runs):
    """Clones carry the split weight: every clone's weight is the parent's
    divided by the realised split count — total weight at each split is
    conserved by construction, which the exact ledger confirms."""
    a, _ = importance_runs
    clones = a.arena.particle_id >= 60
    assert clones.any()
    w = a.arena.weight[clones]
    assert np.all((0.0 <= w) & (w <= 1.0))
    # ids are unique across primaries and clones
    ids = a.arena.particle_id.tolist()
    assert len(ids) == len(set(ids))


def test_importance_reduces_deep_penetration_variance():
    """The point of the technique: the detector-deposition estimate behind
    a thick wall has lower batch-to-batch spread with importance
    splitting than the analog run, at the same source size."""
    def detector_cv(importance):
        out = []
        for seed in range(6):
            cfg = _deep_penetration_cfg(importance, seed=100 + 37 * seed)
            r = Simulation(cfg).run(Scheme.OVER_EVENTS)
            out.append(r.tally.deposition[:, 40:].sum())
        out = np.array(out)
        return out.std(ddof=1) / max(out.mean(), 1e-300)

    analog_cv = detector_cv(False)
    split_cv = detector_cv(True)
    assert split_cv < analog_cv


def test_importance_map_validation():
    cfg = _deep_penetration_cfg(False)
    with pytest.raises(ValueError):
        cfg.with_(importance_map=np.zeros((48, 48)))
    with pytest.raises(ValueError):
        cfg.with_(importance_map=np.ones((3, 3)))


def test_split_helpers():
    from repro.kernels import batch
    from repro.physics.importance import MAX_SPLIT, clone_id, split_count

    assert split_count(1.0, 0.99) == 1
    assert split_count(2.0, 0.0) == 2
    assert split_count(2.5, 0.6) == 3
    assert split_count(1e9, 0.5) == MAX_SPLIT
    v = batch.split_counts(np.array([0.5, 2.0, 2.5]), np.array([0.9, 0.0, 0.6]))
    assert list(v) == [1, 2, 3]
    a = clone_id(7, 5, 10, 0)
    assert a == clone_id(7, 5, 10, 0)
    assert a != clone_id(7, 5, 10, 1)
    assert clone_id(7, 5, 10, np.arange(3)).tolist() == [
        clone_id(7, 5, 10, k) for k in range(3)
    ]
    # distinct from the fission domain for identical inputs
    from repro.physics.fission import secondary_id
    assert a != secondary_id(7, 5, 10, 0)
    with pytest.raises(ValueError):
        clone_id(7, 5, 10, 999)


# ---------------------------------------------------------------------------
# The child bank, pinned bit for bit
# ---------------------------------------------------------------------------

#: Every run below, recorded before the bank was vectorised: the run's
#: fingerprint, a SHA-256 over every arena field's bytes (storage order
#: included) and over the per-particle work arrays, every scalar counter
#: as ``float.hex`` and the tally's SHA-256.
BANK_GOLDENS = Path(__file__).with_name("bank_goldens.json")


def _everything_cfg():
    return _fission_cfg(
        boundary=BoundaryCondition.VACUUM, use_russian_roulette=True,
        energy_cutoff_ev=1e-30, weight_cutoff=1e-2, ntimesteps=2,
    )


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _bank_record(arena, counters, tally) -> dict:
    return {
        "fingerprint": population_fingerprint(arena),
        "fields": _digest(getattr(arena, name) for name, _ in arena.FIELDS),
        "work": _digest((counters.collisions_per_particle,
                         counters.facets_per_particle)),
        "counters": {
            name: float(getattr(counters, name)).hex()
            for name in Counters._SCALAR_FIELDS
        },
        "tally": _digest((tally.deposition,)),
    }


def _serial(cfg, **run):
    def records(scheme):
        res = Simulation(cfg).run(scheme, **run)
        return {"run": _bank_record(res.arena, res.counters, res.tally)}
    return records


def _vr_ensemble(scheme):
    from tests.test_ensemble_parity import _spec

    fused = run_ensemble(_spec("vr"), scheme)
    out = {"fused": _bank_record(fused.arena, fused.counters, fused.tally)}
    for rr in fused.replicas:
        out[f"replica{rr.replica}"] = _bank_record(
            rr.arena, rr.counters, rr.tally
        )
    return out


#: name → ``scheme -> {label: record}``.
BANK_RUNS = {
    "fission": _serial(_fission_cfg()),
    "everything": _serial(_everything_cfg()),
    "importance": _serial(_deep_penetration_cfg(True)),
    "ce-fission": _serial(_fission_cfg(xs_mode="ce")),
    "vr-ensemble": _vr_ensemble,
    "pooled-fission": _serial(_fission_cfg(), nworkers=2),
}


@pytest.mark.parametrize(
    "scheme", [Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS],
    ids=lambda s: s.value,
)
@pytest.mark.parametrize("name", list(BANK_RUNS))
def test_bank_matches_parent_goldens(name, scheme):
    """Fission secondaries and importance clones are banked bit-identically
    to the per-child record bank they replaced: every field of every
    child, storage order, every counter (``fission_injected_energy``
    still accumulates child by child) and the tally."""
    want = json.loads(BANK_GOLDENS.read_text())[f"{name}/{scheme.value}"]
    assert BANK_RUNS[name](scheme) == want


def test_a_fissile_run_leaves_numpy_ma_unimported():
    """The child bank seeds the births' bins material by material without
    ``np.unique``, whose first call imports ``numpy.ma`` (14–16 ms of a
    cold process in numpy 2.4): a fissile run in a fresh interpreter
    leaves it unimported."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "from repro.core import Scheme, Simulation\n"
        "from tests.test_extensions import _fission_cfg\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "r = Simulation(_fission_cfg()).run(Scheme.OVER_EVENTS)\n"
        "assert r.counters.secondaries_banked > 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(root))
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
