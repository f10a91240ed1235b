"""Edge cases of the transport core: degenerate sizes, extreme parameters,
geometric corner cases, and configuration validation."""

import numpy as np
import pytest

from repro.core import Scheme, Simulation, scatter_problem
from repro.core.config import SimulationConfig
from repro.core.validation import energy_balance_error, population_accounted
from repro.ensemble import EnsembleSpec
from repro.mesh.boundary import BoundaryCondition
from repro.particles.source import SourceRegion


def _tiny(nx=4, nparticles=1, **kw):
    density = kw.pop("density", np.full((nx, nx), 10.0))
    return SimulationConfig(
        name="tiny", nx=nx, ny=nx, width=1.0, height=1.0,
        density=density,
        source=kw.pop("source", SourceRegion(0.3, 0.7, 0.3, 0.7, 1e6)),
        nparticles=nparticles, dt=kw.pop("dt", 1e-8), xs_nentries=256, **kw,
    )


def test_single_particle_single_history():
    cfg = _tiny(nparticles=1)
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert energy_balance_error(a) < 1e-12
    assert a.counters.total_events == b.counters.total_events
    assert population_accounted(a)


def test_one_by_one_mesh():
    """A single cell: every facet is a boundary; reflections only."""
    cfg = _tiny(nx=1, nparticles=5, density=np.full((1, 1), 1e-30))
    r = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert r.counters.reflections == r.counters.facets
    assert r.counters.census_events == 5
    assert energy_balance_error(r) < 1e-12


def test_one_by_one_mesh_vacuum():
    # dt long enough that every particle reaches a wall (1 MeV flies
    # ~1.4 m per 1e-7 s across the 1 m cell).
    cfg = _tiny(nx=1, nparticles=5, density=np.full((1, 1), 1e-30),
                boundary=BoundaryCondition.VACUUM, dt=1e-7)
    r = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert r.counters.escapes == 5
    assert population_accounted(r)


def test_extremely_long_timestep():
    """dt large enough that every history terminates (no census)."""
    cfg = _tiny(nparticles=8, dt=1.0)
    r = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    assert r.counters.census_events == 0
    assert r.counters.terminations == 8
    assert r.tally.total() == pytest.approx(cfg.total_source_energy_ev(), rel=1e-12)


def test_extremely_short_timestep():
    """dt so short nothing happens before census."""
    cfg = _tiny(nparticles=8, dt=1e-20)
    r = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert r.counters.collisions == 0
    assert r.counters.facets == 0
    assert r.counters.census_events == 8
    assert r.tally.total() == 0.0
    assert energy_balance_error(r) < 1e-12


def test_many_timesteps_complete_everything():
    cfg = scatter_problem(nx=24, nparticles=15, ntimesteps=8)
    r = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert r.counters.terminations == 15
    assert energy_balance_error(r) < 1e-12


def test_source_spanning_whole_mesh():
    cfg = _tiny(nparticles=10, source=SourceRegion(0.0, 1.0, 0.0, 1.0, 1e6))
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)


def test_anisotropic_mesh_dimensions():
    """nx ≠ ny: indexing and facet logic stay consistent."""
    density = np.full((8, 24), 1e-30)
    cfg = SimulationConfig(
        name="aniso", nx=24, ny=8, width=3.0, height=1.0,
        density=density,
        source=SourceRegion(1.4, 1.6, 0.4, 0.6, 1e6),
        nparticles=12, dt=1e-7, xs_nentries=256,
    )
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert a.counters.facets == b.counters.facets
    assert energy_balance_error(a) < 1e-12
    for p in a.arena.to_particles():
        assert 0 <= p.cellx < 24 and 0 <= p.celly < 8
        assert 0.0 <= p.x <= 3.0 and 0.0 <= p.y <= 1.0


def test_extreme_density_contrast():
    """12 orders of magnitude across one facet."""
    nx = 16
    density = np.full((nx, nx), 1e-30)
    density[:, nx // 2:] = 1e3
    cfg = _tiny(nx=nx, nparticles=10, density=density, dt=1e-7,
                source=SourceRegion(0.1, 0.2, 0.4, 0.6, 1e6))
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = Simulation(cfg).run(Scheme.OVER_EVENTS)
    assert energy_balance_error(a) < 1e-12
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)
    # everything that deposits does so in the dense half
    assert a.tally.deposition[:, : nx // 2].sum() == 0.0


def test_heavy_nuclide_slow_moderation():
    """A=238: tiny energy loss per collision; histories census mid-slowing
    with energies still near source."""
    cfg = scatter_problem(nx=16, nparticles=10, molar_mass_g_mol=238.0)
    r = Simulation(cfg).run(Scheme.OVER_EVENTS)
    live = r.arena.energy[r.arena.alive]
    if live.size:
        assert live.min() > 1e5  # barely moderated
    assert energy_balance_error(r) < 1e-12


def test_zero_weight_source_rejected():
    with pytest.raises(ValueError):
        SourceRegion(0.1, 0.2, 0.1, 0.2, 1e6, weight=-1.0)


def test_config_validation_suite():
    with pytest.raises(ValueError):
        _tiny(nparticles=0)
    with pytest.raises(ValueError):
        _tiny(dt=-1.0)
    with pytest.raises(ValueError):
        _tiny(ntimesteps=0)
    with pytest.raises(ValueError):
        _tiny(molar_mass_g_mol=0.0)
    with pytest.raises(ValueError):
        _tiny(density=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        _tiny(materials=())


#: The one-line refusal of a seed that is not a 64-bit Threefry key word.
SEED_RANGE = r"seed .*must be in \[0, 2\*\*64\)"


def test_config_refuses_out_of_range_seeds():
    """A seed outside ``[0, 2**64)`` would alias another seed's streams
    (``-1`` runs ``2**64 - 1``'s, ``2**64 + 3`` runs ``3``'s): the config
    refuses it, and an ensemble whose ``seed + r*seed_stride`` leaves the
    range is refused the same way."""
    for seed in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match=SEED_RANGE):
            _tiny(seed=seed)
    assert _tiny(seed=2**64 - 1).seed == 2**64 - 1
    base = _tiny(seed=2**64 - 2)
    assert len(EnsembleSpec(base, 2).members()) == 2
    with pytest.raises(ValueError, match="replica 2's " + SEED_RANGE):
        EnsembleSpec(base, 3)
    with pytest.raises(ValueError, match="replica 1's " + SEED_RANGE):
        EnsembleSpec(_tiny(seed=3), 2, seed_stride=-4)


def test_with_copies_are_independent():
    cfg = _tiny(nparticles=4)
    other = cfg.with_(seed=99, nparticles=6)
    assert cfg.seed == 7 and other.seed == 99
    assert cfg.nparticles == 4 and other.nparticles == 6


def test_high_weight_source():
    """Non-unit source weights scale the ledger linearly."""
    base = _tiny(nparticles=6)
    heavy = _tiny(nparticles=6,
                  source=SourceRegion(0.3, 0.7, 0.3, 0.7, 1e6, weight=5.0))
    a = Simulation(base).run(Scheme.OVER_EVENTS)
    b = Simulation(heavy).run(Scheme.OVER_EVENTS)
    assert b.tally.total() == pytest.approx(5.0 * a.tally.total(), rel=1e-12)
    assert energy_balance_error(b) < 1e-12
