"""Integration: Over Particles ≡ Over Events, conservation, reproducibility.

These are the load-bearing tests of the whole reproduction: the paper's
performance comparison between the two schemes is only meaningful because
they compute the same thing — here we prove ours do, particle by particle.
"""

import numpy as np
import pytest

from repro.core import (
    Scheme,
    SearchStrategy,
    Simulation,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.validation import energy_balance_error, population_accounted

PROBLEMS = {
    "stream": lambda **kw: stream_problem(nx=48, nparticles=40, **kw),
    "scatter": lambda **kw: scatter_problem(nx=48, nparticles=40, **kw),
    "csp": lambda **kw: csp_problem(nx=48, nparticles=40, **kw),
}


@pytest.fixture(scope="module")
def results():
    out = {}
    for name, factory in PROBLEMS.items():
        sim = Simulation(factory())
        out[name] = (sim.run(Scheme.OVER_PARTICLES), sim.run(Scheme.OVER_EVENTS))
    return out


@pytest.mark.parametrize("name", PROBLEMS)
def test_energy_conservation(results, name):
    rp, re = results[name]
    assert energy_balance_error(rp) < 1e-10
    assert energy_balance_error(re) < 1e-10


@pytest.mark.parametrize("name", PROBLEMS)
def test_population_conservation(results, name):
    rp, re = results[name]
    assert population_accounted(rp)
    assert population_accounted(re)


@pytest.mark.parametrize("name", PROBLEMS)
def test_event_counts_identical(results, name):
    rp, re = results[name]
    cp, ce = rp.counters, re.counters
    assert cp.collisions == ce.collisions
    assert cp.facets == ce.facets
    assert cp.census_events == ce.census_events
    assert cp.terminations == ce.terminations
    assert cp.reflections == ce.reflections
    assert cp.tally_flushes == ce.tally_flushes
    assert cp.density_reads == ce.density_reads
    assert cp.xs_lookups == ce.xs_lookups
    assert cp.rng_draws == ce.rng_draws


@pytest.mark.parametrize("name", PROBLEMS)
def test_per_particle_event_counts_identical(results, name):
    rp, re = results[name]
    assert np.array_equal(
        rp.counters.collisions_per_particle, re.counters.collisions_per_particle
    )
    assert np.array_equal(
        rp.counters.facets_per_particle, re.counters.facets_per_particle
    )


@pytest.mark.parametrize("name", PROBLEMS)
def test_final_states_bit_identical(results, name):
    rp, re = results[name]
    soa = re.arena
    for i, p in enumerate(rp.arena.to_particles()):
        assert p.alive == bool(soa.alive[i])
        assert p.x == soa.x[i]
        assert p.y == soa.y[i]
        assert p.omega_x == soa.omega_x[i]
        assert p.omega_y == soa.omega_y[i]
        assert p.energy == soa.energy[i]
        assert p.weight == soa.weight[i]
        assert p.cellx == soa.cellx[i]
        assert p.celly == soa.celly[i]
        assert p.rng_counter == int(soa.rng_counter[i])


@pytest.mark.parametrize("name", PROBLEMS)
def test_tallies_match_to_accumulation_rounding(results, name):
    rp, re = results[name]
    assert np.allclose(
        rp.tally.deposition, re.tally.deposition, rtol=1e-10, atol=1e-30
    )
    assert np.array_equal(rp.tally.flush_counts, re.tally.flush_counts)


@pytest.mark.parametrize("name", PROBLEMS)
def test_runs_reproducible(results, name):
    """Identical config → bit-identical tally (counter-based RNG, §IV-F)."""
    rp, _ = results[name]
    again = Simulation(PROBLEMS[name]()).run(Scheme.OVER_PARTICLES)
    assert np.array_equal(rp.tally.deposition, again.tally.deposition)


def test_seed_changes_result():
    a = Simulation(csp_problem(nx=48, nparticles=40)).run(Scheme.OVER_PARTICLES)
    b = Simulation(csp_problem(nx=48, nparticles=40, seed=99)).run(
        Scheme.OVER_PARTICLES
    )
    assert not np.array_equal(a.tally.deposition, b.tally.deposition)


def test_binary_search_strategy_same_physics():
    """§VI-A: the search strategy is a performance choice, not a physics one."""
    lin = Simulation(
        csp_problem(nx=48, nparticles=40, search=SearchStrategy.CACHED_LINEAR)
    ).run(Scheme.OVER_PARTICLES)
    binr = Simulation(
        csp_problem(nx=48, nparticles=40, search=SearchStrategy.BINARY)
    ).run(Scheme.OVER_PARTICLES)
    assert np.array_equal(lin.tally.deposition, binr.tally.deposition)
    assert lin.counters.xs_lookups == binr.counters.xs_lookups
    assert binr.counters.xs_binary_probes > 0
    assert binr.counters.xs_linear_probes == 0
    assert lin.counters.xs_linear_probes >= 0
    assert lin.counters.xs_binary_probes == 0


def test_multi_timestep_equivalence():
    cfg = scatter_problem(nx=32, nparticles=25, ntimesteps=3)
    sim = Simulation(cfg)
    rp = sim.run(Scheme.OVER_PARTICLES)
    re = sim.run(Scheme.OVER_EVENTS)
    assert energy_balance_error(rp) < 1e-10
    assert rp.counters.collisions == re.counters.collisions
    assert rp.counters.census_events == re.counters.census_events
    assert np.allclose(rp.tally.deposition, re.tally.deposition, rtol=1e-10)
    # More histories terminate with more timesteps.
    one = Simulation(scatter_problem(nx=32, nparticles=25)).run(Scheme.OVER_PARTICLES)
    assert rp.counters.terminations >= one.counters.terminations


def test_multi_timestep_injects_once():
    """The source emits at t=0 only; later steps resume censused particles."""
    cfg = stream_problem(nx=32, nparticles=20, ntimesteps=2)
    r = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    assert r.counters.census_events == 40  # each particle censuses twice
    assert energy_balance_error(r) < 1e-10
