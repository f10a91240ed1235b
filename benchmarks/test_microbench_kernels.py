"""Micro-benchmarks of the hot Python/numpy kernels.

Not a paper figure — these time the reproduction's own computational
kernels so contributors can see what a change costs.  The guide-level
workflow applies: measure before optimising; the event kernels and the
Threefry block cipher are where this package spends its cycles.
"""

import numpy as np

from repro.comparisons.flow import FlowSolver, sod_initial_state
from repro.comparisons.hot import HotSolver
from repro.core import Scheme, Simulation, csp_problem
from repro.kernels import KernelDispatch
from repro.mesh.structured import StructuredMesh
from repro.particles.source import sample_source, SourceRegion
from repro.rng.threefry import threefry2x64_vec
from repro.simexec import SimExecOptions, simulate_execution, synthetic_trace
from repro.xs.tables import make_capture_table


def test_threefry_vectorised_throughput(benchmark):
    """Threefry-2x64-20 over a 100k-element batch."""
    c0 = np.arange(100_000, dtype=np.uint64)
    zeros = np.zeros(100_000, dtype=np.uint64)
    out = benchmark(threefry2x64_vec, c0, zeros, np.uint64(42), c0)
    assert out[0].shape == (100_000,)


def test_source_sampling_throughput(benchmark):
    mesh = StructuredMesh(64, 64, density=np.full((64, 64), 1.0))
    region = SourceRegion(0.4, 0.6, 0.4, 0.6, 1e6)
    store = benchmark(sample_source, mesh, region, 20_000, 3, 1e-7)
    assert len(store) == 20_000


def test_xs_lookup_kernel_throughput(benchmark):
    """Composite lookup kernel (bins + interpolation) through the table."""
    dispatch = KernelDispatch()
    table = make_capture_table(25_000)
    e = np.random.default_rng(0).uniform(1e-3, 1e7, 50_000)
    bins, vals = benchmark(dispatch.run, "xs_lookup", e.size, table, e)
    assert bins.shape == e.shape and vals.shape == e.shape
    assert dispatch.stats["xs_lookup"].items >= e.size


def test_collide_kernel_throughput(benchmark):
    """The collision kernel over a 50k-lane batch, via the dispatch table."""
    dispatch = KernelDispatch()
    rng = np.random.default_rng(1)
    n = 50_000
    energy = rng.uniform(1.0, 1e6, n)
    weight = rng.uniform(0.1, 1.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    sigma_t = rng.uniform(1.0, 500.0, n)
    sigma_a = sigma_t * rng.uniform(0.0, 1.0, n)
    u1, u2, u3 = rng.random(n), rng.random(n), rng.random(n)
    out = benchmark(
        dispatch.run, "collide", n,
        energy, weight, np.cos(theta), np.sin(theta), sigma_a, sigma_t,
        1.0079, u1, u2, u3, 1e-2, 1e-3,
    )
    assert out[0].shape == (n,)


def test_over_events_transport_rate(benchmark):
    """Whole-app event throughput of the vectorised driver."""
    cfg = csp_problem(nx=96, nparticles=300)
    sim = Simulation(cfg)
    result = benchmark(sim.run, Scheme.OVER_EVENTS)
    rate = result.counters.total_events / result.wallclock_s
    assert rate > 50_000  # events/second on any host


def test_over_particles_transport_rate(benchmark):
    """Scalar history-loop throughput (the Python-costly path)."""
    cfg = csp_problem(nx=96, nparticles=60)
    sim = Simulation(cfg)
    result = benchmark(sim.run, Scheme.OVER_PARTICLES)
    assert result.counters.total_events > 0


def test_flow_step_rate(benchmark):
    solver = FlowSolver(*sod_initial_state(256, 256))
    benchmark(solver.step)
    assert solver.steps_taken >= 1


def test_hot_cg_solve_rate(benchmark):
    t = np.zeros((128, 128))
    t[48:80, 48:80] = 100.0
    solver = HotSolver(t, conductivity=1.0, dt=1e-4)
    benchmark(lambda: HotSolver(t, conductivity=1.0, dt=1e-4).solve_timestep())


def test_des_replay_rate(benchmark):
    """Discrete-event engine throughput (events replayed per second)."""
    from repro.bench import measured_workload
    from repro.machine import BROADWELL

    w = measured_workload("csp")
    trace = synthetic_trace(500, 100, 512, collision_fraction=0.05, seed=4)
    r = benchmark(
        simulate_execution, trace, w, BROADWELL, SimExecOptions(nthreads=16)
    )
    assert r.events_executed == trace.total_events
