"""Discrete-event replay engine: traces, determinism, resource mechanics."""

import numpy as np
import pytest

from repro.bench import measured_workload
from repro.core import stream_problem, scatter_problem
from repro.machine import BROADWELL, POWER8
from repro.parallel.affinity import Affinity
from repro.parallel.schedule import ScheduleKind
from repro.perfmodel import Workload
from repro.kernels import EventKind
from repro.simexec import (
    SimExecOptions,
    record_trace,
    simulate_execution,
    synthetic_trace,
)


@pytest.fixture(scope="module")
def stream_trace():
    cfg = stream_problem(nx=96, nparticles=80)
    trace, result = record_trace(cfg)
    return trace, Workload.from_result(result)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_trace_matches_counters(stream_trace):
    trace, w = stream_trace
    counts = trace.event_counts()
    assert counts[EventKind.FACET] == round(w.facets_pp * 80)
    assert counts[EventKind.COLLISION] == round(w.collisions_pp * 80)
    assert counts[EventKind.CENSUS] == round(w.census_pp * 80)
    assert trace.nhistories == 80
    assert trace.total_events == sum(counts.values())


def test_trace_does_not_change_physics():
    cfg = scatter_problem(nx=48, nparticles=25)
    from repro.core import Scheme, Simulation

    plain = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    traced, traced_result = record_trace(cfg)
    assert np.array_equal(plain.tally.deposition, traced_result.tally.deposition)
    assert traced.total_events == plain.counters.total_events


def test_trace_cells_in_range(stream_trace):
    trace, _ = stream_trace
    for kinds, cells in trace.histories:
        assert np.all(cells >= 0)
        assert np.all(cells < trace.nx * trace.ny)


def test_synthetic_trace_shape():
    t = synthetic_trace(10, 20, 128, collision_fraction=0.3, seed=3)
    assert t.nhistories == 10
    assert t.total_events == 200
    counts = t.event_counts()
    assert counts[EventKind.CENSUS] == 10  # one per history
    assert counts[EventKind.COLLISION] > 0
    with pytest.raises(ValueError):
        synthetic_trace(0, 5, 16)
    with pytest.raises(ValueError):
        synthetic_trace(5, 5, 16, collision_fraction=1.5)


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------

def test_replay_deterministic(stream_trace):
    trace, w = stream_trace
    a = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=8))
    b = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=8))
    assert a.seconds == b.seconds
    assert a.atomic_conflicts == b.atomic_conflicts
    assert np.array_equal(a.busy_cycles, b.busy_cycles)


def test_replay_executes_every_event(stream_trace):
    trace, w = stream_trace
    r = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=8))
    assert r.events_executed == trace.total_events


def test_more_threads_faster_through_hardware_range(stream_trace):
    trace, w = stream_trace
    t1 = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=1)).seconds
    t4 = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=4)).seconds
    t16 = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=16)).seconds
    assert t1 > t4 > t16


def test_single_thread_has_no_conflicts(stream_trace):
    trace, w = stream_trace
    r = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=1))
    assert r.atomic_conflicts == 0


def test_privatized_tally_removes_conflicts(stream_trace):
    trace, w = stream_trace
    atomic = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=16))
    priv = simulate_execution(
        trace, w, BROADWELL, SimExecOptions(nthreads=16, privatized_tally=True)
    )
    assert atomic.atomic_conflicts > 0
    assert priv.atomic_conflicts == 0
    assert priv.seconds < atomic.seconds


def test_dynamic_schedule_runs_everything(stream_trace):
    trace, w = stream_trace
    r = simulate_execution(
        trace, w, BROADWELL,
        SimExecOptions(nthreads=8, schedule=ScheduleKind.DYNAMIC, chunk=4),
    )
    assert r.events_executed == trace.total_events
    assert r.seconds > 0


def test_smt_speedup_at_dram_scale():
    """The replay reproduces the calibrated SMT behaviour independently:
    at DRAM-class working sets, filling the second hyperthread buys the
    memory-concurrency factor (~1.35 on Broadwell)."""
    w = measured_workload("csp").scaled(2000, 4000)
    tr = synthetic_trace(2000, 120, 4000, collision_fraction=0.01, seed=1)
    a = simulate_execution(
        tr, w, BROADWELL, SimExecOptions(nthreads=44, affinity=Affinity.SCATTER)
    )
    b = simulate_execution(
        tr, w, BROADWELL, SimExecOptions(nthreads=88, affinity=Affinity.SCATTER)
    )
    assert 1.2 < a.seconds / b.seconds < 1.5


def test_numa_remote_threads_slower():
    """Socket-1 threads (first-touch data on socket 0) pay remote latency."""
    w = measured_workload("csp").scaled(500, 4000)
    tr = synthetic_trace(500, 60, 4000, seed=2)
    local = simulate_execution(
        tr, w, BROADWELL,
        SimExecOptions(nthreads=22, affinity=Affinity.COMPACT_CORES),
    )
    spread = simulate_execution(
        tr, w, BROADWELL,
        SimExecOptions(nthreads=22, affinity=Affinity.SCATTER),
    )
    # scatter puts half the threads on the remote socket: slower at equal T
    assert spread.seconds > local.seconds


def test_utilization_low_for_latency_bound(stream_trace):
    trace, w = stream_trace
    r = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=8))
    assert r.mean_utilization() < 0.5  # stall-dominated, as the paper found


def test_engine_validation(stream_trace):
    trace, w = stream_trace
    with pytest.raises(ValueError):
        simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=0))


def test_options_reject_degenerate_chunk_and_jitter():
    """Regression: chunk=0 used to pass validation and crash the DYNAMIC
    replay with IndexError on the first empty chunk acquisition."""
    with pytest.raises(ValueError):
        SimExecOptions(nthreads=2, chunk=0)
    with pytest.raises(ValueError):
        SimExecOptions(nthreads=2, jitter=-0.1)
    with pytest.raises(ValueError):
        SimExecOptions(nthreads=2, start_stagger_cycles=-1.0)


def test_dynamic_chunk_one_runs_everything(stream_trace):
    """The smallest legal dynamic chunk exercises the queue the hardest."""
    trace, w = stream_trace
    r = simulate_execution(
        trace, w, BROADWELL,
        SimExecOptions(nthreads=8, schedule=ScheduleKind.DYNAMIC, chunk=1),
    )
    assert r.events_executed == trace.total_events


def test_dynamic_vs_static_similar_for_uniform_work(stream_trace):
    """Fig 4's conclusion holds in the replay too: for near-uniform
    histories the schedule choice moves the makespan only slightly."""
    trace, w = stream_trace
    static = simulate_execution(trace, w, BROADWELL, SimExecOptions(nthreads=8))
    dynamic = simulate_execution(
        trace, w, BROADWELL,
        SimExecOptions(nthreads=8, schedule=ScheduleKind.DYNAMIC, chunk=4),
    )
    assert dynamic.seconds == pytest.approx(static.seconds, rel=0.2)


def test_power8_replay_slower_per_access_than_broadwell():
    """Cross-device replay sanity: POWER8's higher loaded latency makes
    the same DRAM-scale trace slower per thread at equal concurrency."""
    w = measured_workload("csp").scaled(500, 4000)
    tr = synthetic_trace(500, 60, 4000, seed=5)
    bdw = simulate_execution(tr, w, BROADWELL, SimExecOptions(nthreads=8))
    p8 = simulate_execution(tr, w, POWER8, SimExecOptions(nthreads=8))
    bdw_s = bdw.makespan_cycles / 2.1
    p8_s = p8.makespan_cycles / 3.5
    assert p8_s > bdw_s
