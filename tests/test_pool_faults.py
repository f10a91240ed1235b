"""Chaos suite: the pool must survive injected faults bit-identically.

Every test here runs the worker pool under a deterministic
:class:`FaultPlan` and asserts the load-bearing recovery property: a run
that lost workers (killed, hung, erroring, or heartbeat-silent) produces
**bit-identical final particle states** to the undisturbed serial run —
the counter-based per-particle RNG makes a retried shard exactly
reproducible — with tallies equal to accumulation-order rounding and the
recovery ledger (`PoolRunInfo`) accounting for what happened.

Marked ``chaos`` so CI runs (and times out) this suite independently of
the tier-1 tests: ``pytest -m chaos -q``.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core import (
    Scheme,
    Simulation,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.validation import energy_balance_error, population_accounted
from repro.parallel import (
    DelayShard,
    DropHeartbeat,
    FaultPlan,
    KillWorker,
    PoolOptions,
    RaiseInShard,
    ScheduleKind,
    run_pool,
)
from repro.parallel import pool as pool_mod

pytestmark = pytest.mark.chaos

NWORKERS = 3
NPARTICLES = 36
CHUNK = 5

PROBLEMS = {
    "stream": lambda: stream_problem(nx=32, nparticles=NPARTICLES),
    "scatter": lambda: scatter_problem(nx=32, nparticles=NPARTICLES),
    "csp": lambda: csp_problem(nx=32, nparticles=NPARTICLES),
}
SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)
STATE_FIELDS = (
    "x", "y", "omega_x", "omega_y", "energy", "weight", "rng_counter",
    "alive", "cellx", "celly",
)


def _states_by_id(result):
    """particle_id → state tuple, from the result arena."""
    s = result.arena
    return {
        int(s.particle_id[i]): tuple(
            getattr(s, f)[i].item() for f in STATE_FIELDS
        )
        for i in range(len(s))
    }


def _assert_recovered_bit_identical(serial, faulted):
    """The acceptance shape: recovery is invisible in the physics."""
    assert _states_by_id(faulted) == _states_by_id(serial)
    assert np.allclose(
        serial.tally.deposition, faulted.tally.deposition,
        rtol=1e-10, atol=1e-30,
    )
    assert np.array_equal(
        serial.tally.flush_counts, faulted.tally.flush_counts
    )
    assert serial.counters.snapshot() == pytest.approx(
        faulted.counters.snapshot(), rel=1e-12
    )
    assert energy_balance_error(faulted) < 1e-10
    assert population_accounted(faulted)


@pytest.fixture(scope="module")
def serial_runs():
    """Undisturbed serial reference per problem × scheme."""
    return {
        (name, scheme): Simulation(factory()).run(scheme)
        for name, factory in PROBLEMS.items()
        for scheme in SCHEMES
    }


# ---------------------------------------------------------------------------
# Worker killed mid-run: every problem × scheme (acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_kill_one_worker_mid_run_bit_identical(serial_runs, name, scheme):
    serial = serial_runs[name, scheme]
    faulted = Simulation(PROBLEMS[name]()).run(
        scheme, nworkers=NWORKERS, schedule=ScheduleKind.DYNAMIC,
        chunk=CHUNK,
        fault_plan=FaultPlan((KillWorker(worker=1, after_chunks=0),)),
    )
    pool = faulted.pool
    assert pool.workers_lost >= 1
    assert pool.respawns >= 1
    assert pool.retries >= 1  # the in-flight shard was re-enqueued
    assert not pool.degraded
    _assert_recovered_bit_identical(serial, faulted)


@pytest.mark.parametrize("schedule", (ScheduleKind.STATIC, ScheduleKind.DYNAMIC))
def test_kill_under_both_schedules(serial_runs, schedule):
    """STATIC recovery respawns the block's owner; DYNAMIC hands the chunk
    to whoever pulls it next — both must be invisible in the result."""
    serial = serial_runs["csp", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["csp"]()).run(
        Scheme.OVER_PARTICLES, nworkers=NWORKERS, schedule=schedule,
        chunk=CHUNK,
        fault_plan=FaultPlan((KillWorker(worker=0, after_chunks=0),)),
    )
    assert faulted.pool.workers_lost >= 1
    _assert_recovered_bit_identical(serial, faulted)


def test_kill_after_completing_chunks(serial_runs):
    """A worker that did real work before dying loses only in-flight work;
    completed shards are never re-executed (chunks ledger adds up)."""
    serial = serial_runs["csp", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["csp"]()).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=4,
        fault_plan=FaultPlan((KillWorker(worker=1, after_chunks=2),)),
    )
    assert faulted.pool.chunks_dispatched() == (NPARTICLES + 3) // 4
    _assert_recovered_bit_identical(serial, faulted)


def test_clean_exit_between_shards_is_just_respawned(serial_runs):
    """A worker dying *between* shards loses nothing — no retry charged."""
    serial = serial_runs["stream", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["stream"]()).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=4,
        fault_plan=FaultPlan(
            (KillWorker(worker=1, after_chunks=1, mid_shard=False),)
        ),
    )
    assert faulted.pool.workers_lost >= 1
    assert faulted.pool.retries == 0
    _assert_recovered_bit_identical(serial, faulted)


# ---------------------------------------------------------------------------
# Hang detection: per-shard timeout and heartbeat age
# ---------------------------------------------------------------------------

def test_hung_shard_times_out_and_is_retried(serial_runs):
    serial = serial_runs["csp", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["csp"]()).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=CHUNK, shard_timeout=0.5,
        fault_plan=FaultPlan((DelayShard(shard=1, seconds=30.0),)),
    )
    pool = faulted.pool
    assert pool.workers_lost >= 1  # the sleeper was terminated
    assert pool.retries >= 1
    assert not pool.degraded
    _assert_recovered_bit_identical(serial, faulted)


def test_silent_heartbeat_is_detected(serial_runs):
    """A worker whose heartbeat goes silent while it sits on a long shard
    is declared hung by heartbeat age (no shard timeout configured)."""
    serial = serial_runs["csp", Scheme.OVER_PARTICLES]
    cfg = PROBLEMS["csp"]()
    faulted = run_pool(
        cfg, Scheme.OVER_PARTICLES,
        PoolOptions(
            nworkers=NWORKERS, schedule=ScheduleKind.STATIC,
            heartbeat_interval=0.1, heartbeat_timeout=0.5,
            fault_plan=FaultPlan(
                (DropHeartbeat(worker=1), DelayShard(shard=1, seconds=30.0))
            ),
        ),
    )
    pool = faulted.pool
    assert pool.workers_lost >= 1
    assert pool.retries >= 1
    _assert_recovered_bit_identical(serial, faulted)


# ---------------------------------------------------------------------------
# Exceptions in shards: retry, then degraded drain when exhausted
# ---------------------------------------------------------------------------

def test_exception_in_shard_is_retried(serial_runs):
    serial = serial_runs["scatter", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["scatter"]()).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=CHUNK,
        fault_plan=FaultPlan((RaiseInShard(shard=2),)),
    )
    pool = faulted.pool
    assert pool.retries >= 1
    assert pool.workers_lost == 0  # the worker survived its exception
    assert not pool.degraded
    _assert_recovered_bit_identical(serial, faulted)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_retries_exhausted_degrades_not_raises(serial_runs, scheme):
    """Acceptance: the retries-exhausted path completes in degraded
    in-process mode with the degradation surfaced, never an exception."""
    serial = serial_runs["csp", scheme]
    faulted = Simulation(PROBLEMS["csp"]()).run(
        scheme, nworkers=2, schedule=ScheduleKind.DYNAMIC, chunk=CHUNK,
        max_retries=1,
        fault_plan=FaultPlan((RaiseInShard(shard=2, attempts=-1),)),
    )
    pool = faulted.pool
    assert pool.degraded
    assert "retries" in pool.degraded_reason
    assert pool.shards_drained_in_process >= 1
    assert any(w.worker_id == pool_mod.PARENT_WORKER_ID for w in pool.workers)
    _assert_recovered_bit_identical(serial, faulted)


def test_more_faults_than_workers_degrades_gracefully(serial_runs):
    """Every incarnation of every worker dies and the respawn budget runs
    out — the parent drains everything in-process, still bit-identical."""
    serial = serial_runs["csp", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["csp"]()).run(
        Scheme.OVER_PARTICLES, nworkers=2, schedule=ScheduleKind.DYNAMIC,
        chunk=CHUNK, max_worker_respawns=1,
        fault_plan=FaultPlan((
            KillWorker(worker=0, incarnations=-1),
            KillWorker(worker=1, incarnations=-1),
        )),
    )
    pool = faulted.pool
    assert pool.degraded
    assert pool.respawns == 1
    assert pool.workers_lost >= 2
    assert pool.shards_drained_in_process >= 1
    _assert_recovered_bit_identical(serial, faulted)


def test_static_respawn_budget_exhausted_drains_block(serial_runs):
    """STATIC: a block whose owner can never be respawned is drained by
    the parent rather than stranding the run."""
    serial = serial_runs["stream", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["stream"]()).run(
        Scheme.OVER_PARTICLES, nworkers=NWORKERS,
        schedule=ScheduleKind.STATIC, max_worker_respawns=0,
        fault_plan=FaultPlan((KillWorker(worker=1, incarnations=-1),)),
    )
    pool = faulted.pool
    assert pool.degraded
    assert pool.respawns == 0
    assert pool.shards_drained_in_process == 1
    _assert_recovered_bit_identical(serial, faulted)


def test_multiple_simultaneous_faults(serial_runs):
    """Kill + delay-timeout + exception in one run: all three recovery
    mechanisms compose without interfering."""
    serial = serial_runs["csp", Scheme.OVER_PARTICLES]
    faulted = Simulation(PROBLEMS["csp"]()).run(
        Scheme.OVER_PARTICLES, nworkers=NWORKERS,
        schedule=ScheduleKind.DYNAMIC, chunk=4, shard_timeout=0.5,
        fault_plan=FaultPlan((
            KillWorker(worker=0, after_chunks=0),
            DelayShard(shard=3, seconds=30.0),
            RaiseInShard(shard=5),
        )),
    )
    pool = faulted.pool
    assert pool.workers_lost >= 2
    assert pool.retries >= 3
    assert not pool.degraded
    _assert_recovered_bit_identical(serial, faulted)


# ---------------------------------------------------------------------------
# Regressions: process hygiene and options validation (satellites)
# ---------------------------------------------------------------------------

def test_no_leaked_children_when_reduction_raises(monkeypatch):
    """Regression: a parent-side failure after dispatch must not leak
    worker processes."""
    def boom(*args, **kwargs):
        raise RuntimeError("forced reduction failure")

    monkeypatch.setattr(pool_mod, "_reduce", boom)
    cfg = csp_problem(nx=32, nparticles=NPARTICLES)
    with pytest.raises(RuntimeError, match="forced reduction failure"):
        run_pool(
            cfg, Scheme.OVER_PARTICLES,
            PoolOptions(nworkers=2, schedule=ScheduleKind.DYNAMIC, chunk=CHUNK),
        )
    assert mp.active_children() == []


def test_no_leaked_children_after_faulted_runs():
    """Recovery paths (kills, respawns, degraded drain) leave no strays."""
    cfg = csp_problem(nx=32, nparticles=NPARTICLES)
    run_pool(
        cfg, Scheme.OVER_PARTICLES,
        PoolOptions(
            nworkers=2, schedule=ScheduleKind.DYNAMIC, chunk=CHUNK,
            max_worker_respawns=0,
            fault_plan=FaultPlan((KillWorker(worker=0, incarnations=-1),)),
        ),
    )
    assert mp.active_children() == []


def test_start_method_rejected_at_construction():
    """Regression: unknown start methods fail fast with a clear error,
    not deep inside multiprocessing."""
    with pytest.raises(ValueError, match="unknown start method"):
        PoolOptions(nworkers=2, start_method="thread")
    # Known methods still accepted.
    for method in mp.get_all_start_methods():
        assert PoolOptions(nworkers=2, start_method=method).start_method == method


def test_fault_plan_requires_multiple_workers():
    with pytest.raises(ValueError, match="nworkers"):
        PoolOptions(nworkers=1, fault_plan=FaultPlan((KillWorker(0),)))
    # An empty plan is inert and allowed anywhere.
    assert PoolOptions(nworkers=1, fault_plan=FaultPlan()).nworkers == 1


def test_recovery_options_validated():
    with pytest.raises(ValueError):
        PoolOptions(nworkers=2, max_retries=-1)
    with pytest.raises(ValueError):
        PoolOptions(nworkers=2, shard_timeout=0.0)
    with pytest.raises(ValueError):
        PoolOptions(nworkers=2, max_worker_respawns=-1)
    with pytest.raises(ValueError):
        PoolOptions(nworkers=2, heartbeat_timeout=0.1, heartbeat_interval=0.25)


# ---------------------------------------------------------------------------
# FaultPlan itself: CLI spec round-trip and validation
# ---------------------------------------------------------------------------

def test_fault_plan_parse_round_trip():
    plan = FaultPlan.parse(
        "kill:worker=1,after=2;delay:shard=0,seconds=1.5;"
        "raise:shard=3,attempts=-1;drop_heartbeat:worker=0"
    )
    kinds = [type(f).__name__ for f in plan.faults]
    assert kinds == ["KillWorker", "DelayShard", "RaiseInShard", "DropHeartbeat"]
    kill, delay, raise_, drop = plan.faults
    assert (kill.worker, kill.after_chunks) == (1, 2)
    assert (delay.shard, delay.seconds) == (0, 1.5)
    assert (raise_.shard, raise_.attempts) == (3, -1)
    assert drop.worker == 0
    assert "KillWorker" in plan.describe()


def test_fault_plan_parse_rejects_garbage():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.parse("explode:worker=1")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.parse("kill:worker")
    with pytest.raises(ValueError, match="unknown fault type"):
        FaultPlan(faults=("not a fault",))
    with pytest.raises(ValueError, match="seconds"):
        FaultPlan((DelayShard(shard=0, seconds=-1.0),))


def test_fault_plan_lookup_windows():
    plan = FaultPlan((
        KillWorker(worker=1, incarnations=2),
        RaiseInShard(shard=3, attempts=1),
        DelayShard(shard=2, seconds=0.1, attempts=-1),
    ))
    assert plan.kill_for(1, 0) is not None
    assert plan.kill_for(1, 1) is not None
    assert plan.kill_for(1, 2) is None  # third incarnation survives
    assert plan.kill_for(0, 0) is None
    assert plan.raise_for(3, 0) is not None
    assert plan.raise_for(3, 1) is None  # retry succeeds
    assert plan.delay_for(2, 7) is not None  # -1 == every attempt
    assert not FaultPlan()
    assert plan


# ---------------------------------------------------------------------------
# CLI: the recovery demo path
# ---------------------------------------------------------------------------

def test_cli_fault_injection_demo(capsys):
    from repro.cli import main

    rc = main([
        "run", "--problem", "csp", "--nx", "32", "--particles", "36",
        "--workers", "2", "--schedule", "dynamic", "--chunk", "5",
        "--max-retries", "2", "--shard-timeout", "30",
        "--fault-plan", "kill:worker=1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault plan: KillWorker" in out
    assert "recovery:" in out
    assert "respawned" in out
    assert "population accounted: True" in out


def test_cli_degraded_mode_surfaced(capsys):
    from repro.cli import main

    rc = main([
        "run", "--problem", "csp", "--nx", "32", "--particles", "36",
        "--workers", "2", "--schedule", "dynamic", "--chunk", "5",
        "--max-retries", "0", "--fault-plan", "raise:shard=1,attempts=-1",
    ])
    assert rc == 0  # degraded, never an unhandled exception
    out = capsys.readouterr().out
    assert "DEGRADED MODE" in out
    assert "drained" in out
