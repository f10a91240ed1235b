"""Adaptive scheduling: switch-schedule parity, the AUTO scheduler,
pool rebalancing, and the scheduler's observability surface.

The load-bearing guarantee: scheme switching happens only at census
boundaries over counter-based per-history RNG streams, so ANY switch
schedule — adversarial, random, or telemetry-driven — must produce
physics bit-identical to a pure fixed-scheme run.  Everything else
(block shaping, compaction, worker rebalancing) is performance
steering and must never show up in the physics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveScheduler
from repro.adaptive import scheduler as adaptive
from repro.core import Scheme, Simulation
from repro.core.problems import csp_problem, scatter_problem, stream_problem
from repro.core.stepper import (
    StepDecision,
    run_stepped,
    validate_scheme_options,
)
from repro.ensemble.engine import population_fingerprint
from repro.obs import (
    LiveAggregator,
    Recorder,
    build_run_telemetry,
    to_chrome_trace,
    to_prometheus,
)
from repro.parallel import DelayShard, FaultPlan, PoolOptions, ScheduleKind, run_pool
from tests.plans import ScriptedPlan

PROBLEMS = {
    "stream": lambda **kw: stream_problem(nx=16, nparticles=12, **kw),
    "scatter": lambda **kw: scatter_problem(nx=16, nparticles=12, **kw),
    "csp": lambda **kw: csp_problem(nx=16, nparticles=12, **kw),
}

#: Physics counters that must be exactly equal across schedules (the
#: probe/memory counters legitimately differ between schemes).
PHYSICS_COUNTERS = (
    "collisions", "facets", "census_events", "terminations",
    "reflections", "tally_flushes", "density_reads", "xs_lookups",
    "rng_draws",
)

STATE_FIELDS = (
    "particle_id", "x", "y", "omega_x", "omega_y", "energy", "weight",
    "rng_counter", "alive", "cellx", "celly",
)


def _assert_physics_identical(ref, other):
    assert population_fingerprint(ref.arena) == population_fingerprint(
        other.arena
    )
    for name in PHYSICS_COUNTERS:
        assert getattr(ref.counters, name) == getattr(other.counters, name), (
            f"counter {name} differs"
        )
    assert np.allclose(
        ref.tally.deposition, other.tally.deposition, rtol=1e-10, atol=1e-30
    )
    assert np.array_equal(ref.tally.flush_counts, other.tally.flush_counts)


def _assert_states_identical(ref, other):
    """Per-particle arrays, order-independent (argsort by particle_id)."""
    ra, oa = ref.arena, other.arena
    ri = np.argsort(ra.particle_id, kind="stable")
    oi = np.argsort(oa.particle_id, kind="stable")
    for f in STATE_FIELDS:
        assert np.array_equal(
            getattr(ra, f)[ri], getattr(oa, f)[oi]
        ), f"{f} differs across switch schedule"


def _alternating_plan(ntimesteps: int) -> ScriptedPlan:
    """Worst-case schedule: switch scheme at every census boundary,
    with compaction thrown in at the switches."""
    return ScriptedPlan(tuple(
        StepDecision(
            scheme=(
                Scheme.OVER_PARTICLES if step % 2 == 0
                else Scheme.OVER_EVENTS
            ),
            block_size=7 if step % 2 == 0 else None,
            compact=(step % 3 == 0),
        )
        for step in range(ntimesteps)
    ))


# ---------------------------------------------------------------------------
# Adversarial every-step switching ≡ pure runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_alternating_switch_plan_bit_identical_serial(name):
    cfg = PROBLEMS[name](ntimesteps=4)
    ref = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    switched = run_stepped(cfg, _alternating_plan(4))
    _assert_physics_identical(ref, switched)
    _assert_states_identical(ref, switched)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_alternating_switch_plan_bit_identical_pooled(name):
    cfg = PROBLEMS[name](ntimesteps=4)
    ref = Simulation(cfg).run(Scheme.OVER_EVENTS)
    pooled = run_pool(
        cfg, _alternating_plan(4),
        PoolOptions(nworkers=2, chunk=5),
    )
    _assert_physics_identical(ref, pooled)
    _assert_states_identical(ref, pooled)
    assert pooled.scheme is Scheme.AUTO  # plan collapses to AUTO label


# ---------------------------------------------------------------------------
# Property: random switch schedules preserve the physics
# ---------------------------------------------------------------------------

def _decisions(ntimesteps):
    """Scheme × OP block size × compaction, drawn per census step."""
    decision = st.one_of(
        st.builds(
            StepDecision,
            scheme=st.just(Scheme.OVER_PARTICLES),
            block_size=st.sampled_from((None, 1, 7, 64)),
            compact=st.booleans(),
        ),
        st.builds(
            StepDecision,
            scheme=st.just(Scheme.OVER_EVENTS),
            compact=st.booleans(),
        ),
    )
    return st.tuples(*[decision for _ in range(ntimesteps)])


SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@given(decisions=_decisions(4))
@SLOW
def test_random_switch_schedule_preserves_physics(name, decisions):
    cfg = PROBLEMS[name](ntimesteps=4)
    ref = Simulation(cfg).run(Scheme.OVER_EVENTS)
    switched = run_stepped(cfg, ScriptedPlan(decisions))
    _assert_physics_identical(ref, switched)
    _assert_states_identical(ref, switched)


@given(decisions=_decisions(3))
@settings(
    max_examples=4, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_switch_schedule_preserves_physics_pooled(decisions):
    cfg = PROBLEMS["csp"](ntimesteps=3)
    ref = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    pooled = run_pool(
        cfg, ScriptedPlan(decisions), PoolOptions(nworkers=2, chunk=5)
    )
    _assert_physics_identical(ref, pooled)
    _assert_states_identical(ref, pooled)


# ---------------------------------------------------------------------------
# The AUTO scheduler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_auto_bit_identical_serial_and_pooled(name):
    cfg = PROBLEMS[name](ntimesteps=6)
    sim = Simulation(cfg)
    ref = sim.run(Scheme.OVER_PARTICLES)
    auto = sim.run(Scheme.AUTO)
    _assert_physics_identical(ref, auto)
    _assert_states_identical(ref, auto)
    pooled = sim.run(Scheme.AUTO, nworkers=2, chunk=5)
    _assert_physics_identical(ref, pooled)
    _assert_states_identical(ref, pooled)
    assert pooled.scheme is Scheme.AUTO


def test_scheduler_probes_then_exploits():
    cfg = csp_problem(nx=16, nparticles=12, ntimesteps=6)
    sched = AdaptiveScheduler(cfg)
    run_stepped(cfg, sched)
    assert len(sched.decisions) == 6
    order = adaptive.PROBE_ORDER
    assert sched.decisions[0][1].scheme is order[0]
    assert sched.decisions[0][1].reason == "probe"
    assert sched.decisions[1][1].scheme is order[1]
    assert sched.decisions[1][1].reason == "probe"
    # From step 2 on, every decision carries a concrete scheme + reason.
    for _, d in sched.decisions[2:]:
        assert d.scheme in (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)
        assert d.reason


def test_scheduler_short_run_skips_second_probe():
    cfg = csp_problem(nx=16, nparticles=12, ntimesteps=2)
    sched = AdaptiveScheduler(cfg)
    run_stepped(cfg, sched)
    assert sched.decisions[1][1].reason == "short-run"
    assert (
        sched.decisions[1][1].scheme is sched.decisions[0][1].scheme
    )


def test_scheduler_holds_an_incumbent_that_was_never_measured():
    """Regression: every history dies during the second probe step, so the
    incumbent has no measured rate at step 2 — the scheduler holds it
    (this used to raise ``KeyError`` in ``_pick``)."""
    cfg = scatter_problem(nx=24, nparticles=60, ntimesteps=4, xs_mode="ce")
    sched = AdaptiveScheduler(cfg)
    auto = run_stepped(cfg, sched)
    assert [d.reason for _, d in sched.decisions] == [
        "probe", "probe", "hold", "hold",
    ]
    assert sched.decisions[-1][1].scheme is Scheme.OVER_EVENTS
    ref = Simulation(cfg).run(Scheme.OVER_EVENTS)
    _assert_physics_identical(ref, auto)
    _assert_states_identical(ref, auto)
    assert Simulation(cfg).run(Scheme.AUTO).scheme is Scheme.AUTO


def test_scheduler_shapes_op_block_to_alive():
    cfg = csp_problem(nx=16, nparticles=12, ntimesteps=4)
    sched = AdaptiveScheduler(cfg)
    run_stepped(cfg, sched)
    op_decisions = [
        d for _, d in sched.decisions
        if d.scheme is Scheme.OVER_PARTICLES and d.block_size is not None
    ]
    for d in op_decisions:
        assert d.block_size >= adaptive.MIN_BLOCK_SIZE
        assert d.block_size != cfg.op_block_size


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------

def test_unknown_scheme_lists_valid_schemes():
    cfg = csp_problem(nx=16, nparticles=12)
    with pytest.raises(ValueError, match="unknown scheme"):
        validate_scheme_options("bogus")
    with pytest.raises(ValueError, match=Scheme.AUTO.value):
        validate_scheme_options("bogus")
    # A scheduler is anything with ``decide(step, stepper)``.
    validate_scheme_options(AdaptiveScheduler(cfg))
    validate_scheme_options(
        ScriptedPlan((StepDecision(scheme=Scheme.OVER_EVENTS),))
    )


def test_step_decision_rejects_bad_combinations():
    with pytest.raises(ValueError, match="concrete scheme"):
        StepDecision(scheme=Scheme.AUTO)
    with pytest.raises(ValueError, match="block_size only applies"):
        StepDecision(scheme=Scheme.OVER_EVENTS, block_size=8)
    with pytest.raises(ValueError, match="block_size must be >= 1"):
        StepDecision(scheme=Scheme.OVER_PARTICLES, block_size=0)


def test_rebalance_requires_dynamic_schedule():
    with pytest.raises(ValueError, match="DYNAMIC"):
        PoolOptions(nworkers=2, rebalance=True)
    with pytest.raises(ValueError, match="rebalance_threshold"):
        PoolOptions(
            nworkers=2, schedule=ScheduleKind.DYNAMIC,
            rebalance=True, rebalance_threshold=0.0,
        )


# ---------------------------------------------------------------------------
# Pool rebalance: reserve-shard splitting under a stuck worker
# ---------------------------------------------------------------------------

@pytest.mark.chaos
def test_rebalance_splits_reserve_and_preserves_physics():
    # A deep reserve (8 shards, 6 held back) plus a long stall on shard
    # 0 guarantees the watchdog fires while reserve shards remain, even
    # when the healthy worker drains quickly under full-suite load.
    cfg = csp_problem(nx=16, nparticles=480, ntimesteps=2)
    ref = Simulation(cfg).run(Scheme.OVER_EVENTS)
    rec = Recorder()
    r = run_pool(
        cfg, Scheme.OVER_EVENTS,
        PoolOptions(
            nworkers=2, schedule=ScheduleKind.DYNAMIC, chunk=60,
            rebalance=True, rebalance_threshold=0.05,
            fault_plan=FaultPlan((DelayShard(shard=0, seconds=2.0),)),
        ),
        recorder=rec,
    )
    assert r.pool.rebalances >= 1
    _assert_physics_identical(ref, r)
    _assert_states_identical(ref, r)
    splits = [e for e in rec.events if e.name == "rebalance"]
    assert len(splits) == r.pool.rebalances
    assert {"split_shard", "new_shard", "stuck_worker"} <= set(
        splits[0].attrs
    )


# ---------------------------------------------------------------------------
# Observability: decisions in the exporters
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def auto_telemetry():
    cfg = csp_problem(nx=16, nparticles=12, ntimesteps=6)
    recorder = Recorder()
    result = Simulation(cfg).run(Scheme.AUTO, recorder=recorder)
    return build_run_telemetry(result, recorder), recorder


def test_scheme_switch_events_recorded(auto_telemetry):
    _, recorder = auto_telemetry
    switches = [e for e in recorder.events if e.name == "scheme_switch"]
    assert len(switches) >= 2  # at least the two probe transitions
    for e in switches:
        assert e.attrs["scheme"] in (
            Scheme.OVER_PARTICLES.value, Scheme.OVER_EVENTS.value
        )
        assert "step" in e.attrs


def test_prometheus_exports_decision_counters(auto_telemetry):
    telemetry, _ = auto_telemetry
    text = to_prometheus(telemetry)
    assert "repro_scheduler_decisions_total{" in text
    assert 'scheme="over_particles"' in text or (
        'scheme="over_events"' in text
    )


def test_plan_run_publishes_auto_on_the_live_plane():
    """A scheduler's run reports ``auto`` on the live plane, as its
    result does, serial and pooled alike."""
    cfg = csp_problem(nx=16, nparticles=12, ntimesteps=4)
    plan = _alternating_plan(4)
    for nworkers in (None, 1):
        live = LiveAggregator()
        result = Simulation(cfg).run(plan, nworkers=nworkers, live=live)
        assert result.scheme is Scheme.AUTO
        assert live.snapshot()["run"]["scheme"] == Scheme.AUTO.value


def test_chrome_trace_marks_switches_global(auto_telemetry):
    telemetry, _ = auto_telemetry
    trace = to_chrome_trace(telemetry)
    switches = [
        ev for ev in trace["traceEvents"]
        if ev.get("name") == "scheme_switch"
    ]
    assert switches
    assert all(ev.get("s") == "g" for ev in switches)
