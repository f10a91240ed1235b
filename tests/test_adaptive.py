"""Scheme switching: switch-schedule parity, the AUTO rule, pool
rebalancing, and the switch trace's observability surface.

The load-bearing guarantee: scheme switching happens only at census
boundaries over counter-based per-history RNG streams, so ANY switch
schedule — adversarial, random, or AUTO's rule — must produce physics
bit-identical to a pure fixed-scheme run.  Everything else (compaction,
worker rebalancing) is performance steering and must never show up in
the physics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Scheme, Simulation
from repro.core.problems import csp_problem, scatter_problem, stream_problem
from repro.core.stepper import (
    COMPACT_DEAD_FRACTION,
    StepDecision,
    run_stepped,
    validate_scheme_options,
)
from repro.ensemble import EnsembleSpec, run_ensemble
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
    """Scheme × compaction, drawn per census step."""
    decision = st.builds(
        StepDecision,
        scheme=st.sampled_from((Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)),
        compact=st.booleans(),
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


def _spy_steps(monkeypatch):
    """Log every census step (named by the scheme it runs) and compaction
    the stepper runs, in order, with the arena it starts from:
    ``(name, len(arena), alive)``."""
    from repro.core.stepper import CensusStepper

    log = []
    for name in ("_step", "_compact"):
        method = getattr(CensusStepper, name)

        def spy(stepper, *args, _name=name, _method=method):
            label = args[0].value if _name == "_step" else _name
            log.append((label, len(stepper.arena), stepper.alive_count()))
            return _method(stepper, *args)

        monkeypatch.setattr(CensusStepper, name, spy)
    return log


@pytest.mark.parametrize("replicas", [1, 4])
def test_auto_rule_is_over_events_compacting_past_the_threshold(
    replicas, monkeypatch
):
    """AUTO's rule: every step is Over Events, exactly one
    ``scheme_switch`` is announced, and the arena is compacted at exactly
    the boundaries where more than ``COMPACT_DEAD_FRACTION`` of it is
    dead — serial and as a fused R = 4 ensemble, physics-identical to
    Over Events down to the tally bytes."""
    cfg = scatter_problem(nx=16, nparticles=40, ntimesteps=6)
    spec = EnsembleSpec(cfg, replicas, seed_stride=3)
    ref = run_ensemble(spec, Scheme.OVER_EVENTS)
    log = _spy_steps(monkeypatch)
    rec = Recorder()
    auto = run_ensemble(spec, Scheme.AUTO, recorder=rec)
    monkeypatch.undo()

    steps = [entry for entry in log if entry[0] != "_compact"]
    assert [name for name, *_ in steps] == (
        [Scheme.OVER_EVENTS.value] * cfg.ntimesteps
    )
    switches = [e for e in rec.events if e.name == "scheme_switch"]
    assert [(e.attrs["step"], e.attrs["scheme"]) for e in switches] == [
        (0, Scheme.OVER_EVENTS.value)
    ]
    compactions = 0
    for i, (name, total, alive) in enumerate(log):
        if name == "_compact":
            continue
        compacted = i > 0 and log[i - 1][0] == "_compact"
        # The boundary's arena before any compaction ran on it.
        before = log[i - 1][1] if compacted else total
        assert compacted == (before - alive > COMPACT_DEAD_FRACTION * before)
        if compacted:
            assert total == alive
            compactions += 1
    assert 0 < compactions < cfg.ntimesteps
    for a, b in zip(auto.replicas, ref.replicas):
        _assert_physics_identical(b, a)
        _assert_states_identical(b, a)
        assert np.array_equal(a.tally.deposition, b.tally.deposition)


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------

def test_unknown_scheme_lists_valid_schemes():
    with pytest.raises(ValueError, match="unknown scheme"):
        validate_scheme_options("bogus")
    with pytest.raises(ValueError, match=Scheme.AUTO.value):
        validate_scheme_options("bogus")
    # A plan is anything with ``decide(step, stepper)``.
    validate_scheme_options(
        ScriptedPlan((StepDecision(scheme=Scheme.OVER_EVENTS),))
    )


def test_step_decision_rejects_bad_combinations():
    with pytest.raises(ValueError, match="concrete scheme"):
        StepDecision(scheme=Scheme.AUTO)


@pytest.mark.parametrize("plan", [Scheme.OVER_EVENTS, Scheme.AUTO,
                                  _alternating_plan(2)],
                         ids=["over_events", "auto", "scripted"])
def test_trace_is_refused_for_every_plan_but_over_particles(plan):
    """Only an Over Particles step feeds the event trace, so a trace
    asked of any other plan would come back short without a word."""
    cfg = csp_problem(nx=16, nparticles=12, ntimesteps=2)
    with pytest.raises(ValueError, match="OVER_PARTICLES"):
        run_stepped(cfg, plan, trace=[])
    trace = []
    result = run_stepped(cfg, Scheme.OVER_PARTICLES, trace=trace)
    c = result.counters
    assert len(trace) == c.collisions + c.facets + c.census_events


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
    assert len(switches) == 1  # AUTO's rule announces its step-0 pick
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
    """A plan's run reports ``auto`` on the live plane, as its
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


def test_auto_compaction_is_recorded(capsys):
    """AUTO's census compaction leaves one ``compaction`` event (step,
    parked, alive): csp at 240 histories x 16 steps compacts once,
    parking 124 of 240.  ``--switch-trace`` prints it, the Chrome trace
    renders it with global scope, Prometheus counts it, and the physics
    is the same with the recorder on or off."""
    from repro.cli import _print_switch_trace

    cfg = csp_problem(nx=48, nparticles=240, ntimesteps=16)
    recorder = Recorder()
    traced = Simulation(cfg).run(Scheme.AUTO, recorder=recorder)
    compactions = [e for e in recorder.events if e.name == "compaction"]
    assert [e.attrs for e in compactions] == [
        {"step": 8, "parked": 124, "alive": 116}
    ]
    plain = Simulation(cfg).run(Scheme.AUTO)
    _assert_physics_identical(plain, traced)
    _assert_states_identical(plain, traced)
    assert np.array_equal(plain.tally.deposition, traced.tally.deposition)

    _print_switch_trace(recorder)
    assert "step 8: compaction parked=124 alive=116" in capsys.readouterr().out
    trace = to_chrome_trace(build_run_telemetry(traced, recorder))
    rendered = [
        ev for ev in trace["traceEvents"] if ev.get("name") == "compaction"
    ]
    assert len(rendered) == 1 and rendered[0].get("s") == "g"
    text = to_prometheus(build_run_telemetry(traced, recorder))
    assert "repro_compactions_total 1" in text
    assert "repro_compacted_histories_total 124" in text
