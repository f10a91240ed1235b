"""The tracer wraps the program from outside: it must not change what the
program computes, must count what the program counts, and must leave the
program exactly as it found it."""

import dataclasses

import pytest

from perf import check, child, trace, workloads
from repro.kernels.dispatch import KERNEL_TABLE, KERNEL_TABLE_3D

SEED = 11


def _patched_objects():
    """Every object any workload's tracer replaces, keyed by where it lives."""
    found = {}
    for name, fn in KERNEL_TABLE_3D.items():
        found[("KERNEL_TABLE_3D", name)] = fn
    for name, fn in KERNEL_TABLE.items():
        found[("KERNEL_TABLE", name)] = fn
    for site in trace.CALL_SITES:
        owner, attr = trace.site_owner(site)
        found[(site, attr)] = vars(owner)[attr]
    return found


def _all_points():
    points = []
    for w in workloads.WORKLOADS.values():
        points += [p for p in w.points if p not in points]
    return points


@pytest.mark.parametrize("name", ["csp_oe_mg", "csp_op_mg", "csp3d_oe_mg"])
def test_traced_run_equals_untraced_and_counts_match_the_program(name):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.build(name, SEED, "smoke")
    plain = check.run_facts(workload.entry(inputs), workload.dim)
    tracer = trace.Tracer(name, workload.points)
    with tracer:
        result = tracer.run(workload.entry, inputs)
    traced = check.run_facts(result, workload.dim)
    assert traced["fingerprint"] == plain["fingerprint"]
    assert not check.check_repeat(plain, traced)
    assert tracer.unhit_points() == []

    calls = trace.self_times(tracer.spans)
    for kernel, (ncalls, _items, _seconds) in result.counters.kernel_profile.items():
        assert calls["kernel:" + kernel][0] == ncalls, kernel
    assert calls["dispatch.run"][0] == sum(
        row[0] for row in result.counters.kernel_profile.values())

    layers = trace.layer_self_times(calls, workload.root_metric)
    assert sum(layers.values()) == pytest.approx(
        trace.root_duration(tracer.spans), abs=1e-6)
    assert all(row[0] == trace.ROOT or row[3] >= 0 for row in tracer.spans)


def test_every_patch_point_is_restored_by_identity():
    before = _patched_objects()
    with trace.Tracer("all", _all_points()):
        during = _patched_objects()
    assert all(during[key] is not before[key] for key in before
               if key[0] not in ("KERNEL_TABLE", "KERNEL_TABLE_3D")
               or "kernel:" + key[1] in _all_points())
    after = _patched_objects()
    assert all(after[key] is before[key] for key in before)


def test_patch_points_are_restored_when_the_run_raises():
    before = _patched_objects()
    tracer = trace.Tracer("all", _all_points())
    with pytest.raises(ZeroDivisionError):
        with tracer:
            tracer.run(lambda: 1 / 0)
    after = _patched_objects()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0.0


def test_unknown_point_restores_what_was_already_patched():
    before = _patched_objects()
    with pytest.raises(KeyError):
        with trace.Tracer("bad", ["dispatch.run", "kernel:no_such_kernel"]):
            pass
    after = _patched_objects()
    assert all(after[key] is before[key] for key in before)


def test_a_point_that_is_never_hit_fails_the_run(monkeypatch):
    real = workloads.WORKLOADS["csp_oe_mg"]
    # roulette is off in every benchmark config, so this kernel never runs.
    monkeypatch.setitem(
        workloads.WORKLOADS, "csp_oe_mg",
        dataclasses.replace(real, points=real.points + ("kernel:roulette",)))
    out = child.phase_trace("csp_oe_mg", SEED, "smoke", 0.0)
    assert out["failed"] >= 1
    assert any("never hit" in p and "kernel:roulette" in p
               for row in out["runs"] for p in row["problems"])
    assert out["metrics"]["trace.unhit_points"] == 1
