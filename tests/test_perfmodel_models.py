"""CPU and GPU runtime models: mechanics, options, qualitative behaviour.

Quantitative agreement with the paper's figures is asserted by the
benchmark suite (one bench per table/figure); these tests pin down the
model's *mechanics* — monotonicities, option effects, units.
"""

import pytest

from repro.core import Scheme, Simulation, csp_problem, scatter_problem
from repro.core.config import Layout
from repro.machine import BROADWELL, K20X, KNL, P100, POWER8
from repro.parallel.affinity import Affinity
from repro.perfmodel import (
    CPUOptions,
    GPUOptions,
    TallyMode,
    Workload,
    predict_cpu,
    predict_gpu,
)
from repro.perfmodel.cpu_model import oe_vector_speedups
from repro.perfmodel.efficiency import (
    efficiency_series,
    parallel_efficiency,
    speedup,
)


@pytest.fixture(scope="module")
def csp_workload():
    r = Simulation(csp_problem(nx=96, nparticles=50)).run(Scheme.OVER_EVENTS)
    return Workload.from_result(r).scaled(1_000_000, 4000)


@pytest.fixture(scope="module")
def scatter_workload():
    r = Simulation(scatter_problem(nx=96, nparticles=50)).run(Scheme.OVER_EVENTS)
    return Workload.from_result(r).scaled(10_000_000, 4000)


# ---------------------------------------------------------------------------
# CPU model
# ---------------------------------------------------------------------------

def test_cpu_prediction_positive_and_bounded(csp_workload):
    p = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88))
    assert 0.1 < p.seconds < 1000
    assert p.bound in ("latency", "bandwidth", "compute")
    assert 0 < p.achieved_bandwidth_gbs < BROADWELL.dram.bandwidth_gbs
    assert p.imbalance_factor >= 1.0


def test_cpu_more_threads_faster(csp_workload):
    t1 = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=1)).seconds
    t22 = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=22)).seconds
    t88 = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88)).seconds
    assert t1 > t22 > t88


def test_cpu_efficiency_below_one(csp_workload):
    t1 = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=1)).seconds
    t88 = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88)).seconds
    assert parallel_efficiency(t1, t88, 88) < 1.0


def test_soa_slower_than_aos_for_op(csp_workload):
    """Fig 5: AoS beats SoA for the Over Particles scheme on CPUs."""
    aos = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=44)).seconds
    soa = predict_cpu(
        csp_workload, BROADWELL, CPUOptions(nthreads=44, layout=Layout.SOA)
    ).seconds
    assert soa > aos


def test_oe_requires_soa(csp_workload):
    with pytest.raises(ValueError):
        predict_cpu(
            csp_workload,
            BROADWELL,
            CPUOptions(nthreads=44, scheme=Scheme.OVER_EVENTS, layout=Layout.AOS),
        )


def test_op_beats_oe_on_cpu_csp(csp_workload):
    """Fig 9/11: Over Particles wins on the CPUs for csp."""
    for spec, nt in ((BROADWELL, 88), (POWER8, 160)):
        op = predict_cpu(csp_workload, spec, CPUOptions(nthreads=nt)).seconds
        oe = predict_cpu(
            csp_workload,
            spec,
            CPUOptions(nthreads=nt, scheme=Scheme.OVER_EVENTS, layout=Layout.SOA),
        ).seconds
        assert oe > 2.0 * op


def test_tally_fraction_op_near_half(csp_workload):
    p = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88))
    assert 0.35 < p.tally_fraction < 0.65


def test_privatized_tally_removes_contention(csp_workload):
    atomic = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88))
    priv = predict_cpu(
        csp_workload,
        BROADWELL,
        CPUOptions(nthreads=88, tally=TallyMode.PRIVATIZED),
    )
    assert priv.breakdown["tally"] < atomic.breakdown["tally"]


def test_merge_every_step_adds_cost(csp_workload):
    priv = predict_cpu(
        csp_workload, BROADWELL, CPUOptions(nthreads=88, tally=TallyMode.PRIVATIZED)
    ).seconds
    merge = predict_cpu(
        csp_workload,
        BROADWELL,
        CPUOptions(nthreads=88, tally=TallyMode.PRIVATIZED_MERGE_EVERY_STEP),
    ).seconds
    assert merge > priv


def test_mcdram_option_changes_result(csp_workload):
    knl = lambda fast: predict_cpu(
        csp_workload,
        KNL,
        CPUOptions(nthreads=256, affinity=Affinity.SCATTER, use_fast_memory=fast),
    ).seconds
    assert knl(True) != knl(False)


def test_oversubscription_mild_effect(csp_workload):
    full = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88)).seconds
    over = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=132)).seconds
    # latency-bound: oversubscription changes the runtime by < 15% (§VI-E)
    assert abs(over - full) / full < 0.15


def test_exact_schedule_sim_close_to_analytic(csp_workload):
    a = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88))
    # exact replay at 1e6 particles is costly; use a reduced-particle clone
    w = csp_workload.scaled(20_000, 4000)
    e = predict_cpu(w, BROADWELL, CPUOptions(nthreads=88, exact_schedule_sim=True))
    assert e.imbalance_factor == pytest.approx(a.imbalance_factor, abs=0.2)


def test_grind_times_positive(csp_workload):
    p = predict_cpu(csp_workload, BROADWELL, CPUOptions(nthreads=88))
    assert p.grind_times_ns["facet"] > 0
    assert p.grind_times_ns["collision"] > 0


def test_vector_speedups_cpu_vs_knl():
    """Fig 8: gathers kill CPU vectorisation; KNL gains everywhere."""
    bdw = oe_vector_speedups(BROADWELL)
    knl = oe_vector_speedups(KNL)
    assert bdw["collision"] == 1.0  # clamped: no win without HW gathers
    assert knl["collision"] > 2.0
    assert knl["facet"] > bdw["facet"]
    assert bdw["distance"] > 1.0  # pure arithmetic still vectorises


# ---------------------------------------------------------------------------
# GPU model
# ---------------------------------------------------------------------------

def test_gpu_prediction_basics(csp_workload):
    p = predict_gpu(csp_workload, P100)
    assert 0.1 < p.seconds < 1000
    assert p.registers_per_thread == 79
    assert 0 < p.occupancy <= 1
    assert p.bound in ("latency", "bandwidth", "compute", "streaming")


def test_p100_beats_k20x(csp_workload):
    """§VII-E: 4.5× across the generation."""
    k = predict_gpu(csp_workload, K20X).seconds
    p = predict_gpu(csp_workload, P100).seconds
    assert 3.0 < k / p < 6.0


def test_register_cap_helps_kepler_not_pascal(csp_workload):
    """§VI-H vs §VII-E: capping to 64 registers speeds up the K20X ~1.6×
    but slightly hurts the P100."""
    k = predict_gpu(csp_workload, K20X).seconds
    k64 = predict_gpu(csp_workload, K20X, GPUOptions(max_registers=64)).seconds
    assert k / k64 > 1.25
    p = predict_gpu(csp_workload, P100).seconds
    p64 = predict_gpu(csp_workload, P100, GPUOptions(max_registers=64)).seconds
    assert p64 >= p


def test_forced_atomic_emulation_slows_p100(csp_workload):
    """§VIII-A: the native double atomicAdd is worth ~1.2×."""
    native = predict_gpu(csp_workload, P100).seconds
    emulated = predict_gpu(
        csp_workload, P100, GPUOptions(force_emulated_atomics=True)
    ).seconds
    assert 1.1 < emulated / native < 1.4


def test_gpu_oe_slower_and_higher_bandwidth(csp_workload):
    """Fig 12: OE is slower yet achieves much higher bandwidth."""
    op = predict_gpu(csp_workload, K20X)
    oe = predict_gpu(csp_workload, K20X, GPUOptions(scheme=Scheme.OVER_EVENTS))
    assert oe.seconds > op.seconds
    assert oe.achieved_bandwidth_gbs > 1.5 * op.achieved_bandwidth_gbs


def test_gpu_warp_coherence_reported(csp_workload):
    op = predict_gpu(csp_workload, K20X)
    assert 1 / 3 <= op.warp_coherence <= 1.0
    oe = predict_gpu(csp_workload, K20X, GPUOptions(scheme=Scheme.OVER_EVENTS))
    assert oe.warp_coherence == 1.0  # OE kernels are branch-uniform


def test_gpu_scatter_cheaper_per_event(scatter_workload, csp_workload):
    """Scatter touches far less random memory per event, so its per-event
    wall-clock is much lower than csp's on the same device."""
    def events(w):
        return w.nparticles * (w.collisions_pp + w.facets_pp + w.census_pp)

    sc = predict_gpu(scatter_workload, P100)
    cs = predict_gpu(csp_workload, P100)
    assert sc.seconds / events(scatter_workload) < (
        cs.seconds / events(csp_workload)
    )


# ---------------------------------------------------------------------------
# Efficiency helpers
# ---------------------------------------------------------------------------

def test_speedup_and_efficiency():
    assert speedup(10.0, 5.0) == pytest.approx(2.0)
    assert parallel_efficiency(10.0, 5.0, 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 1.0, 0)


def test_efficiency_series():
    times = {1: 10.0, 2: 5.0, 4: 3.0}
    eff = efficiency_series(times)
    assert eff[1] == pytest.approx(1.0)
    assert eff[2] == pytest.approx(1.0)
    assert eff[4] == pytest.approx(10.0 / 12.0)
    with pytest.raises(ValueError):
        efficiency_series({2: 5.0})
