"""Workload characterisation and the scaling laws it relies on."""

import pytest

from repro.core import Scheme, Simulation, csp_problem, scatter_problem, stream_problem
from repro.perfmodel.workload import Workload


@pytest.fixture(scope="module")
def stream_results():
    return {
        nx: Simulation(stream_problem(nx=nx, nparticles=30)).run(Scheme.OVER_EVENTS)
        for nx in (48, 96)
    }


def test_from_result_rates(stream_results):
    r = stream_results[96]
    w = Workload.from_result(r)
    assert w.nparticles == 30
    assert w.mesh_nx == 96
    assert w.collisions_pp == r.counters.collisions / 30
    assert w.facets_pp == r.counters.facets / 30
    assert w.flushes_pp == r.counters.tally_flushes / 30
    assert sum(w.event_mix) == pytest.approx(1.0)


def test_facet_scaling_law_holds(stream_results):
    """facets/particle ∝ mesh resolution — the law scaled() relies on."""
    w48 = Workload.from_result(stream_results[48])
    w96 = Workload.from_result(stream_results[96])
    assert w96.facets_pp / w48.facets_pp == pytest.approx(2.0, rel=0.05)


def test_collision_scale_invariance():
    runs = {
        nx: Simulation(scatter_problem(nx=nx, nparticles=30)).run(Scheme.OVER_EVENTS)
        for nx in (48, 96)
    }
    w48 = Workload.from_result(runs[48])
    w96 = Workload.from_result(runs[96])
    assert w96.collisions_pp == pytest.approx(w48.collisions_pp, rel=0.01)


def test_scaled_predicts_measured_resolution(stream_results):
    """Scaling the 48² workload to 96² reproduces the measured 96² rates."""
    w48 = Workload.from_result(stream_results[48])
    w96 = Workload.from_result(stream_results[96])
    predicted = w48.scaled(30, 96)
    assert predicted.facets_pp == pytest.approx(w96.facets_pp, rel=0.05)
    assert predicted.density_reads_pp == pytest.approx(
        w96.density_reads_pp, rel=0.05
    )
    assert predicted.flushes_pp == pytest.approx(w96.flushes_pp, rel=0.05)


def test_scaled_to_paper_values(stream_results):
    """The paper's ≈7000 facets/particle at 4000² (§IV-B)."""
    w = Workload.from_result(stream_results[96]).scaled(1_000_000, 4000)
    assert 6500 < w.facets_pp < 7600
    assert w.nparticles == 1_000_000


def test_scatter_pass_count_nearly_scale_invariant():
    r = Simulation(scatter_problem(nx=96, nparticles=30)).run(Scheme.OVER_EVENTS)
    w = Workload.from_result(r)
    scaled = w.scaled(10_000_000, 4000)
    # collision-dominated: the pass count must NOT blow up by 4000/96.
    assert scaled.oe_passes < w.oe_passes * 3


def test_conflict_probability_scales_inverse_cells():
    r = Simulation(scatter_problem(nx=96, nparticles=30)).run(Scheme.OVER_EVENTS)
    w = Workload.from_result(r)
    scaled = w.scaled(30, 192)
    assert scaled.conflict_probability == pytest.approx(
        w.conflict_probability / 4.0
    )


def test_work_distribution_resampling(stream_results):
    w = Workload.from_result(stream_results[48])
    d = w.work_distribution(1000)
    assert d.shape == (1000,)
    assert d.mean() == pytest.approx(w.work_samples.mean(), rel=0.05)
    short = w.work_distribution(10)
    assert short.shape == (10,)


def test_mesh_bytes(stream_results):
    w = Workload.from_result(stream_results[48])
    assert w.mesh_bytes() == 48 * 48 * 8


def test_warp_event_coherence_range(stream_results):
    w = Workload.from_result(stream_results[48])
    assert 1.0 / 3.0 <= w.warp_event_coherence() <= 1.0
    # Stream is nearly all facets → high coherence.
    assert w.warp_event_coherence() > 0.9


def test_csp_coherence_lower_than_stream(stream_results):
    """Mixed event problems diverge more on the GPU."""
    rc = Simulation(csp_problem(nx=96, nparticles=30)).run(Scheme.OVER_EVENTS)
    wc = Workload.from_result(rc)
    ws = Workload.from_result(stream_results[96])
    assert wc.warp_event_coherence() <= ws.warp_event_coherence()


def test_scaled_validation(stream_results):
    w = Workload.from_result(stream_results[48])
    with pytest.raises(ValueError):
        w.scaled(0, 100)
    with pytest.raises(ValueError):
        w.scaled(100, 0)


def test_workload_from_3d_result():
    """3-D runs characterise into the same dimension-agnostic Workload the
    machine models consume (working set = cell count, rates per particle)."""
    from repro.volume import csp3_problem, run_over_events_3d
    from repro.machine import BROADWELL
    from repro.perfmodel import CPUOptions, predict_cpu

    r = run_over_events_3d(csp3_problem(n=16, nparticles=20))
    w = Workload.from_result(r)
    assert w.nparticles == 20
    assert w.mesh_bytes() == pytest.approx(16**3 * 8, rel=0.15)
    assert w.facets_pp == r.counters.facets / 20
    # the models accept it unchanged
    p = predict_cpu(w.scaled(1_000_000, 4000), BROADWELL, CPUOptions(nthreads=88))
    assert p.seconds > 0
    assert p.bound in ("latency", "bandwidth", "compute")
