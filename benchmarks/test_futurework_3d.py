"""§IV-C future work — does 3-D geometry change the performance character?

"While this is an important feature from a scientific perspective, we
hypothesise that it is less important from a computational perspective ...
We will extend the application in the future to support three-dimensional
... geometry, to validate our current assumptions."

This bench runs the 3-D extension next to the 2-D core and checks the
hypothesis at the level that matters to every conclusion in the paper: the
*per-event memory operations* and the *event-mix extremes* are unchanged —
the geometry moves constants (facet rate per metre of track), not the
algorithm's character (one random density read and one atomic flush per
facet; latency-bound random access).
"""

import numpy as np
import pytest

from repro.core import (
    Scheme,
    Simulation,
    scatter3_problem,
    scatter_problem,
    stream3_problem,
    stream_problem,
)


def _oe(cfg):
    return Simulation(cfg).run(Scheme.OVER_EVENTS)


@pytest.fixture(scope="module")
def runs():
    return {
        "2d-stream": _oe(stream_problem(nx=24, nparticles=40)),
        "2d-scatter": _oe(scatter_problem(nx=24, nparticles=40)),
        "3d-stream": _oe(stream3_problem(n=24, nparticles=40)),
        "3d-scatter": _oe(scatter3_problem(n=24, nparticles=40)),
    }


def test_futurework_3d_table(benchmark, runs):
    benchmark.pedantic(
        lambda: _oe(stream3_problem(n=16, nparticles=10)),
        rounds=1,
        iterations=1,
    )
    from repro.bench import format_table, print_header

    print_header("§IV-C validation — per-event character, 2-D vs 3-D")
    rows = []
    for name, r in runs.items():
        c = r.counters
        rows.append([
            name,
            c.mean_facets_per_particle(),
            c.mean_collisions_per_particle(),
            c.density_reads / max(c.facets, 1),
            c.tally_flushes / max(c.total_events, 1),
        ])
    print(format_table(
        ["run", "facets/p", "colls/p", "density reads/facet", "flushes/event"],
        rows,
    ))


def test_per_facet_memory_operations_identical(runs):
    """The hypothesis core: each facet costs one density read (interior
    crossings) and one tally flush, in 2-D and 3-D alike."""
    for name in ("2d-stream", "3d-stream"):
        c = runs[name].counters
        reads_per_facet = c.density_reads / c.facets
        assert 0.85 < reads_per_facet <= 1.0, name  # 1 minus reflections
        flushes_per_facet = c.tally_flushes / (c.facets + c.census_events)
        assert flushes_per_facet == pytest.approx(1.0, abs=0.01), name


def test_event_mix_extremes_reproduce(runs):
    """stream is facet-only and scatter collision-dominated in both
    dimensionalities."""
    assert runs["3d-stream"].counters.collisions == 0
    assert runs["2d-stream"].counters.collisions == 0
    for d in ("2d", "3d"):
        c = runs[f"{d}-scatter"].counters
        assert c.collisions > 5 * max(c.facets, 1), d


def test_facet_rate_scales_by_angular_mean_only(runs):
    """The only change in the facet rate is the isotropic mean of
    Σ|Ω_i|: 4/π in 2-D, 3/2 in 3-D — a constant, not a new behaviour."""
    f2 = runs["2d-stream"].counters.mean_facets_per_particle()
    f3 = runs["3d-stream"].counters.mean_facets_per_particle()
    expected_ratio = 1.5 / (4.0 / np.pi)
    assert f3 / f2 == pytest.approx(expected_ratio, rel=0.08)


def test_collision_physics_dimension_independent(runs):
    """Collisions per particle in the confined scatter problem depend on
    cross sections and cutoffs only — not on dimensionality."""
    c2 = runs["2d-scatter"].counters.mean_collisions_per_particle()
    c3 = runs["3d-scatter"].counters.mean_collisions_per_particle()
    assert c3 == pytest.approx(c2, rel=0.25)


def test_3d_schemes_agree_like_2d():
    """The scheme-equivalence property — the foundation of the paper's
    comparison — holds identically in 3-D."""
    cfg = stream3_problem(n=16, nparticles=20)
    a = Simulation(cfg).run(Scheme.OVER_PARTICLES)
    b = _oe(cfg)
    assert a.counters.facets == b.counters.facets
    assert np.allclose(a.tally.deposition, b.tally.deposition, rtol=1e-9)


if __name__ == "__main__":
    r = _oe(stream3_problem(n=24, nparticles=40))
    print("3d stream facets/particle:", r.counters.mean_facets_per_particle())
