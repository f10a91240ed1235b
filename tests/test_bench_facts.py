"""The exact facts of the committed ``results/BENCH_6.json``, re-measured.

The timed bench tier that recorded ``BENCH_6.json`` is retired: ``perf/``
measures where the time goes.  What that tier recorded exactly — counts
and byte sizes that reproduce bit for bit on any host — is pinned here.
Every expected value is read from the artifact, so the pin and the
history cannot drift apart: a change that moves one of these facts fails
here and must say so.

The artifact's parity facts are checked where their behaviour lives:
``adaptive_parity`` by ``tests/test_adaptive.py::
test_auto_bit_identical_serial_and_pooled``, ``ce_parity`` by
``tests/test_xs_provider.py::test_ce_scheme_parity``,
``ensemble_parity`` by ``tests/test_ensemble_parity.py::
test_serial_fused_matches_looped``, ``live_parity`` by
``tests/test_obs_live.py::test_serial_run_bit_identical_with_live_plane``,
``endpoint_ok`` by ``tests/test_obs_live.py::
test_serial_run_serves_while_stepping`` and ``states_identical`` by
``tests/test_pool_faults.py::test_kill_one_worker_mid_run_bit_identical``.
"""

import json
from pathlib import Path

import pytest

from repro.bench.runner import MEASUREMENT_NX, MEASUREMENT_PARTICLES
from repro.core import Scheme, Simulation, csp_problem
from repro.particles.arena import ParticleArena, shard_handle_nbytes

BASELINE = json.loads(
    (Path(__file__).resolve().parents[1] / "results" / "BENCH_6.json")
    .read_text()
)


def _median(bench: str, metric: str) -> float:
    return BASELINE["benches"][bench]["metrics"][metric]["median"]


@pytest.fixture(scope="module")
def csp_runs():
    """csp at the measurement scale (96² mesh, 60 histories), per scheme."""
    cfg = csp_problem(nx=MEASUREMENT_NX, nparticles=MEASUREMENT_PARTICLES)
    return {
        scheme: Simulation(cfg).run(scheme)
        for scheme in (Scheme.OVER_EVENTS, Scheme.OVER_PARTICLES)
    }


@pytest.mark.parametrize("bench, scheme", [
    ("oe_transport_csp", Scheme.OVER_EVENTS),
    ("op_transport_csp", Scheme.OVER_PARTICLES),
])
def test_transport_counts_equal_bench_6(csp_runs, bench, scheme):
    c = csp_runs[scheme].counters
    rows = c.kernel_profile.values()
    allocs, reuses = c.workspace_allocations, c.workspace_reuses
    measured = {
        "kernel_calls": sum(int(row[0]) for row in rows),
        "kernel_items": sum(int(row[1]) for row in rows),
        "workspace_allocations": allocs,
        "buffer_reuse_fraction": reuses / (allocs + reuses),
        "xs_lookups": c.xs_lookups,
    }
    assert measured == {m: _median(bench, m) for m in measured}


def test_arena_footprint_equals_bench_6(csp_runs):
    result = csp_runs[Scheme.OVER_EVENTS]
    assert result.counters.arena_nbytes == _median(
        "arena_footprint_csp", "arena_nbytes"
    )
    assert type(result.arena).bytes_per_particle() == _median(
        "arena_footprint_csp", "bytes_per_particle"
    )


def test_shard_handle_bytes_equal_bench_6():
    # The hand-off bench shipped the first of four shards of a
    # 4 × 60-history population as ``(shm_name, n_total, lo, hi)``.
    shared = ParticleArena(4 * MEASUREMENT_PARTICLES).to_shared()
    try:
        handle = (shared.shm_name, len(shared), 0, len(shared) // 4)
        assert shard_handle_nbytes(handle) == _median(
            "shard_handoff", "handle_bytes"
        )
    finally:
        shared.close(unlink=True)
