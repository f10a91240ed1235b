"""The correctness gate behind ``failed``: what every run must satisfy.

Per run: the energy ledger closes to 1e-9 and every history is accounted
for.  Across the runs of one workload: the physics is bit-deterministic
per seed, so fingerprint, tally and every exact count must repeat.
Against the workload's untimed reference run (valid for any seed): the
pooled run reproduces the serial population; the Over Particles run
reproduces Over Events; replica 0 of the fused ensemble reproduces its
stand-alone run.  At the default seed and full scale the fingerprint and
event count are additionally pinned in golden.json.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.core import TransportResult, energy_balance_error, population_accounted
from repro.ensemble import population_fingerprint
from repro.ensemble.volume import population_fingerprint_3d
from repro.volume import energy_balance_error_3d, population_accounted_3d

BALANCE_TOL = 1e-9
TALLY_RTOL = 1e-12
GOLDEN_SEED = 7
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Counts that must repeat exactly from run to run of one workload.
EXACT_COUNTS = ("total_events", "kernel_calls", "kernel_items",
                "xs_lookups", "rng_draws")


def _replica_results(result):
    """A fused ensemble result as one TransportResult per member, so the
    2-D validators apply to each replica's own books."""
    return [
        TransportResult(config=r.config, scheme=result.scheme, tally=r.tally,
                        counters=r.counters, arena=r.arena, wallclock_s=0.0)
        for r in result.replicas
    ]


def run_facts(result, dim: int = 2) -> dict:
    """The checkable facts of one run, as plain JSON-able values."""
    counters = result.counters
    profile = counters.kernel_profile
    if dim == 3:
        fingerprint = population_fingerprint_3d(result.arena)
        balance = energy_balance_error_3d(result)
        accounted = population_accounted_3d(result)
    elif hasattr(result, "replicas"):
        parts = _replica_results(result)
        fingerprint = hashlib.sha256("".join(
            population_fingerprint(p.arena) for p in parts
        ).encode()).hexdigest()
        balance = max(energy_balance_error(p) for p in parts)
        accounted = all(population_accounted(p) for p in parts)
    else:
        fingerprint = population_fingerprint(result.arena)
        balance = energy_balance_error(result)
        accounted = population_accounted(result)
    facts = {
        "fingerprint": fingerprint,
        "balance_error": float(balance),
        "accounted": bool(accounted),
        "tally_total": float(result.tally.total()),
        "total_events": int(counters.total_events),
        "kernel_calls": int(sum(row[0] for row in profile.values())),
        "kernel_items": int(sum(row[1] for row in profile.values())),
        "xs_lookups": int(counters.xs_lookups),
        "rng_draws": int(counters.rng_draws),
    }
    pool = getattr(result, "pool", None)
    if pool is not None:
        facts["pool_retries"] = int(pool.retries)
        facts["pool_workers_lost"] = int(pool.workers_lost)
    return facts


def check_run(facts: dict) -> list[str]:
    """Failures of one run on its own (empty when it passes)."""
    problems = []
    if not facts["balance_error"] <= BALANCE_TOL:
        problems.append(
            f"energy balance error {facts['balance_error']:.3e} > {BALANCE_TOL}"
        )
    if not facts["accounted"]:
        problems.append("population not accounted for")
    if facts["total_events"] < 1:
        problems.append("run executed no events")
    for key in ("pool_retries", "pool_workers_lost"):
        if facts.get(key, 0):
            problems.append(f"{key} = {facts[key]} (must be 0)")
    return problems


def _tally_differs(a: dict, b: dict) -> bool:
    scale = max(abs(a["tally_total"]), abs(b["tally_total"]))
    return abs(a["tally_total"] - b["tally_total"]) > TALLY_RTOL * scale


def check_repeat(first: dict, other: dict) -> list[str]:
    """Failures of ``other`` as a repeat of ``first`` (same workload, same
    seed): everything deterministic must be identical."""
    problems = [
        f"{key} changed between repeats: {first[key]} -> {other[key]}"
        for key in ("fingerprint",) + EXACT_COUNTS
        if first[key] != other[key]
    ]
    if _tally_differs(first, other):
        problems.append("tally total changed between repeats")
    return problems


def check_reference(workload: str, facts: dict, reference: dict) -> list[str]:
    """Failures of a workload's run against its untimed reference run."""
    # A fused ensemble's reference is replica 0 run stand-alone; compare
    # it with replica 0 of the fused run, carried in ``facts["replica0"]``.
    facts = facts.get("replica0", facts)
    problems = []
    if facts["fingerprint"] != reference["fingerprint"]:
        problems.append(f"{workload}: fingerprint differs from its reference run")
    if facts["total_events"] != reference["total_events"]:
        problems.append(
            f"{workload}: total_events {facts['total_events']} != reference "
            f"{reference['total_events']}"
        )
    if _tally_differs(facts, reference):
        problems.append(f"{workload}: tally differs from its reference run")
    return problems


def replica0_facts(result) -> dict:
    """Replica 0 of a fused ensemble result, in :func:`run_facts` form."""
    return run_facts(_replica_results(result)[0])


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_golden(workload: str, seed: int, scale: str, facts: dict) -> list[str]:
    """At the default seed and full scale, the pinned fingerprint and
    event count (no-op for any other seed or scale)."""
    if seed != GOLDEN_SEED or scale != "full":
        return []
    want = load_golden()[workload]
    return [
        f"{workload}: {key} {facts[key]!r} != golden {want[key]!r}"
        for key in ("fingerprint", "total_events")
        if facts[key] != want[key]
    ]
