"""Every committed trajectory artifact ``results/PERF_<n>.json`` — the
``results.json`` of one full ``python3 perf/run.py --seed 7`` — ran clean,
carries every metric ``BENCHMARK.json`` declares, and reproduces the
pinned facts of ``perf/golden.json``.

The fingerprints and event totals depend on numpy's ``log`` / ``exp``
bits, which differ between SIMD dispatch levels, so they are compared
only where the artifact's recorded ``host.numpy_simd`` is this host's.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = sorted((ROOT / "results").glob("PERF_*.json"))
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((ROOT / "perf" / "golden.json").read_text())


def _host_simd() -> dict:
    """numpy's baseline features and the dispatched ones this host enables,
    in the form ``host.numpy_simd`` records them."""
    from numpy._core import _multiarray_umath as umath

    return {
        "baseline": list(umath.__cpu_baseline__),
        "dispatch": [f for f in umath.__cpu_dispatch__
                     if umath.__cpu_features__.get(f)],
    }


def test_a_trajectory_artifact_is_committed():
    assert ARTIFACTS, "no results/PERF_<n>.json"


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_artifact_ran_clean_and_declares_every_metric(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in MANIFEST["workloads"])
    for name, section in workloads.items():
        for part in ("end_to_end", "per_layer"):
            assert section[part]["failed"] == 0, (name, part)
        for part, declared in (("end_to_end", MANIFEST["end_to_end"]),
                               ("per_layer", MANIFEST["per_layer"])):
            missing = [m["name"] for m in declared
                       if m["name"] not in section[part]["metrics"]]
            assert not missing, (name, part, missing)


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_artifact_facts_equal_goldens(path):
    doc = json.loads(path.read_text())
    recorded, here = doc["host"]["numpy_simd"], _host_simd()
    for level in ("baseline", "dispatch"):
        if recorded[level] != here[level]:
            pytest.skip(f"numpy SIMD {level} differs: recorded "
                        f"{recorded[level]}, this host {here[level]}")
    for name, section in doc["workloads"].items():
        facts = section["end_to_end"]["facts"]
        assert {key: facts[key] for key in GOLDEN[name]} == GOLDEN[name], name
