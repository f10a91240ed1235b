"""compare.py's verdicts against a metric's bound."""

import io

from perf import compare, run as perf_run


def _row(samples):
    return perf_run.summarise(samples)


def test_verdicts():
    steady_a = _row([1.00, 1.01, 0.99, 1.02, 1.00])
    assert compare.verdict(steady_a, _row([1.04, 1.05, 1.03, 1.06, 1.05]),
                           "lower", 0.10)[0] == "no-worse"
    assert compare.verdict(steady_a, _row([1.20, 1.21, 1.19, 1.22, 1.20]),
                           "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady_a, _row([0.80, 0.81, 0.79, 0.82, 0.80]),
                           "lower", 0.10)[0] == "better"
    # "higher is better" flips the sign of the change.
    word, change = compare.verdict(steady_a, _row([1.20, 1.21, 1.19, 1.22, 1.20]),
                                   "higher", 0.10)
    assert word == "better" and change < 0
    # Spread wider than the bound and interleaving runs: cannot say.
    noisy = _row([0.8, 1.3, 1.0, 1.25, 0.85])
    assert compare.verdict(steady_a, noisy, "lower", 0.10)[0] == "unresolved"
    # ... unless every run of one side beats every run of the other.
    slow_noisy = _row([1.5, 2.2, 1.8, 2.4, 1.6])
    assert compare.verdict(steady_a, slow_noisy, "lower", 0.10)[0] == "worse"
    # A single value (peak_rss_mb) has no spread.
    assert compare.verdict({"value": 50.0, "n": 1}, {"value": 56.0, "n": 1},
                           "lower", 0.10)[0] == "worse"


def test_compare_exit_status_and_layer_ranking():
    manifest = perf_run.load_manifest()

    def results(wall, flush):
        end = {m["name"]: _row([1.0, 1.0, 1.0]) for m in manifest["end_to_end"]}
        end["wall_s"] = _row([wall, wall * 1.01, wall * 0.99])
        layers = {m["name"]: {"value": 0.1, "n": 1} for m in manifest["per_layer"]}
        layers["mesh.flush_s"] = {"value": flush, "n": 1}
        one = {"end_to_end": {"metrics": end, "facts": {"total_events": 5}},
               "per_layer": {"metrics": layers}}
        return {"workloads": {w["name"]: one for w in manifest["workloads"]}}

    same = io.StringIO()
    assert compare.compare(results(1.0, 0.2), results(1.0, 0.2), manifest, same) == 0
    assert "worse" not in same.getvalue().replace("no-worse", "")
    moved = io.StringIO()
    assert compare.compare(results(1.0, 0.2), results(1.5, 0.7), manifest, moved) == 1
    text = moved.getvalue()
    assert "wall_s" in text and "worse" in text
    # the layer that moved is ranked first
    ranking = text.split("per-layer self time")[1]
    assert ranking.split("csp_oe_mg")[1].split()[0] == "mesh.flush_s"
    # a workload one host was too small to run is neither worse nor compared
    small_host = results(1.0, 0.2)
    small_host["workloads"]["csp_pool2_mg"] = {"skipped": "1 processor"}
    skipped = io.StringIO()
    assert compare.compare(results(1.0, 0.2), small_host, manifest, skipped) == 0
    assert "csp_pool2_mg    skipped" in skipped.getvalue()
