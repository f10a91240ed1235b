"""Compare two ``results.json`` files of ``perf/run.py``: A is the parent,
B the change.

    python3 perf/compare.py A/results.json B/results.json

One row per (workload, end-to-end metric) with a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``no-worse`` — it does not;
* ``unresolved`` — the run-to-run quartile spread of either side is wider
  than the bound and the two sides' runs interleave, so neither of the
  above can be said.

Then the exact counts that changed, and per workload the per-layer
timings ranked by how much they moved, so "which layer moved" is answered
from the two files alone.  Exit status 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a file: ``perf`` itself is not importable
    sys.path.insert(0, ROOT)

from perf import layers  # noqa: E402

TOP_LAYERS = 8


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _spread(row: dict) -> float:
    """Quartile distance as a share of the median (0 for a single value)."""
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def _interleave(a: dict, b: dict) -> bool:
    sa, sb = a.get("samples", [a["value"]]), b.get("samples", [b["value"]])
    return not (max(sa) < min(sb) or max(sb) < min(sa))


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """The row's verdict and B's change as a share of A's median, signed
    so that positive is worse."""
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        change = -change
    if max(_spread(a), _spread(b)) > bound and _interleave(a, b):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "no-worse", change


def compare(a: dict, b: dict, manifest: dict, out=sys.stdout) -> int:
    worse = 0
    print(f"{'workload':<15} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'change':>8} {'bound':>6}  verdict", file=out)
    for entry in manifest["workloads"]:
        name = entry["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            print(f"{name:<15} missing from one side", file=out)
            worse += 1
            continue
        if "skipped" in a["workloads"][name] or "skipped" in b["workloads"][name]:
            print(f"{name:<15} skipped on one side (too few processors)",
                  file=out)
            continue
        ma = a["workloads"][name]["end_to_end"]["metrics"]
        mb = b["workloads"][name]["end_to_end"]["metrics"]
        for metric in manifest["end_to_end"]:
            ra, rb = ma[metric["name"]], mb[metric["name"]]
            word, change = verdict(ra, rb, metric["better"], metric["bound"])
            worse += word == "worse"
            print(f"{name:<15} {metric['name']:<14} {ra['value']:>12.5g} "
                  f"{rb['value']:>12.5g} {change:>+8.1%} "
                  f"{metric['bound']:>6.2f}  {word}", file=out)

    print("\nexact counts (must repeat when the program did not change):",
          file=out)
    for name in (w["name"] for w in manifest["workloads"]):
        fa = a["workloads"].get(name, {}).get("end_to_end", {}).get("facts")
        fb = b["workloads"].get(name, {}).get("end_to_end", {}).get("facts")
        if not fa or not fb:
            continue
        changed = [f"{k}: {fa[k]} -> {fb[k]}" for k in sorted(fa)
                   if isinstance(fa[k], (int, str)) and fa[k] != fb.get(k)]
        print(f"  {name:<15} " + ("identical" if not changed
                                  else "CHANGED " + "; ".join(changed)),
              file=out)

    # The traced run's self-time ledger: the layers of one run, which sum
    # to its root span (drills and the tracer's own numbers are left out).
    seconds = [row.name for row in layers.LAYERS
               if row.unit == "s" and row.source == "T"
               and not row.name.startswith("trace.")]
    print("\nper-layer self time that moved most (B - A):", file=out)
    for name in (w["name"] for w in manifest["workloads"]):
        la = a["workloads"].get(name, {}).get("per_layer", {}).get("metrics", {})
        lb = b["workloads"].get(name, {}).get("per_layer", {}).get("metrics", {})
        deltas = sorted(
            ((lb[m]["value"] - la[m]["value"], m) for m in seconds
             if m in la and m in lb),
            key=lambda row: -abs(row[0]))[:TOP_LAYERS]
        print(f"  {name}", file=out)
        for delta, metric in deltas:
            base = la[metric]["value"]
            share = f"{delta / base:+.1%}" if base else "n/a"
            print(f"    {metric:<38} {delta:>+12.6f} s  ({share} of A's "
                  f"{base:.6f} s)", file=out)
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = _load(os.path.join(ROOT, "BENCHMARK.json"))
    return compare(_load(argv[0]), _load(argv[1]), manifest)


if __name__ == "__main__":
    sys.exit(main())
