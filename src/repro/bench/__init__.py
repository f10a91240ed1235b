"""Benchmark harness shared by the ``benchmarks/`` figure suite.

:mod:`repro.bench.runner` measures the reference workloads (real transport
at reduced scale, characterised and rescaled to the paper's problem sizes)
and caches them per process, so every figure bench prices the *same*
measured algorithm.  :mod:`repro.bench.reporting` renders the rows/series
each figure reports.

No timing lives here: ``perf/`` (``BENCHMARK.json``) is the one ruler
for where the time goes, and its committed output
``results/PERF_<n>.json`` is what the library reads back
(:func:`repro.perfmodel.load_perf_workload`).  The retired bench tier's
``results/BENCH_1..6.json`` stay as history; ``tests/test_bench_facts.py``
pins ``BENCH_6.json``'s exact facts.
"""

from repro.bench.runner import (
    DEVICE_BASELINES,
    PAPER_SCALE,
    measured_workload,
    paper_workload,
    standard_cpu_time,
    standard_gpu_time,
)
from repro.bench.reporting import format_table, format_series, print_header

__all__ = [
    "DEVICE_BASELINES",
    "PAPER_SCALE",
    "measured_workload",
    "paper_workload",
    "standard_cpu_time",
    "standard_gpu_time",
    "format_table",
    "format_series",
    "print_header",
]
