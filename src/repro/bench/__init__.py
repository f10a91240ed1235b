"""Benchmark harness shared by the ``benchmarks/`` figure suite.

:mod:`repro.bench.runner` measures the reference workloads (real transport
at reduced scale, characterised and rescaled to the paper's problem sizes)
and caches them per process, so every figure bench prices the *same*
measured algorithm.  :mod:`repro.bench.reporting` renders the rows/series
each figure reports.

:mod:`repro.bench.artifact` loads and validates the committed
``results/BENCH_<n>.json`` artifacts, which the machine-model
recalibration, the capacity planner and the live drift band read.  The
timed bench tier that wrote them is retired: ``perf/`` (``BENCHMARK.json``)
is the one ruler for where the time goes, and the artifacts' exact facts
are pinned by ``tests/test_bench_facts.py``.
"""

from repro.bench.artifact import (
    BenchArtifact,
    BenchSchemaError,
    load_bench_artifact,
    validate_bench_artifact,
)
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
    "BenchArtifact",
    "BenchSchemaError",
    "load_bench_artifact",
    "validate_bench_artifact",
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
