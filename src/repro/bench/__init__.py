"""Benchmark harness shared by the ``benchmarks/`` figure suite.

:mod:`repro.bench.runner` measures the reference workloads (real transport
at reduced scale, characterised and rescaled to the paper's problem sizes)
and caches them per process, so every figure bench prices the *same*
measured algorithm.  :mod:`repro.bench.reporting` renders the rows/series
each figure reports.

:mod:`repro.bench.registry` names and versions the measurements as
benchmark specs, :mod:`repro.bench.artifact` serialises a registry run
as a schema-validated ``BENCH_<n>.json``, and
:mod:`repro.bench.compare` diffs two artifacts with a noise-band
regression gate (the ``repro bench`` CLI and the CI ``bench-regression``
job drive all three).
"""

from repro.bench.artifact import (
    BenchArtifact,
    BenchSchemaError,
    bench_sequence_of,
    load_bench_artifact,
    next_bench_path,
    validate_bench_artifact,
)
from repro.bench.compare import (
    ComparisonReport,
    MetricDelta,
    compare_artifacts,
    hosts_match,
)
from repro.bench.registry import (
    REGISTRY,
    BenchResult,
    BenchSpec,
    BenchTimingError,
    MetricSpec,
    build_bench_artifact,
    run_bench,
    run_tier,
    specs_for_tier,
)
from repro.bench.runner import (
    DEVICE_BASELINES,
    PAPER_SCALE,
    AdaptiveCrossover,
    CeCrossover,
    KernelProfile,
    LiveOverhead,
    MeasuredSpeedup,
    RecoveryOverhead,
    ShardHandoff,
    measured_adaptive_crossover,
    measured_ce_crossover,
    measured_live_overhead,
    measured_recovery_overhead,
    measured_shard_handoff,
    measured_speedup,
    measured_workload,
    paper_workload,
    standard_cpu_time,
    standard_gpu_time,
)
from repro.bench.reporting import format_table, format_series, print_header

__all__ = [
    "BenchArtifact",
    "BenchResult",
    "BenchSchemaError",
    "BenchSpec",
    "BenchTimingError",
    "ComparisonReport",
    "MetricDelta",
    "MetricSpec",
    "REGISTRY",
    "bench_sequence_of",
    "build_bench_artifact",
    "compare_artifacts",
    "hosts_match",
    "load_bench_artifact",
    "next_bench_path",
    "run_bench",
    "run_tier",
    "specs_for_tier",
    "validate_bench_artifact",
    "DEVICE_BASELINES",
    "PAPER_SCALE",
    "AdaptiveCrossover",
    "CeCrossover",
    "KernelProfile",
    "LiveOverhead",
    "MeasuredSpeedup",
    "RecoveryOverhead",
    "ShardHandoff",
    "measured_adaptive_crossover",
    "measured_ce_crossover",
    "measured_live_overhead",
    "measured_recovery_overhead",
    "measured_shard_handoff",
    "measured_speedup",
    "measured_workload",
    "paper_workload",
    "standard_cpu_time",
    "standard_gpu_time",
    "format_table",
    "format_series",
    "print_header",
]
