"""Performance model: measured algorithm counters × machine specs → runtime.

This package is the quantitative substitute for the paper's testbed.  The
pipeline for every figure is the same:

1. run the *real* transport (reduced scale) and collect
   :class:`repro.core.counters.Counters`;
2. summarise them into a scale-free :class:`repro.perfmodel.workload.Workload`
   and rescale to the paper's problem sizes (4000² mesh, 10⁶–10⁷
   particles) using the validated scaling laws (facet crossings ∝ mesh
   resolution; collisions scale-invariant);
3. evaluate :func:`repro.perfmodel.cpu_model.predict_cpu` or
   :func:`repro.perfmodel.gpu_model.predict_gpu` against a
   :mod:`repro.machine` spec under the experiment's options (threads,
   affinity, schedule, layout, tally mode, vectorisation, MCDRAM,
   register caps).

The model's constants live in :mod:`repro.perfmodel.costs` with their
provenance documented; the same constants generate every figure.
"""

from repro.perfmodel.workload import Workload
from repro.perfmodel.costs import ModelConstants, DEFAULT_CONSTANTS
from repro.perfmodel.memory import random_access_latency_cycles, effective_cache_levels
from repro.perfmodel.cpu_model import (
    CPUOptions,
    CPUPrediction,
    DataPlacement,
    TallyMode,
    predict_cpu,
)
from repro.perfmodel.gpu_model import GPUOptions, GPUPrediction, predict_gpu
from repro.perfmodel.efficiency import parallel_efficiency, speedup
from repro.perfmodel.recalibrate import (
    PERF_WORKLOAD,
    CalibrationReport,
    KernelFit,
    load_perf_workload,
    recalibrate_constants,
    recalibrate_from_artifact,
)

__all__ = [
    "CalibrationReport",
    "KernelFit",
    "PERF_WORKLOAD",
    "load_perf_workload",
    "recalibrate_constants",
    "recalibrate_from_artifact",
    "Workload",
    "ModelConstants",
    "DEFAULT_CONSTANTS",
    "random_access_latency_cycles",
    "effective_cache_levels",
    "CPUOptions",
    "CPUPrediction",
    "DataPlacement",
    "TallyMode",
    "predict_cpu",
    "GPUOptions",
    "GPUPrediction",
    "predict_gpu",
    "parallel_efficiency",
    "speedup",
]
