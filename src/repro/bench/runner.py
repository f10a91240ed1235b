"""Workload measurement and standard model evaluations for the benches.

Every figure bench follows the same pipeline (DESIGN.md §4):

1. run the real transport at reduced scale (96² mesh, 60 histories) and
   characterise it — cached per process, one run per problem;
2. rescale to the paper's sizes (4000² mesh; 10⁶ histories for stream/csp,
   10⁷ for scatter);
3. evaluate the machine models under the experiment's options.

``standard_cpu_time``/``standard_gpu_time`` encode the paper's baseline
configuration per device (thread counts, affinities, memory choice) so the
figure benches stay declarative.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.core import PROBLEM_FACTORIES, Scheme, Simulation
from repro.core.config import Layout
from repro.machine import CPUS, GPUS
from repro.parallel.affinity import Affinity
from repro.perfmodel import (
    CPUOptions,
    GPUOptions,
    Workload,
    predict_cpu,
    predict_gpu,
)

__all__ = [
    "PAPER_SCALE",
    "MEASUREMENT_NX",
    "MEASUREMENT_PARTICLES",
    "DEVICE_BASELINES",
    "measured_workload",
    "paper_workload",
    "standard_cpu_time",
    "standard_gpu_time",
]

#: Paper-scale targets per problem: (nparticles, mesh_nx) — §IV-B.
PAPER_SCALE = {
    "stream": (1_000_000, 4000),
    "scatter": (10_000_000, 4000),
    "csp": (1_000_000, 4000),
}

#: Reduced scale at which the real transport is measured.
MEASUREMENT_NX = 96
MEASUREMENT_PARTICLES = 60

#: Per-device baseline run configuration used across figures:
#: (nthreads, affinity, use_fast_memory).  Broadwell runs 88 threads
#: compact (§VII-A); KNL 256 threads scattered (§VII-B) from MCDRAM;
#: POWER8 160 threads spread (§VII-C).
DEVICE_BASELINES = {
    "broadwell": (88, Affinity.COMPACT, False),
    "knl": (256, Affinity.SCATTER, True),
    "power8": (160, Affinity.SCATTER, False),
}


@lru_cache(maxsize=None)
def _measured_workload_cached(problem: str) -> Workload:
    if problem not in PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {problem!r}")
    cfg = PROBLEM_FACTORIES[problem](
        nx=MEASUREMENT_NX, nparticles=MEASUREMENT_PARTICLES
    )
    result = Simulation(cfg).run(Scheme.OVER_EVENTS)
    return Workload.from_result(result)


def _workload_copy(w: Workload) -> Workload:
    # The cache hands the same Workload to every caller, and its
    # work_samples array is writable — one bench scaling it in place
    # would poison every later bench in the process.
    return replace(w, work_samples=w.work_samples.copy())


def measured_workload(problem: str) -> Workload:
    """Characterise one real reduced-scale transport run.

    The underlying transport is cached per process (one run per
    problem); every call returns a defensive copy, so mutating the
    returned record cannot leak into other callers.
    """
    return _workload_copy(_measured_workload_cached(problem))


@lru_cache(maxsize=None)
def _paper_workload_cached(problem: str) -> Workload:
    nparticles, nx = PAPER_SCALE[problem]
    return _measured_workload_cached(problem).scaled(nparticles, nx)


def paper_workload(problem: str) -> Workload:
    """The measured workload rescaled to the paper's problem size
    (cached transport, defensive copy per call)."""
    return _workload_copy(_paper_workload_cached(problem))


def standard_cpu_time(
    problem: str,
    machine: str,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    **option_overrides,
):
    """Predict seconds for a problem on a CPU under its baseline config.

    Returns the full :class:`repro.perfmodel.cpu_model.CPUPrediction`.
    """
    spec = CPUS[machine]
    nthreads, affinity, fast = DEVICE_BASELINES[machine]
    layout = Layout.SOA if scheme is Scheme.OVER_EVENTS else Layout.AOS
    opts = dict(
        nthreads=nthreads,
        scheme=scheme,
        layout=layout,
        affinity=affinity,
        use_fast_memory=fast,
    )
    opts.update(option_overrides)
    return predict_cpu(paper_workload(problem), spec, CPUOptions(**opts))


def standard_gpu_time(
    problem: str,
    machine: str,
    scheme: Scheme = Scheme.OVER_PARTICLES,
    **option_overrides,
):
    """Predict seconds for a problem on a GPU; returns the prediction."""
    spec = GPUS[machine]
    return predict_gpu(
        paper_workload(problem),
        spec,
        GPUOptions(scheme=scheme, **option_overrides),
    )
