"""The benchmark's workloads: frozen sizes, config builders, the public
entry call each one times, and the call sites its traced run wraps.

Sizes were calibrated once on the 2-core reference host so that one timed
run lasts a little over 3 s (three of them fill the driver's 10 s of
measuring) and are frozen here; ``scale="smoke"`` divides the history
counts by 50 for the warm-up run and the schema tests.  The seed is the
only thing a run varies: it lands in ``SimulationConfig.seed`` (the
ensemble's base seed), and the program sees nothing but the built config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import (
    Scheme,
    Simulation,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.ensemble import EnsembleSpec, run_ensemble
from repro.parallel.schedule import ScheduleKind
from repro.volume import csp3_problem, run_over_events_3d

NX = 256
NX_3D = 48
POOL_WORKERS = 2
SMOKE_DIVISOR = 50

#: Histories per timestep (per replica for the ensemble) and timesteps.
SIZES = {
    "csp_oe_mg": (11000, 2),
    "csp_op_mg": (800, 2),
    "stream_oe_mg": (10500, 2),
    "scatter_oe_ce": (60000, 1),
    "csp_ens16_mg": (520, 2),  # x 16 replicas
    # Twice csp_oe_mg, so each of the two static shards is one csp_oe_mg
    # population and the pooled run, too, lasts over 3 s.
    "csp_pool2_mg": (22000, 2),
    "csp3d_oe_mg": (100000, 1),
}
ENSEMBLE_REPLICAS = 16

_KERNELS_2D = ("distances", "select_events", "collide", "cross_facet",
               "census")
_LAYERS_2D = ("dispatch.run", "tally.flush_vec", "xs.macroscopic_into",
              "rng.next_uniform")


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    ``build(seed, nparticles, ntimesteps)`` makes the program's input;
    ``entry(inputs, recorder)`` is the public call that is timed and is the
    traced run's root span; ``reference(inputs)`` is an untimed run whose
    fingerprint the timed runs must reproduce (see check.py); ``points``
    are the trace.py call sites wrapped on this workload, every one of
    which must be hit; ``root_metric`` names the layer that owns the root
    span's self time; ``nworkers`` is how many processes the entry call
    keeps busy (a host with fewer processors skips the workload).
    """

    name: str
    build: Callable
    entry: Callable
    points: tuple
    root_metric: str = "core.self_s"
    reference: Callable | None = None
    dim: int = 2
    nworkers: int = 1


def _kernels(*names):
    return tuple("kernel:" + n for n in names)


def _csp(seed, nparticles, ntimesteps, **overrides):
    return csp_problem(nx=NX, nparticles=nparticles, ntimesteps=ntimesteps,
                       seed=seed, **overrides)


def _run_oe(cfg, recorder=None):
    return Simulation(cfg).run(Scheme.OVER_EVENTS, recorder=recorder)


def _run_op(cfg, recorder=None):
    return Simulation(cfg).run(Scheme.OVER_PARTICLES, recorder=recorder)


def _run_pool(cfg, recorder=None):
    return Simulation(cfg).run(
        Scheme.OVER_EVENTS, nworkers=POOL_WORKERS,
        schedule=ScheduleKind.STATIC, recorder=recorder,
    )


def _build_ensemble(seed, nparticles, ntimesteps):
    return EnsembleSpec(_csp(seed, nparticles, ntimesteps), ENSEMBLE_REPLICAS)


def _run_ensemble(spec, recorder=None):
    return run_ensemble(spec, Scheme.OVER_EVENTS, recorder=recorder)


def _run_replica0(spec, recorder=None):
    return _run_oe(spec.members()[0], recorder)


def serial_equivalent(spec):
    """The single serial config with the ensemble's total histories — the
    denominator of ``ensemble.fused_over_serial``."""
    return spec.base.with_(nparticles=spec.base.nparticles * spec.nreplicas)


WORKLOADS = {w.name: w for w in (
    Workload(
        "csp_oe_mg", _csp, _run_oe,
        _kernels(*_KERNELS_2D, "xs_lookup") + _LAYERS_2D
        + ("xs.mg_lookup", "source@stepper"),
    ),
    Workload(
        "csp_op_mg",
        lambda seed, n, steps: _csp(seed, n, steps, op_block_size=64),
        _run_op,
        _kernels(*_KERNELS_2D, "xs_lookup") + _LAYERS_2D
        + ("xs.mg_lookup", "source@stepper"),
        reference=_run_oe,
    ),
    Workload(
        "stream_oe_mg",
        lambda seed, n, steps: stream_problem(
            nx=NX, nparticles=n, ntimesteps=steps, seed=seed),
        _run_oe,
        # Near-vacuum everywhere: no collision is ever sampled.
        _kernels("distances", "select_events", "cross_facet", "census",
                 "xs_lookup") + _LAYERS_2D
        + ("xs.mg_lookup", "source@stepper"),
    ),
    Workload(
        "scatter_oe_ce",
        lambda seed, n, steps: scatter_problem(
            nx=NX, nparticles=n, ntimesteps=steps, seed=seed, xs_mode="ce"),
        _run_oe,
        # Every history dies below the energy cutoff long before census.
        _kernels("distances", "select_events", "collide", "cross_facet",
                 "xs_lookup_ce") + _LAYERS_2D
        + ("xs.ce_lookup", "source@stepper"),
    ),
    Workload(
        "csp_ens16_mg", _build_ensemble, _run_ensemble,
        _kernels(*_KERNELS_2D, "xs_lookup") + _LAYERS_2D
        + ("xs.mg_lookup", "source@ensemble", "arena.fuse"),
        reference=_run_replica0,
    ),
    Workload(
        "csp_pool2_mg", _csp, _run_pool,
        # Workers are not traced from inside: only the parent's call sites.
        ("source@pool", "arena.to_shared"),
        root_metric="parallel.parent_self_s",
        reference=_run_oe,
        nworkers=POOL_WORKERS,
    ),
    Workload(
        "csp3d_oe_mg",
        lambda seed, n, steps: csp3_problem(
            n=NX_3D, nparticles=n, ntimesteps=steps, seed=seed),
        lambda cfg, recorder=None: run_over_events_3d(cfg, recorder),
        _kernels("facet_distances_3d", "select_events", "collide_3d",
                 "cross_facet_3d", "xs_lookup")
        + ("dispatch.run", "tally3.flush_vec", "xs.mg_lookup",
           "rng.next_uniform", "source@volume"),
        root_metric="volume.self_s",
        dim=3,
    ),
)}


def build(name: str, seed: int, scale: str = "full"):
    """The input of workload ``name`` for ``seed`` at ``scale``."""
    nparticles, ntimesteps = SIZES[name]
    if scale == "smoke":
        nparticles = max(nparticles // SMOKE_DIVISOR, 8)
    elif scale != "full":
        raise ValueError(f"unknown scale {scale!r} (full or smoke)")
    return WORKLOADS[name].build(seed, nparticles, ntimesteps)
