"""Layer drills: fixed-input calls into one layer's public functions.

A drill answers "what does this layer cost by itself" without a transport
run around it, so a change to one layer can be read off one number and
then looked for in the workloads the README's interaction map names.
Every drill reports the median and the 90th percentile of its timed
calls.  Cheap calls are timed ``CALLS`` times; the few that take tens of
milliseconds (cold provider builds, 10⁵-history source emission and
sort) ``SLOW_CALLS`` times, so the whole phase stays within a few
seconds of each ``--trace 1`` invocation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import Scheme, Simulation, csp_problem
from repro.kernels import Workspace
from repro.kernels.dispatch import KERNEL_TABLE
from repro.mesh.structured import StructuredMesh
from repro.mesh.tally import EnergyDepositionTally
from repro.particles.arena import EnsembleArena, ParticleArena
from repro.particles.source import sample_source
from repro.rng.threefry import threefry2x64_vec
from repro.xs.ce import default_ce_materials
from repro.xs.provider import resolve_provider

from perf.workloads import NX

CALLS = 30
SLOW_CALLS = 10
HISTORIES = 100_000
BATCHES = (64, 16384)
DRILLED_KERNELS = ("distances", "collide", "cross_facet")

_clock = time.perf_counter


def _timed(fn, calls: int = CALLS, prepare=None, release=None) -> list[float]:
    """Seconds of ``calls`` calls of ``fn``.  Untimed around each call:
    ``prepare()`` makes a fresh argument for a function that consumes its
    input, ``release(result)`` frees what the call acquired."""
    samples = []
    for _ in range(calls):
        args = () if prepare is None else (prepare(),)
        t0 = _clock()
        result = fn(*args)
        samples.append(_clock() - t0)
        if release is not None:
            release(result)
    return samples


def _stat(samples, scale: float = 1.0) -> dict:
    """Median and p90 of ``samples`` × ``scale``."""
    ordered = sorted(samples)
    p90 = ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]
    return {"value": statistics.median(ordered) * scale, "p90": p90 * scale,
            "n": len(ordered)}


def _per_item_ns(samples, items: int) -> dict:
    return _stat(samples, 1e9 / items)


# -- kernels ----------------------------------------------------------------
def capture_kernel_inputs(seed: int) -> dict:
    """The arguments of each drilled kernel's widest call in a real csp
    Over Events pass, copied at the call."""
    captured: dict = {}

    def capturing(name, fn):
        def wrapper(*args, **kwargs):
            width = max(a.shape[0] for a in args
                        if isinstance(a, np.ndarray) and a.ndim)
            if width > captured.get(name, (0,))[0]:
                captured[name] = (width, [
                    a.copy() if isinstance(a, np.ndarray) else a for a in args
                ], dict(kwargs))
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: KERNEL_TABLE[name] for name in DRILLED_KERNELS}
    try:
        for name, fn in originals.items():
            KERNEL_TABLE[name] = capturing(name, fn)
        Simulation(csp_problem(nx=NX, nparticles=2048, seed=seed)).run(
            Scheme.OVER_EVENTS)
    finally:
        KERNEL_TABLE.update(originals)
    return captured


def _at_batch(captured, batch: int):
    """Captured arguments cycled to ``batch`` lanes (a fresh Workspace in
    place of the captured one)."""
    width, args, kwargs = captured

    def fit(a):
        if isinstance(a, Workspace):
            return Workspace()
        if isinstance(a, np.ndarray) and a.shape[0] == width:
            return np.resize(a, batch)
        return a

    return [fit(a) for a in args], {k: fit(v) for k, v in kwargs.items()}


def drill_kernels(seed: int) -> dict:
    out = {}
    for name, captured in capture_kernel_inputs(seed).items():
        for batch in BATCHES:
            args, kwargs = _at_batch(captured, batch)
            fn = KERNEL_TABLE[name]
            out[f"kernels.{name}.ns_per_item_b{batch}"] = _per_item_ns(
                _timed(lambda: fn(*args, **kwargs)), batch)
    return out


# -- xs -----------------------------------------------------------------------
def drill_xs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    energies = 10.0 ** rng.uniform(0.0, 6.0, BATCHES[-1])
    mg_cfg = csp_problem(nx=NX, nparticles=1, seed=seed)
    ce_cfg = mg_cfg.with_(xs_mode="ce")

    # A CE library the process has not seen yet on every call: the public
    # generator memoises by seed, so a fresh seed is a cold build.
    library_seeds = iter(range(10_000 + seed, 10_000 + seed + SLOW_CALLS))

    def cold_ce_build():
        mats = default_ce_materials(1, ce_cfg.xs_nentries,
                                    seed=next(library_seeds))
        return resolve_provider("ce", ce_materials=mats)

    out = {
        "xs.mg_build_s": _stat(_timed(mg_cfg.resolved_provider, SLOW_CALLS)),
        "xs.ce_build_s": _stat(_timed(cold_ce_build, SLOW_CALLS)),
    }
    for key, cfg in (("mg", mg_cfg), ("ce", ce_cfg)):
        provider = cfg.resolved_provider()
        out[f"xs.{key}_lookup.ns_per_item"] = _per_item_ns(
            _timed(lambda: provider.lookup(0, energies)), energies.shape[0])
    return out


# -- particles ----------------------------------------------------------------
def drill_particles(seed: int) -> dict:
    cfg = csp_problem(nx=NX, nparticles=HISTORIES, seed=seed)
    mesh = StructuredMesh(cfg.nx, cfg.ny, cfg.width, cfg.height, cfg.density)
    provider = cfg.resolved_provider()

    def emit(n=HISTORIES):
        return sample_source(mesh, cfg.source, n, cfg.seed, cfg.dt,
                             provider=provider)

    out = {"particles.source.ns_per_history": _per_item_ns(
        _timed(emit, SLOW_CALLS), HISTORIES)}
    base = emit()
    energies = np.random.default_rng(seed).permutation(HISTORIES) + 1.0

    def half_dead():
        arena = base.copy()
        arena.alive[::2] = False
        return arena

    def shuffled():
        arena = base.copy()
        arena.energy[...] = energies
        return arena

    out["particles.compact_s"] = _stat(
        _timed(ParticleArena.compact, prepare=half_dead))
    out["particles.sort_by_s"] = _stat(
        _timed(lambda a: a.sort_by("energy"), SLOW_CALLS, prepare=shuffled))
    members = [emit(HISTORIES // 16) for _ in range(16)]
    out["particles.fuse_s"] = _stat(
        _timed(lambda: EnsembleArena.fuse(members)))

    out["particles.to_shared_s"] = _stat(_timed(
        base.to_shared, release=lambda seg: seg.close(unlink=True)))
    segment = base.to_shared()
    try:
        out["particles.attach_s"] = _stat(_timed(
            lambda: ParticleArena.attach(segment.shm_name, HISTORIES),
            release=ParticleArena.close))
    finally:
        segment.close(unlink=True)
    return out


# -- mesh ---------------------------------------------------------------------
def drill_mesh(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = BATCHES[-1]
    energy = rng.uniform(0.0, 1.0, n)
    patterns = {
        # stream-like: flushes spread over the whole mesh
        "spread": (rng.integers(0, NX, n), rng.integers(0, NX, n)),
        # scatter-like: every flush lands in the same 4x4 block of cells
        "conflict": (rng.integers(0, 4, n), rng.integers(0, 4, n)),
    }
    out = {}
    for key, (ix, iy) in patterns.items():
        tally = EnergyDepositionTally(NX, NX)
        out[f"mesh.flush.ns_per_item_{key}"] = _per_item_ns(
            _timed(lambda: tally.flush_vec(ix, iy, energy)), n)
    return out


# -- rng ----------------------------------------------------------------------
def drill_rng(seed: int) -> dict:
    n = BATCHES[-1]
    counters = np.arange(n, dtype=np.uint64)
    ids = np.arange(n, dtype=np.uint64)
    key = np.uint64(seed)
    zero = np.uint64(0)
    return {"rng.threefry.ns_per_draw": _per_item_ns(
        _timed(lambda: threefry2x64_vec(counters, zero, key, ids)), n)}


def run_drills(seed: int) -> dict:
    """Every **D** metric as ``{name: {"value", "p90", "n"}}`` plus the
    phase's own duration."""
    t0 = _clock()
    out = {}
    for drill in (drill_kernels, drill_xs, drill_particles, drill_mesh,
                  drill_rng):
        out.update(drill(seed))
    out["drills.phase_s"] = {"value": _clock() - t0, "p90": 0.0, "n": 1}
    return out
