"""Outside-in tracer: wraps the program's layer boundaries with
span-recording closures for one run and restores them on exit.

The program is not edited.  ``Tracer(workload, points)`` is a context
manager that replaces each declared call site with a closure recording
``[site, start, end, parent]``, and puts the original object back (by
identity) on exit, also when the run raises.  Spans stay in memory until
the caller writes them.  A span's self time is its duration minus its
children's, so the self times of all spans sum to the root span exactly;
:func:`layer_self_times` groups them by the layer metric each call site
feeds.

``Workspace.f64/i64/bool_`` are deliberately not call sites: the OP
workload makes ~10⁵ of those calls per second and wrapping them put the
tracing overhead near 30 %.  Their counts come from ``Counters``.
"""

from __future__ import annotations

import importlib
import time

#: call site -> (module, owning class or None, attribute, layer metric).
#: A site with a class is looked up through the class's MRO, so naming a
#: subclass patches the attribute where it is defined.
CALL_SITES = {
    "dispatch.run": ("repro.kernels.dispatch", "KernelDispatch", "run",
                     "kernels.dispatch_self_s"),
    "tally.flush_vec": ("repro.mesh.tally", "EnergyDepositionTally",
                        "flush_vec", "mesh.flush_s"),
    "tally3.flush_vec": ("repro.volume.mesh3", "Tally3D", "flush_vec",
                         "mesh.flush_s"),
    "xs.mg_lookup": ("repro.xs.provider", "MultigroupProvider", "lookup",
                     "xs.lookup_self_s"),
    "xs.ce_lookup": ("repro.xs.provider", "ContinuousEnergyProvider",
                     "lookup", "xs.lookup_self_s"),
    "xs.macroscopic_into": ("repro.xs.provider", "XsProvider",
                            "macroscopic_into", "xs.macroscopic_s"),
    "rng.next_uniform": ("repro.rng.stream", "VectorParticleRNG",
                         "next_uniform", "rng.busy_s"),
    # sample_source is imported by name into its users, so it is wrapped
    # where it is used.
    "source@stepper": ("repro.core.stepper", None, "sample_source",
                       "particles.source_s"),
    "source@ensemble": ("repro.ensemble.engine", None, "sample_source",
                        "particles.source_s"),
    "source@pool": ("repro.parallel.pool", None, "sample_source",
                    "particles.source_s"),
    "source@volume": ("repro.volume.driver3", None, "_sample_source_3d",
                      "particles.source_s"),
    "arena.fuse": ("repro.particles.arena", "EnsembleArena", "fuse",
                   "ensemble.fuse_s"),
    "arena.to_shared": ("repro.particles.arena", "ParticleArena",
                        "to_shared", "parallel.to_shared_s"),
}

ROOT = "root"
_KERNEL = "kernel:"


def site_owner(site: str):
    """``(owner, attribute)`` of a ``CALL_SITES`` entry: the module, or the
    class in the named class's MRO that defines the attribute."""
    module, cls, attr, _metric = CALL_SITES[site]
    owner = importlib.import_module(module)
    if cls is not None:
        owner = next(c for c in getattr(owner, cls).__mro__ if attr in vars(c))
    return owner, attr


def site_metric(site: str) -> str:
    """The layer metric a call site's self time is booked to."""
    if site.startswith(_KERNEL):
        return f"kernels.{site[len(_KERNEL):]}.s"
    return CALL_SITES[site][3]


class Tracer:
    """Record spans at ``points`` for the duration of a ``with`` block.

    ``points`` are ``CALL_SITES`` keys or ``kernel:<name>`` entries of the
    kernel tables.  ``spans`` rows are ``[site, start, end, parent]`` with
    ``parent`` an index into ``spans`` (``-1`` for the root); every span
    belongs to ``workload``.
    """

    def __init__(self, workload: str, points):
        self.workload = workload
        self.points = tuple(points)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------
    def _wrap(self, site: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            row = [site, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    # -- patching -------------------------------------------------------
    def _patch_kernel(self, name: str) -> None:
        dispatch = importlib.import_module("repro.kernels.dispatch")
        original = dispatch.KERNEL_TABLE_3D[name]
        wrapped = self._wrap(_KERNEL + name, original)
        # The tables are mutated in place: KernelDispatch holds the dict.
        for table in (dispatch.KERNEL_TABLE, dispatch.KERNEL_TABLE_3D):
            if name in table:
                if table[name] is not original:
                    raise RuntimeError(f"kernel tables disagree on {name!r}")
                table[name] = wrapped
                self._undo.append((table.__setitem__, name, original))

    def _patch_attr(self, site: str) -> None:
        owner, attr = site_owner(site)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(site, original.__func__))
        else:
            wrapped = self._wrap(site, original)
        setattr(owner, attr, wrapped)
        self._undo.append((setattr, owner, attr, original))

    def __enter__(self) -> "Tracer":
        try:
            for site in self.points:
                if site.startswith(_KERNEL):
                    self._patch_kernel(site[len(_KERNEL):])
                else:
                    self._patch_attr(site)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            setter, *args = self._undo.pop()
            setter(*args)

    # -- reading --------------------------------------------------------
    def unhit_points(self) -> list[str]:
        """Declared call sites that recorded no span."""
        hit = {row[0] for row in self.spans}
        return [p for p in self.points if p not in hit]

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "columns": ["site", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }


def self_times(spans) -> dict:
    """``{site: [calls, self seconds]}`` over ``spans``; the root span's
    self time is what no wrapped call site covers."""
    child = [0.0] * len(spans)
    for _site, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for (site, start, end, _parent), covered in zip(spans, child):
        acc = out.setdefault(site, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - covered
    return out


def layer_self_times(per_site: dict, root_metric: str) -> dict:
    """Self seconds per layer metric from :func:`self_times` output, the
    root's booked to ``root_metric``.

    The values sum to the root span's duration by construction; the
    caller asserts it (``trace.identity_residual_s``).
    """
    out: dict = {}
    for site, (_calls, seconds) in per_site.items():
        metric = root_metric if site == ROOT else site_metric(site)
        out[metric] = out.get(metric, 0.0) + seconds
    return out


def root_duration(spans) -> float:
    roots = [row for row in spans if row[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        raise ValueError("a trace needs exactly one root span")
    return roots[0][2] - roots[0][1]
