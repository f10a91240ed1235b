"""Self-audit: no duplicate ``*_vec`` physics implementations outside here.

``python -m repro.kernels --check`` scans ``repro/physics``, ``repro/xs``
and ``repro/rng`` for function definitions (module- or class-level) whose
name ends in ``_vec``.  Those used to be the hand-maintained vectorised
twins of the scalar physics; callers now use the batch kernels in this
package by name.  The audit fails CI if a real implementation — or a
``*_vec = <kernel>`` alias of one — creeps back.

Permitted:

* thin delegating wrappers whose body is a single ``return <call>`` (plus
  an optional docstring) — public-API shims that cannot drift;
* an explicit allowlist for genuine batch primitives that predate the
  kernel layer and keep their name (``threefry2x64_vec``, the cipher).

A second audit guards the storage layer: the hot driver packages
(``repro/core``, ``repro/parallel``, ``repro/volume``) must not construct
per-particle objects — ``Particle(...)``/``Particle3(...)`` records and
scalar ``ParticleRNG(...)`` streams are rejected so the population stays
in the SoA :class:`~repro.particles.arena.ParticleArena` and draws from
the vectorised streams (children are banked as an arena block instead) —
and ``repro/volume`` must not walk histories through ``arena.proxy(i)``.
The scalar stream and the per-history forms live in the test oracle
(``tests/oracle/``), outside the package; the audit is by name, so either
coming back into a hot package is caught.

The single-path audit keeps one execution path and one event pass: no
fork on the replica books, and no event handler or event-kernel dispatch
name (2-D or 3-D) outside ``core/event_pass.py`` — and one body per
dimension-generic piece below it: the tally flush, the mesh's point
location, the collision and facet kernels and the config that builds the
mesh and the tally each have one home, whatever the number of axes.  The books' per-pass verbs stay loop-free over
replicas: the replica is an array axis there, not a Python loop.  And
there is one pooled launch: the pool's dispatcher and start-method pick
are called in ``parallel/pool.py`` only, and no module outside
``parallel/`` imports a private name of the pool.

:func:`audit_pass_allocations` is a runtime check beside the source
audits: the distance pipeline of one event pass (``distances`` +
``select_events``) takes no workspace buffer and no full-length numpy
temporary from its second call on one workspace.
"""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

__all__ = [
    "audit_vec_definitions",
    "audit_particle_construction",
    "audit_census_loops",
    "audit_xs_table_access",
    "audit_single_path",
    "audit_pass_allocations",
    "AUDITED_PACKAGES",
    "ALLOWED_VEC_DEFS",
    "ARENA_AUDITED_PACKAGES",
    "FORBIDDEN_PARTICLE_CTORS",
    "CENSUS_AUDITED_PACKAGES",
    "CENSUS_LOOP_HOME",
    "XS_SEAM_HOME",
    "FORBIDDEN_XS_NAMES",
    "XS_TABLE_ATTRS",
    "ALLOWED_XS_TABLE_FILES",
    "SINGLE_PATH_PACKAGES",
    "BOOKS_NAME_PARTS",
    "PROXY_AUDITED_PACKAGES",
    "EVENT_PASS_HOME",
    "EVENT_HANDLER_DEFS",
    "EVENT_DISPATCH_NAMES",
    "TWIN_HOMES",
    "BOOKS_HOME",
    "LOOP_FREE_VERBS",
    "POOL_HOME",
    "POOL_LAUNCH_CALLS",
]

#: Packages that must not define ``*_vec`` implementations.
AUDITED_PACKAGES = ("physics", "xs", "rng")

#: (relative path, function name) pairs exempt from the wrapper rule.
ALLOWED_VEC_DEFS = {
    ("rng/threefry.py", "threefry2x64_vec"),
}

#: Packages whose hot paths must not construct per-particle objects.
ARENA_AUDITED_PACKAGES = ("core", "parallel", "volume")

#: Callable names that count as per-particle construction: AoS records
#: and the scalar one-particle stream.
FORBIDDEN_PARTICLE_CTORS = ("Particle", "Particle3", "ParticleRNG")

#: Packages whose drivers must route their census loops through the
#: unified stepper instead of re-implementing ``for step in range(...)``.
CENSUS_AUDITED_PACKAGES = ("core", "volume", "ensemble")

#: The one module allowed to iterate over timesteps.
CENSUS_LOOP_HOME = "core/stepper.py"

#: The package that owns cross-section data representations.  Everything
#: outside it must consume cross sections through the
#: :class:`~repro.xs.provider.XsProvider` protocol.
XS_SEAM_HOME = "xs"

#: Multigroup data-model names no module outside ``repro/xs`` may
#: reference: the table class and its factory functions.
FORBIDDEN_XS_NAMES = (
    "CrossSectionTable",
    "make_scatter_table",
    "make_capture_table",
    "make_fission_table",
)

#: Raw per-reaction table attributes (``material.scatter`` et al.) that
#: constitute direct data-model access when read outside ``repro/xs``.
XS_TABLE_ATTRS = ("scatter", "capture", "fission")

#: Files exempt from the cross-section seam audit: ``kernels/xs.py``
#: *is* the lookup kernel (it interpolates the raw arrays by design).
ALLOWED_XS_TABLE_FILES = frozenset({"kernels/xs.py"})

#: Packages that must keep one execution path: every run carries replica
#: books (:class:`repro.core.books.ReplicaBooks`), so no driver may fork
#: on whether it has them.
SINGLE_PATH_PACKAGES = ("core", "volume", "ensemble")

#: Substrings marking a name as the run's replica books.
BOOKS_NAME_PARTS = ("lanes", "books")

#: Packages that must not walk histories one index at a time: the 3-D
#: per-history tracker is gone, and ``arena.proxy(i)`` is how it read them.
PROXY_AUDITED_PACKAGES = ("volume",)

#: The one module of :data:`SINGLE_PATH_PACKAGES` that implements the
#: event pass, in any dimension.  (The per-dimension kernel rows it reads
#: live beside the kernel tables, in ``kernels/dispatch.py``.)
EVENT_PASS_HOME = "core/event_pass.py"

#: Event-handler definitions that may exist in that module only.
EVENT_HANDLER_DEFS = ("handle_collisions", "handle_facets", "handle_census")

#: Kernel names of the pass body and the handlers, 2-D and 3-D: a string
#: literal naming one marks a ``dispatch.run`` call site (or a handler
#: table), and all of those belong to the one pass.
EVENT_DISPATCH_NAMES = (
    "distances", "select_events", "collide", "cross_facet", "census",
    "roulette", "fission_bank",
    "facet_distances_3d", "collide_3d", "cross_facet_3d",
)


#: Definition-name prefix → the one module that may define it: the number
#: of axes is data to these bodies, and a definition elsewhere is a
#: dimension twin (``Tally3D.flush_vec``, ``batch3.collide3``) coming back
#: — a second config class too, since a config is what builds the mesh
#: and the tally.
TWIN_HOMES = {"flush_vec": "mesh/tally.py",
              "cell_of_point_vec": "mesh/structured.py",
              "collide": "kernels/batch.py", "cross_facet": "kernels/batch.py",
              "build_mesh": "core/config.py", "build_tally": "core/config.py"}


#: The module of the replica books, and the verbs of
#: :class:`~repro.core.books.ReplicaBooks` an Over Events pass calls on
#: every pass: each attributes a whole batch over all replicas at once
#: (one ``bincount``, one ``flush_vec``), so a loop — statement or
#: comprehension — or an ``np.unique`` split by replica inside one is the
#: per-replica Python loop coming back.
BOOKS_HOME = "core/books.py"
LOOP_FREE_VERBS = ("flush", "cadd", "record_pass")

#: The pool module, and the launch machinery only it may call: a plain
#: run and a pooled ensemble both launch through its ``run_sharded``.
POOL_HOME = "parallel/pool.py"
POOL_LAUNCH_CALLS = ("_Dispatcher", "_pick_context")

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
               ast.DictComp, ast.GeneratorExp)


def _is_thin_wrapper(node: ast.FunctionDef) -> bool:
    """True when the body is (docstring +) a single ``return <call>``."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Call)
    )


def _vec_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_vec"):
                yield node


def _vec_aliases(tree: ast.AST):
    """``<name>_vec = <name or attribute>`` assignments (plain aliases)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_vec")
            and isinstance(node.value, (ast.Name, ast.Attribute))
        ):
            yield node


_VEC_ALIAS_MESSAGE = (
    "= <kernel> alias — call the batch kernel by its repro.kernels name"
)


def audit_vec_definitions(package_root: str | Path | None = None) -> list[str]:
    """Return violation messages (empty list means the audit passes)."""
    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    package_root = Path(package_root)
    violations: list[str] = []
    for pkg in AUDITED_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in _vec_defs(tree):
                if (rel, node.name) in ALLOWED_VEC_DEFS:
                    continue
                if _is_thin_wrapper(node):
                    continue
                violations.append(
                    f"{rel}:{node.lineno}: def {node.name} — vectorised "
                    "physics must live in repro/kernels (thin wrapper "
                    "only)"
                )
            for node in _vec_aliases(tree):
                violations.append(
                    f"{rel}:{node.lineno}: {node.targets[0].id} "
                    + _VEC_ALIAS_MESSAGE
                )
    return violations


def _is_books_name(node: ast.AST) -> bool:
    name = node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else ""
    )
    return any(part in name for part in BOOKS_NAME_PARTS)


def audit_single_path(package_root: str | Path | None = None) -> list[str]:
    """Reject a second execution path in :data:`SINGLE_PATH_PACKAGES`.

    A plain run is one replica through the same books as an ensemble, so
    an ``is None`` / ``is not None`` test on them is a serial-vs-fused
    fork re-appearing; so is a ``*_vec = <kernel>`` alias naming a second
    way to reach a kernel, and so is a second copy of the event handlers
    (see :func:`_audit_one_event_pass`).  Returns violation
    messages (empty list means the audit passes).
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    package_root = Path(package_root)
    violations: list[str] = []
    for pkg in SINGLE_PATH_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                if (
                    any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and any(
                        isinstance(o, ast.Constant) and o.value is None
                        for o in operands
                    )
                    and any(_is_books_name(o) for o in operands)
                ):
                    violations.append(
                        f"{rel}:{node.lineno}: None test on the replica "
                        "books — every run carries books; there is no "
                        "second path to select"
                    )
            for node in _vec_aliases(tree):
                violations.append(
                    f"{rel}:{node.lineno}: {node.targets[0].id} "
                    + _VEC_ALIAS_MESSAGE
                )
    return (violations + _audit_one_event_pass(package_root)
            + _audit_one_twin(package_root)
            + _audit_loop_free_verbs(package_root)
            + _audit_one_pool(package_root))


def _audit_one_pool(package_root: Path) -> list[str]:
    """A second pooled launch: a :data:`POOL_LAUNCH_CALLS` call outside
    :data:`POOL_HOME`, or an underscore name imported from
    ``repro.parallel.pool`` by a module outside ``parallel/``."""
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and rel != POOL_HOME
                    and _call_name(node) in POOL_LAUNCH_CALLS):
                found = f"{_call_name(node)}(...)"
            elif (isinstance(node, ast.ImportFrom)
                  and node.module == "repro.parallel.pool"
                  and not rel.startswith("parallel/")
                  and any(a.name.startswith("_") for a in node.names)):
                found = "import of " + ", ".join(
                    a.name for a in node.names if a.name.startswith("_")
                )
            else:
                continue
            violations.append(
                f"{rel}:{node.lineno}: {found} — every pooled run launches "
                f"through repro.parallel.pool.run_sharded"
            )
    return violations


def _audit_loop_free_verbs(package_root: Path) -> list[str]:
    """A loop or an ``unique`` call inside one of
    :data:`LOOP_FREE_VERBS` of ``ReplicaBooks`` in :data:`BOOKS_HOME`."""
    path = package_root / BOOKS_HOME
    if not path.exists():
        return []
    violations: list[str] = []
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "ReplicaBooks"):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name in LOOP_FREE_VERBS):
                continue
            for node in ast.walk(fn):
                if isinstance(node, _LOOP_NODES):
                    found = "a loop"
                elif (isinstance(node, ast.Call)
                      and _call_name(node) == "unique"):
                    found = "np.unique"
                else:
                    continue
                violations.append(
                    f"{BOOKS_HOME}:{node.lineno}: {found} in "
                    f"ReplicaBooks.{fn.name} — replicas are an array axis "
                    "there: one bincount, one flush_vec per call"
                )
    return violations


def audit_pass_allocations(ndim: int) -> list[str]:
    """Run the ``ndim``-D distance pipeline (``distances`` +
    ``select_events`` on workspace buffers) twice over ``n`` = 16 384
    random lanes; the second call must take no new workspace buffer, peak below
    ``8·n`` bytes of ``tracemalloc``-traced memory (no full-length
    temporary) and select the same events.  Returns violation messages.
    """
    import numpy as np

    from repro.kernels import PASS_KERNELS, Workspace, batch
    from repro.kernels.dispatch import KERNEL_TABLES
    from repro.mesh.structured import StructuredMesh

    n = 16384
    rng = np.random.default_rng(20170905)
    ncells = 5
    mesh = StructuredMesh.grid((ncells,) * ndim, (1.0,) * ndim)
    cells = [rng.integers(0, ncells, n) for _ in range(ndim)]
    pos = [(c + rng.random(n)) * d for c, d in zip(cells, mesh.deltas)]
    omega = [rng.uniform(-1.0, 1.0, n) for _ in range(ndim)]
    energy = rng.uniform(1.0, 1e6, n)
    mfp = rng.uniform(0.0, 3.0, n)
    sigma_t = rng.uniform(0.0, 5.0, n)
    sigma_t[::7] = 0.0
    dt = np.full(n, 1e-9)
    ws = Workspace()
    distances = KERNEL_TABLES[ndim][PASS_KERNELS[ndim]["distances"]]

    def one_pass():
        dist = distances(
            ws, energy, mfp, sigma_t, *pos, *omega, *cells, *mesh.deltas, dt
        )
        return batch.select_events(
            dist.d_collision, dist.d_facet, dist.d_census,
            out=ws.i64("event", n), lowest=ws.f64("ev_lowest", n),
            scratch=ws.bool_("ev_scratch", n),
        )

    first = one_pass().copy()
    allocations = ws.allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        second = one_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    where = f"{ndim}-D distance pipeline, {n} lanes, second call"
    violations = []
    if ws.allocations != allocations:
        violations.append(
            f"{where}: {ws.allocations - allocations} new workspace buffer(s)"
        )
    if peak - before >= 8 * n:
        violations.append(
            f"{where}: traced peak {peak - before} B >= 8·n = {8 * n} B"
        )
    if not np.array_equal(first, second):
        violations.append(f"{where}: selected different events")
    return violations


def _audit_one_twin(package_root: Path) -> list[str]:
    """A :data:`TWIN_HOMES` definition anywhere under ``package_root`` but
    its home is a second dimension's body."""
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for prefix, home in TWIN_HOMES.items():
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith(prefix) and rel != home):
                    violations.append(
                        f"{rel}:{node.lineno}: def {node.name} — one body "
                        f"serves every dimension, in {home}"
                    )
    return violations


def _audit_one_event_pass(package_root: Path) -> list[str]:
    """Every traversal order and every dimension runs the same event
    handlers: a handler definition (:data:`EVENT_HANDLER_DEFS`) or a
    dispatch-name literal (:data:`EVENT_DISPATCH_NAMES`) outside
    :data:`EVENT_PASS_HOME` is the pass forking again."""
    violations: list[str] = []
    for pkg in SINGLE_PATH_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            if rel == EVENT_PASS_HOME:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in EVENT_HANDLER_DEFS
                ):
                    found = f"def {node.name}"
                elif (
                    isinstance(node, ast.Constant)
                    and node.value in EVENT_DISPATCH_NAMES
                ):
                    found = repr(node.value)
                else:
                    continue
                violations.append(
                    f"{rel}:{node.lineno}: {found} — the event handlers "
                    f"and their kernel dispatches live in {EVENT_PASS_HOME} "
                    "only, for every scheme and dimension"
                )
    return violations


def _call_name(node: ast.Call) -> str | None:
    """The bare callable name of ``f(...)`` or ``mod.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def audit_particle_construction(
    package_root: str | Path | None = None,
) -> list[str]:
    """Reject per-particle construction in the hot driver packages.

    Scans :data:`ARENA_AUDITED_PACKAGES` for calls to any name in
    :data:`FORBIDDEN_PARTICLE_CTORS`, and :data:`PROXY_AUDITED_PACKAGES`
    for ``<arena>.proxy(...)`` calls; returns violation messages (empty
    list means the audit passes).  New population entries must be banked
    as an arena block, born from the vectorised streams.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    package_root = Path(package_root)
    violations: list[str] = []
    for pkg in ARENA_AUDITED_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if (
                    pkg in PROXY_AUDITED_PACKAGES
                    and name == "proxy"
                    and isinstance(node.func, ast.Attribute)
                ):
                    violations.append(
                        f"{rel}:{node.lineno}: .proxy(...) — no per-index "
                        "history walk here; the population advances "
                        "through the one event pass"
                    )
                if name not in FORBIDDEN_PARTICLE_CTORS:
                    continue
                violations.append(
                    f"{rel}:{node.lineno}: {name}(...) — hot paths must "
                    "not build per-particle objects; bank children as "
                    "an arena block"
                )
    return violations


def _iterates_timesteps(node: ast.For) -> bool:
    """True for ``for ... in range(... <x>.ntimesteps ...)`` loops."""
    it = node.iter
    if not (isinstance(it, ast.Call) and _call_name(it) == "range"):
        return False
    for arg in it.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Attribute) and sub.attr == "ntimesteps":
                return True
    return False


def audit_xs_table_access(package_root: str | Path | None = None) -> list[str]:
    """Reject direct multigroup data-model access outside ``repro/xs``.

    The provider refactor made :class:`~repro.xs.provider.XsProvider` the
    single seam between cross-section data and the transport loop; this
    audit keeps consumers honest.  Every module outside ``repro/xs``
    (except :data:`ALLOWED_XS_TABLE_FILES`) is scanned for

    * references to :data:`FORBIDDEN_XS_NAMES` (imports included), and
    * attribute *reads* of the raw per-reaction tables
      (:data:`XS_TABLE_ATTRS`, e.g. ``material.scatter``).

    Returns violation messages; an empty list means the audit passes.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    package_root = Path(package_root)
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel.startswith(f"{XS_SEAM_HOME}/") or rel in ALLOWED_XS_TABLE_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                hits = [n for n in names if n in FORBIDDEN_XS_NAMES]
                if (node.module or "").startswith("repro.xs.tables") or hits:
                    what = ", ".join(hits) or node.module
                    violations.append(
                        f"{rel}:{node.lineno}: import of {what} — consume "
                        "cross sections through repro.xs.provider.XsProvider"
                    )
            elif isinstance(node, ast.Name) and node.id in FORBIDDEN_XS_NAMES:
                violations.append(
                    f"{rel}:{node.lineno}: reference to {node.id} — consume "
                    "cross sections through repro.xs.provider.XsProvider"
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in XS_TABLE_ATTRS
                and isinstance(node.ctx, ast.Load)
            ):
                violations.append(
                    f"{rel}:{node.lineno}: raw table access "
                    f".{node.attr} — consume cross sections through "
                    "repro.xs.provider.XsProvider"
                )
    return violations


def audit_census_loops(package_root: str | Path | None = None) -> list[str]:
    """Reject census-loop reimplementations outside the unified stepper.

    The multi-scheme refactor concentrated the ``for step in
    range(config.ntimesteps)`` loop — with its source emission, census
    bookkeeping and tally-flush obligations — in
    :data:`CENSUS_LOOP_HOME` (``drive_census_loop``).  This audit scans
    :data:`CENSUS_AUDITED_PACKAGES` for ``For`` loops iterating
    ``range(... .ntimesteps ...)`` anywhere else; drivers must hand
    ``begin_step``/``run_step`` callbacks to the stepper instead, so
    scheme switching and step telemetry keep working everywhere.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parent.parent
    package_root = Path(package_root)
    violations: list[str] = []
    for pkg in CENSUS_AUDITED_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            if rel == CENSUS_LOOP_HOME:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.For) and _iterates_timesteps(node):
                    violations.append(
                        f"{rel}:{node.lineno}: census loop over "
                        "ntimesteps — drivers must route through "
                        "drive_census_loop in repro/core/stepper.py"
                    )
    return violations
