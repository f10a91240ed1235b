"""The source audit: one table of rules that keeps the package at one path.

``python -m repro.kernels --check`` parses every module under ``repro/``
once and checks what each line says against :data:`RULES`.  A row is
``Rule(kind, names, where, home, why)``:

* ``names`` — patterns over what a line says (``*`` matches any text
  without a space);
* ``where`` — where the row looks: path prefixes (``core/``,
  ``parallel/pool.py``; none means every module) or bodies
  (``core/books.py::ReplicaBooks.flush``, nested definitions included);
* ``home`` — where it does not look: a name's one home, or an exempt path
  or definition (``rng/threefry.py::threefry2x64_vec``);
* ``why`` — ends each of the row's violations and its ``OK`` line.

The kinds share that one walk and differ in wording and staleness:
``home`` (a name has one home: said elsewhere it is a second copy,
``... outside <home>``; each ``def`` the row names is defined there),
``forbidden`` (a name is not said where the row looks) and ``body`` (a
name is not said inside the named bodies, ``... in ReplicaBooks.flush``).
A row whose ``where`` or ``home`` names a path, class or definition the
tree lacks looks at nothing, so :func:`stale_rows` fails it.  A new rule
is one row plus its planted case in ``tests/test_audit.py``.

What a line says (:func:`_said`):

=====================  ========================================================
``def f``              a definition; also ``def f (not a thin wrapper)``
                       unless it is a docstring and one ``return <call>``
``f(...)``             a call of ``f``; ``.f(...)`` through an attribute;
                       ``f('s')`` when its first argument is ``'s'``
``'s'``                a string literal
``x`` / ``a.x``        a name; an attribute read (``_.x`` after a non-name)
``from m import x``    an import (it says ``x`` too)
``x = a.b``            an alias: a name bound to a name or attribute
``x =``                a write to ``x``; ``x[...] =`` to a row of it
``== x``               ``x`` compared by ``is``, ``is not``, ``==``, ``!=``
``x is None``          ``x`` tested against ``None``
``for _ in range(x)``  a loop over ``range(...)`` of an expression in ``x``
``a loop``             any loop statement or comprehension
=====================  ========================================================

Beside the table run two runtime probes: :func:`audit_pass_allocations`
(no allocation in the distance pipeline from its second call) and
:func:`audit_facet_transient` (one facet crossing's peak, per lane).
"""

from __future__ import annotations

import ast
import functools
import re
import tracemalloc
from pathlib import Path
from typing import NamedTuple

__all__ = ["Rule", "RULES", "audit", "stale_rows", "audit_pass_allocations",
           "audit_facet_transient", "FACET_PEAK_BYTES_PER_LANE",
           "PASS_BOOKED_COUNTS"]

PACKAGE = Path(__file__).resolve().parent.parent


class Rule(NamedTuple):
    kind: str               # "home", "forbidden" or "body"
    names: tuple[str, ...]  # patterns over what a line says
    where: tuple[str, ...]  # path prefixes or path::bodies; () = everywhere
    home: tuple[str, ...]   # path prefixes or path::definitions left out
    why: str


#: The counts a pass books itself from its masks (``sink.record_pass``;
#: ``repro.core.books.PASS_COUNTS``).
PASS_BOOKED_COUNTS = ("collisions", "facets", "census_events")

_DRIVERS = ("core/", "volume/", "ensemble/")
_HANDLERS = ("handle_collisions", "handle_facets", "handle_census")

RULES = (
    Rule("forbidden", ("def *_vec (not a thin wrapper)",),
         ("physics/", "xs/", "rng/"), ("rng/threefry.py::threefry2x64_vec",),
         "vectorised physics lives in repro/kernels; a *_vec outside it is "
         "a thin wrapper"),
    Rule("forbidden", ("*_vec = *",), ("physics/", "xs/", "rng/", *_DRIVERS),
         (), "no *_vec alias of a kernel: call the batch kernel by its "
         "repro.kernels name"),
    Rule("forbidden", ("Particle(...)", "Particle3(...)", "ParticleRNG(...)"),
         ("core/", "parallel/", "volume/"), (),
         "hot paths build no per-particle objects; bank children as an "
         "arena block"),
    Rule("forbidden", (".proxy(...)",), ("volume/",), (),
         "no per-index history walk: the population advances through the "
         "one event pass"),
    Rule("home", ("for _ in range(ntimesteps)",), _DRIVERS,
         ("core/stepper.py",),
         "one census loop: drivers route through drive_census_loop"),
    Rule("home", ("CrossSectionTable", "make_scatter_table",
                  "make_capture_table", "make_fission_table",
                  "from repro.xs.tables* import *", "*.scatter", "*.capture",
                  "*.fission"), (), ("xs/", "kernels/xs.py"),
         "cross sections are consumed through repro.xs.provider.XsProvider"),
    Rule("forbidden", ("*lanes* is None", "*books* is None"), _DRIVERS, (),
         "no None test on the replica books: every run carries books, so "
         "there is no second path to select"),
    Rule("home", (*(f"def {h}" for h in _HANDLERS), *map(repr, (
        "distances", "select_events", "collide", "cross_facet", "census",
        "roulette", "fission_bank", "facet_distances_3d", "collide_3d",
        "cross_facet_3d"))), _DRIVERS, ("core/event_pass.py",),
         "one event pass: its handlers and kernel dispatches, for every "
         "scheme and dimension"),
    Rule("home", ("def flush_vec*",), (), ("mesh/tally.py",),
         "one tally flush serves every dimension"),
    Rule("home", ("def cell_of_point_vec*",), (), ("mesh/structured.py",),
         "one point location serves every dimension"),
    Rule("home", ("def collide*", "def cross_facet*"), (),
         ("kernels/batch.py",),
         "one collision and one facet-crossing body serve every dimension"),
    Rule("home", ("def build_mesh*", "def build_tally*"), (),
         ("core/config.py",),
         "one config builds the mesh and the tally in every dimension"),
    Rule("body", ("a loop", "unique", "*.unique"), tuple(
        f"core/books.py::ReplicaBooks.{verb}"
        for verb in ("flush", "cadd", "count", "charge", "record_pass")), (),
         "the books' per-pass verbs hold replicas as an array axis: one "
         "bincount, one flush_vec per call"),
    Rule("home", ("_Dispatcher(...)", "_pick_context(...)"), (),
         ("parallel/pool.py",),
         "one pooled launch: every pooled run goes through "
         "repro.parallel.pool.run_sharded"),
    Rule("home", ("from repro.parallel.pool import _*",), (), ("parallel/",),
         "the pool's private names stay in repro.parallel: launch through "
         "run_sharded"),
    Rule("home", ("== OVER_PARTICLES", "== OVER_EVENTS"),
         (*_DRIVERS, "parallel/pool.py"), ("core/stepper.py",),
         "no scheme test below the census stepper: the schemes' differences "
         "are handed in as data"),
    Rule("home", ("WorkingSet(...)",), (),
         ("core/stepper.py", "kernels/audit.py"),
         "every working set is a window of the census stepper's one step "
         "method"),
    Rule("forbidden", tuple(f"{verb}({name!r})" for name in PASS_BOOKED_COUNTS
                            for verb in ("cadd", "charge", "csum")),
         _DRIVERS, (),
         "the pass books its collisions, facet crossings and census events "
         "once (sink.record_pass); a second charge counts them twice"),
    Rule("body", (*(f"{name} =" for name in PASS_BOOKED_COUNTS),
                  "coll_pp[...] =", "facet_pp[...] ="),
         tuple(f"core/event_pass.py::WorkingSet.{h}" for h in _HANDLERS), (),
         "the pass books its collisions, facet crossings and census events "
         "and the per-lane work counts once; a handler's write counts them "
         "twice"),
    Rule("forbidden", ("clip(...)", "broadcast_shapes(...)"),
         ("kernels/", "core/", "rng/", "mesh/"), (),
         "a numpy function behind a Python wrapper costs several µs a call "
         "on the pass path, where a narrow window's ufunc costs under one: "
         "write np.minimum(np.maximum(x, lo), hi) or "
         "np.broadcast(...).shape"),
)

_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bare(node: ast.AST) -> str | None:
    """``x`` of a name ``x`` or an attribute ``a.x``."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _said(node: ast.AST) -> list[str]:
    """What ``node`` says, in the words of the module docstring's table."""
    said = ["a loop"] if isinstance(node, _LOOPS) else []
    if isinstance(node, _DEFS):
        said.append(f"def {node.name}")
        body = node.body[ast.get_docstring(node) is not None:]
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            said.append(f"def {node.name} (not a thin wrapper)")
    elif isinstance(node, ast.Call) and (name := _bare(node.func)):
        said.append(f"{name}(...)")
        if isinstance(node.func, ast.Attribute):
            said.append(f".{name}(...)")
        if node.args and isinstance(getattr(node.args[0], "value", None), str):
            said.append(f"{name}({node.args[0].value!r})")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        said.append(repr(node.value))
    elif isinstance(node, ast.Name):
        said.append(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        said.append(f"{_bare(node.value) or '_'}.{node.attr}")
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            said += [f"from {node.module} import {alias.name}", alias.name]
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for t in targets:
            row = isinstance(t, ast.Subscript)
            if name := _bare(t.value if row else t):
                said.append(f"{name}[...] =" if row else f"{name} =")
        if (len(targets) == 1 and isinstance(targets[0], ast.Name)
                and isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.Name, ast.Attribute))):
            said.append(f"{targets[0].id} = {ast.unparse(node.value)}")
    elif isinstance(node, ast.Compare):
        ops = {type(op) for op in node.ops}
        operands = (node.left, *node.comparators)
        names = [n for n in map(_bare, operands) if n]
        if ops & {ast.Is, ast.IsNot, ast.Eq, ast.NotEq}:
            said += [f"== {n}" for n in names]
        if ops & {ast.Is, ast.IsNot} and any(
                isinstance(o, ast.Constant) and o.value is None
                for o in operands):
            said += [f"{n} is None" for n in names]
    if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and _bare(node.iter.func) == "range"):
        said += [f"for _ in range({n})" for arg in node.iter.args
                 for sub in ast.walk(arg) if (n := _bare(sub))]
    return said


@functools.lru_cache(maxsize=256)
def _lines(source: str) -> tuple[tuple[int, str, tuple[str, ...]], ...]:
    """``(line, scope, what it says)`` for every node of one module that
    says something; ``scope`` is the dotted classes and definitions around
    the node, its own name included."""
    found, stack = [], [(ast.parse(source), "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (*_DEFS, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if said := _said(node):
            found.append((node.lineno, scope, tuple(said)))
        stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    return tuple(found)


def _scan(root: Path) -> dict[str, tuple]:
    """Each module under ``root`` (relative path) → its :func:`_lines`."""
    return {path.relative_to(root).as_posix(): _lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


@functools.cache
def _pattern(names: tuple[str, ...]) -> re.Pattern:
    return re.compile("|".join(re.escape(n).replace(r"\*", r"\S*")
                               for n in names))


def _within(place: str, entries: tuple[str, ...]) -> bool:
    """``place`` (``path::scope``) lies under a directory entry, or in an
    entry's file or definition."""
    return any(place.startswith(e) and (e.endswith("/") or
                                        place[len(e):][:1] in ("", ":", "."))
               for e in entries)


def audit(package_root: str | Path | None = None,
          rules: tuple[Rule, ...] = RULES) -> list[str]:
    """Every line under ``package_root`` (default: this package) that says
    a row's name where the row looks.  Returns violation messages sorted
    by module and line; an empty list means the audit passes."""
    found = []
    for rel, lines in _scan(Path(package_root or PACKAGE)).items():
        for rule in rules:
            match = _pattern(rule.names).fullmatch
            for line, scope, said in lines:
                if not (hits := [s for s in said if match(s)]):
                    continue
                place = f"{rel}::{scope}"
                if _within(place, rule.home) or (
                        rule.where and not _within(place, rule.where)):
                    continue
                if said[0].startswith("from "):  # one line per import
                    hits = ["import of " + ", ".join(
                        dict.fromkeys(h.rpartition(" ")[2] for h in hits))]
                infix = {"home": f" outside {', '.join(rule.home)}",
                         "body": f" in {scope}"}.get(rule.kind, "")
                found.append((rel, line, f"{rel}:{line}: {hits[0]}{infix} — "
                                         f"{rule.why}"))
    return [message for *_, message in sorted(found)]


def stale_rows(package_root: str | Path | None = None,
               rules: tuple[Rule, ...] = RULES) -> list[str]:
    """One line per row that names what the tree under ``package_root``
    lacks: a path, a body or exempt definition, or a ``home`` row's
    ``def`` in its home.  Such a row looks at nothing."""
    root = Path(package_root or PACKAGE)
    files = _scan(root)
    places = {f"{rel}::{scope}" for rel, lines in files.items()
              for _, scope, _ in lines}
    out = []
    for rule in rules:
        missing = [e for e in rule.where + rule.home
                   if (e not in places if "::" in e else
                       not (root / e).exists())]
        if rule.kind == "home":
            said = {s for rel, lines in files.items()
                    if _within(f"{rel}::", rule.home)
                    for *_, words in lines for s in words}
            missing += [n for n in rule.names if n.startswith("def ")
                        and not any(map(_pattern((n,)).fullmatch, said))]
        if missing:
            out.append(f"stale RULES row {rule.names[0]!r}: "
                       f"{', '.join(missing)} not found — {rule.why}")
    return out


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


#: Bound on a facet crossing's traced peak, B/lane (:func:`audit_facet_transient`):
#: before the gather-once handler it peaked at 120.4 in 2-D and 151.0 in 3-D.
FACET_PEAK_BYTES_PER_LANE = {2: 121, 3: 152}


def audit_facet_transient(ndim: int) -> list[str]:
    """One ``ndim``-D ``handle_facets`` call over the 16 384 source lanes
    of a one-material csp run (no refresh), each on its facet, must peak
    within :data:`FACET_PEAK_BYTES_PER_LANE` (keeping peak RSS flat)."""
    import numpy as np

    from repro.core import csp3_problem, csp_problem
    from repro.core.event_pass import WorkingSet
    from repro.core.stepper import CensusStepper

    n = 16384
    st = CensusStepper(csp_problem(nx=16, ny=16, nparticles=n) if ndim == 2
                       else csp3_problem(n=16, nparticles=n))
    a, ctx, ones = st.arena, st.pass_ctx, np.ones(n)
    dist = ctx.run["distances"](n, ctx.ws, a.energy, a.mfp_to_collision,
                                ones, *a.pos, *a.omega, *a.cells,
                                *st.mesh.deltas, a.dt_to_census)
    work, fmask = WorkingSet(ctx, a, 0, st.books, None), ones > 0
    tracemalloc.start()
    try:
        work.handle_facets(fmask, n, dist, ones, ones, ones)
        per_lane = tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()
    bound = FACET_PEAK_BYTES_PER_LANE[ndim]
    return [] if per_lane <= bound else [
        f"{ndim}-D facet crossing: traced peak {per_lane:.1f} B/lane > {bound}"]

