"""The source audit is one table: every row has a planted case, every row
is clean and live on the real tree, and a stale row fails.

A planted case is a tree of modules; each line ending in ``# !`` must be
flagged by its row, once, and no other line may be.  A row without a
planted case fails :func:`test_every_row_has_a_planted_case`.
"""

import textwrap

import pytest

from repro.kernels.__main__ import main
from repro.kernels.audit import RULES, audit, stale_rows

PLANTED = {
    "def *_vec (not a thin wrapper)": {
        "physics/kinematics.py": '''
            def speed_vec(energy):  # !
                v = 2.0 * energy
                return v
            def energy_vec(v):
                """Thin wrapper: cannot drift."""
                return batch.energy(v)
            def speed(energy):
                return energy ** 0.5
            ''',
        "xs/lookup.py": "class Table:\n    def lookup_vec(self, e):  # !\n"
                        "        return self.sigma[e] if e else 0\n",
        "rng/threefry.py": "def threefry2x64_vec(key, ctr):\n"
                           "    x = key ^ ctr\n    return x\n",
        "mesh/tally.py": "def flush_vec(self):\n    self.n += 1\n",
    },
    "*_vec = *": {
        "physics/kinematics.py": "speed_vec = batch.speed  # !\n",
        "core/driver.py": "collide_vec = collide  # !\nn_vec = f(x)\n",
        "mesh/structured.py": "cell_vec = batch.cell\n",
    },
    "Particle(...)": {
        "core/bank.py": "p = Particle(x, y)  # !\n"
                        "q = VectorParticleRNG(s, ids)\n",
        "parallel/shard.py": "r = rng.ParticleRNG(seed, 3)  # !\n",
        "volume/source.py": "p = Particle3(x, y, z)  # !\n",
        "particles/arena.py": "p = Particle(x, y)\n",
    },
    ".proxy(...)": {
        "volume/driver3.py": "h = arena.proxy(i)  # !\nh = proxy(i)\n",
        "core/tools.py": "h = arena.proxy(i)\n",
    },
    "for _ in range(ntimesteps)": {
        "core/stepper.py": "for step in range(cfg.ntimesteps):\n    pass\n",
        "core/driver.py": "for s in range(cfg.ntimesteps):  # !\n    pass\n"
                          "for s in range(3):\n    pass\n",
        "analysis/trend.py": "for s in range(cfg.ntimesteps):\n    pass\n",
    },
    "CrossSectionTable": {
        "core/physics.py": '''
            from repro.core import CrossSectionTable  # !
            from repro.xs.tables import build  # !
            sigma = material.scatter  # !
            material.scatter = sigma
            ''',
        "kernels/xs.py": "sigma = material.scatter\n",
        "xs/tables.py": "class CrossSectionTable:\n    pass\n",
    },
    "*lanes* is None": {
        "core/driver.py": '''
            if books is None:  # !
                pass
            fused = self.lanes is not None  # !
            ok = arena is None
            ''',
        "obs/live.py": "ok = books is None\n",
    },
    "def handle_collisions": {
        "core/event_pass.py": "def handle_facets(): run('cross_facet')\n",
        "volume/driver3.py": "def handle_facets(): pass  # !\n"
                             "run('collide_3d')  # !\nspan = 'census_wave'\n",
    },
    "def flush_vec*": {
        "mesh/tally.py": "def flush_vec(self): pass\n",
        "volume/mesh3.py": "def flush_vec(self): pass  # !\n",
    },
    "def cell_of_point_vec*": {
        "mesh/structured.py": "def cell_of_point_vec(self, *p): pass\n",
        "volume/mesh3.py": "def cell_of_point_vec_3d(self, *p): pass  # !\n",
    },
    "def collide*": {
        "kernels/batch.py": "def collide(): pass\ndef cross_facet(): pass\n",
        "kernels/batch3.py": "def collide3(): pass  # !\n"
                             "def cross_facet_3d(): pass  # !\n",
    },
    "def build_mesh*": {
        "core/config.py": "def build_mesh(self): pass\n",
        "volume/problems3.py": "def build_tally(self): pass  # !\n",
    },
    "a loop": {
        "core/books.py": '''
            class ReplicaSink:
                def flush(self, reps):
                    for r in reps: pass
            class ReplicaBooks:
                def flush(self, reps):
                    n = np.unique(reps)  # !
                    return [t for t in self.tallies]  # !
                def csum(self, name):
                    for c in self.counters: pass
            ''',
    },
    "_Dispatcher(...)": {
        "parallel/pool.py": "d = _Dispatcher(_pick_context(o))\n",
        "ensemble/engine.py": "d = pool._Dispatcher(o)  # !\n",
    },
    "from repro.parallel.pool import _*": {
        "parallel/__init__.py":
            "from repro.parallel.pool import _run_ranges\n",
        "core/driver.py": "from repro.parallel.pool import run_sharded\n"
                          "from repro.parallel.pool import (  # !\n"
                          "    run_sharded, _reduce)\n",
    },
    "== OVER_PARTICLES": {
        "core/stepper.py": "if s is Scheme.OVER_EVENTS: pass\n",
        "core/event_pass.py": "if s == Scheme.OVER_PARTICLES: pass  # !\n",
        "parallel/faults.py": "if s == Scheme.OVER_PARTICLES: pass\n",
    },
    "WorkingSet(...)": {
        "core/stepper.py": "w = WorkingSet(ctx)\n",
        "kernels/audit.py": "w = WorkingSet(ctx)\n",
        "volume/driver3.py": "w = event_pass.WorkingSet(ctx)  # !\n",
    },
    "cadd('collisions')": {
        "core/over_events.py": "sink.cadd('collisions', reps)  # !\n"
                               "sink.charge('rng_draws', n)\n",
        "obs/telemetry.py": "c.cadd('collisions', reps)\n",
    },
    "collisions =": {
        "core/event_pass.py": '''
            class WorkingSet:
                def event_pass(self, rows, n):
                    self.books.coll_pp[rows] += 1
                def handle_facets(self, f, n):
                    self.sink.counters.facets += n  # !
                    self.books.facet_pp[f] += 1  # !
                    self.arena.cells[f] = n
            ''',
    },
    "clip(...)": {
        "kernels/xs.py": '''
            bins = np.clip(bins, 0, n - 2)  # !
            start = cached.clip(0, n - 1)  # !
            lo = energy.take(lo, mode="clip")
            ''',
        "rng/threefry.py": "shape = np.broadcast_shapes(a, b)  # !\n"
                           "shape = np.broadcast(a, b).shape\n",
        "mesh/tally.py": "from numpy import clip\nx = clip(x, 0, 1)  # !\n",
        "xs/ce.py": "bins = np.clip(bins, 0, n - 1)\n",
    },
}


def plant(root, files):
    """Write ``files`` under ``root``; return the ``path:line`` of every
    line marked ``# !``."""
    marked = set()
    for rel, source in files.items():
        source = textwrap.dedent(source).lstrip("\n")
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(source)
        marked |= {f"{rel}:{n}" for n, line in
                   enumerate(source.splitlines(), 1) if line.endswith("# !")}
    return marked


def where(violation):
    return ":".join(violation.split(":", 2)[:2])


def test_every_row_has_a_planted_case():
    assert sorted(PLANTED) == sorted(rule.names[0] for rule in RULES)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.names[0])
def test_planted_case_trips_its_row(rule, tmp_path):
    marked = plant(tmp_path, PLANTED[rule.names[0]])
    violations = audit(tmp_path, (rule,))
    assert marked and sorted(map(where, violations)) == sorted(marked)
    assert all(v.endswith(rule.why) for v in violations)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.names[0])
def test_every_row_is_clean_and_live_on_the_package(rule):
    assert audit(rules=(rule,)) == []
    assert stale_rows(rules=(rule,)) == []


def test_a_moved_class_makes_its_row_stale(tmp_path):
    """Moved out of its home, ``ReplicaBooks`` would take its loop with it
    unaudited: the row names a body the tree no longer has."""
    (row,) = [r for r in RULES if r.names[0] == "a loop"]
    books = ("class ReplicaBooks:\n"
             "    def flush(self, reps):\n"
             "        for r in reps: pass\n")
    plant(tmp_path, {"core/books.py": books})
    assert [where(v) for v in audit(tmp_path, (row,))] == ["core/books.py:3"]
    (tmp_path / "core" / "books.py").write_text("PASS_COUNTS = ()\n")
    plant(tmp_path, {"core/ledger.py": books})
    assert audit(tmp_path, (row,)) == []
    (line,) = stale_rows(tmp_path, (row,))
    assert line.startswith("stale RULES row 'a loop': ")
    assert "core/books.py::ReplicaBooks.flush" in line
    assert "core/books.py::ReplicaBooks.record_pass" in line


def test_a_missing_package_or_home_definition_is_stale(tmp_path):
    (vec, handlers) = [r for r in RULES if r.names[0] in (
        "def *_vec (not a thin wrapper)", "def handle_collisions")]
    plant(tmp_path, {"core/event_pass.py": "def handle_facets(): pass\n"})
    assert audit(tmp_path, (vec, handlers)) == []
    (stale_vec, stale_handlers) = stale_rows(tmp_path, (vec, handlers))
    for missing in ("physics/", "xs/", "rng/",
                    "rng/threefry.py::threefry2x64_vec"):
        assert missing in stale_vec
    assert "def handle_collisions, def handle_census not found" in (
        stale_handlers)


def test_check_prints_one_ok_line_per_row(capsys):
    assert main(["--check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(RULES) + 1
    assert all(line.startswith("OK [") for line in out)
    assert [line.split(": ", 1)[1] for line in out[:-1]] == [
        rule.why for rule in RULES]


def test_check_is_the_only_command(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 2
    assert "python -m repro.kernels --check" in capsys.readouterr().err
