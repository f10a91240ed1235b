"""The scalar oracle stays independent of the code it checks.

``tests/oracle/`` is what the batch kernels are pinned against; if it
called them, a fault in a kernel would be in both sides of every parity
test and pass.  So it may take from ``repro.kernels`` only the event
numbering and the two distance constants, and nothing from
``repro.core``; each reference exists once for every dimension, with no
``3`` / ``_3d`` twin; and nothing under ``src/`` imports it.
"""

import ast
from pathlib import Path

import pytest

ORACLE = Path(__file__).resolve().parent / "oracle"
SRC = Path(__file__).resolve().parent.parent / "src"

#: The only names the oracle may import from ``repro.kernels``.
KERNEL_NAMES = frozenset({"EventKind", "HUGE_DISTANCE", "PARALLEL_EPS"})


def _violations(source: str) -> list[str]:
    """Imports of the batch layer or the core, and dimension twins, in
    one oracle module's ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names
                      if a.name.startswith(("repro.kernels", "repro.core"))]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module == "repro":
                found += [f"from repro import {n}" for n in names
                          if n in ("kernels", "core")]
            elif module.startswith("repro.core"):
                found.append(f"from {module} import ...")
            elif module.startswith("repro.kernels"):
                if module != "repro.kernels" or names - KERNEL_NAMES:
                    found.append(f"from {module} import "
                                 f"{', '.join(sorted(names))}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.endswith(("3", "_3d")):
                found.append(f"def {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(ORACLE.glob("*.py")),
                         ids=lambda p: p.name)
def test_oracle_module_is_independent(path):
    assert _violations(path.read_text()) == []


def test_independence_check_catches_a_kernel_import():
    bad = (
        "from repro.kernels import EventKind, batch\n"
        "from repro.kernels.batch import collide\n"
        "import repro.core.event_pass\n"
        "from repro import kernels\n"
        "def collide3(): pass\n"
    )
    assert len(_violations(bad)) == 5
    assert _violations("from repro.kernels import HUGE_DISTANCE\n") == []


def test_nothing_in_src_imports_the_oracle():
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("tests"), path
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("tests")
                               for a in node.names), path
