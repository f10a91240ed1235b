"""Reachability ledger: which ``src/repro`` functions the consumers run.

    python tests/reach.py run      # run the consumer set under a call hook
    python tests/reach.py check    # compare the record with results/REACH.md

The consumers are every ``run:`` step of ``.github/workflows/ci.yml`` but
the installs, lint and pytest suites (``pytest benchmarks``, the figure
suite, counts), plus ``python -m perf.child`` for every phase of every
``BENCHMARK.json`` workload.  A function reached only by tier-1 tests is
unreached.  ``run`` puts a generated ``sitecustomize`` on ``PYTHONPATH``
whose ``sys.settrace`` hook records ``path::qualname`` for each code object
called under ``src/repro`` (``co_qualname``: Python 3.11 or newer); it
writes the set at exit and before ``os._exit``, so forked pool workers
count too.

``check`` fails on an unreached function without a ledger row, a
``keep``/``consumer`` row naming a function that is gone, a ``delete`` row
naming one that is still there, and a ``consumer`` row nothing reached.  A
``keep`` row whose function was reached is fine: fault recovery runs only
when the timing says so.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"
LEDGER = ROOT / "results" / "REACH.md"
RECORD = ROOT / ".reach" / "reached.txt"

HOOK = '''\
import os, sys, threading
_SRC, _OUT = os.environ["REACH_SRC"], os.environ["REACH_OUT"]
_seen = set()
def _hook(frame, event, arg):
    _seen.add(frame.f_code)
def _flush():
    names = {os.path.relpath(c.co_filename, _SRC) + "::" + c.co_qualname
             for c in list(_seen) if c.co_filename.startswith(_SRC)}
    with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a") as fh:
        fh.write("".join(n + "\\n" for n in sorted(names)))
def _exit(code, _real=os._exit):
    _flush()
    _real(code)
os._exit = _exit
__import__("atexit").register(_flush)
sys.settrace(_hook)
threading.settrace(_hook)
'''


def inventory(src: Path = SRC) -> dict[str, int]:
    """``path::qualname`` → line count for every function and method under
    ``src``; a nested function counts as part of the one around it."""
    out: dict[str, int] = {}

    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}::{prefix}{child.name}"
                out[key] = max(out.get(key, 0),
                               child.end_lineno - child.lineno + 1)
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            else:
                walk(child, rel, prefix)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(src).as_posix(), "")
    return out


def read_ledger(text: str) -> dict[str, str]:
    """The ledger's rows: ``| `path::qualname` | lines | verdict |``."""
    rows = {}
    for line in text.splitlines():
        m = re.match(r"\|\s*`([^`]+)`\s*\|[^|]*\|(.*)\|\s*$", line)
        if m:
            rows[m.group(1)] = m.group(2).strip()
    return rows


def problems(functions: dict[str, int], reached: set[str],
             rows: dict[str, str]) -> list[str]:
    """Every way the record and the ledger disagree, one line each."""
    out = [f"unreached and not in the ledger: {f} ({n} lines)"
           for f, n in sorted(functions.items())
           if f not in reached and f not in rows]
    for f, verdict in sorted(rows.items()):
        if verdict == "delete":
            if f in functions:
                out.append(f"marked delete but still defined: {f}")
        elif f not in functions:
            out.append(f"row names a function that does not exist: {f}")
        elif verdict == "consumer":
            if f not in reached:
                out.append(f"marked consumer but no consumer reached it: {f}")
        elif not re.fullmatch(r"keep: \S.*", verdict):
            out.append(f"verdict must be delete, consumer or keep: <why>: "
                       f"{f} has {verdict!r}")
    return out


def ci_steps(text: str) -> list[str]:
    """The shell text of every consumer ``run:`` step of the CI file."""
    lines, steps, i = text.splitlines(), [], 0
    while i < len(lines):
        m = re.match(r"(\s*)(?:- )?run: ?(.*)$", lines[i])
        i += 1
        if not m:
            continue
        head, body = m.group(2), []
        if head in ("|", ">-"):
            while i < len(lines) and (not lines[i].strip() or
                                      re.match(r"\s*", lines[i]).end()
                                      > len(m.group(1))):
                body.append(lines[i])
                i += 1
            head = textwrap.dedent("\n".join(body)).strip()
            if m.group(2) == ">-":
                head = " ".join(head.split())
        if "pip install" in head or head.startswith("ruff") or (
                "reach.py" in head) or (
                "pytest" in head and "pytest benchmarks" not in head):
            continue
        steps.append(head)
    return steps


def perf_steps() -> list[str]:
    """One ``perf.child`` call per phase of every benchmark workload."""
    child = f"{sys.executable} -m perf.child"
    steps = [f"{child} drills --seed 7"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        base = f"--workload {w['name']} --seed 7 --scale smoke"
        steps += [f"{child} setup {base}", f"{child} measure {base} --seconds 1",
                  f"{child} trace {base} --seconds 1"]
    return steps


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cmd_run(record: Path) -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        hook, out, work = tmp / "hook", tmp / "out", tmp / "work"
        for d in (hook, out, work):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        for entry in ROOT.iterdir():
            if entry.name != ".git":
                (work / entry.name).symlink_to(entry)
        env = dict(os.environ, REACH_SRC=str(SRC), REACH_OUT=str(out),
                   RUNNER_TEMP=str(tmp),
                   PYTHONPATH=os.pathsep.join(map(str, (hook, ROOT / "src",
                                                        ROOT))))
        failed = 0
        steps = ci_steps(CI.read_text()) + perf_steps()
        for n, step in enumerate(steps, 1):
            # The live-scrape step's fixed port may be taken on this host.
            step = step.replace("8787", str(free_port()))
            print(f"[{n}/{len(steps)}] {step.splitlines()[0]}", flush=True)
            proc = subprocess.run(["bash", "-ec", step], cwd=work, env=env,
                                  stdout=subprocess.DEVNULL)
            if proc.returncode:  # a timing gate may miss under the hook;
                failed += 1      # what the step reached still counts
                print(f"    exit {proc.returncode}")
        reached = set()
        for part in out.glob("*.txt"):
            reached.update(part.read_text().split())
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text("".join(f"{r}\n" for r in sorted(reached)))
    print(f"{len(reached)} functions reached; {failed} of {len(steps)} "
          f"steps failed; record in {record}")
    return 0 if reached else 1


def cmd_check(record: Path, ledger: Path) -> int:
    functions, reached = inventory(), set(record.read_text().split())
    rows = read_ledger(ledger.read_text())
    found = problems(functions, reached, rows)
    print("\n".join(found + [""]), end="")
    hit = [f for f in functions if f in reached]
    print(f"{len(hit)} of {len(functions)} functions "
          f"({sum(functions[f] for f in hit)} of {sum(functions.values())} "
          f"lines) reached; {len(rows)} ledger rows; {len(found)} problems")
    return 1 if found else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cmd", choices=("run", "check"))
    parser.add_argument("--record", type=Path, default=RECORD)
    parser.add_argument("--ledger", type=Path, default=LEDGER)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args.record)
    return cmd_check(args.record, args.ledger)


if __name__ == "__main__":
    sys.exit(main())
