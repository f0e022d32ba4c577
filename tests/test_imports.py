"""No module of the package imports a name it never uses, or anything
outside the standard library and the package itself.

There is no linter among the dependencies, so this walks each module's
syntax tree with ``ast``: every name bound by an import must appear as a
name somewhere else in the module.  ``__init__.py`` is left out of that
check because its imports are the package's re-exports.  The runtime has
no dependencies, so every absolute import must name a module of
``sys.stdlib_module_names`` or the package.  The Tor oracle
(``tests/oracles.py``) is an independent route, so it may import the
standard library only, not the package.

Every CLI job starts a fresh interpreter, so what ``import koszulpow.cli``
loads is paid per job: it must load every module the benchmark tracer
wraps, and neither ``dataclasses`` nor ``inspect``.  ``fractions`` (with
``decimal`` and ``numbers``) waits for the first proper fraction, which
no benchmark job forms.

No module-level function or class of the package is dead: each is named
in the package, the tests, the demos or the benchmark outside its own
definition, so a deletion leaves no orphan behind.
"""

import ast
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "koszulpow"
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"
ORACLE = PACKAGE.parents[1] / "tests" / "oracles.py"
SEARCHED = [PACKAGE.parents[1] / d for d in ("src", "tests", "demos",
                                              "perfbench")]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALLOWED = sys.stdlib_module_names | {PACKAGE.name}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_name():
    src = "from math import gcd, lcm\nimport os.path\nprint(lcm(2, 3))\n"
    assert unused_imports(src) == ["line 1: gcd", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str, allowed=ALLOWED) -> list[str]:
    """Imports of modules outside allowed (by default the standard library
    and the package); a relative import is the package's own."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module if node.level == 0 else PACKAGE.name]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in names
                if name.split(".")[0] not in allowed]
    return out


def test_checker_flags_a_foreign_module():
    src = ("from __future__ import annotations\nimport os.path, numpy\n"
           "from . import poly\nfrom koszulpow.chain import compose\n"
           "from sympy.core import Symbol\n")
    assert foreign_imports(src) == ["line 2: numpy", "line 5: sympy.core"]
    assert foreign_imports(src, sys.stdlib_module_names) == [
        "line 2: numpy", f"line 3: {PACKAGE.name}",
        f"line 4: {PACKAGE.name}.chain", "line 5: sympy.core"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_standard_library_only(path):
    assert foreign_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Absolute module names a module imports (relative imports left out)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


def test_only_poly_imports_fractions():
    """Over Q a scalar is an int unless it is a proper fraction; poly.Domain
    alone decides that form, so no other module handles Fraction."""
    assert imported_modules("import os, fractions as f\nfrom . import x\n"
                            "from fractions import Fraction\n") == \
        {"os", "fractions"}
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if "fractions" in imported_modules(p.read_text())] == ["poly.py"]


def test_linalg_keeps_no_heap():
    """linalg eliminates by inserting rows into one basis keyed by pivot
    column; no rows wait in a heap of leading columns."""
    assert "heapq" not in imported_modules(
        (PACKAGE / "linalg.py").read_text())


def test_oracle_imports_only_the_standard_library():
    assert foreign_imports(ORACLE.read_text(), sys.stdlib_module_names) == []


def test_cli_import_loads_traced_layers_and_no_dataclasses():
    """perfbench/tracer.py patches the functions in its LAYERS table right
    after ``import koszulpow``, so each of those modules must be loaded by
    then.  ``dataclasses`` (which pulls in ``inspect``) cost each job about
    13 ms to import and 20 ms to generate the record classes' methods."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, koszulpow.cli; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert {f"koszulpow.{m}" for m in tracer.LAYERS} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
    assert not RATIONALS & loaded


RATIONALS = {"fractions", "decimal", "numbers"}

# cli.run on each argv of argv[1] (a JSON list of lists), output discarded;
# prints the exit codes and which of RATIONALS are loaded after the runs
RUN_ALL = """
import io, json, sys
from koszulpow.cli import run
stdout, codes = sys.stdout, []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    codes.append(run(argv))
sys.stdout = stdout
print(json.dumps([codes, sorted({"fractions", "decimal", "numbers"}
                                & set(sys.modules))]))
"""


def run_all(jobs: list[list[str]]) -> tuple[list[int], list[str]]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(jobs)],
                         cwd=PACKAGE.parents[1], env=env, capture_output=True,
                         text=True, check=True).stdout
    return tuple(json.loads(out))


def test_benchmark_jobs_import_no_rationals(bench, tmp_path):
    """Each benchmark job computes over native ints only; a proper
    fraction in the sequence is what loads fractions."""
    jobs = []
    for workload in bench.WORKLOADS:
        batch, _ = bench.make_jobs(workload, random.Random(3), tmp_path)
        jobs += [job.argv for job in batch]
    assert len(jobs) == 11
    assert run_all(jobs) == ([0] * 11, [])
    half = ["tor", "--n", "2", "--s", "1",
            "--sequence", 'explicit:["1/2*x1", "x2"]']
    assert run_all([half]) == ([0], sorted(RATIONALS))


def unreferenced(sources: dict[str, str], defining: list[str]) -> list[str]:
    """The module-level functions and classes of the defining files (keys
    of sources) whose name, as a word, appears in no source outside the
    lines of its own definition, decorators included."""
    out = []
    for path in defining:
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines = sources[path].splitlines()
            rest = {**sources, path: "\n".join(lines[:first - 1]
                                               + lines[node.end_lineno:])}
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(text) for text in rest.values()):
                out.append(f"{path}: {node.name}")
    return out


def test_checker_flags_an_unreferenced_function():
    src = ("import functools\n\n\ndef used():\n    return 1\n\n\n"
           "@functools.cache\ndef orphan():\n    return orphan()\n\n\n"
           "class Kept:\n    x = used()\n")
    other = "from m import Kept\nKept()\n"
    assert unreferenced({"m.py": src, "t.py": other}, ["m.py"]) == \
        ["m.py: orphan"]
    assert unreferenced({"m.py": src}, ["m.py"]) == \
        ["m.py: orphan", "m.py: Kept"]


def test_no_unreferenced_definitions():
    root = PACKAGE.parents[1]
    sources = {str(p.relative_to(root)): p.read_text()
               for d in SEARCHED for p in sorted(d.rglob("*.py"))}
    assert unreferenced(sources, [str(p.relative_to(root)) for p in
                                  sorted(PACKAGE.glob("*.py"))]) == []
