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
loads is paid per job: it must register every module the benchmark tracer
wraps, and load neither ``dataclasses`` nor ``inspect``.  ``fractions``
(with ``decimal`` and ``numbers``) waits for the first proper fraction,
which no benchmark job forms.  The package's submodules load lazily, so a
job compiles only the modules its command reads, and only help and errors
import ``argparse``; the package still re-exports the same objects.

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
    after ``import koszulpow``, so each of those modules must be registered
    by then; a lazy one loads on the tracer's first attribute access.
    ``dataclasses`` (which pulls in ``inspect``) cost each job about 13 ms
    to import and 20 ms to generate the record classes' methods."""
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


# The names the package re-exports, by home module; __all__ also lists the
# submodules themselves (all but cli), as `from koszulpow import *` did when
# every submodule was imported eagerly.
REEXPORTS = {
    "poly": ["Domain", "QQ", "ZZ", "GF", "parse_domain", "Polynomial",
             "RegularSequenceSpec"],
    "parse": ["parse_poly", "ParseError"],
    "linalg": ["rank_dense", "kernel_basis", "solve", "sparse_rank",
               "SmithForm", "smith_normal_form"],
    "ideals": ["hilbert_function", "tags_of_length", "tag_product"],
    "quotients": ["PowerReducer", "SubquotientModule"],
    "chain": ["Label", "FreeModule", "SparseMap", "ChainComplex", "ChainMap",
              "make_label", "verify_complex", "tensor_mod_I", "element_str"],
    "koszul": ["koszul_complex", "q_complex", "q_module", "del_map",
               "verify_identities"],
    "morse": ["tensor_mod_I_complex"],
    "resolution": ["build_k_ris", "verify_exactness", "dga_multiply",
                   "reduction_chain_map", "homology_slice_dims"],
    "homology": ["tor", "TorReport", "tor_products", "homology_ranks",
                 "freeness_check", "divisor_report", "induced_tor_map",
                 "koszul_regularity_probe"],
    "spectral": ["e1_page", "e2_page", "collapse_check", "support_blocks"],
    "extensions": ["GradedSES", "power_ses", "split_power_ses",
                   "ConnectingMap", "verify_connecting", "splice",
                   "power_connecting", "iterated_splice",
                   "theta_representative"],
}


def test_reexports_are_the_home_objects():
    import koszulpow
    names = [name for names in REEXPORTS.values() for name in names]
    assert sorted(koszulpow.__all__) == sorted([*REEXPORTS, *names])
    for module, names in REEXPORTS.items():
        home = importlib.import_module(f"koszulpow.{module}")
        assert getattr(koszulpow, module) is home
        for name in names:
            scope = {}
            exec(f"from koszulpow import {name}", scope)
            assert getattr(koszulpow, name) is scope[name] \
                is getattr(home, name)
    star = {}
    exec("from koszulpow import *", star)
    assert star.keys() - {"__builtins__"} == set(koszulpow.__all__)


def test_unknown_name_raises_the_standard_error():
    import types
    import koszulpow
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("koszulpow").mono_mul
    for lookup in (lambda: koszulpow.mono_mul,
                   lambda: koszulpow.__getattr__("mono_mul")):
        with pytest.raises(AttributeError) as got:
            lookup()
        assert str(got.value) == str(plain.value)
    with pytest.raises(ImportError, match="cannot import name 'mono_mul'"):
        exec("from koszulpow import mono_mul", {})


# installs the benchmark tracer and prints the LAYERS functions that carry
# no __wrapped__, looked up on their home modules and on the package
TRACED = """
import sys
import koszulpow
from tracer import LAYERS, Tracer
Tracer().install()
bare = []
for mod, fns in LAYERS.items():
    for fn in fns:
        obj = sys.modules[f"koszulpow.{mod}"]
        for part in fn.split("."):
            obj = getattr(obj, part)
        if not hasattr(obj, "__wrapped__") or \
                fn in koszulpow.__all__ and getattr(koszulpow, fn) is not obj:
            bare.append(f"{mod}.{fn}")
print(bare)
"""


def test_tracer_wraps_every_layer_of_the_lazy_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), str(TRACER.parent)]))
    out = subprocess.run([sys.executable, "-c", TRACED], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# cli.run(argv[1]) with output discarded, or only the import if argv[1] is
# null; prints the package files whose code ran (an "exec" audit event for
# each module body, from source or .pyc) and whether argparse was imported
EXECUTED = """
import io, json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(args[0].co_filename))
from koszulpow.cli import run
sys.stdout = io.StringIO()
try:
    argv = json.loads(sys.argv[1])
    if argv is not None:
        run(argv)
except SystemExit:
    pass
sys.stdout = sys.__stdout__
print(json.dumps([sorted(os.path.basename(f) for f in ran
                         if os.path.dirname(f) == sys.argv[2]),
                  "argparse" in sys.modules]))
"""


def executed(argv: list[str] | None) -> tuple[set[str], bool]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", EXECUTED, json.dumps(argv), str(PACKAGE)],
        cwd=PACKAGE.parents[1], env=env, capture_output=True, text=True,
        check=True).stdout
    files, parser = json.loads(out)
    return set(files), parser


def test_each_job_runs_only_the_modules_its_command_reads(bench, tmp_path):
    jobs = []
    for workload in bench.WORKLOADS:
        batch, _ = bench.make_jobs(workload, random.Random(5), tmp_path)
        jobs += [job.argv for job in batch]
    assert len(jobs) == 11
    tor = {"resolution.py", "parse.py", "quotients.py", "extensions.py"}
    checks = {"spectral.py", "extensions.py", "quotients.py"}
    skipped = {"tor": tor, "spectral": tor, "verify": checks,
               "build": checks, "splice": set()}
    for argv in jobs:
        files, parser = executed(argv)
        assert not files & skipped[argv[0]], argv
        assert {"cli.py", "homology.py"} <= files, argv
        assert not parser, argv
        assert ("parse.py" in files) == any(a.startswith("file:")
                                            for a in argv), argv
        if argv[0] == "splice":
            assert {"extensions.py", "quotients.py"} <= files
    files, parser = executed(["tor", "--help"])
    assert parser and "extensions.py" not in files


def test_cli_import_runs_no_module_only_some_commands_read():
    files, parser = executed(None)
    assert {"cli.py", "homology.py", "morse.py"} <= files
    assert not files & {"resolution.py", "parse.py", "quotients.py",
                        "spectral.py", "extensions.py"}
    assert not parser


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
