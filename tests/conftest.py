import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls("module.function", "module.Class.method", ...) wraps
    each named koszulpow function in every koszulpow module that binds it
    (a method on its class), and returns the dict name -> number of calls,
    updated as the test runs."""

    def install(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            mod, *path = name.split(".")
            owner = importlib.import_module(f"koszulpow.{mod}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1])

            def wrapper(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            if len(path) > 1:
                monkeypatch.setattr(owner, path[-1], wrapper)
                continue
            for key, m in list(sys.modules.items()):
                if key.startswith("koszulpow."):
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            monkeypatch.setattr(m, attr, wrapper)
        return calls

    return install


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py loaded as a module; it puts its own directory on
    sys.path and imports its siblings checks and tracer from there."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    siblings = {"checks", "tracer"} - set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    yield run
    for name in siblings:
        sys.modules.pop(name, None)
