"""The benchmark (perfbench/run.py) runs fixed command lines of this CLI,
so a renamed flag or a tightened setting would fail every job of a
workload.  This pins that each job's argv parses and builds a
configuration, without running it."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from koszulpow import cli

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


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


@pytest.mark.parametrize("seed", [0, 1])
def test_every_job_builds_a_config(bench, seed, tmp_path):
    for workload in bench.WORKLOADS:
        jobs, largest = bench.make_jobs(workload, random.Random(seed),
                                        tmp_path)
        assert largest in [job.name for job in jobs]
        for job in jobs:
            cfg = cli.build_config(cli.make_parser().parse_args(job.argv))
            assert cfg.command == job.argv[0]
            flags = dict(zip(job.argv[1::2], job.argv[2::2]))
            assert cfg.workers == int(flags.get("--workers", 1))
