"""The benchmark (perfbench/run.py) runs fixed command lines of this CLI,
so a renamed flag or a tightened setting would fail every job of a
workload.  This pins that each job's argv parses and builds a
configuration, without running it."""

import random

import pytest

from koszulpow import cli


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
