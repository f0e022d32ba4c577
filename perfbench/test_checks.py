"""Self-tests of the benchmark: report checks and the out-of-process tracer.

Run from the repository root:  python3 -m unittest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checks import check_job, expected_for, module_ranks, tor_ranks  # noqa: E402
from tracer import span_names  # noqa: E402


def tor_report(ranks) -> bytes:
    doc = {"ok": True, "report": {"ranks": ranks}}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class ClosedForms(unittest.TestCase):
    def test_small_cases(self):
        self.assertEqual(tor_ranks(2, 2), [1, 3, 2])
        self.assertEqual(tor_ranks(4, 3), [1, 20, 45, 36, 10])
        self.assertEqual(module_ranks(2, 2), [3, 6, 3])

    def test_expected_for_commands(self):
        self.assertEqual(expected_for(["tor", "--n", "2", "--s", "2"]),
                         {"ranks": [1, 3, 2]})
        self.assertEqual(expected_for(["spectral", "--n", "2", "--s", "2",
                                       "--field", "Z"]),
                         {"collapse.tor_ranks": [1, 3, 2]})
        self.assertEqual(expected_for(["splice", "--n", "5", "--s", "4"]),
                         {"identical": True})


class CheckJob(unittest.TestCase):
    def test_pass(self):
        out = tor_report([1, 3, 2])
        self.assertIsNone(check_job(0, out, b"", {"ranks": [1, 3, 2]}, None))
        self.assertIsNone(check_job(0, out, b"", {"ranks": [1, 3, 2]}, out))

    def test_wrong_expected_rank_is_a_failure_not_a_crash(self):
        why = check_job(0, tor_report([1, 3, 2]), b"", {"ranks": [1, 3, 3]},
                        None)
        self.assertIn("closed form", why)

    def test_failure_kinds(self):
        good = tor_report([1, 3, 2])
        cases = {
            "exit code 1": (1, good, b""),
            "traceback": (1, b"", b"Traceback (most recent call last):\n"),
            "not JSON": (0, b"{truncated", b""),
            '"ok"': (0, b'{"ok": false, "report": {}}', b""),
            "no ranks": (0, b'{"ok": true, "report": {}}', b""),
        }
        for needle, (code, out, err) in cases.items():
            with self.subTest(needle):
                why = check_job(code, out, err, {"ranks": [1, 3, 2]}, None)
                self.assertIsNotNone(why)
                self.assertIn(needle, why)

    def test_bytes_must_repeat(self):
        why = check_job(0, tor_report([1, 3, 2]), b"", {},
                        tor_report([1, 3, 2]).replace(b"\n", b" "))
        self.assertIn("differ", why)

    def test_run_records_failure_and_continues(self):
        job = run.Job("tor", ["tor"], {"ranks": [1, 3, 3]})
        r = run.Run([job], "tor", Path("."))
        bad = run.JobResult(0.1, 1.0, 0.1, 0, tor_report([1, 3, 2]), b"")
        with open(os.devnull, "w") as null:
            saved, sys.stderr = sys.stderr, null
            try:
                r.record(job, bad)
                r.record(job, bad)
            finally:
                sys.stderr = saved
        self.assertEqual(r.attempted, 2)
        self.assertEqual(len(r.failures), 2)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        dirs = [Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
                for _ in range(2)]
        try:
            for w in run.WORKLOADS:
                a, b = (run.make_jobs(w, random.Random(7), d)[0] for d in dirs)
                self.assertEqual([j.name for j in a], [j.name for j in b])
            forms = [(d / "linear_forms.json").read_text() for d in dirs]
            self.assertEqual(forms[0], forms[1])
        finally:
            for d in dirs:
                shutil.rmtree(d)

    def test_prime_range(self):
        primes = run.primes_in(30000, 33000)
        self.assertEqual(primes[0], 30011)
        self.assertTrue(all(30000 <= q < 33000 for q in primes))


class Tracer(unittest.TestCase):
    def traced(self, *argv):
        """Run one CLI job under the tracer.  Returns the plain and traced
        reports, the job's wall time and its per-span totals."""
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        plain = subprocess.run([sys.executable, "-m", "koszulpow.cli", *argv],
                               env=env, capture_output=True, timeout=120)
        with tempfile.TemporaryDirectory() as tmp:
            spans = Path(tmp) / "spans.json"
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                 *argv], env=env, capture_output=True, timeout=120)
            wall = time.perf_counter() - t0
            self.assertEqual(proc.returncode, 0, proc.stderr)
            totals = run.layer_totals(json.loads(spans.read_text()))
        return plain.stdout, proc.stdout, wall, totals

    def test_aliases_are_rebound(self):
        """tor calls tensor_mod_I through the alias homology.tensor_mod_I;
        the spans must see those calls, and the report must not change."""
        plain, traced, _, (calls, _, counters) = self.traced(
            "tor", "--n", "2", "--s", "2")
        self.assertEqual(traced, plain)
        self.assertEqual(calls["homology.tor"], 3)
        self.assertEqual(calls["chain.tensor_mod_I"], 6)
        self.assertEqual(calls["resolution.build_k_ris"], 9)
        self.assertEqual(calls["cli.render_report"], 1)
        self.assertEqual(counters["cli.render_report.bytes"], len(plain))

    def test_thread_pool_spans_are_not_counted_twice(self):
        plain, traced, wall, (calls, self_s, _) = self.traced(
            "verify", "--n", "2", "--s", "2", "--field", "Z", "--workers", "2")
        self.assertEqual(traced, plain)
        self.assertGreater(calls["chain.GradedSlice.rank"], 0)
        self.assertTrue(all(v >= -1e-9 for v in self_s.values()), self_s)
        self.assertLessEqual(sum(self_s.values()), wall)

    def test_benchmark_json_lists_every_metric(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in doc["per_layer"]],
                         list(run.per_layer_units()))
        self.assertEqual({w["name"] for w in doc["workloads"]},
                         set(run.WORKLOADS))
        self.assertTrue(set(f"{n}.calls" for n in span_names())
                        <= set(run.per_layer_units()))


if __name__ == "__main__":
    unittest.main()
