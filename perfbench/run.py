"""End-to-end benchmark of the koszulpow CLI.

Usage:
    python3 perfbench/run.py --workload {tor,exactness,all}
                             --seed N --seconds S --trace {0,1}

Each workload is a fixed list of CLI jobs.  A pass runs every job once, one
after another, each in a fresh interpreter as a user runs it: a closed loop
with one client.  A fresh process per job keeps a cache that lives inside
one interpreter from showing up as a gain CLI users never see.  Every
report is checked (see checks.py); a failed job is recorded with the tail
of its stderr and the run goes on.

--trace 0 measures with tracing off and prints the end-to-end metrics.
--trace 1 alternates untraced passes with passes run under tracer.py and
prints the per-layer metrics: calls and self time of every wrapped
function, a few work counters, and the tracing overhead.

The seed picks the prime p, the job order of each pass, the exponent
permutation and the linear forms of the sequence file; the amount of work
does not depend on it.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_job, expected_for  # noqa: E402
from tracer import span_names  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES_PER_PASS = 3
REFERENCE_SAMPLES_PER_PASS = 2
REFERENCE = BENCH_DIR / "reference.py"
REFERENCE_S = 0.2       # the unit of the job timings: see measure
MIN_PASSES = 3          # the report-bytes check needs repeats
STDERR_TAIL = 400


@dataclass
class Job:
    name: str
    argv: list[str]
    expected: dict


@dataclass
class JobResult:
    wall: float
    rss_mb: float
    cpu: float
    exit_code: int
    stdout: bytes
    stderr: bytes


# -- seeded inputs ------------------------------------------------------------

def primes_in(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, hi, i)))
    return [q for q in range(lo, hi) if sieve[q]]


def linear_forms(rng: random.Random, n: int) -> list[str]:
    """u_i = x_i + sum_{j>i} c_ij x_j with c_ij in {+-1, +-2}: unitriangular,
    so regular over Q and every F_p, with a support that does not depend on
    the seed."""
    forms = []
    for i in range(1, n + 1):
        text = f"x{i}"
        for j in range(i + 1, n + 1):
            c = rng.choice((-2, -1, 1, 2))
            text += f"{'+' if c > 0 else '-'}{abs(c)}*x{j}"
        forms.append(text)
    return forms


def make_jobs(workload: str, rng: random.Random,
              workdir: Path) -> tuple[list[Job], str]:
    """The workload's jobs and the name of its largest one."""
    p = rng.choice(primes_in(30000, 33000))
    fp = f"Fp:{p}"
    perm = rng.choice([(1, 2, 2), (2, 1, 2), (2, 2, 1)])
    forms = linear_forms(rng, 3)
    if workload == "tor":
        jobs = [["tor", "--n", "4", "--s", "3", "--field", fp],
                ["tor", "--n", "3", "--s", "3"],
                ["tor", "--n", "4", "--s", "2", "--field", "Z"],
                ["spectral", "--n", "3", "--s", "3", "--field", "Z"],
                ["tor", "--n", "3", "--s", "4", "--field", fp],
                ["spectral", "--n", "4", "--s", "3", "--field", fp]]
    elif workload == "exactness":
        seq_file = workdir / "linear_forms.json"
        seq_file.write_text(json.dumps(forms) + "\n")
        jobs = [["verify", "--n", "3", "--s", "2", "--sequence",
                 f"file:{os.path.relpath(seq_file, ROOT)}"],
                ["verify", "--n", "3", "--s", "1", "--field", fp,
                 "--sequence", "powers:" + ",".join(map(str, perm))],
                ["verify", "--n", "2", "--s", "3", "--field", "Z",
                 "--workers", "2"],
                ["build", "--n", "3", "--s", "4"],
                ["splice", "--n", "4", "--s", "3"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the temporary directory's name is left out of the job's display name
    out = [Job(" ".join(a).replace(str(workdir.name), "tmp"), a,
               expected_for(a)) for a in jobs]
    return out, out[0].name


WORKLOADS = ("tor", "exactness")


# -- running jobs -------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 50_000    # a few milliseconds of pure-Python work


def probe(cpu: int) -> float:
    """Pin this process to cpu and time a short fixed loop there."""
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def spawn(cmd: list[str], workdir: Path, env: dict) -> JobResult:
    """Run cmd to completion on the CPU that is fastest right now; wall time
    from spawn to reap, rusage of the child from wait4.

    On a shared host a neighbour can slow one CPU by up to 1.8x, for
    anything from a fraction of a second to minutes, while the other CPU
    may run at full speed.  Every CPU is probed just before the job, and
    the job is pinned to the fastest (the child inherits this process's
    affinity).  The probes are not timed."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    try:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {min(CPUS, key=probe)})
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                    env=env, stdin=subprocess.DEVNULL)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
    finally:
        os.sched_setaffinity(0, CPUS)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(wall, ru.ru_maxrss / 1024, ru.ru_utime + ru.ru_stime,
                     proc.returncode, out_path.read_bytes(),
                     err_path.read_bytes())


def helper_sample(argv: list[str], workdir: Path, env: dict) -> float:
    """Wall time of one run of a helper command that must succeed."""
    res = spawn([sys.executable, *argv], workdir, env)
    if res.exit_code != 0:
        raise RuntimeError(f"{' '.join(argv)} failed:\n"
                           + res.stderr.decode(errors="replace"))
    return res.wall


def setup_sample(workdir: Path, env: dict) -> float:
    return helper_sample(["-c", "import koszulpow.cli"], workdir, env)


def reference_sample(workdir: Path, env: dict) -> float:
    return helper_sample([str(REFERENCE)], workdir, env)


class Run:
    """State of one benchmark run: per-job results and failures."""

    def __init__(self, jobs: list[Job], largest: str, workdir: Path):
        self.jobs = jobs
        self.largest = largest
        self.workdir = workdir
        self.env = child_env()
        self.first_stdout: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.cpu = 0.0

    def run_pass(self, order: list[Job], traced: bool):
        """Run each job once.  Returns the wall time of each job by name and,
        when traced, the spans each job wrote."""
        walls, traces = {}, []
        spans_path = self.workdir / "spans.json"
        for job in order:
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"),
                       str(spans_path), *job.argv]
            else:
                cmd = [sys.executable, "-m", "koszulpow.cli", *job.argv]
            res = spawn(cmd, self.workdir, self.env)
            walls[job.name] = res.wall
            self.cpu += res.cpu
            if not traced:
                self.peak_rss_mb = max(self.peak_rss_mb, res.rss_mb)
            self.record(job, res)
            if traced and spans_path.exists():
                traces.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
        return walls, traces

    def record(self, job: Job, res: JobResult) -> None:
        self.attempted += 1
        first = self.first_stdout.get(job.name)
        if first is None:
            self.first_stdout[job.name] = res.stdout
        why = check_job(res.exit_code, res.stdout, res.stderr, job.expected,
                        first)
        if why is not None:
            tail = res.stderr.decode(errors="replace")[-STDERR_TAIL:]
            self.failures.append(f"{job.name}: {why}")
            print(f"FAILED {job.name}: {why}\n  stderr tail: {tail!r}",
                  file=sys.stderr)


# -- aggregation --------------------------------------------------------------

def layer_totals(trace: dict) -> tuple[dict, dict, dict]:
    """Calls and self time per span name, and the counters, of one job.
    Self time is a span's duration minus its direct
    children's durations and its children's counter bookkeeping."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (nid, start, end, _, aux) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i] - aux
    return calls, self_s, trace["counters"]


def merge_pass(traces: list[dict]) -> tuple[dict, dict, dict, float]:
    calls = {name: 0 for name in span_names()}
    self_s = {name: 0.0 for name in span_names()}
    counters: dict[str, int] = {}
    for trace in traces:
        c, s, k = layer_totals(trace)
        for name in c:
            calls[name] += c[name]
            self_s[name] += s[name]
        for key, v in k.items():
            counters[key] = counters.get(key, 0) + v
    return calls, self_s, counters, sum(self_s.values())


def typical_pass(passes: list[dict]) -> float:
    """Time to run every job once: the sum over jobs of each job's fastest
    wall time across passes (measure says why the fastest)."""
    return sum(min(w[name] for w in passes) for name in passes[0])


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"  {name:<16} fastest {min(values):.4f}  median {med:10.4f} "
            f"{unit:<5} q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")


COUNTER_UNITS = {"linalg.rref.cells": "count", "linalg.sparse_rank.nnz": "count",
                 "chain.map_slice.cells": "count",
                 "chain.map_slice.nnz": "count",
                 "chain.map_slice.density": "ratio",
                 "cli.render_report.bytes": "B"}
TRACE_UNITS = {"trace.untraced_pass_s": "s", "trace.pass_s": "s",
               "trace.overhead": "ratio", "trace.self_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    return {**units, **COUNTER_UNITS, **TRACE_UNITS}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run -----------------------------------------------------

def measure(run: Run, rng: random.Random, seconds: float) -> dict:
    """Untraced passes until the next pass would overrun `seconds`.

    Each timing is the fastest sample of the run, as timeit advises: the
    jobs are deterministic, so a slower sample measures a neighbour on the
    host, not the program.  Slow spells can last minutes, longer than a run,
    and then even the fastest sample of a run is slow.  So every timing is
    divided by the fastest time of a fixed reference job (reference.py,
    which does not depend on koszulpow) run in the same passes, and given
    in units of REFERENCE_S: seconds on a host where the reference takes
    REFERENCE_S, close to its fastest time in a 60 s run on a 2-vCPU VM
    (0.16-0.21 s).  The raw times, medians and quartiles are printed above
    the result line."""
    start = perf_counter()
    setups, refs, passes = [], [], []
    while True:
        t0 = perf_counter()
        setups += [setup_sample(run.workdir, run.env)
                   for _ in range(SETUP_SAMPLES_PER_PASS)]
        refs += [reference_sample(run.workdir, run.env)
                 for _ in range(REFERENCE_SAMPLES_PER_PASS)]
        walls, _ = run.run_pass(rng.sample(run.jobs, len(run.jobs)),
                                traced=False)
        passes.append(walls)
        step = perf_counter() - t0
        if len(passes) >= MIN_PASSES and \
                perf_counter() + step - start > seconds:
            break
    largest = min(w[run.largest] for w in passes)
    raw_pass = typical_pass(passes)
    scale = REFERENCE_S / min(refs)
    print(describe("setup samples", setups, "s"))
    print(describe("reference", refs, "s"))
    for job in run.jobs:
        print(describe(job.name, [w[job.name] for w in passes], "s"))
    print(describe("pass totals", [sum(w.values()) for w in passes], "s"))
    print(f"  {'scale':<16} {scale:.4f} ({REFERENCE_S} s / fastest reference, "
          f"n={len(refs)})")
    print(f"  {'setup_s':<16} {min(setups) * scale:.4f} s (fastest "
          f"{min(setups):.4f} s x scale, n={len(setups)})")
    print(f"  {'pass_s':<16} {raw_pass * scale:.4f} s (sum of per-job fastest "
          f"{raw_pass:.4f} s x scale, n={len(passes)} passes)")
    print(f"  {'largest_job_s':<16} {largest * scale:.4f} s ({run.largest}, "
          f"fastest {largest:.4f} s x scale, n={len(passes)})")
    print(f"  {'peak_rss_mb':<16} {run.peak_rss_mb:.4f} MB "
          f"(max over {run.attempted} jobs)")
    print(f"  {'fail_ratio':<16} {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / run.attempted:.4f}")
    wall = sum(sum(w.values()) for w in passes)
    print(f"  cpu/wall of jobs {run.cpu / wall:.3f}")
    return {"setup_s": metric(min(setups) * scale, "s"),
            "pass_s": metric(raw_pass * scale, "s"),
            "largest_job_s": metric(largest * scale, "s"),
            "peak_rss_mb": metric(run.peak_rss_mb, "MB")}


def measure_traced(run: Run, rng: random.Random, seconds: float) -> tuple[dict, bool]:
    """Alternate an untraced and a traced pass until the next pair would
    overrun `seconds`.  Returns the per-layer metrics and whether the trace
    is consistent: call counts repeat exactly between traced passes, and
    the self time of a pass never exceeds its wall time."""
    start = perf_counter()
    plain, traced, per_pass = [], [], []
    while True:
        t0 = perf_counter()
        walls, _ = run.run_pass(rng.sample(run.jobs, len(run.jobs)),
                                traced=False)
        plain.append(walls)
        walls, traces = run.run_pass(rng.sample(run.jobs, len(run.jobs)),
                                     traced=True)
        traced.append(walls)
        per_pass.append(merge_pass(traces))
        step = perf_counter() - t0
        if perf_counter() + step - start > seconds:
            break
    ok = True
    calls, _, counters, _ = per_pass[0]
    if any(p[0] != calls or p[2] != counters for p in per_pass):
        ok = False
        print("trace: call counts or counters differ between passes",
              file=sys.stderr)
    shares = [p[3] / sum(w.values()) for p, w in zip(per_pass, traced)]
    if max(shares) > 1.0:
        ok = False
        print(f"trace: self time exceeds pass wall time ({max(shares):.3f})",
              file=sys.stderr)
    plain_med, traced_med = typical_pass(plain), typical_pass(traced)
    cells = counters.get("chain.map_slice.cells", 0)
    values = {
        **{f"{name}.calls": calls[name] for name in span_names()},
        **{f"{name}.self_s": min(p[1][name] for p in per_pass)
           for name in span_names()},
        **{key: counters.get(key, 0) for key in COUNTER_UNITS},
        "chain.map_slice.density":
            counters.get("chain.map_slice.nnz", 0) / cells if cells else 0.0,
        "trace.untraced_pass_s": plain_med,
        "trace.pass_s": traced_med,
        "trace.overhead": traced_med / plain_med,
        "trace.self_share": statistics.median(shares),
    }
    metrics = {k: metric(values[k], unit)
               for k, unit in per_layer_units().items()}

    print(f"  untraced pass_s {plain_med:.4f} s, traced pass_s "
          f"{traced_med:.4f} s, {len(traced)} pass(es) each")
    print(f"  trace overhead   {traced_med / plain_med:.3f} "
          f"(traced / untraced pass_s)")
    print(f"  self time / traced wall {min(shares):.3f}..{max(shares):.3f}")
    print(f"  {'span':<34} {'calls':>8} {'self_s':>9}")
    for name in sorted(span_names(), key=lambda k: -metrics[k + ".self_s"]["value"]):
        if calls[name]:
            print(f"  {name:<34} {calls[name]:>8} "
                  f"{metrics[name + '.self_s']['value']:>9.4f}")
    for key, v in sorted(counters.items()):
        print(f"  {key:<34} {v:>8}")
    return metrics, ok


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        jobs, largest = make_jobs(workload, rng, workdir)
        run = Run(jobs, largest, workdir)
        setup_sample(workdir, run.env)      # compile bytecode once, untimed
        print(f"workload {workload}, seed {seed}, "
              f"{'traced' if trace else 'untraced'}: "
              f"{len(jobs)} jobs per pass, closed loop, one client")
        if trace:
            metrics, ok = measure_traced(run, rng, seconds)
        else:
            metrics, ok = measure(run, rng, seconds), True
    return {"correct": ok and not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "koszulpow" / "cli.py").is_file():
        print(f"error: no koszulpow sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
