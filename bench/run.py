"""eqcheck benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload machines --seed 1 --seconds 38 --trace 0

The benchmark imports ``eqcheck`` from the checkout's ``src`` directory,
builds a pool of jobs from the seed (set-up), then runs the pool in passes,
one job at a time in a single process (a closed loop with one client),
until the time is used up.  Every job's output is checked outside the
timed interval.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import eqcheck, eqcheck.data; "
                "print(time.perf_counter() - start)")


def import_library():
    """Import eqcheck from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "eqcheck", "__init__.py")):
        raise ImportError(f"no eqcheck sources under {SRC}")
    sys.path.insert(0, SRC)
    import eqcheck
    if os.path.dirname(os.path.dirname(os.path.abspath(eqcheck.__file__))) != SRC:
        raise ImportError(f"eqcheck resolved to {eqcheck.__file__}, not {SRC}")
    return eqcheck


def import_seconds():
    """Import time of eqcheck in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def reference_loop_s():
    """Time of a fixed standard-library Fraction loop; tracks host speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 20001):
        total += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, 7)
    return time.perf_counter() - start


def host_record():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "nproc": cpus,
            "loadavg": os.getloadavg()[0], "fraction_loop_s": reference_loop_s()}


class Run:
    """Timing and checking state of one benchmark run over a job pool."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.expected = [None] * len(jobs)   # canonical output of pass 1
        self.problems = {}                   # job index -> first problem
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digest = None

    def run_pass(self, tracer=None):
        """Run every job once; return per-job wall times and the pass's
        wall time.  Outputs are checked after the timed loop."""
        clock = time.perf_counter
        times = [0.0] * len(self.jobs)
        outputs = [None] * len(self.jobs)
        raised = [None] * len(self.jobs)
        pass_start = clock()
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.begin_job(index)
            start = clock()
            try:
                outputs[index] = job.call()
            except Exception as exc:  # a job that raises counts as failed
                raised[index] = exc
            times[index] = clock() - start
            if tracer is not None:
                tracer.end_job()
        wall = clock() - pass_start
        if tracer is not None:
            for index, job in enumerate(self.jobs):
                if job.kind.startswith(("cli", "hostile")) and raised[index] is None:
                    tracer.counters["cli.report_bytes"] += len(
                        outputs[index][1].encode("utf-8"))
        self._check(outputs, raised)
        return times, wall

    def _check(self, outputs, raised):
        import workloads
        from oracles import Mismatch
        first = self.expected[0] is None
        for index, job in enumerate(self.jobs):
            self.attempted += 1
            if raised[index] is not None:
                exc = raised[index]
                text = f"raised {type(exc).__name__}"
                problem = f"{job.kind}: raised {type(exc).__name__}: {str(exc)[:120]}"
                if job.defect is not None and isinstance(exc, job.defect):
                    problem += " (known defect)"
                else:
                    self.correct = False
            else:
                text = workloads.canonical_text(job, outputs[index])
                problem = None
                if first:
                    try:
                        job.check(outputs[index])
                    except Mismatch as exc:
                        problem = f"{job.kind}: wrong output: {exc}"
                        self.correct = False
                elif text != self.expected[index]:
                    problem = f"{job.kind}: output changed between passes"
                    self.correct = False
            if first:
                self.expected[index] = text
            if problem is not None:
                self.failed += 1
                self.problems.setdefault(index, problem)
        if first:
            digest = hashlib.sha256()
            for text in self.expected:
                digest.update(text.encode("utf-8") + b"\n")
            self.digest = digest.hexdigest()


def passes(run, seconds, tracer=None, spans_path=None, between=None):
    """Alternate untraced passes with traced ones (when tracing) until the
    time is used; every job's best time over its passes is kept per side.
    ``between(progress)`` runs after each pass, outside the timed passes."""
    best = {False: None, True: None}
    walls = {False: [], True: []}
    summaries = []
    elapsed = 0.0
    count = 0
    while True:
        traced = tracer is not None and count % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                times, wall = run.run_pass(tracer)
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                tracer.write(spans_path)
        else:
            times, wall = run.run_pass()
        count += 1
        elapsed += wall
        if between is not None:
            between(elapsed / seconds)
        walls[traced].append(wall)
        best[traced] = times if best[traced] is None else list(map(min, best[traced], times))
        needed = MIN_PASSES * (2 if tracer is not None else 1)
        if count >= needed and elapsed + elapsed / count > seconds:
            return best, walls, summaries


def latency_metrics(best):
    """Throughput and latency percentiles of the per-job best times."""
    p90 = statistics.quantiles(best, n=10)[-1]
    return {
        "jobs_per_s": len(best) / sum(best),
        "job_p50_ms": statistics.median(best) * 1000,
        "job_p90_ms": p90 * 1000,
    }, sum(b > p90 for b in best)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="robust-aware, machines, cli-docs or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    started = time.perf_counter()
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    host = host_record()
    # The jobs run inside a directory of their own, one per process, and
    # name documents relative to it: the CLI reports echo document paths,
    # so the digest must not depend on the directory's name.
    workdir = os.path.join(WORK, f"docs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    home = os.getcwd()
    build = workloads.WORKLOADS[args.workload]
    setup_times = []

    def set_up():
        """One set-up; the first imports in this process, the others in a
        fresh interpreter."""
        seconds = import_seconds() if setup_times else import_s
        start = time.perf_counter()
        jobs = build(random.Random(args.seed), workloads.POOL_SIZE, ".")
        setup_times.append(seconds + time.perf_counter() - start)
        return jobs

    def between(progress):
        # The repeats are spread over the run, so that one slow phase of
        # the host does not take all of them.
        if (len(setup_times) < SETUP_REPEATS
                and progress >= len(setup_times) / SETUP_REPEATS):
            set_up()

    try:
        os.chdir(workdir)
        jobs = set_up()
        run = Run(jobs)
        tracer = tracing.Tracer() if args.trace else None
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
        best, walls, summaries = passes(run, args.seconds, tracer, spans_path,
                                        between)
        while len(setup_times) < SETUP_REPEATS:
            set_up()
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    host_end = host_record()

    untraced, beyond = latency_metrics(best[False])
    print(f"workload {args.workload}  seed {args.seed}  pool {len(jobs)} jobs  "
          f"passes {len(walls[False]) + len(walls[True])}  trace {args.trace}")
    print(f"host: python {host['python']}  nproc {host['nproc']}  "
          f"load {host['loadavg']:.2f} -> {host_end['loadavg']:.2f}  "
          f"fraction loop {host['fraction_loop_s'] * 1000:.1f} -> "
          f"{host_end['fraction_loop_s'] * 1000:.1f} ms")
    print(f"digest {run.digest}")
    for index, problem in sorted(run.problems.items()):
        print(f"failed job {index}: {problem}")

    if args.trace:
        traced, _ = latency_metrics(best[True])
        layer = tracing.median_metrics(summaries)
        layer["bench.trace_overhead_frac"] = (
            1 - traced["jobs_per_s"] / untraced["jobs_per_s"])
        job_s = layer["bench.traced_job_s"]
        for name, value in sorted(layer.items()):
            share = ""
            if name.endswith(".self_s") or name == "bench.unattributed_s":
                share = f"  ({value / job_s:.1%} of traced job time)"
            print(f"{name} = {value:.6g}{share}")
        print(f"spans of one traced pass written to {os.path.relpath(spans_path)}")
        values = layer
        section = "per_layer"
    else:
        values = dict(untraced,
                      setup_s=statistics.median(setup_times),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024,
                      failed_frac=run.failed / run.attempted)
        notes = {
            "job_p90_ms": f"  (n={len(jobs)} jobs, {beyond} beyond it)",
            "failed_frac": f"  ({run.failed} of {run.attempted} attempted)",
        }
        units = dict(declared("end_to_end"), failed_frac="ratio")
        for name in units:
            print(f"{name} = {values[name]:.6g} {units[name]}{notes.get(name, '')}")
        wall_rate = len(jobs) * len(walls[False]) / sum(walls[False])
        print(f"(jobs completed / wall time over all passes: {wall_rate:.6g} 1/s)")
        section = "end_to_end"
    print(f"run took {time.perf_counter() - started:.1f} s")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in declared(section)}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Run every workload in its own process, one after another."""
    code = 0
    for name in ("robust-aware", "machines", "cli-docs"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[section]]


if __name__ == "__main__":
    sys.exit(main())
