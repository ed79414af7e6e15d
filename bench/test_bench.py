"""Tests of the benchmark itself, at tiny pool sizes.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import eqcheck.games  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"robust-aware": 24, "machines": 12, "cli-docs": 24}


def _pool(name, tmp_path):
    return workloads.WORKLOADS[name](random.Random(3), TINY[name],
                                     str(tmp_path / "docs"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_oracle_passes(name, tmp_path):
    jobs = _pool(name, tmp_path)
    assert len({job.kind for job in jobs}) >= 3
    state = run.Run(jobs)
    state.run_pass()
    state.run_pass()
    assert state.problems == {}
    assert state.correct and state.failed == 0
    assert state.attempted == 2 * len(jobs)


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest_and_add_up(name, tmp_path):
    state = run.Run(_pool(name, tmp_path))
    tracer = tracing.Tracer()
    original = eqcheck.games.expected_utility
    tracer.install()
    try:
        state.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert eqcheck.games.expected_utility is original
    assert state.problems == {}

    spans = tracer.spans()
    assert len(spans) > len(state.jobs)
    for index, (name_, start, end, parent, job) in enumerate(spans):
        assert start <= end
        if parent < 0:
            assert name_ == tracing.JOB
            continue
        assert parent < index
        _, p_start, p_end, _, p_job = spans[parent]
        assert p_start <= start and end <= p_end
        assert job == p_job
    assert min(tracer.self_times()) >= -1e-9

    summary = tracer.summary()
    layers = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    job_total = sum(end - start for name_, start, end, _, _ in spans
                    if name_ == tracing.JOB)
    assert math.isclose(summary["bench.traced_job_s"], job_total, rel_tol=1e-9)
    assert math.isclose(layers + summary["bench.unattributed_s"], job_total,
                        rel_tol=1e-9)


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


def test_result_line_lists_declared_metrics(monkeypatch):
    monkeypatch.setattr(workloads, "POOL_SIZE", 12)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _main("--workload", "robust-aware", "--seed", "5",
                            "--seconds", "0.1", "--trace", trace)
        assert code == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [n for n, _ in run.declared(section)]
    assert any(line.startswith("job_p90_ms") and "beyond" in line
               for line in _main("--workload", "machines", "--seed", "5",
                                 "--seconds", "0.1")[1])


def test_digest_repeats(monkeypatch):
    monkeypatch.setattr(workloads, "POOL_SIZE", 24)
    digests = [[line for line in _main("--workload", "cli-docs", "--seed", "7",
                                       "--seconds", "0.1")[1]
                if line.startswith("digest ")] for _ in range(2)]
    assert len(digests[0]) == 1 and digests[0] == digests[1]


def _raising_job(exc, defect=None):
    def call():
        raise exc

    return workloads.Job("raises", call, lambda output: None,
                         lambda output: output, defect)


def test_only_the_known_defect_keeps_the_run_correct(tmp_path):
    docs = workloads.write_documents(random.Random(1), str(tmp_path / "docs"))
    deep = workloads._hostile_job(3, docs)
    assert deep.defect is RecursionError
    state = run.Run([deep, _raising_job(RecursionError(), RecursionError)])
    state.run_pass()
    assert state.correct and state.failed == 2
    for exc in (ValueError("boom"), RecursionError()):
        state = run.Run([_raising_job(exc, KeyError)])
        state.run_pass()
        assert not state.correct and state.failed == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "machines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
