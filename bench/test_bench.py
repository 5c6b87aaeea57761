"""Tests of the benchmark's own checks and traces, at tiny n.

Run from the repository root:
    python3 -m pytest -q bench
"""
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import record  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _iterate(procs, seed, workdir, reference, trace=False):
    deadline = time.monotonic() + 120
    return run.run_iteration(procs, seed, workdir, deadline, reference, trace)


def test_wrong_reference_digest_fails_every_subject(workdir):
    entry = record.record_entry("identity", 3, 1, workdir)
    procs = [run.Proc("identity", 3)]
    good = _iterate(procs, 5, workdir, [entry])
    assert (good.attempted, good.failed) == (entry["subjects"], 0)
    bad = _iterate(procs, 5, workdir, [dict(entry, sha256="0" * 64)])
    assert bad.failed == bad.attempted == entry["subjects"]


def test_parallel_report_must_equal_the_serial_one(workdir):
    entry = record.record_entry("conj5.1", 4, 2, workdir)
    it = _iterate([run.Proc("conj5.1", 4, jobs=2)], 5, workdir, [entry])
    assert (it.attempted, it.failed) == (entry["subjects"], 0)
    assert it.cpu_s > 0 and it.wall_s > 0


def test_sampled_claim_under_another_seed_is_checked_by_prefix_and_counts(workdir):
    entry = record.record_entry("thm2.4", 5, 1, workdir)
    assert entry["seed"] is not None and "sampled" in entry
    procs = [run.Proc("thm2.4", 5)]
    other = _iterate(procs, 7, workdir, [entry])
    assert (other.attempted, other.failed) == (entry["subjects"], 0)
    broken = dict(entry, sampled=dict(entry["sampled"], prefix_sha256="0" * 64))
    assert _iterate(procs, 7, workdir, [broken]).failed == entry["subjects"]


def test_best_of_repeats_takes_each_piece_at_its_fastest():
    # totals 10 and 12 over laps [4, 5] and [3, 6]: least rest 1, least laps 3 and 5
    assert run._fastest([10.0, 12.0], [[4.0, 5.0], [3.0, 6.0]]) == 9.0
    assert run._fastest([10.0, 12.0], [[], []]) == 10.0


def test_pool_times_are_medians_relative_to_the_calibration_before_each_iteration():
    its = [run.Iteration(0.1, wall, 2 * wall, 20.0, 1, 0, []) for wall in (1.0, 3.0, 2.0)]
    # ratios 1/0.5, 3/1.0, 2/2.0: medians 2 (wall) and 4 (cpu)
    wall, cpu = run.relative_medians(its, [0.5, 1.0, 2.0])
    assert (wall, cpu) == (2 * run.POOL_CALIBRATION_S, 4 * run.POOL_CALIBRATION_S)


def test_calibration_on_several_processes_reaps_them():
    times = run.calibrate(repeats=2, procs=2)
    assert len(times) == 2 and all(t > 0 for t in times)
    with pytest.raises(ChildProcessError):
        os.wait()


def test_timeout_counts_every_expected_subject_as_failed(workdir):
    entry = record.record_entry("identity", 4, 1, workdir)
    result = run.run_process(run.Proc("identity", 4), 5, workdir, timeout=0.01)
    assert result.status == "TIMEOUT"
    attempted, failed, notes = run.check(result, 5, [entry])
    assert attempted == failed == entry["subjects"]
    assert notes == ["identity: no report"]


def test_schubpat_environment_defaults_are_stripped(workdir, monkeypatch):
    cache = os.path.join(workdir, "cache.jsonl")
    monkeypatch.setenv("SCHUBPAT_CACHE", cache)
    result = run.run_process(run.Proc("identity", 3), 5, workdir, timeout=60)
    assert result.status == "ok"
    assert not os.path.exists(cache)


def test_probe_stops_at_the_first_claim_call(workdir):
    result = run.run_process(run.Proc(None, 3), 5, workdir, timeout=60, probe=True)
    assert result.status == "ok" and result.setup_s > 0
    assert result.wall_s < 0.05


def _counts(metrics):
    return {k: v for k, v in metrics.items() if spans.unit(k) != "s"}


def test_traced_counts_repeat_and_cover_the_layers(workdir):
    entry = record.record_entry("thm4.1", 4, 1, workdir)
    procs = [run.Proc("thm4.1", 4)]
    runs = [
        spans.layer_metrics(spans.merge(_iterate(procs, 5, workdir, [entry], True).traces))
        for _ in range(2)
    ]
    assert _counts(runs[0]) == _counts(runs[1])
    m = runs[0]
    assert m["verify.shards"] == entry["subjects"]
    for key in ("purple.family_calls", "weylchar.chi_fast_calls", "diagrams.dominated_yielded"):
        assert m[key] > 0
    assert m["cli.self_s"] > 0 and m["verify.claim_s.thm4.1"] > 0


def test_pool_workers_dump_their_spans(workdir):
    entry = record.record_entry("conj5.1", 4, 2, workdir)
    it = _iterate([run.Proc("conj5.1", 4, jobs=2)], 5, workdir, [entry], trace=True)
    assert len(it.traces) >= 2  # the parent and at least one worker
    m = spans.layer_metrics(spans.merge(it.traces))
    assert m["verify.shards"] == entry["subjects"]
    assert m["verify.pool_wait_s"] > 0 and m["schubert.spec_calls"] > 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "parallel", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_covers_every_workload():
    reference = run.load_reference()
    for claim, max_n, jobs in record.needed():
        entry, _ = run.find_entry(reference, claim, max_n, jobs, 12345)
        assert entry["verdicts"].keys() <= {"holds", "outside-scope"}
