#!/usr/bin/env python3
"""The schubpat benchmark: cold, hermetic `schubpat verify` processes, timed from outside.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Each iteration of a workload starts its processes fresh, one after the
other (a closed loop with one caller), so every module-level memo table
starts empty.  Iterations repeat while the next one is expected to end
within S seconds (at least one runs).  Every report is checked against
`bench/reference.json`.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, where attempted and
failed count report subjects.  With `--trace 0` the metrics are the
end-to-end ones: wall and CPU time as the best of the run's repeats,
shard by shard, and set-up time as a median; all three are rescaled by a
calibration loop timed between iterations, so that a run made while
the machine is slow reads like one made while it is fast (see README.md).
A workload with a process pool cannot be cut into shards: its wall and
CPU time are the median over iterations of each one's time relative to
a calibration run on as many processes at once, just before it.
With `--trace 1` iterations alternate untraced and traced, and the
metrics are the per-layer ones.  Earlier lines record the machine, the
seed, every iteration as measured, and the calibration.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROGRAM = os.path.join(ROOT, "src", "schubpat", "cli.py")
REFERENCE = os.path.join(BENCH, "reference.json")
BAD_VERDICTS = ("fails", "budget-exceeded")

RUN_DEADLINE_S = 150.0  # a run must end well within three minutes
PROBE_ROUNDS = 6  # extra start-ups per run, so setup_s is a median of several
MIN_ITERATIONS = 2  # best of repeats needs a repeat, even when one overruns --seconds
# Fastest time of `_calibration_loop` on the machine the reference numbers
# come from (2 vCPUs, Python 3.11.7); the times are rescaled to that speed.
CALIBRATION_S = 0.0103
# Median time of the loop on the same machine when two processes run it at
# once, as a pool's two workers do; pool workloads are rescaled to it.
POOL_CALIBRATION_S = 0.0175


@dataclasses.dataclass(frozen=True)
class Proc:
    """One process of a workload: `schubpat verify CLAIM` or the whole suite."""

    claim: str | None  # None: every claim in sorted order in one process
    max_n: int
    jobs: int = 1

    @property
    def claims(self) -> list[str]:
        return [self.claim] if self.claim else list(spans.CLAIMS)

    def label(self) -> str:
        name = self.claim or "suite"
        return f"{name}@n{self.max_n}" + (f"/j{self.jobs}" if self.jobs > 1 else "")


# Scaled so that one iteration fits a run several times over; see README.md.
WORKLOADS: dict[str, list[Proc]] = {
    "subword-spec": [Proc("identity", 6)],
    "suite-n5": [Proc(None, 5)],
    "parallel": [Proc("conj5.1", 6, jobs=2)],
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclasses.dataclass
class ProcResult:
    proc: Proc
    status: str  # ok | error | TIMEOUT
    exit_code: int | None
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    reports: dict[str, bytes | None]
    traces: list[dict]
    laps: list[tuple[float, float]]  # (wall, cpu) per run_claim resumption


def child_env() -> dict[str, str]:
    """The caller's environment without SCHUBPAT_* defaults read by the CLI."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SCHUBPAT_")}


def run_process(
    proc: Proc, seed: int, workdir: str, timeout: float, trace: bool = False, probe: bool = False
) -> ProcResult:
    """Start one cold process, wait for it and collect its times and reports."""
    tag = tempfile.mkdtemp(dir=workdir)
    marks_path = os.path.join(tag, "marks.json")
    mode = ("probe-" if probe else "") + ("suite" if proc.claim is None else "cli")
    argv = [sys.executable, os.path.join(BENCH, "child.py"), marks_path, mode]
    if trace:
        trace_dir = os.path.join(tag, "trace")
        os.mkdir(trace_dir)
        argv += ["--trace-dir", trace_dir]
    if proc.claim is None:
        out_dir = os.path.join(tag, "out")
        os.mkdir(out_dir)
        argv += ["--", str(proc.max_n), str(seed), out_dir]
        paths = {c: os.path.join(out_dir, f"{c}.jsonl") for c in proc.claims}
    else:
        report = os.path.join(tag, "report.jsonl")
        argv += ["--", "verify", proc.claim, "--max-n", str(proc.max_n), "--seed", str(seed)]
        argv += ["--jobs", str(proc.jobs), "--format", "json", "--out", report]
        paths = {proc.claim: report}

    with open(os.path.join(tag, "stderr"), "wb") as err:
        launch = time.monotonic()
        child = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,  # pool workers share its process group
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            _kill_group(child.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        reaped = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(child.pid)

    marks = {}
    if os.path.exists(marks_path):
        with open(marks_path, encoding="utf-8") as fh:
            marks = json.load(fh)
    first = marks.get("first_call", reaped)
    state = "TIMEOUT" if timed_out.is_set() else ("ok" if child.returncode in (0, 2, 3) else "error")
    if state != "ok":
        with open(os.path.join(tag, "stderr"), "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace").strip()
        print(f"# {state} {proc.label()} exit={child.returncode} {tail}", flush=True)
    reports = {}
    for claim, path in paths.items():
        reports[claim] = _read(path) if state == "ok" else None
    traces = []
    if trace:
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                traces.append(json.load(fh))
    shutil.rmtree(tag)
    return ProcResult(
        proc=proc,
        status=state,
        exit_code=child.returncode,
        setup_s=first - launch,
        wall_s=marks.get("end", reaped) - first,
        cpu_s=usage.ru_utime + usage.ru_stime,  # includes the pool workers it reaped
        # wait4's maxrss would include this process's own peak, recorded at exec
        rss_mb=marks.get("peak_rss_kb", usage.ru_maxrss) / 1024.0,
        reports=reports,
        traces=traces,
        laps=[tuple(lap) for lap in marks.get("laps", [])],
    )


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, patience: float = 5.0) -> None:
    """Make sure no process of the child's group (a pool worker) outlives it."""
    deadline = time.monotonic() + patience
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.01)


# -- correctness ---------------------------------------------------------------


def load_reference(path: str = REFERENCE) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def find_entry(reference: list[dict], claim: str, max_n: int, jobs: int, seed: int):
    """The entry for this run, and whether it fixes the report's bytes.

    An entry with seed null holds for every seed.  A claim that samples
    under an unrecorded seed falls back to its recorded entry and is
    checked by its unsampled prefix, verdicts and subject counts only.
    """
    matches = [
        e
        for e in reference
        if (e["claim"], e["max_n"], e["jobs"]) == (claim, max_n, jobs)
    ]
    for e in matches:
        if e["seed"] is None or e["seed"] == seed:
            return e, True
    for e in matches:
        if "sampled" in e:
            return e, False
    raise KeyError(f"no reference for {claim} n<={max_n} jobs={jobs} seed={seed}")


def _subject_size(subject: str) -> int:
    return subject.count(",") + 1 if "," in subject else len(subject)


def check_report(data: bytes | None, entry: dict, exact: bool) -> tuple[int, int, str]:
    """(subjects attempted, subjects failed, note) for one claim's report."""
    expected = entry["subjects"]
    if data is None:
        return expected, expected, "no report"
    lines = data.splitlines(keepends=True)
    everything = max(len(lines), expected)
    if exact:
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            return everything, everything, "report differs from the reference"
        return len(lines), sum(entry["verdicts"].get(v, 0) for v in BAD_VERDICTS), ""
    try:
        records = [json.loads(line) for line in lines]
        bad = sum(r["verdict"] in BAD_VERDICTS for r in records)
        sizes = [_subject_size(r["subject"]) for r in records]
    except (ValueError, TypeError, KeyError):
        return everything, everything, "unparsable report"
    sampled = entry["sampled"]
    k = sum(size <= sampled["unsampled_max_n"] for size in sizes)
    lo, hi = sampled["sampled_subjects"]
    if hashlib.sha256(b"".join(lines[:k])).hexdigest() != sampled["prefix_sha256"]:
        return everything, everything, "unsampled part differs from the reference"
    if k != sampled["prefix_subjects"] or not lo <= len(lines) - k <= hi:
        return everything, everything, f"subject count {len(lines)} out of range"
    return len(lines), bad, ""


def check(result: ProcResult, seed: int, reference: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for claim in result.proc.claims:
        entry, exact = find_entry(reference, claim, result.proc.max_n, result.proc.jobs, seed)
        a, f, note = check_report(result.reports.get(claim), entry, exact)
        attempted += a
        failed += f
        if note:
            notes.append(f"{claim}: {note}")
    return attempted, failed, notes


# -- one iteration, one run ----------------------------------------------------


@dataclasses.dataclass
class Iteration:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    results: list[ProcResult]

    @property
    def traces(self) -> list[dict]:
        return [d for r in self.results for d in r.traces]


def run_iteration(
    procs: list[Proc], seed: int, workdir: str, deadline: float, reference: list[dict], trace: bool
) -> Iteration:
    results = []
    attempted = failed = 0
    for proc in procs:
        r = run_process(proc, seed, workdir, max(1.0, deadline - time.monotonic()), trace=trace)
        a, f, notes = check(r, seed, reference)
        attempted += a
        failed += f
        for note in notes:
            print(f"# FAILED {proc.label()} {note}", flush=True)
        if trace and proc.jobs > 1 and len(r.traces) < 2:
            print(f"# {proc.label()}: worker spans not collected, parent's spans only")
        results.append(r)
    return Iteration(
        setup_s=sum(r.setup_s for r in results),
        wall_s=sum(r.wall_s for r in results),
        cpu_s=sum(r.cpu_s for r in results),
        peak_rss_mb=max(r.rss_mb for r in results),
        attempted=attempted,
        failed=failed,
        results=results,
    )


def best_of_repeats(iterations: list[Iteration]) -> tuple[float, float]:
    """Wall and CPU time of one iteration, each piece at its fastest repeat.

    The pieces of a serial process are its `run_claim` resumptions, one
    shard each, and the rest of its span (for CPU: of its whole life).
    Summing each piece's minimum over the run's iterations discounts the
    stretches in which the machine ran slow, as `timeit` takes the best
    of its repeats.
    """
    wall = cpu = 0.0
    for p in range(len(iterations[0].results)):
        repeats = [i.results[p] for i in iterations]
        n = len(repeats[0].laps) if len({len(r.laps) for r in repeats}) == 1 else 0
        wall += _fastest([r.wall_s for r in repeats], [[x[0] for x in r.laps[:n]] for r in repeats])
        cpu += _fastest([r.cpu_s for r in repeats], [[x[1] for x in r.laps[:n]] for r in repeats])
    return wall, cpu


def _fastest(totals: list[float], pieces: list[list[float]]) -> float:
    """The least remainder of the totals plus, per piece, its least value."""
    rest = min(total - sum(p) for total, p in zip(totals, pieces))
    return rest + sum(map(min, zip(*pieces)))


def relative_medians(iterations: list[Iteration], calibration: list[float]) -> tuple[float, float]:
    """Wall and CPU time of one iteration of a pool workload, in calibration units.

    A pool process is not cut into shards, as its resumptions only wait
    on workers, and its time depends on how busy every processor of the
    machine is.  Each iteration's time is divided by the calibration
    timed on as many processes just before it, and the median of those
    ratios over the run is rescaled by `POOL_CALIBRATION_S`.
    """
    wall = statistics.median(i.wall_s / c for i, c in zip(iterations, calibration))
    cpu = statistics.median(i.cpu_s / c for i, c in zip(iterations, calibration))
    return wall * POOL_CALIBRATION_S, cpu * POOL_CALIBRATION_S


def _calibration_loop() -> int:
    """Fixed pure-Python work of the kind schubpat does: tuple keys in a dict."""
    d: dict[tuple[int, int, int], int] = {}
    for i in range(40000):
        key = (i % 251, i % 17, i % 5)
        d[key] = d.get(key, 0) + (i * 7) % 11
    return len(d)


def calibrate(repeats: int = 5, procs: int = 1) -> list[float]:
    """Times of the calibration loop, run between iterations.

    With one process the loop runs in this one.  With more, each repeat
    forks that many processes that run it at once, as a pool's workers
    do, and takes the slowest one's time.
    """
    if procs > 1:
        return [_calibrate_at_once(procs) for _ in range(repeats)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return times


def _calibrate_at_once(procs: int) -> float:
    children = []
    for _ in range(procs):
        readable, writable = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:  # a first, untimed loop pays for the copy-on-write faults
                os.close(readable)
                _calibration_loop()
                best = math.inf
                for _ in range(2):
                    begin = time.perf_counter()
                    _calibration_loop()
                    best = min(best, time.perf_counter() - begin)
                os.write(writable, repr(best).encode())
            finally:
                os._exit(0)
        os.close(writable)
        children.append((pid, readable))
    try:
        return max(float(os.read(readable, 64)) for _, readable in children)
    finally:
        for pid, readable in children:
            os.close(readable)
            os.waitpid(pid, 0)


def probe_setup(procs: list[Proc], seed: int, workdir: str) -> float:
    """Start-up to the first claim call, summed over the workload's processes."""
    return sum(run_process(p, seed, workdir, 60.0, probe=True).setup_s for p in procs)


def machine_facts(seed: int) -> dict:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        loadavg = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": loadavg,
        "seed": seed,
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4f} q1 {q1:.4f} q3 {q3:.4f} (n={len(values)})"


def run(workload: str, seed: int, seconds: int, trace: bool, reference: list[dict]) -> dict:
    procs = WORKLOADS[workload]
    jobs = max(p.jobs for p in procs)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="schubpat-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        probe_setup(procs, seed, workdir)  # warm the bytecode cache; not recorded
        setups = [] if trace else [probe_setup(procs, seed, workdir) for _ in range(PROBE_ROUNDS)]
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        calibration: list[float] = []
        pool_calibration: list[float] = []  # one median per iteration, if jobs > 1
        while True:
            begin = time.monotonic()
            calibration += calibrate()
            if jobs > 1:
                pool_calibration.append(statistics.median(calibrate(procs=jobs)))
            for traced_pass in ((False, True) if trace else (False,)):
                it = run_iteration(procs, seed, workdir, deadline, reference, traced_pass)
                (traced if traced_pass else plain).append(it)
                print(
                    f"# iteration {len(plain)}{' traced' if traced_pass else ''}: "
                    f"wall_s {it.wall_s:.4f} cpu_s {it.cpu_s:.4f} setup_s {it.setup_s:.4f} "
                    f"peak_rss_mb {it.peak_rss_mb:.1f} failed {it.failed}/{it.attempted}",
                    flush=True,
                )
            now = time.monotonic()
            if now > deadline or (
                now + (now - begin) > start + seconds
                and len(plain) >= (1 if trace else MIN_ITERATIONS)
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = plain + traced
    attempted = sum(i.attempted for i in everything)
    failed = sum(i.failed for i in everything)
    if trace:
        metrics = traced_metrics(plain, traced)
    else:
        setups += [i.setup_s for i in plain]
        samples = {
            "wall_s": [i.wall_s for i in plain],
            "cpu_s": [i.cpu_s for i in plain],
            "setup_s": setups,
            "peak_rss_mb": [i.peak_rss_mb for i in plain],
        }
        for name, values in samples.items():
            print(f"# {name} per iteration, as measured: {_quartiles(values)}")
        scale = CALIBRATION_S / min(calibration)
        print(
            f"# calibration best {min(calibration) * 1000:.2f} ms of {len(calibration)}, "
            f"scale {scale:.4f}"
        )
        if jobs > 1:
            wall, cpu = relative_medians(plain, pool_calibration)
            print(
                f"# relative to the calibration on {jobs} processes at once: wall_s {wall:.4f} "
                f"cpu_s {cpu:.4f}; that calibration {_quartiles(pool_calibration)}"
            )
        else:
            wall, cpu = best_of_repeats(plain)
            print(f"# best of repeats per report: wall_s {wall:.4f} cpu_s {cpu:.4f}")
            wall, cpu = wall * scale, cpu * scale
        values = {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
        }
    print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted} subjects)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_metrics(plain: list[Iteration], traced: list[Iteration]) -> dict:
    per_iteration = [spans.layer_metrics(spans.merge(i.traces)) for i in traced]
    first = per_iteration[0]
    metrics = {}
    for name, value in first.items():
        unit = spans.unit(name)
        if unit == "s":
            value = statistics.median(m[name] for m in per_iteration)
        metrics[name] = {"value": value, "unit": unit}
    changed = sorted(
        name
        for name, v in first.items()
        if metrics[name]["unit"] != "s" and any(m[name] != v for m in per_iteration)
    )
    if changed:
        print(f"# counts that differed between traced iterations: {', '.join(changed)}")
    overhead = statistics.median(i.wall_s for i in traced) - statistics.median(
        i.wall_s for i in plain
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(PROGRAM):
        print(f"error: the program is missing: no {os.path.relpath(PROGRAM, ROOT)}", file=sys.stderr)
        return 2
    reference = load_reference()
    print("# machine " + json.dumps(machine_facts(args.seed)), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
