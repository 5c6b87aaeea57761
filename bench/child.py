"""One timed schubpat process of a benchmark workload.

Usage:
    python bench/child.py MARKS MODE [--trace-dir DIR] -- ARGS...

MODE is `cli` (ARGS go to `schubpat.cli.main`, as `schubpat ARGS`),
`suite` (ARGS are `MAX_N SEED OUT_DIR`: every claim in sorted order in
this one process, as `scripts/run_full_suite.py` runs them, one
JSON-lines report per claim in OUT_DIR), or `probe-cli` / `probe-suite`
(the same start-up, stopped at the first claim call).

MARKS receives the `time.monotonic()` of the first `run_claim` call and
of the end of the run, and the peak RSS.  The clock is system-wide, so the parent can
subtract its own launch time from the first.  It also receives `laps`:
the wall and CPU time of each resumption of each `run_claim` generator,
that is of each report (one shard under --jobs 1), in order.  With --trace-dir, spans
are recorded (see spans.py) and each process of the run dumps its
totals in DIR.
"""
import array
import functools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import schubpat.cli  # noqa: E402  (start-up cost is part of what is timed)
from schubpat import verify  # noqa: E402


class _ProbeDone(Exception):
    pass


def _peak_rss_kb() -> int:
    """Peak RSS of this process and of the pool workers it reaped.

    `wait4` in the parent cannot give this: exec records the launching
    process's own peak in the child's maxrss.  VmHWM belongs to this
    process's address space only; workers are forked, not exec'd.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _run_suite(max_n: int, seed: int, out_dir: str) -> int:
    config = verify.RunConfig(max_n=max_n, seed=seed)
    worst = 0
    for name in sorted(verify.CLAIMS):
        reports = list(verify.run_claim(name, config))
        code = verify.exit_code(reports)
        worst = 2 if code == 2 else max(worst, code)
        with open(os.path.join(out_dir, f"{name}.jsonl"), "w", encoding="utf-8") as fh:
            for r in reports:
                fh.write(json.dumps(r.as_dict(), separators=(",", ":")) + "\n")
    return worst


def main(argv: list[str]) -> int:
    marks_path, mode = argv[0], argv[1]
    rest = argv[2:]
    trace_dir = None
    if rest[0] == "--trace-dir":
        trace_dir, rest = rest[1], rest[2:]
    args = rest[1:]  # drop the "--"
    tracer = None
    if trace_dir:
        import spans

        tracer = spans.Tracer(trace_dir)
        spans.install(tracer)

    marks: dict = {}
    lap_wall, lap_cpu = array.array("d"), array.array("d")  # compact: peak RSS is measured
    run_claim = verify.run_claim

    def laps(reports):
        while True:
            wall, cpu = time.monotonic(), time.process_time()
            try:
                report = next(reports)
            except StopIteration:
                return
            finally:
                lap_wall.append(time.monotonic() - wall)
                lap_cpu.append(time.process_time() - cpu)
            yield report

    @functools.wraps(run_claim)
    def first_call_mark(*a, **kw):
        marks.setdefault("first_call", time.monotonic())
        if mode.startswith("probe"):
            raise _ProbeDone
        return laps(run_claim(*a, **kw))

    verify.run_claim = first_call_mark
    try:
        if mode.endswith("suite"):
            code = _run_suite(int(args[0]), int(args[1]), args[2])
        else:
            code = schubpat.cli.main(args)
    except _ProbeDone:
        code = 0
    marks["end"] = time.monotonic()
    marks["peak_rss_kb"] = _peak_rss_kb()
    marks["laps"] = list(zip(lap_wall, lap_cpu))
    if tracer is not None:
        tracer.dump()
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
