#!/usr/bin/env python3
"""Run every verification claim and print a one-line summary per claim.

Usage:
    python scripts/run_full_suite.py [--max-n N] [--jobs J] [--seed S] [--out DIR]

Each summary line ends with the SHA-256 of the claim's JSON-lines report,
so two checkouts can be compared byte for byte from their summaries.
With --out, each claim additionally gets that report as a file in DIR.
The process exit code is verify.exit_code over every claim's reports:
2 if any claim has a counterexample, else 3 on a budget refusal, else 0;
a size below 2 or fewer than one job prints one error line and exits 1.
"""
import argparse
import hashlib
import json
import pathlib
import sys
import time

from schubpat.errors import UsageError
from schubpat.verify import CLAIMS, DEFAULT_SEED, RunConfig, exit_code, run_claim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args()

    try:
        config = RunConfig(max_n=args.max_n, jobs=args.jobs, seed=args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    every_report = []
    for name in sorted(CLAIMS):
        start = time.monotonic()
        reports = list(run_claim(name, config))
        elapsed = time.monotonic() - start
        code = exit_code(reports)
        every_report.extend(reports)
        counts = {}
        for r in reports:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        report = "".join(json.dumps(r.as_dict(), separators=(",", ":")) + "\n" for r in reports)
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        print(f"{name:9s} exit={code} {elapsed * 1000:9.1f}ms  {summary}  sha256={digest}")
        for r in reports:
            if r.verdict == "fails":
                print(f"  counterexample {r.subject}: {r.witness}")
        if args.out:
            (args.out / f"{name}.jsonl").write_text(report, encoding="utf-8")
    return exit_code(every_report)


if __name__ == "__main__":
    sys.exit(main())
