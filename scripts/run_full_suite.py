#!/usr/bin/env python3
"""Run every verification claim and print a one-line summary per claim.

Usage:
    python scripts/run_full_suite.py [--max-n N] [--jobs J] [--seed S] [--out DIR]

Each summary line ends with the SHA-256 of the claim's JSON-lines report,
so two checkouts can be compared byte for byte from their summaries.
With --out, each claim additionally gets that report as a file in DIR.
Reports are folded in as they arrive; only a claim's failing ones are held.
The process exit code folds the claims' exit codes, claim by claim:
2 if any claim has a counterexample, else 3 on a budget refusal, else 0;
a size below 2, fewer than one job or an --out directory or report file
that cannot be made prints one error line and exits 1.
"""
import argparse
import collections
import contextlib
import hashlib
import pathlib
import sys
import time

from schubpat.errors import UsageError
from schubpat.verify import CLAIMS, DEFAULT_SEED, RunConfig, report_code, run_claim, worse_code


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

    worst = 0
    for name in sorted(CLAIMS):
        try:
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
            sink = open(args.out / f"{name}.jsonl", "w", encoding="utf-8") if args.out else None
        except OSError as exc:
            print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 1
        start = time.monotonic()
        digest, counts, code, failing = hashlib.sha256(), collections.Counter(), 0, []
        with sink or contextlib.nullcontext() as fh:
            for r in run_claim(name, config):
                line = r.json_line() + "\n"
                digest.update(line.encode("utf-8"))
                if fh:
                    fh.write(line)
                counts[r.verdict] += 1
                code = worse_code(code, report_code(r))
                if r.verdict == "fails":
                    failing.append(r)
        elapsed = time.monotonic() - start
        worst = worse_code(worst, code)
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"{name:9s} exit={code} {elapsed * 1000:9.1f}ms  {summary}  sha256={digest.hexdigest()}")
        for r in failing:
            print(f"  counterexample {r.subject}: {r.witness}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
