#!/usr/bin/env python3
"""Record the reference reports the benchmark checks against.

Usage:
    python3 bench/record.py            # rewrites bench/reference.json

For every (claim, max_n, jobs) a workload runs, one cold process at the
default seed gives the report's SHA-256, subject count and verdict
counts.  A claim that does not sample is run again under a second seed;
equal bytes make its entry hold for every seed (seed null).  A sampling
claim also records the digest of its unsampled prefix and the range of
its sampled subject count, so that it can be checked under any seed.  An
entry with jobs > 1 must equal the serial report byte for byte.
"""
from __future__ import annotations

import collections
import hashlib
import json
import os
import sys
import tempfile

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from schubpat import verify  # noqa: E402

OTHER_SEED = 1


def sampling(claim: str, max_n: int) -> dict | None:
    """Where the claim's input space starts to depend on the seed, if it does."""
    config = verify.RunConfig()
    if claim == "thm1.1" and max_n >= 6:
        return {"unsampled_max_n": 5, "sampled_subjects": [1, config.sample_pairs_n6]}
    if claim == "thm2.4" and max_n >= 5:
        n = config.sample_chi_n5
        return {"unsampled_max_n": 4, "sampled_subjects": [n, n]}
    return None


def _report(proc: run.Proc, claim: str, seed: int, workdir: str) -> bytes:
    result = run.run_process(proc, seed, workdir, timeout=1800.0)
    data = result.reports.get(claim)
    if result.status != "ok" or data is None:
        raise RuntimeError(f"{proc.label()} seed {seed}: {result.status}")
    return data


def record_entry(claim: str, max_n: int, jobs: int, workdir: str) -> dict:
    seed = verify.DEFAULT_SEED
    serial = run.Proc(claim, max_n)
    data = _report(serial, claim, seed, workdir)
    if jobs > 1 and _report(run.Proc(claim, max_n, jobs), claim, seed, workdir) != data:
        raise RuntimeError(f"{claim} n<={max_n}: --jobs {jobs} report differs from serial")
    records = [json.loads(line) for line in data.splitlines()]
    entry = {
        "claim": claim,
        "max_n": max_n,
        "jobs": jobs,
        "seed": seed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "subjects": len(records),
        "verdicts": dict(sorted(collections.Counter(r["verdict"] for r in records).items())),
    }
    sampled = sampling(claim, max_n)
    if sampled is None:
        if _report(serial, claim, OTHER_SEED, workdir) != data:
            raise RuntimeError(f"{claim} n<={max_n} depends on the seed but is not marked sampling")
        entry["seed"] = None
    else:
        lines = data.splitlines(keepends=True)
        k = sum(
            run._subject_size(r["subject"]) <= sampled["unsampled_max_n"] for r in records
        )
        sampled["prefix_subjects"] = k
        sampled["prefix_sha256"] = hashlib.sha256(b"".join(lines[:k])).hexdigest()
        entry["sampled"] = sampled
    return entry


def needed() -> list[tuple[str, int, int]]:
    keys = {
        (claim, proc.max_n, proc.jobs)
        for procs in run.WORKLOADS.values()
        for proc in procs
        for claim in proc.claims
    }
    return sorted(keys)


def main() -> int:
    os.makedirs(os.path.join(run.ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT, ".bench_build")) as workdir:
        entries = []
        for claim, max_n, jobs in needed():
            entries.append(record_entry(claim, max_n, jobs, workdir))
            print(json.dumps(entries[-1]), flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
