#!/usr/bin/env python3
"""Scan permutations for working monomials outside the purple family.

For each sigma in S_n and each removed position k, the purple family
gives monomials M with S_sigma - M * S_pi(skip x_k) nonnegative.  The
family is conjectured complete for 1432/1423-avoiders; elsewhere extra
working monomials are known to occur.  This script tabulates where they
appear.

Usage:
    python scripts/explore_extra_monomials.py [--max-n N] [--avoiders-only]

Exits 2, the counterexample code, if some avoider has extra working
monomials, since that refutes the characterization; else 0.
"""
import argparse
import sys

from schubpat.permwords import all_permutations, avoids
from schubpat.purple import characterize_monomials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--avoiders-only", action="store_true")
    args = parser.parse_args()

    total = with_extra = avoider_extra = 0
    for n in range(2, args.max_n + 1):
        for sigma in all_permutations(n):
            if args.avoiders_only and not avoids(sigma):
                continue
            for k in range(1, n + 1):
                result = characterize_monomials(sigma, k)
                total += 1
                if result.extra:
                    with_extra += 1
                    avoider = avoids(sigma)
                    avoider_extra += avoider
                    tag = "avoider" if avoider else "non-avoider"
                    extras = ", ".join(sorted(str(m) for m in result.extra))
                    print(f"{sigma} k={k} ({tag}): extra {{{extras}}}")
    print(f"\n{with_extra} of {total} (sigma, k) pairs have extra working monomials")
    # a nonzero count among avoiders refutes the characterization
    return 2 if avoider_extra else 0


if __name__ == "__main__":
    sys.exit(main())
