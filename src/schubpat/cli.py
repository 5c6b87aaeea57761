"""Command-line interface.

Subcommands: schubert | rothe | cw | cw-table | verify | purple | chi |
alternating-sum.  `schubert --method divdiff`, `cw --method rec`, `cw-table`
and `alternating-sum` print routes of `oracles`.

Each subcommand takes only the options its handler reads.  Every one but
`cw-table` and `verify` takes `--format {text,json}` and `--out`;
`cw-table` always writes CSV and takes only `--out`.  `verify` takes
`--format {text,json,csv}`, `--out`, `--jobs`, `--max-n`, `--seed`,
`--budget-dominated` and `--timing`; `chi` takes `--budget-dominated` too.

Exit codes: 0 success / all holds, 1 usage or crash (including an option
the subcommand does not take, verify --max-n below 2 or --jobs below 1),
2 mathematical counterexample (including a `cw-table` row or a
`cw --all-methods` whose methods disagree), 3 budget exceeded somewhere.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import incexc, oracles, verify, weylchar
from .diagrams import Diagram, dominated_sum, rothe
from .errors import BudgetExceededError, PatternViolationError, SchubpatError, UsageError
from .permwords import Permutation, Word, all_permutations, avoids
from .polyx import Polynomial
from .purple import characterize_monomials, purple_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports errors through EXIT_USAGE, not exit 2."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    out = _Parser(add_help=False)
    out.add_argument("--out", default=None, help="write output to PATH")
    output = _Parser(add_help=False, parents=[out])
    output.add_argument("--format", choices=["text", "json"], default="text")

    parser = _Parser(prog="schubpat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schubert", parents=[output], help="print a Schubert polynomial")
    p.add_argument("perm")
    p.add_argument("--method", choices=["divdiff", "diagram"], default="divdiff")

    p = sub.add_parser("rothe", parents=[output], help="print a Rothe diagram")
    p.add_argument("perm")

    p = sub.add_parser("cw", parents=[output], help="print the coefficient c_w")
    p.add_argument("perm")
    methods = p.add_mutually_exclusive_group()
    # No default: argparse sees `--method ie` as unset when it is the default
    # object, and would then let it pass with --all-methods.
    methods.add_argument("--method", choices=["ie", "rec", "aug"], help="default: ie")
    methods.add_argument("--all-methods", action="store_true")

    p = sub.add_parser("cw-table", parents=[out], help="CSV table of c_w over S_n")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify", parents=[out], help="run a verification suite")
    p.add_argument("claim", choices=sorted(verify.CLAIMS))
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--budget-dominated", type=int, default=weylchar.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true", help="record per-report timing")

    p = sub.add_parser("purple", parents=[output], help="purple boxes, family and monomials")
    p.add_argument("perm_or_diagram", help="permutation string or diagram JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--characterize", action="store_true")

    p = sub.add_parser("chi", parents=[output], help="dual character of a diagram")
    p.add_argument("diagram", help="diagram JSON or a permutation string (its Rothe diagram)")
    p.add_argument("--budget-dominated", type=int, default=weylchar.DEFAULT_BUDGET)

    p = sub.add_parser(
        "alternating-sum", parents=[output], help="the signed subword expansion for (w, u)"
    )
    p.add_argument("perm")
    p.add_argument("u")

    return parser


@contextlib.contextmanager
def _output(args):
    """The file named by --out, or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, args) -> None:
    with _output(args) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _poly_out(p: Polynomial, args, nvars: int) -> str:
    if args.format == "json":
        return p.dumps(nvars)
    return p.format()


def _parse(kind: type[Permutation] | type[Word], s: str):
    """`kind.from_string(s)` for Permutation or Word, with bad input as a usage error."""
    try:
        return kind.from_string(s)
    except ValueError as exc:
        raise UsageError(f"bad {kind.__name__.lower()} {s!r}: {exc}") from None


def _parse_diagram(s: str) -> Diagram:
    """Diagram JSON, or the Rothe diagram of a permutation; bad input is a usage error."""
    s = s.strip()
    if not s.startswith("{"):
        return rothe(_parse(Permutation, s).values)
    try:
        return Diagram.from_json(json.loads(s))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad diagram {s!r}: {type(exc).__name__}: {exc}") from None


def _cmd_schubert(args) -> int:
    w = _parse(Permutation, args.perm)
    if args.method == "diagram" and not avoids(w.values):
        raise PatternViolationError(f"{w} contains 1432 or 1423")
    p = oracles.schubert_divdiff(w) if args.method == "divdiff" else dominated_sum(rothe(w.values))
    _emit(_poly_out(p, args, w.n), args)
    return EXIT_OK


def _cmd_rothe(args) -> int:
    D = rothe(_parse(Permutation, args.perm).values)
    if args.format == "json":
        _emit(json.dumps(D.to_json(), separators=(",", ":")), args)
    else:
        _emit(str(D), args)
    return EXIT_OK


def _cw_by(method: str, w: Permutation) -> int:
    if method == "ie":
        return incexc.cw_inclusion_exclusion(w.values)
    if method == "rec":
        return oracles.cw_recursive(w)
    return incexc.cw_augmentation(w.values)


def _cw_all_methods(w: Permutation) -> tuple[dict[str, int], bool]:
    """c_w by `ie`, `rec` and, for an avoider, `aug`; and whether they give one value."""
    values = {m: _cw_by(m, w) for m in ["ie", "rec"] + (["aug"] if avoids(w.values) else [])}
    return values, len(set(values.values())) == 1


def _cmd_cw(args) -> int:
    w = _parse(Permutation, args.perm)
    if args.all_methods:
        values, agree = _cw_all_methods(w)
    else:
        method = args.method or "ie"
        values, agree = {method: _cw_by(method, w)}, True
    if agree:
        value = next(iter(values.values()))
        out, text = {"w": str(w), "c": value, "methods": list(values)}, str(value)
    else:
        out, text = {"w": str(w), "disagree": values}, f"DISAGREE: {values}"
    _emit(json.dumps(out) if args.format == "json" else text, args)
    return EXIT_OK if agree else EXIT_COUNTEREXAMPLE


def _cmd_cw_table(args) -> int:
    if args.n < 0:
        raise UsageError(f"n must be nonnegative, got {args.n}")
    lines = ["w,length,c_w,methods_agree"]
    all_agree = True
    for w in all_permutations(args.n):
        values, agree = _cw_all_methods(w)
        all_agree = all_agree and agree
        lines.append(f"{w},{w.inversions()},{values['ie']},{str(agree).lower()}")
    _emit("\n".join(lines), args)
    return EXIT_OK if all_agree else EXIT_COUNTEREXAMPLE


def _report_line(r: verify.VerificationReport, args) -> str:
    if args.format == "json":
        return json.dumps(r.as_dict(), separators=(",", ":"))
    if args.format == "csv":
        witness = (r.witness or "").replace(",", ";")
        timing = f",{r.elapsed_ms}" if args.timing else ""
        return f"{r.claim},{r.subject},{r.verdict},{witness}{timing}"
    return (
        f"{r.claim}\t{r.subject}\t{r.verdict}"
        + (f"\t{r.witness}" if r.witness else "")
        + (f"\telapsed_ms={r.elapsed_ms}" if args.timing else "")
    )


def _cmd_verify(args) -> int:
    config = verify.RunConfig(
        max_n=args.max_n,
        jobs=args.jobs,
        seed=args.seed,
        budget_dominated=args.budget_dominated,
        include_timing=args.timing,
    )
    # Each line is written as its report arrives, and the exit code folded along the way.
    code = EXIT_OK
    with _output(args) as fh:
        if args.format == "csv":
            fh.write("claim,subject,verdict,witness" + (",elapsed_ms" if args.timing else "") + "\n")
        for r in verify.run_claim(args.claim, config):
            fh.write(_report_line(r, args) + "\n")
            code = verify.worse_code(code, verify.report_code(r))
    return code


def _cmd_purple(args) -> int:
    s = args.perm_or_diagram.strip()
    if s.startswith("{"):
        D = _parse_diagram(s)
        if args.l is None:
            raise UsageError("--l is required for diagram input")
        sigma = None
    else:
        sigma = _parse(Permutation, s)
        D = rothe(sigma.values)
    for flag, value in (("--k", args.k), ("--l", args.l)):
        if value is not None and not 1 <= value <= D.n:
            raise UsageError(f"{flag} {value} is outside 1..{D.n}")
    l = args.l if args.l is not None else sigma(args.k)
    if args.characterize:
        if sigma is None:
            raise UsageError("--characterize requires permutation input")
        if l != sigma(args.k):
            raise UsageError(f"--characterize needs --l {sigma(args.k)} = sigma(k), not {l}")
    family = purple_family(D, args.k, l)
    payload = family.to_json()
    if args.characterize:
        result = characterize_monomials(sigma.values)[args.k - 1]
        payload["working"] = sorted(str(m) for m in result.working)
        payload["extra"] = sorted(str(m) for m in result.extra)
    if args.format == "json":
        _emit(json.dumps(payload, separators=(",", ":")), args)
    else:
        lines = [
            f"purple boxes: {sorted(family.boxes)}",
            f"members: {[str(m) for m in sorted(family.members, key=Diagram.box_list)]}",
            f"monomials: {sorted(str(m) for m in family.monomials)}",
        ]
        if args.characterize:
            lines.append(f"working: {payload['working']}")
            lines.append(f"extra: {payload['extra']}")
        _emit("\n".join(lines), args)
    return EXIT_OK


def _cmd_chi(args) -> int:
    D = _parse_diagram(args.diagram)
    p = weylchar.chi(D, budget=args.budget_dominated)
    _emit(_poly_out(p, args, D.n), args)
    return EXIT_OK


def _cmd_alternating_sum(args) -> int:
    w = _parse(Permutation, args.perm)
    u = _parse(Word, args.u)
    result = oracles.alternating_sum(w, u)
    if args.format == "json":
        _emit(json.dumps(result.to_json(), separators=(",", ":")), args)
    else:
        _emit(result.total.format(), args)
    return EXIT_OK


_COMMANDS = {
    "schubert": _cmd_schubert,
    "rothe": _cmd_rothe,
    "cw": _cmd_cw,
    "cw-table": _cmd_cw_table,
    "verify": _cmd_verify,
    "purple": _cmd_purple,
    "chi": _cmd_chi,
    "alternating-sum": _cmd_alternating_sum,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except PatternViolationError as exc:
        print(f"pattern violation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SchubpatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
