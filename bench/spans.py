"""Spans and counters wrapped around schubpat's public functions, from outside.

`install()` replaces every public function of each module in
`src/schubpat/` (and the public methods of its public classes, plus the
arithmetic operators and constructors of the polyx classes) with a
wrapper that records a span.  The wrapper is installed in every module
namespace that bound the original, so `verify.purple_family` and
`incexc.schubert_divdiff` are traced as well as the defining modules.

A layer's self time is the time of its spans minus the time of the spans
they contain.  Counts are exact.  State lives in one `Tracer` per
process; forked pool workers reset the copy they inherit on their first
shard and dump their own totals to `<dump_dir>/<pid>.json` when they exit.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import time

LAYERS = (
    "polyx",
    "permwords",
    "diagrams",
    "schubert",
    "linalg",
    "weylchar",
    "incexc",
    "purple",
    "verify",
    "cli",
)
# Polynomial arithmetic is the polyx layer's interface, so its operators
# get spans although they are dunder names.
POLYX_OPERATORS = {
    "__init__",
    "__mul__",
    "__rmul__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__truediv__",
}
CLAIMS = (
    "conj5.1",
    "conj5.3",
    "identity",
    "thm1.0",
    "thm1.1",
    "thm1.2",
    "thm2.4",
    "thm2.7",
    "thm4.1",
)
# The parent's time inside run_claim under --jobs > 1 is spent waiting on
# the pool; it is kept apart so it is not counted as verify work.
POOL_WAIT = "pool_wait"

_now = time.perf_counter


def _empty_totals() -> dict:
    return {
        "self_s": dict.fromkeys(LAYERS + (POOL_WAIT,), 0.0),
        "calls": {},
        "outer_calls": {},  # calls not made from inside the same function
        "yields": {},
        "rank_rows": 0,
        "subwords_listed": 0,
        "family_pairs": set(),
        "claim_s": {},
        "shard_s_max": 0.0,
    }


class Tracer:
    def __init__(self, dump_dir: str | None = None):
        self.dump_dir = dump_dir
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[float] = []  # child time accumulated per open span
        self.active: dict[str, int] = {}  # open depth per function key
        self.totals = _empty_totals()

    def open(self) -> float:
        self.stack.append(0.0)
        return _now()

    def close(self, bucket: str, start: float) -> float:
        duration = _now() - start
        child = self.stack.pop()
        self.totals["self_s"][bucket] += duration - child
        if self.stack:
            self.stack[-1] += duration
        return duration

    def count(self, key: str) -> None:
        calls = self.totals["calls"]
        calls[key] = calls.get(key, 0) + 1
        if not self.active.get(key):
            outer = self.totals["outer_calls"]
            outer[key] = outer.get(key, 0) + 1

    def snapshot(self) -> dict:
        out = dict(self.totals)
        out["family_pairs"] = sorted(self.totals["family_pairs"])
        return out

    def dump(self) -> None:
        path = os.path.join(self.dump_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def _count_rank_rows(t: Tracer, args: tuple, result) -> None:
    t.totals["rank_rows"] += len(args[0])


def _count_subwords(t: Tracer, args: tuple, result) -> None:
    t.totals["subwords_listed"] += len(result)


def _record_family_pair(t: Tracer, args: tuple, result) -> None:
    D, k, l = args
    t.totals["family_pairs"].add(f"{D.n}:{sorted(D.boxes)}:{k}:{l}")


OBSERVERS = {
    "linalg.integer_rank": _count_rank_rows,
    "permwords.all_subwords": _count_subwords,
    "purple.purple_family": _record_family_pair,
}


def _span(t: Tracer, fn, layer: str, key: str):
    observe = OBSERVERS.get(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t.count(key)
        depth = t.active.get(key, 0)
        t.active[key] = depth + 1
        start = t.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            t.close(layer, start)
            t.active[key] = depth
        if observe is not None:
            observe(t, args, result)
        return result

    return wrapper


def _resumptions(t: Tracer, it, bucket: str, key: str):
    """Yield from `it`, spanning each resumption; returns the spanned time.

    The consumer's time between items is not counted.
    """
    total = 0.0
    yields = t.totals["yields"]
    while True:
        start = t.open()
        try:
            item = next(it)
        except StopIteration:
            return total + t.close(bucket, start)
        except BaseException:
            t.close(bucket, start)
            raise
        total += t.close(bucket, start)
        yields[key] = yields.get(key, 0) + 1
        yield item


def _wrap(t: Tracer, fn, layer: str):
    key = f"{layer}.{fn.__qualname__}"
    if not inspect.isgeneratorfunction(fn):
        return _span(t, fn, layer, key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t.count(key)
        yield from _resumptions(t, fn(*args, **kwargs), layer, key)

    return wrapper


def _install_verify(t: Tracer, verify) -> None:
    """Spans per claim and per shard, and the parent's wait on the pool."""
    run_claim = inspect.unwrap(verify.run_claim)  # replace the generic span

    @functools.wraps(run_claim)
    def claim_span(claim_name, config):
        t.count("verify.run_claim")
        bucket = POOL_WAIT if config.jobs > 1 else "verify"
        it = run_claim(claim_name, config)
        total = yield from _resumptions(t, it, bucket, "verify.run_claim")
        claim_s = t.totals["claim_s"]
        claim_s[claim_name] = claim_s.get(claim_name, 0.0) + total

    verify.run_claim = claim_span

    def shard_span(run):
        @functools.wraps(run)
        def wrapper(shard, config):
            t.count("verify.shard")
            start = t.open()
            try:
                return run(shard, config)
            finally:
                duration = t.close("verify", start)
                t.totals["shard_s_max"] = max(t.totals["shard_s_max"], duration)

        return wrapper

    for name, claim in list(verify.CLAIMS.items()):
        verify.CLAIMS[name] = dataclasses.replace(claim, run=shard_span(claim.run))

    # Pickled by name, so forked workers resolve it to this wrapper too.
    shard_worker = verify._shard_worker

    @functools.wraps(shard_worker)
    def worker(args):
        if t.pid != os.getpid():  # first shard in a forked pool worker
            t.reset()
            if t.dump_dir:
                from multiprocessing.util import Finalize

                Finalize(t, t.dump, exitpriority=10)
        return shard_worker(args)

    verify._shard_worker = worker


def install(t: Tracer) -> None:
    """Wrap the public functions of every schubpat module in spans."""
    modules = [importlib.import_module(f"schubpat.{name}") for name in LAYERS]
    replaced: dict[object, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = _wrap(t, obj, layer)
            elif inspect.isclass(obj):
                for attr, value in list(vars(obj).items()):
                    if attr.startswith("_") and not (layer == "polyx" and attr in POLYX_OPERATORS):
                        continue
                    if isinstance(value, (classmethod, staticmethod)):
                        setattr(obj, attr, type(value)(_wrap(t, value.__func__, layer)))
                    elif inspect.isfunction(value):
                        if value not in replaced:  # __radd__ = __add__ share one wrapper
                            replaced[value] = _wrap(t, value, layer)
                        setattr(obj, attr, replaced[value])
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
    _install_verify(t, importlib.import_module("schubpat.verify"))


def merge(dumps: list[dict]) -> dict:
    """Add up the totals of the processes of one workload iteration."""
    out = _empty_totals()
    for d in dumps:
        for field in ("self_s", "calls", "outer_calls", "yields", "claim_s"):
            for key, value in d[field].items():
                out[field][key] = out[field].get(key, 0) + value
        out["rank_rows"] += d["rank_rows"]
        out["subwords_listed"] += d["subwords_listed"]
        out["family_pairs"].update(d["family_pairs"])
        out["shard_s_max"] = max(out["shard_s_max"], d["shard_s_max"])
    return out


def unit(name: str) -> str:
    """The unit of the per-layer metric `name`."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_per_call", "_per_pair")):
        return "ratio"
    return "count"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(m: dict) -> dict[str, float]:
    """The per-layer metrics of one merged iteration, trace.overhead_s aside."""
    calls, outer, s = m["calls"], m["outer_calls"], m["self_s"]
    steps = calls.get("schubert.divided_difference", 0)
    schubert_calls = outer.get("schubert.schubert_divdiff", 0)
    chi_calls = calls.get("weylchar.chi", 0)
    chi_fast_calls = calls.get("weylchar.chi_fast", 0)
    family_calls = calls.get("purple.purple_family", 0)
    out = {
        "polyx.self_s": s["polyx"],
        "polyx.mul_calls": calls.get("polyx.Polynomial.__mul__", 0),
        "polyx.monomials_built": calls.get("polyx.Monomial.__init__", 0),
        "permwords.self_s": s["permwords"],
        "permwords.flatten_calls": calls.get("permwords.flatten", 0),
        "permwords.subwords_listed": m["subwords_listed"],
        "schubert.self_s": s["schubert"],
        "schubert.schubert_calls": schubert_calls,
        "schubert.divdiff_steps": steps,
        "schubert.spec_calls": calls.get("schubert.principal_specialization", 0),
        "schubert.divdiff_steps_per_call": _ratio(steps, schubert_calls),
        "diagrams.self_s": s["diagrams"],
        "diagrams.enumerations": calls.get("diagrams.enumerate_dominated", 0),
        "diagrams.dominated_yielded": m["yields"].get("diagrams.enumerate_dominated", 0),
        "weylchar.self_s": s["weylchar"],
        "weylchar.chi_calls": chi_calls,
        "weylchar.chi_fast_calls": chi_fast_calls,
        "weylchar.rank_route_ratio": _ratio(chi_calls, chi_fast_calls),
        "linalg.self_s": s["linalg"],
        "linalg.rank_calls": calls.get("linalg.integer_rank", 0),
        "linalg.rank_rows": m["rank_rows"],
        "incexc.self_s": s["incexc"],
        "incexc.cw_ie_calls": calls.get("incexc.cw_inclusion_exclusion", 0),
        "incexc.alternating_sum_calls": calls.get("incexc.alternating_sum", 0),
        "incexc.single_step_calls": calls.get("incexc.verify_single_step", 0),
        "purple.self_s": s["purple"],
        "purple.family_calls": family_calls,
        "purple.family_calls_per_pair": _ratio(family_calls, len(m["family_pairs"])),
        "verify.self_s": s["verify"],
        "verify.shards": calls.get("verify.shard", 0),
    }
    for claim in CLAIMS:
        out[f"verify.claim_s.{claim}"] = m["claim_s"].get(claim, 0.0)
    out["verify.shard_s.max"] = m["shard_s_max"]
    out["verify.pool_wait_s"] = s[POOL_WAIT]
    out["cli.self_s"] = s["cli"]
    return out
