import copy
import dataclasses
import functools
import gc
import hashlib
import itertools
import importlib
import json
import math
import multiprocessing
import os
import pkgutil
import signal
import time
from collections import Counter

import pytest

import schubpat
from schubpat import incexc, oracles, polyx, purple, schubert, verify, weylchar
from schubpat.diagrams import Diagram
from schubpat.errors import BudgetExceededError, PatternViolationError
from schubpat.permwords import avoids, one_line, parse_permutation
from schubpat.polyx import _canonical, add, exponent_key, mul, sub, x
from schubpat.verify import (
    CLAIMS,
    Claim,
    RunConfig,
    VerificationReport,
    exit_code,
    run_claim,
)


def test_registry_names():
    assert set(CLAIMS) == {
        "thm1.0",
        "thm1.1",
        "thm1.2",
        "thm2.4",
        "thm2.7",
        "thm4.1",
        "conj5.1",
        "conj5.3",
        "identity",
    }
    for name, claim in CLAIMS.items():
        assert claim.name == name
        assert claim.description
    # Only the x = 1 claims take w's holds from w^-1.
    assert {name for name, claim in CLAIMS.items() if claim.inverse_invariant} == {"conj5.1", "identity"}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_all_claims_hold_at_n4(name):
    config = RunConfig(max_n=4)
    reports = list(run_claim(name, config))
    assert reports
    assert exit_code(reports) == 0
    for r in reports:
        assert r.verdict in ("holds", "outside-scope")
        assert r.elapsed_ms is None


def test_shards_cover_scope_markers():
    config = RunConfig(max_n=4)
    verdicts = {r.subject: r.verdict for r in run_claim("thm1.1", config)}
    assert verdicts["1432"] == "outside-scope"
    assert verdicts["2143"] == "holds"


def test_thm1_1_checks_every_permutation_at_n6():
    reports = list(run_claim("thm1.1", RunConfig(max_n=6)))
    assert len(reports) == sum(math.factorial(n) for n in range(2, 7)) == 872
    verdicts = Counter(r.verdict for r in reports)
    assert verdicts == {"holds": 514, "outside-scope": 358}
    assert all(r.verdict == "holds" for r in reports if avoids(parse_permutation(r.subject)))


def test_jobs_produce_identical_reports():
    config = RunConfig(max_n=4)
    serial = list(run_claim("thm2.7", config))
    parallel = list(run_claim("thm2.7", RunConfig(max_n=4, jobs=2)))
    assert serial == parallel


def test_seed_changes_sampled_shards_only():
    a = CLAIMS["thm2.4"].shards(RunConfig(max_n=5, seed=1))
    b = CLAIMS["thm2.4"].shards(RunConfig(max_n=5, seed=2))
    fixed = len(CLAIMS["thm2.4"].shards(RunConfig(max_n=4)))
    assert a[:fixed] == b[:fixed]
    assert a[fixed:] != b[fixed:]
    c = CLAIMS["thm2.4"].shards(RunConfig(max_n=5, seed=1))
    assert a == c


def test_timing_recorded_on_request():
    config = RunConfig(max_n=3, include_timing=True)
    reports = list(run_claim("identity", config))
    assert all(isinstance(r.elapsed_ms, float) for r in reports)


def _chi_with_budget(monkeypatch, budget):
    """Give `verify`'s calls of weylchar.chi a small budget; forked workers inherit it."""
    monkeypatch.setattr(weylchar, "chi", functools.partial(weylchar.chi, budget=budget))


def test_budget_maps_to_exit_code_3(monkeypatch):
    _chi_with_budget(monkeypatch, 2)
    reports = list(run_claim("thm2.4", RunConfig(max_n=4)))
    assert any(r.verdict == "budget-exceeded" for r in reports)
    assert exit_code(reports) == 3


def test_runner_builds_the_report_from_what_a_claim_returns(monkeypatch):
    returned = {"12": None, "21": [], "123": ["a", "b"]}

    def run(w, config):
        if one_line(w) == "132":
            raise BudgetExceededError("m")
        return returned[one_line(w)]

    shards = [(1, 2), (2, 1), (1, 2, 3), (1, 3, 2)]
    monkeypatch.setitem(CLAIMS, "stub", Claim("stub", "a stub claim", lambda c: shards, run))
    assert list(run_claim("stub", RunConfig())) == [
        VerificationReport("stub", "12", "outside-scope"),
        VerificationReport("stub", "21", "holds"),
        VerificationReport("stub", "123", "fails", "a; b"),
        VerificationReport("stub", "132", "budget-exceeded", "m"),
    ]
    timed = list(run_claim("stub", RunConfig(include_timing=True)))
    assert [r.verdict for r in timed] == ["outside-scope", "holds", "fails", "budget-exceeded"]
    assert all(isinstance(r.elapsed_ms, float) for r in timed)
    assert all("elapsed_ms" in r.as_dict() for r in timed)


def test_thm2_4_budget_refusal_is_reported_under_any_jobs(monkeypatch):
    _chi_with_budget(monkeypatch, 10)
    reports = list(run_claim("thm2.4", RunConfig(max_n=5)))
    verdicts = Counter(r.verdict for r in reports)
    assert verdicts == {"holds": 73, "budget-exceeded": 9}
    assert exit_code(reports) == 3
    assert list(run_claim("thm2.4", RunConfig(max_n=5, jobs=2))) == reports


def _stub_claim(monkeypatch, run, derives=False):
    """Register a claim "stub" over S_2 .. S_5 that runs `run`, deriving w^{-1} if `derives`.

    Run it at the default max_n = 5: a deriving claim shards by `_perm_shards`.
    """
    shards = [w for n in range(2, 6) for w in itertools.permutations(range(1, n + 1))]
    listed = verify._perm_shards if derives else lambda c: shards
    claim = Claim("stub", "a stub claim", listed, run, inverse_invariant=derives)
    monkeypatch.setitem(CLAIMS, "stub", claim)
    assert claim.shards(RunConfig()) == shards
    return [one_line(w) for w in shards]


def test_a_deriving_claim_must_list_every_inverse():
    # Over the one shard 312 a deriving claim would write `holds` for it, its
    # partner 231 never run; only the shards of S_2 .. S_max_n are closed under w^-1.
    def run(w, config):
        return ["never holds"]

    with pytest.raises(ValueError, match="^inverse-invariant claim stub must shard by _perm_shards$"):
        Claim("stub", "a stub claim", lambda c: [(3, 1, 2)], run, inverse_invariant=True)


@pytest.fixture
def alarm():
    """Fail a test that runs longer than 30 s, where a hung worker would leave it waiting."""

    def timeout(signum, frame):
        raise TimeoutError("run_claim hung")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_a_worker_error_is_raised_after_the_earlier_reports(monkeypatch, alarm):
    def run(w, config):
        if one_line(w) == "2143":
            raise PatternViolationError("no 2143 here")
        return []

    # A claim that derives w^-1's holds reports the derived shards before 2143 too.
    for derives in (False, True):
        subjects = _stub_claim(monkeypatch, run, derives)
        seen = []
        with pytest.raises(PatternViolationError, match="^no 2143 here$"):
            for r in run_claim("stub", RunConfig(jobs=2)):
                seen.append(r.subject)
        assert seen == subjects[: subjects.index("2143")]
        assert multiprocessing.active_children() == []


def test_a_worker_that_dies_makes_the_run_raise(monkeypatch, alarm):
    def run(w, config):
        if one_line(w) == "2143":
            os._exit(1)
        return []

    for derives in (False, True):
        _stub_claim(monkeypatch, run, derives)
        with pytest.raises(RuntimeError, match="exited with code 1 before its last report"):
            list(run_claim("stub", RunConfig(jobs=2)))
        assert multiprocessing.active_children() == []


def test_closing_the_run_early_ends_its_workers(monkeypatch, alarm):
    for derives in (False, True):
        subjects = _stub_claim(monkeypatch, lambda w, config: [], derives)
        reports = run_claim("stub", RunConfig(jobs=2))
        # 312 = 231^-1 is the first shard a deriving claim does not run.
        head = [next(reports).subject for _ in range(subjects.index("312") + 1)]
        assert head == subjects[: len(head)]
        reports.close()
        assert multiprocessing.active_children() == []


def test_the_parent_reads_no_worker_far_ahead_of_it(monkeypatch, alarm, tmp_path):
    # Worker 0 stalls on the first shard while worker 1 runs ahead, each shard leaving
    # a file. Its blocks are too large for a pipe's buffer, and the parent reads only
    # worker 0 until block 0 comes, so worker 1 waits in the send of its first block.
    def run(w, config):
        if one_line(w) == "12":
            time.sleep(1)
            return [str(len(list(tmp_path.iterdir())))]
        (tmp_path / one_line(w)).touch()
        return ["x" * 100_000]

    _stub_claim(monkeypatch, run)
    reports = run_claim("stub", RunConfig(jobs=2))
    ahead = int(next(reports).witness)
    reports.close()
    # 152 shards in blocks of 5; worker 1 holds half of them.
    assert ahead <= 5
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", ["conj5.1", "identity"])
def test_derived_reports_are_the_reports_of_running_every_shard(monkeypatch, name):
    claim = CLAIMS[name]
    assert claim.inverse_invariant
    config = RunConfig(max_n=6)
    shards = claim.shards(config)
    expected = [verify._run_shard(claim, w, config) for w in shards]
    ran = []

    def run(w, config):
        ran.append(w)
        return claim.run(w, config)

    monkeypatch.setitem(CLAIMS, name, dataclasses.replace(claim, run=run))
    for jobs in (1, 2, 3):
        assert list(run_claim(name, RunConfig(max_n=6, jobs=jobs))) == expected, jobs
    # Under one job every shard runs in this process but the derived ones, w^-1 < w.
    derived = {w for w in shards if oracles.inverse(w) < w}
    assert len(derived) == 322 + 47 + 7 + 1  # (n! - #involutions) / 2 on S_6 .. S_3
    assert ran == [w for w in shards if w not in derived]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_representative_makes_its_partner_run(monkeypatch, alarm, jobs):
    # 1342 is the representative of 1423 = 1342^-1; the partner runs and writes its own witness.
    ran = []

    def run(w, config):
        ran.append(one_line(w))
        return [f"w={one_line(w)}"] if one_line(w) in ("1342", "1423") else []

    subjects = _stub_claim(monkeypatch, run, derives=True)
    reports = list(run_claim("stub", RunConfig(jobs=jobs)))
    assert [r.subject for r in reports] == subjects
    failing = [(r.subject, r.witness) for r in reports if r.verdict != "holds"]
    assert failing == [("1342", "w=1342"), ("1423", "w=1423")]
    assert exit_code(reports) == 2
    # The parent runs every representative under one job, and only the partner under two.
    representatives = [
        one_line(w) for n in range(2, 6) for w in itertools.permutations(range(1, n + 1))
        if w <= oracles.inverse(w)
    ]
    assert ran == (sorted(representatives + ["1423"], key=subjects.index) if jobs == 1 else ["1423"])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    ("name", "digest"),
    [
        ("identity", "67a132a3a083634c316764c136d5c69247da30c44acce0874b724fa530892d4c"),
        ("conj5.1", "eb3e6a66b013a82e2ea911458ebc559c8e338ab77eb28cf7abddf50617068ff7"),
    ],
)
def test_x1_reports_at_seven_are_pinned(name, digest):
    # The digests of `verify NAME --max-n 7 --format json` before any shard was derived.
    report = "".join(r.json_line() + "\n" for r in run_claim(name, RunConfig(max_n=7)))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


def test_exit_code_priorities():
    holds = VerificationReport("x", "s", "holds")
    fails = VerificationReport("x", "s", "fails", "w")
    budget = VerificationReport("x", "s", "budget-exceeded", "w")
    assert exit_code([holds]) == 0
    assert exit_code([holds, budget]) == 3
    assert exit_code([budget, fails]) == 2
    assert exit_code([fails, budget]) == 2
    assert exit_code([]) == 0


def test_report_as_dict_omits_empty_fields():
    r = VerificationReport("thm2.7", "2143", "holds")
    assert r.as_dict() == {"claim": "thm2.7", "subject": "2143", "verdict": "holds"}
    r = VerificationReport("thm2.7", "2143", "fails", "bad", 1.5)
    assert r.as_dict() == {
        "claim": "thm2.7",
        "subject": "2143",
        "verdict": "fails",
        "witness": "bad",
        "elapsed_ms": 1.5,
    }


@pytest.mark.parametrize("elapsed_ms", [None, 0.125])
@pytest.mark.parametrize("witness", [None, 'k=1: "quoted" \\ back\\slash', "u=2,14,3: é ∑ 😀\ttab"])
def test_json_line_is_the_compact_dump_of_the_report(witness, elapsed_ms):
    r = VerificationReport("identity", "2,14,3", "fails", witness, elapsed_ms)
    assert r.json_line() == json.dumps(r.as_dict(), separators=(",", ":"))
    assert json.loads(r.json_line()) == r.as_dict()


def test_thm1_1_builds_each_avoider_table_once(monkeypatch):
    calls: Counter = Counter()
    build = incexc.alternating_polynomials

    def counted(values):
        calls[values] += 1
        return build(values)

    monkeypatch.setattr(incexc, "alternating_polynomials", counted)
    assert exit_code(run_claim("thm1.1", RunConfig(max_n=5))) == 0
    # An avoider of S_<=4 is a shard and a deletion, through one memo; an
    # avoider of S_5 is a shard only.  Deletions of avoiders are avoiders.
    avoiders = Counter(w for n in range(6) for w in itertools.permutations(range(1, n + 1)) if avoids(w))
    assert calls == avoiders

def test_identity_builds_each_table_once_per_shard(monkeypatch):
    calls: Counter = Counter()
    builders = {
        name: getattr(incexc, name) for name in ("alternating_specializations", "chain_sums")
    }

    def counted(name):
        def build(values):
            calls[name, values] += 1
            return builders[name](values)
        return build

    for name in builders:
        monkeypatch.setattr(incexc, name, counted(name))
    assert exit_code(run_claim("identity", RunConfig(max_n=5))) == 0
    # The memo builds the chains of S_0 .. S_4 once, for the deletions and the
    # shards of S_<=4 alike, and no x = 1 table at all.
    # Of S_5 only the representatives, w <= w^-1, build their chains, once.
    smaller = Counter(("chain_sums", w) for n in range(5) for w in itertools.permutations(range(1, n + 1)))
    representatives = Counter(
        ("chain_sums", w)
        for w in itertools.permutations(range(1, 6))
        if w <= oracles.inverse(w)
    )
    assert calls == smaller + representatives


def test_each_table_build_makes_one_deletion_per_position(monkeypatch):
    deletions, built = 0, 0
    originals = {
        name: getattr(incexc, name)
        for name in ("without_position", "alternating_specializations", "chain_sums")
    }

    def delete(values, i):
        nonlocal deletions
        deletions += 1
        return originals["without_position"](values, i)

    def counted(name):
        def build(values):
            nonlocal built
            built += len(values)
            return originals[name](values)
        return build

    monkeypatch.setattr(incexc, "without_position", delete)
    for name in ("alternating_specializations", "chain_sums"):
        monkeypatch.setattr(incexc, name, counted(name))
    assert exit_code(run_claim("identity", RunConfig(max_n=5))) == 0
    # Both chains, c_w and the sum of c, come from the same n deletions.
    assert built and deletions == built


def test_thm4_1_builds_one_purple_family_per_pair(monkeypatch):
    calls: Counter = Counter()
    family = purple.purple_family

    def counted(D, k, l):
        calls[D, k, l] += 1
        return family(D, k, l)

    monkeypatch.setattr(verify, "purple_family", counted)
    monkeypatch.setattr(purple, "purple_family", counted)
    assert exit_code(run_claim("thm4.1", RunConfig(max_n=5))) == 0
    # One (w, k) pair per position k of every w in S_2 .. S_5.
    assert sum(calls.values()) == sum(n * math.factorial(n) for n in range(2, 6)) == 718
    assert set(calls.values()) == {1}


def test_thm4_1_makes_no_rank_computation(monkeypatch):
    # S_pi skipping x_k comes from the transition route; the rank route is an oracle.
    calls = []
    span_rank = weylchar._span_rank

    def counted(polys):
        calls.append(polys)
        return span_rank(polys)

    monkeypatch.setattr(weylchar, "_span_rank", counted)
    assert exit_code(run_claim("thm4.1", RunConfig(max_n=5))) == 0
    assert calls == []
    assert weylchar._det.cache_info().misses == 0


# Witnesses of thm4.1 on 136254 when S_pi skipping x_k gains a term x1*x2: some
# members fail (one of three at k=3), each in box_list order within its k.
STUBBED_THM4_1_WITNESS = "; ".join([
    'k=1 K={}: coeff -1 at x1*x2',
    'k=2 K={(2,2)}: coeff -1 at x1*x2^2',
    'k=3 K={(3,2), (3,4), (3,5)}: coeff -1 at x1*x2*x3^3',
    'k=4 K={(1,2), (2,2)}: coeff -1 at x1^2*x2^2',
    'k=4 K={(1,2), (3,2)}: coeff -1 at x1^2*x2*x3',
    'k=4 K={(2,2), (3,2)}: coeff -1 at x1*x2^2*x3',
    'k=5 K={(1,5), (4,4)}: coeff -1 at x1^2*x2*x4',
    'k=5 K={(1,5), (5,4)}: coeff -1 at x1^2*x2*x5',
    'k=5 K={(2,5), (4,4)}: coeff -1 at x1*x2^2*x4',
    'k=5 K={(2,5), (5,4)}: coeff -1 at x1*x2^2*x5',
    'k=5 K={(3,5), (4,4)}: coeff -1 at x1*x2*x3*x4',
    'k=5 K={(3,5), (5,4)}: coeff -1 at x1*x2*x3*x5',
    'k=6 K={(1,4), (2,4)}: coeff -1 at x1^2*x2^2',
    'k=6 K={(1,4), (3,4)}: coeff -1 at x1^2*x2*x3',
    'k=6 K={(1,4), (4,4)}: coeff -1 at x1^2*x2*x4',
    'k=6 K={(1,4), (5,4)}: coeff -1 at x1^2*x2*x5',
    'k=6 K={(2,4), (3,4)}: coeff -1 at x1*x2^2*x3',
    'k=6 K={(2,4), (4,4)}: coeff -1 at x1*x2^2*x4',
    'k=6 K={(2,4), (5,4)}: coeff -1 at x1*x2^2*x5',
    'k=6 K={(3,4), (4,4)}: coeff -1 at x1*x2*x3*x4',
    'k=6 K={(3,4), (5,4)}: coeff -1 at x1*x2*x3*x5',
])


def test_thm4_1_witness_lists_failing_members_in_box_order(monkeypatch):
    skipping = schubert.schubert_skipping
    monkeypatch.setattr(schubert, "schubert_skipping", lambda w, k: add(skipping(w, k), mul(x(1), x(2))))
    claim = CLAIMS["thm4.1"]
    report = verify._run_shard(claim, (1, 3, 6, 2, 5, 4), RunConfig())
    assert report.verdict == "fails"
    assert report.witness == STUBBED_THM4_1_WITNESS


# Witnesses of thm1.0 on S_<=4 when S_pi skipping x_k is doubled for every w
# beginning with 4: those six fail at every k, at the first negative term.
STUBBED_THM1_0_WITNESSES = {
    "4123": "k=1: coeff -1 at x1^3; k=2: coeff -1 at x1^3; k=3: coeff -1 at x1^3; k=4: coeff -1 at x1^3",
    "4132": "k=1: coeff -1 at x1^3*x2; k=2: coeff -1 at x1^3*x3; k=3: coeff -1 at x1^3*x3; k=4: coeff -1 at x1^3*x3",
    "4213": "k=1: coeff -1 at x1^3*x2; k=2: coeff -1 at x1^3*x2; k=3: coeff -1 at x1^3*x2; k=4: coeff -1 at x1^3*x2",
    "4231": "k=1: coeff -1 at x1^3*x2*x3; k=2: coeff -1 at x1^3*x2*x3; k=3: coeff -1 at x1^3*x2*x3; "
    "k=4: coeff -1 at x1^3*x2*x3",
    "4312": "k=1: coeff -1 at x1^3*x2^2; k=2: coeff -1 at x1^3*x2^2; k=3: coeff -1 at x1^3*x2^2; "
    "k=4: coeff -1 at x1^3*x2^2",
    "4321": "k=1: coeff -1 at x1^3*x2^2*x3; k=2: coeff -1 at x1^3*x2^2*x3; k=3: coeff -1 at x1^3*x2^2*x3; "
    "k=4: coeff -1 at x1^3*x2^2*x3",
}


def test_thm1_0_witnesses_print_the_first_negative_term(monkeypatch):
    skipping = incexc.schubert_skipping
    monkeypatch.setattr(
        incexc,
        "schubert_skipping",
        lambda w, k: add(skipping(w, k), skipping(w, k)) if w[0] == 4 else skipping(w, k),
    )
    reports = list(run_claim("thm1.0", RunConfig(max_n=4)))
    assert {r.subject: r.witness for r in reports if r.verdict != "holds"} == STUBBED_THM1_0_WITNESSES


# Witnesses of thm1.1 on S_<=4 when every entry of the table of a w beginning
# with 41 loses 2 S_w: each mask fails, the full one (S_w - 2 S_w) with -1.
STUBBED_THM1_1_WITNESSES = {
    "4123": "; ".join([
        "u=(): coeff -2 at x1^3", "u=4: coeff -2 at x1^3", "u=1: coeff -2 at x1^3", "u=41: coeff -2 at x1^3",
        "u=2: coeff -2 at x1^3", "u=42: coeff -2 at x1^3", "u=12: coeff -2 at x1^3", "u=412: coeff -2 at x1^3",
        "u=3: coeff -2 at x1^3", "u=43: coeff -2 at x1^3", "u=13: coeff -2 at x1^3", "u=413: coeff -2 at x1^3",
        "u=23: coeff -2 at x1^3", "u=423: coeff -2 at x1^3", "u=123: coeff -2 at x1^3", "u=4123: coeff -1 at x1^3",
    ]),
    "4132": "; ".join([
        "u=(): coeff -2 at x1^3*x2", "u=4: coeff -1 at x1^3*x2", "u=1: coeff -2 at x1^3*x2",
        "u=41: coeff -1 at x1^3*x2", "u=3: coeff -2 at x1^3*x2", "u=43: coeff -1 at x1^3*x2",
        "u=13: coeff -2 at x1^3*x2", "u=413: coeff -1 at x1^3*x2", "u=2: coeff -2 at x1^3*x2",
        "u=42: coeff -1 at x1^3*x2", "u=12: coeff -2 at x1^3*x2", "u=412: coeff -1 at x1^3*x2",
        "u=32: coeff -2 at x1^3*x2", "u=432: coeff -1 at x1^3*x2", "u=132: coeff -2 at x1^3*x2",
        "u=4132: coeff -1 at x1^3*x2",
    ]),
}


def test_thm1_1_witnesses_print_the_first_negative_term(monkeypatch):
    table = incexc.alternating_polynomials

    def stub(values):
        t = table(values)
        return [sub(sub(p, t[-1]), t[-1]) for p in t] if values[:2] == (4, 1) else t

    monkeypatch.setattr(incexc, "alternating_polynomials", stub)
    reports = list(run_claim("thm1.1", RunConfig(max_n=4)))
    assert {r.subject: r.witness for r in reports if r.verdict == "fails"} == STUBBED_THM1_1_WITNESSES


def test_conj5_3_witnesses_print_monomials(monkeypatch):
    # characterize_monomials returns exponent keys; the witness prints them as monomials.
    skipping = purple.schubert_skipping

    def witnesses(stub, max_n):
        monkeypatch.setattr(purple, "schubert_skipping", stub)
        reports = run_claim("conj5.3", RunConfig(max_n=max_n))
        return {r.subject: r.witness for r in reports if r.verdict == "fails"}

    got = witnesses(lambda w, k: add(skipping(w, k), mul(x(1), x(2))) if k == 2 else skipping(w, k), 3)
    assert got["132"] == "k=2: purple monomial not working: ['x1', 'x2']"
    assert got["321"] == "k=2: purple monomial not working: ['x1*x2']"
    # With S_pi cut to its first term, more M work than the family gives.
    got = witnesses(lambda w, k: {_canonical(skipping(w, k))[0]: 1}, 4)
    assert got["1342"] == "k=2: extra working monomials ['x3']; k=3: extra working monomials ['x2']"
    assert got["2143"] == "k=2: extra working monomials ['x2', 'x3']"


def test_single_removal_claims_build_no_monomial(monkeypatch):
    # thm1.0, thm4.1 and conj5.3 check each M by its exponent key; a key becomes text for witnesses only.
    built = Counter()
    text = polyx.monomial_text

    def counted_text(key):
        built["monomial_text"] += 1
        return text(key)

    for info in pkgutil.iter_modules(schubpat.__path__):
        module = importlib.import_module(f"schubpat.{info.name}")
        if getattr(module, "monomial_text", None) is text:
            monkeypatch.setattr(module, "monomial_text", counted_text)
    for name, verdicts in (
        ("thm1.0", {"holds"}),
        ("thm4.1", {"holds"}),
        ("conj5.3", {"holds", "outside-scope"}),
    ):
        assert {r.verdict for r in run_claim(name, RunConfig(max_n=5))} == verdicts
    assert built == {}


def test_passing_shards_read_no_box_set(monkeypatch):
    # The diagram claims read D's columns only; its box set is for oracles and text.
    reads = Counter()
    boxes = Diagram.boxes.func

    def counted_boxes(self):
        reads["boxes"] += 1
        return boxes(self)

    monkeypatch.setattr(Diagram, "boxes", property(counted_boxes))
    for name in ("thm2.7", "thm4.1", "conj5.3", "thm1.2", "thm2.4"):
        verdicts = {r.verdict for r in run_claim(name, RunConfig(max_n=5))}
        assert verdicts and verdicts <= {"holds", "outside-scope"}, name
    assert reads == {}


# Witnesses of thm2.4 on S_4 when S_w is replaced by S of w read backwards:
# every shard fails, at the first term of chi - S in canonical order.
STUBBED_THM2_4_WITNESSES = {
    "1234": "difference 1 at 1",
    "1342": "difference 1 at x1*x2",
    "1432": "difference 1 at x1^2*x2",
    "2143": "difference 1 at x1^2",
    "2341": "difference -1 at x1^2*x2",
    "2413": "difference -1 at x1^2*x3",
    "3142": "difference 1 at x1^2*x3",
    "3214": "difference -1 at x1^3",
    "4132": "difference -1 at x1*x2",
    "4321": "difference -1 at 1",
}


def test_thm2_4_witness_is_the_first_term_of_the_difference(monkeypatch):
    s_w = schubert.schubert_polynomial
    monkeypatch.setattr(verify.schubert, "schubert_polynomial", lambda w: s_w(w[::-1]))
    reports = list(run_claim("thm2.4", RunConfig(max_n=4)))
    assert {r.verdict for r in reports} == {"fails"}
    witnesses = {r.subject: r.witness for r in reports}
    assert {s: witnesses[s] for s in STUBBED_THM2_4_WITNESSES} == STUBBED_THM2_4_WITNESSES
    # Added terms of one degree: x1*x4 comes before x2*x3, and degree 2 before degree 3.
    extra = {exponent_key(e): c for e, c in (([0, 1, 1], 1), ([1, 0, 0, 1], 5), ([2, 1], 3))}
    monkeypatch.setattr(verify.schubert, "schubert_polynomial", lambda w: add(s_w(w), extra))
    report = verify._run_shard(CLAIMS["thm2.4"], (2, 1, 4, 3), RunConfig())
    assert (report.verdict, report.witness) == ("fails", "difference -5 at x1*x4")


def test_conj5_1_witness_is_the_first_negative_mask(monkeypatch):
    # Masks of 231 in order: (), 2, 3, 23, 1, 21, 31, 231.
    table = [0, 1, 0, -2, -1, 0, 0, 1]
    monkeypatch.setattr(incexc, "alternating_specializations", lambda values: table)
    report = verify._run_shard(CLAIMS["conj5.1"], (2, 3, 1), RunConfig())
    assert (report.verdict, report.witness) == ("fails", "u=23: value -2")


def test_identity_witnesses_read_the_coefficient_table(monkeypatch):
    # The stub's chains put c = 1 at h[0] and the sum of c at s[0] = 5; S_1243(1) = 3, S_2134(1) = 1.
    monkeypatch.setattr(incexc, "chain_sums", lambda values: ([1, 0, 0, 0, 0], [5, 0, 0, 0, 1]))
    report = verify._run_shard(CLAIMS["identity"], (1, 2, 4, 3), RunConfig())
    assert (report.verdict, report.witness) == ("fails", "sum of c over subwords = 5, specialization = 3")
    report = verify._run_shard(CLAIMS["identity"], (2, 1, 3, 4), RunConfig())
    assert report.witness == (
        "sum of c over subwords = 5, specialization = 1; c = 1 despite fixed last point"
    )


@pytest.mark.parametrize("stub", ["count_dominated", "dominated_sum"])
def test_thm2_7_unexpected_inequality_witness(monkeypatch, stub):
    # An avoider fails by the count certificate or by the full comparison alike.
    monkeypatch.setattr(verify, stub, lambda D: 0)
    report = verify._run_shard(CLAIMS["thm2.7"], (1, 3, 2, 5, 4), RunConfig())
    assert (report.verdict, report.witness) == ("fails", "unexpected inequality for avoidance=True")


def test_thm2_7_unexpected_equality_witness(monkeypatch):
    w = (1, 4, 3, 2)
    s_w = schubert.schubert_polynomial(w)
    monkeypatch.setattr(verify, "count_dominated", lambda D: oracles.evaluate_all_ones(s_w))
    monkeypatch.setattr(verify, "dominated_sum", lambda D: s_w)
    report = verify._run_shard(CLAIMS["thm2.7"], w, RunConfig())
    assert (report.verdict, report.witness) == ("fails", "unexpected equality for avoidance=False")


def test_thm2_7_builds_no_product_for_a_certified_non_avoider(monkeypatch):
    def refuse(D):
        raise AssertionError("the count certificate should decide")

    monkeypatch.setattr(verify, "dominated_sum", refuse)
    for w in ((1, 4, 3, 2), (1, 4, 2, 3), (1, 5, 2, 4, 3)):
        report = verify._run_shard(CLAIMS["thm2.7"], w, RunConfig())
        assert report.verdict == "holds"


def test_avoider_claims_hold_s_w_only_for_patterns_of_avoiders():
    # The n=9 memory plan rests on this: S_w of every permutation does not fit.
    # thm2.7 builds S_w only where the counts agree, which at n <= 6 is the avoiders.
    schubpat.clear_caches()
    for name in ("thm1.1", "conj5.3", "thm1.2", "thm2.7"):
        assert exit_code(list(run_claim(name, RunConfig(max_n=6)))) == 0
    after_claims = schubert._schubert.cache_info().currsize
    schubpat.clear_caches()
    for n in range(2, 7):
        for w in itertools.permutations(range(1, n + 1)):
            if avoids(w):
                for pattern in oracles.subword_patterns(w):
                    schubert.schubert_polynomial(pattern)
    assert after_claims == schubert._schubert.cache_info().currsize


def test_subword_claims_hold_tables_of_the_deletions_only():
    # The n=9 memory plan rests on this: the tables of S_9 would not fit.
    schubpat.clear_caches()
    for name in ("identity", "conj5.1"):
        assert exit_code(list(run_claim(name, RunConfig(max_n=6)))) == 0
    smaller = [w for n in range(6) for w in itertools.permutations(range(1, n + 1))]
    for memo in (incexc._alternating, incexc._chain_sums):
        assert memo.cache_info().currsize == len(smaller) == 154
        # Every key of S_0 .. S_5 is a hit, so the memo holds no key of length 6.
        misses = memo.cache_info().misses
        for values in smaller:
            memo(values)
        assert memo.cache_info().misses == misses


def test_c_claims_hold_no_x1_table_and_chains_of_the_deletions_only():
    # identity and thm1.2 read n + 1 entries per permutation, never a 2^n table.
    schubpat.clear_caches()
    for name in ("identity", "thm1.2"):
        assert exit_code(list(run_claim(name, RunConfig(max_n=6)))) == 0
    assert incexc._alternating.cache_info().currsize == 0
    memo = incexc._chain_sums
    smaller = [w for n in range(6) for w in itertools.permutations(range(1, n + 1))]
    assert memo.cache_info().currsize == len(smaller)
    # Every key of S_0 .. S_5 is a hit, so the memo holds no key of length 6.
    misses = memo.cache_info().misses
    for values in smaller:
        memo(values)
    assert memo.cache_info().misses == misses


def test_thm1_1_holds_tables_of_avoiders_deletions_only():
    # The tables of S_<=n-1 avoiders are kept; a shard's own table is dropped.
    schubpat.clear_caches()
    assert exit_code(list(run_claim("thm1.1", RunConfig(max_n=6)))) == 0
    memo = incexc._polynomials
    avoiders = [w for n in range(6) for w in itertools.permutations(range(1, n + 1)) if avoids(w)]
    assert memo.cache_info().currsize == len(avoiders)
    # Every key is a hit among the avoiders of S_0 .. S_5, so none has length 6.
    misses = memo.cache_info().misses
    for values in avoiders:
        memo(values)
    assert memo.cache_info().misses == misses


def test_thm1_1_report_at_six_is_pinned():
    # The digest that the per-mask route (`oracles.alternating_sums`) also gives.
    report = "".join(
        json.dumps(r.as_dict(), separators=(",", ":")) + "\n"
        for r in run_claim("thm1.1", RunConfig(max_n=6))
    )
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == (
        "684f7b31b9eab6388865dd16fc1d1eb43c6f92d84885091e58f23c4cb279e28e"
    )


def test_clear_caches_reaches_every_memo():
    """After all nine claims, schubpat.clear_caches() empties every functools memo."""
    for name in CLAIMS:
        list(run_claim(name, RunConfig(max_n=4)))
    # The oracle memos, which no claim uses.
    oracles.cw_recursive((1, 4, 3, 2))
    oracles.subword_patterns((2, 1))
    memos = _memos()
    assert len(memos) == 10
    assert all(memo.cache_info().currsize for memo in memos)
    schubpat.clear_caches()
    assert [memo for memo in memos if memo.cache_info().currsize] == []


def _memos() -> list:
    """Every functools memo at the top level of a schubpat module, once each."""
    modules = [
        importlib.import_module(f"schubpat.{m.name}") for m in pkgutil.iter_modules(schubpat.__path__)
    ]
    memos = {
        id(obj): obj for mod in modules for obj in vars(mod).values() if hasattr(obj, "cache_clear")
    }
    return list(memos.values())


def _memo_entries(memo) -> dict:
    """The argument -> result dict of a functools memo, which CPython's cache object refers to."""
    (entries,) = [r for r in gc.get_referents(memo) if type(r) is dict and r is not memo.__dict__]
    return entries


def test_no_claim_changes_a_memo_entry():
    # A memo hands the same dicts and lists to every caller, so one that
    # changed what it read would change what every later claim reads.
    schubpat.clear_caches()
    memos = (
        schubert._schubert, incexc._polynomials, incexc._chain_sums, incexc._alternating,
        weylchar._det,
    )

    def reports():
        return {name: [r.json_line() for r in run_claim(name, RunConfig(max_n=5))] for name in CLAIMS}

    first = reports()
    before = [copy.deepcopy(_memo_entries(memo)) for memo in memos]
    assert all(before)
    assert reports() == first
    assert [_memo_entries(memo) for memo in memos] == before


def test_thm1_1_tables_share_one_empty_polynomial():
    # Most entries of a table are empty; they are one dict, not a dict each.
    schubpat.clear_caches()
    assert exit_code(list(run_claim("thm1.1", RunConfig(max_n=6)))) == 0
    tables = _memo_entries(incexc._polynomials).values()
    assert len({id(entry) for table in tables for entry in table if not entry}) == 1


def test_every_production_memo_hits_on_the_claims():
    # A memo that never hits only costs memory; the oracle memos serve tests, not claims.
    schubpat.clear_caches()
    for name in CLAIMS:
        list(run_claim(name, RunConfig(max_n=5)))
    memos = [memo for memo in _memos() if memo.__module__ != "schubpat.oracles"]
    assert len(memos) == 8
    assert [memo.__qualname__ for memo in memos if not memo.cache_info().hits] == []

