import hashlib
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
from schubpat import incexc, oracles, purple, schubert, verify, weylchar
from schubpat.errors import BudgetExceededError, PatternViolationError
from schubpat.permwords import Permutation, all_permutations, avoids, one_line
from schubpat.polyx import x
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
    assert all(r.verdict == "holds" for r in reports if avoids(Permutation.from_string(r.subject).values))


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


def test_budget_maps_to_exit_code_3():
    reports = list(run_claim("thm2.4", RunConfig(max_n=4, budget_dominated=2)))
    assert any(r.verdict == "budget-exceeded" for r in reports)
    assert exit_code(reports) == 3


def test_runner_builds_the_report_from_what_a_claim_returns(monkeypatch):
    returned = {"12": None, "21": [], "123": ["a", "b"]}

    def run(w, config):
        if one_line(w) == "132":
            raise BudgetExceededError("m")
        return returned[one_line(w)]

    shards = [Permutation.from_string(s).values for s in ("12", "21", "123", "132")]
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


def test_thm2_4_budget_refusal_is_reported_under_any_jobs():
    config = RunConfig(max_n=5, budget_dominated=10)
    reports = list(run_claim("thm2.4", config))
    verdicts = Counter(r.verdict for r in reports)
    assert verdicts == {"holds": 73, "budget-exceeded": 9}
    assert exit_code(reports) == 3
    assert list(run_claim("thm2.4", RunConfig(max_n=5, budget_dominated=10, jobs=2))) == reports


def _stub_claim(monkeypatch, run):
    """Register a claim "stub" over S_2 .. S_5 that runs `run`."""
    shards = [w.values for n in range(2, 6) for w in all_permutations(n)]
    monkeypatch.setitem(CLAIMS, "stub", Claim("stub", "a stub claim", lambda c: shards, run))
    return [one_line(w) for w in shards]


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

    subjects = _stub_claim(monkeypatch, run)
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

    _stub_claim(monkeypatch, run)
    with pytest.raises(RuntimeError, match="exited with code 1 before its last report"):
        list(run_claim("stub", RunConfig(jobs=2)))
    assert multiprocessing.active_children() == []


def test_closing_the_run_early_ends_its_workers(monkeypatch, alarm):
    subjects = _stub_claim(monkeypatch, lambda w, config: [])
    reports = run_claim("stub", RunConfig(jobs=2))
    assert next(reports).subject == subjects[0]
    reports.close()
    assert multiprocessing.active_children() == []


def test_the_parent_reads_no_worker_far_ahead_of_it(monkeypatch, alarm, tmp_path):
    # Worker 0 stalls on the first shard while worker 1 runs ahead, each shard leaving
    # a file. Its blocks are too large for a pipe's buffer, so worker 1 waits on its
    # send as soon as the parent stops reading it: two blocks held, one being sent.
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
    assert ahead <= 3 * 5
    assert multiprocessing.active_children() == []


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


def test_identity_builds_each_table_once_per_shard(monkeypatch):
    calls: Counter = Counter()
    builders = {
        name: getattr(incexc, name) for name in ("alternating_specializations", "pattern_coefficients")
    }

    def counted(name):
        def build(values):
            calls[name, values] += 1
            return builders[name](values)
        return build

    for name in builders:
        monkeypatch.setattr(incexc, name, counted(name))
    config = RunConfig(max_n=5)
    shards = CLAIMS["identity"].shards(config)
    assert exit_code(run_claim("identity", config)) == 0
    # The claim builds each shard's c table once and reads c_w off the deletions'
    # alternating tables; the memo builds each deletion's tables once, on S_0 .. S_4.
    deletions = Counter(
        (name, w.values) for name in builders for n in range(5) for w in all_permutations(n)
    )
    assert calls == deletions + Counter(("pattern_coefficients", w) for w in shards)


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


def test_thm4_1_makes_no_rank_computation():
    # S_pi skipping x_k comes from the transition route; the rank route is an oracle.
    assert exit_code(run_claim("thm4.1", RunConfig(max_n=5))) == 0
    assert weylchar._chi_by_rank.cache_info().misses == 0
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
    monkeypatch.setattr(schubert, "schubert_skipping", lambda w, k: skipping(w, k) + x(1) * x(2))
    claim = CLAIMS["thm4.1"]
    report = verify._run_shard(claim, (1, 3, 6, 2, 5, 4), RunConfig())
    assert report.verdict == "fails"
    assert report.witness == STUBBED_THM4_1_WITNESS


def test_conj5_1_witness_is_the_first_negative_mask(monkeypatch):
    # Masks of 231 in order: (), 2, 3, 23, 1, 21, 31, 231.
    table = [0, 1, 0, -2, -1, 0, 0, 1]
    monkeypatch.setattr(incexc, "alternating_specializations", lambda values: table)
    report = verify._run_shard(CLAIMS["conj5.1"], (2, 3, 1), RunConfig())
    assert (report.verdict, report.witness) == ("fails", "u=23: value -2")


def test_identity_witnesses_read_the_coefficient_table(monkeypatch):
    # The stub's table sums to 5 and puts c = 1 at the full mask; S_1243(1) = 3, S_2134(1) = 1.
    monkeypatch.setattr(incexc, "pattern_coefficients", lambda values: [1, 1, 1, 1] + [0] * 11 + [1])
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
    w = Permutation.from_string("1432")
    s_w = schubert.schubert_polynomial(w.values)
    monkeypatch.setattr(verify, "count_dominated", lambda D: oracles.evaluate_all_ones(s_w))
    monkeypatch.setattr(verify, "dominated_sum", lambda D: s_w)
    report = verify._run_shard(CLAIMS["thm2.7"], w.values, RunConfig())
    assert (report.verdict, report.witness) == ("fails", "unexpected equality for avoidance=False")


def test_thm2_7_builds_no_product_for_a_certified_non_avoider(monkeypatch):
    def refuse(D):
        raise AssertionError("the count certificate should decide")

    monkeypatch.setattr(verify, "dominated_sum", refuse)
    for w in ("1432", "1423", "15243"):
        report = verify._run_shard(CLAIMS["thm2.7"], Permutation.from_string(w).values, RunConfig())
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
        for w in all_permutations(n):
            if avoids(w.values):
                for pattern in oracles.subword_patterns(w.values):
                    schubert.schubert_polynomial(pattern)
    assert after_claims == schubert._schubert.cache_info().currsize


def test_subword_claims_hold_tables_of_the_deletions_only():
    # The n=9 memory plan rests on this: the tables of S_9 would not fit.
    schubpat.clear_caches()
    for name in ("identity", "conj5.1"):
        assert exit_code(list(run_claim(name, RunConfig(max_n=6)))) == 0
    smaller = [w.values for n in range(6) for w in all_permutations(n)]
    for memo in (incexc._alternating, incexc._coefficients):
        assert memo.cache_info().currsize == len(smaller) == 154
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
    avoiders = [w.values for n in range(6) for w in all_permutations(n) if avoids(w.values)]
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
    oracles.cw_recursive(Permutation.from_string("1432"))
    oracles.subword_patterns((2, 1))
    memos = _memos()
    assert len(memos) == 11
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


def test_every_production_memo_hits_on_the_claims():
    # A memo that never hits only costs memory; the oracle memos serve tests, not claims.
    schubpat.clear_caches()
    for name in CLAIMS:
        list(run_claim(name, RunConfig(max_n=5)))
    memos = [memo for memo in _memos() if memo.__module__ != "schubpat.oracles"]
    assert len(memos) == 9
    assert [memo.__qualname__ for memo in memos if not memo.cache_info().hits] == []

