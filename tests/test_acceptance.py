"""Acceptance suite: one pass/fail line per criterion, with time limits.

Every expected value here is frozen from an independently computed
oracle; the asserted wall-clock bounds are generous ceilings, not
performance targets.
"""
import time

import pytest

from schubpat import cli
from schubpat.diagrams import dominated_sum, rothe
from schubpat.incexc import cw_augmentation, cw_inclusion_exclusion
from schubpat.oracles import (
    alternating_sum,
    cw_recursive,
    macdonald_oracle,
    schubert_divdiff,
)
from schubpat.permwords import Permutation, Word, all_permutations, avoids
from schubpat.polyx import Monomial, Polynomial, x
from schubpat.purple import characterize_monomials, purple_family
from schubpat.schubert import principal_specialization
from schubpat.verify import RunConfig, exit_code, run_claim


@pytest.fixture
def report(capsys, request):
    start = time.monotonic()

    def emit(limit_s: float, detail: str):
        elapsed = time.monotonic() - start
        ok = elapsed <= limit_s
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"{request.node.name}: {status} ({detail}; {elapsed:.1f}s / limit {limit_s:.0f}s)")
        assert ok, f"exceeded time limit: {elapsed:.1f}s > {limit_s}s"

    return emit


def _claim_clean(name, config):
    reports = list(run_claim(name, config))
    assert exit_code(reports) == 0, [r for r in reports if r.verdict == "fails"]
    return reports


def test_criterion_1_worked_examples(report):
    assert alternating_sum(Permutation.from_string("2143"), Word.of(4, 3)).total == Polynomial.zero()
    assert alternating_sum(Permutation.from_string("1342"), Word.of(4, 2)).total == x(1) * x(3)

    for w_str, expected in [("1342", 0), ("12453", 1)]:
        w = Permutation.from_string(w_str)
        assert cw_inclusion_exclusion(w.values) == expected
        assert cw_recursive(w) == expected
        assert cw_augmentation(w.values) == expected

    D = rothe((1, 5, 2, 4, 3))
    fam53 = purple_family(D, 5, 3)
    assert fam53.monomials == {
        Monomial.of(2, 4),
        Monomial.of(1, 4),
        Monomial.of(2, 3),
        Monomial.of(1, 3),
        Monomial.of(1, 2),
    }
    fam44 = purple_family(D, 4, 4)
    assert fam44.monomials == {
        Monomial.of(2, 4),
        Monomial.of(1, 4),
        Monomial.of(2, 3),
        Monomial.of(1, 3),
    }
    result44 = characterize_monomials((1, 5, 2, 4, 3))[3]
    assert Monomial.of(1, 2) in result44.extra

    sigma = Permutation.from_string("1432")
    r3 = characterize_monomials(sigma.values)[2]
    assert r3.from_purple == {Monomial.of(1, 3), Monomial.of(2, 3)}
    assert r3.extra == {Monomial.of(1, 2)}
    r4 = characterize_monomials(sigma.values)[3]
    assert r4.from_purple == {Monomial.of(1, 2), Monomial.of(1, 3), Monomial.of(2, 3)}
    assert r4.extra == frozenset()

    report(5.0, "expansions, c_w by three methods, purple families and partitions")


def test_criterion_2_cross_method_equality(report):
    for w in all_permutations(6):
        if avoids(w.values):
            assert dominated_sum(rothe(w.values)) == schubert_divdiff(w)
    w1432 = Permutation.from_string("1432")
    counting = dominated_sum(rothe(w1432.values))
    exact = schubert_divdiff(w1432)
    witness = Monomial.of(1, 2, 3)
    assert counting.coefficient(witness) > exact.coefficient(witness)

    _claim_clean("thm2.4", RunConfig(max_n=5))

    for w in all_permutations(5):
        assert macdonald_oracle(w) == principal_specialization(w.values)

    report(600.0, "diagram vs divided differences on S_6, chi on S_4 + 50 of S_5, reduced words on S_5")


def test_criterion_3_theorem_suites(report):
    _claim_clean("thm1.1", RunConfig(max_n=6))
    _claim_clean("thm1.0", RunConfig(max_n=5))
    _claim_clean("thm4.1", RunConfig(max_n=5))
    _claim_clean("thm1.2", RunConfig(max_n=6))
    report(3000.0, "thm1.1 S_≤6 full, thm1.0 S_5, thm4.1 S_5, thm1.2 S_6")


def test_criterion_4_conjecture_scans(report):
    _claim_clean("conj5.1", RunConfig(max_n=6))
    _claim_clean("conj5.3", RunConfig(max_n=5))
    report(3600.0, "conj5.1 on S_6, conj5.3 on avoiding S_5")


def test_criterion_5_identity_checks(report):
    _claim_clean("identity", RunConfig(max_n=6))
    report(300.0, "subword c-sum identity and vanishing on fixed last point, S_6")


def test_criterion_6_determinism(report, tmp_path):
    runs = []
    for name in ["first", "second"]:
        out = tmp_path / f"{name}.jsonl"
        code = cli.main(
            ["verify", "thm1.1", "--max-n", "5", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    parallel = tmp_path / "parallel.jsonl"
    code = cli.main(
        [
            "verify",
            "thm1.1",
            "--max-n",
            "5",
            "--format",
            "json",
            "--jobs",
            "2",
            "--out",
            str(parallel),
        ]
    )
    assert code == 0
    assert parallel.read_bytes() == runs[0]

    timed = list(
        run_claim("identity", RunConfig(max_n=4, include_timing=True))
    )
    untimed = list(run_claim("identity", RunConfig(max_n=4)))
    assert [(r.claim, r.subject, r.verdict) for r in timed] == [
        (r.claim, r.subject, r.verdict) for r in untimed
    ]
    report(120.0, "byte-identical reruns, parallel parity, timing is opt-in")
