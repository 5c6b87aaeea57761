"""Batch verification of the theorem and conjecture suites.

Each claim has an input space sharded by permutation; a shard is the
permutation's one-line notation, a plain tuple as `itertools.permutations`
makes it, and its subject is `one_line(w)`.  A claim's `run(w, config)`
returns its failure witnesses, [] when the claim holds, or None when w is
outside its scope; it may raise BudgetExceededError.  `_run_shard` alone
turns that into the report of a shard that runs.  Shard order is fixed,
so report files are byte-stable for a given configuration regardless of
the parallelism degree (timing is only recorded on request for the same
reason).

A claim whose verdict is the same for w and w^{-1} (`Claim.inverse_invariant`)
runs only the lexicographically smaller of the two, the representative; it
is earlier in shard order.  For `conj5.1` the x = 1 table of w^{-1} is w's
re-indexed; for `identity` the subword patterns of w^{-1} are the inverses
of w's, c_{u^{-1}} = c_u, S_{w^{-1}}(1) = S_w(1), and w fixes n iff w^{-1}
does.  The other, a derived shard, is not run: the parent writes `holds`
under its own subject unless the representative did not hold.  Such a
claim shards by `_perm_shards`, so the representative is a shard too.
Only `holds` is derived; after any other verdict the parent runs the shard
itself, so every witness is the shard's own.

Under `jobs` > 1, `run_claim` forks its workers: each inherits the shard
list, so nothing is pickled on the way in.  The shards are cut into
consecutive blocks, block b dealt to worker b mod the number of workers;
each worker sends the reports of a block down its own pipe, None in place
of a derived shard's, and the parent reads block b from that pipe alone, in
block order.  A worker that is ahead waits in its send once the pipe is
full.  Forking needs a platform that has it (not Windows), and a parent
with no other thread.  Only a run with `jobs` > 1 imports `multiprocessing`,
while its `RunConfig` is built.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator

from . import incexc, schubert, weylchar
from .diagrams import count_dominated, dominated_sum, rothe
from .errors import BudgetExceededError, UsageError
from .permwords import avoids, inverse_values, one_line
from .polyx import _canonical, first_negative, monomial_text, nonnegative_after_subtracting, sub
from .purple import characterize_monomials, purple_family

DEFAULT_SEED = 2718

# One encoder for every JSON line: `json.dumps` with a separators argument
# builds a new JSONEncoder at each call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class RunConfig:
    max_n: int = 5
    jobs: int = 1
    seed: int = DEFAULT_SEED
    include_timing: bool = False
    # `thm2.4` checks all of S_<=4 and this many permutations of S_5, drawn by
    # the seed.  No caller sets it, so it is no field; bench/record.py reads it.
    sample_chi_n5: ClassVar[int] = 50

    def __post_init__(self):
        # Every shard is a permutation of S_2 .. S_max_n: a smaller max_n would verify nothing.
        if self.max_n < 2:
            raise UsageError(f"--max-n must be at least 2, got {self.max_n}")
        if self.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {self.jobs}")
        if self.jobs > 1:
            import multiprocessing

            try:
                multiprocessing.get_context("fork")
            except ValueError:
                raise UsageError("--jobs above 1 needs the fork start method") from None


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    subject: str
    verdict: str  # holds | fails | outside-scope | budget-exceeded
    witness: str | None = None
    elapsed_ms: float | None = None

    def as_dict(self) -> dict:
        d = {"claim": self.claim, "subject": self.subject, "verdict": self.verdict}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.elapsed_ms is not None:
            d["elapsed_ms"] = self.elapsed_ms
        return d

    def json_line(self) -> str:
        """The compact JSON of `as_dict`, without a newline: the one text of a report line."""
        return _encode(self.as_dict())


@dataclass(frozen=True)
class Claim:
    name: str
    description: str
    shards: Callable[[RunConfig], list[tuple[int, ...]]]
    run: Callable[[tuple[int, ...], RunConfig], list[str] | None]  # failures; None: outside scope
    # Whether w^{-1} has w's verdict, so that the larger of the two takes a `holds` from the other.
    inverse_invariant: bool = False

    def __post_init__(self):
        # A derived shard's partner must be a shard too: S_2 .. S_max_n holds every inverse.
        if self.inverse_invariant and self.shards is not _perm_shards:
            raise ValueError(f"inverse-invariant claim {self.name} must shard by _perm_shards")


def _perm_shards(config: RunConfig, n_max: int | None = None) -> list[tuple[int, ...]]:
    top = config.max_n if n_max is None else min(config.max_n, n_max)
    return [w for n in range(2, top + 1) for w in itertools.permutations(range(1, n + 1))]


def _subword_at(w: tuple[int, ...], mask: int) -> str:
    """The text of the subword of word(w) that keeps position i + 1 for each bit i of mask."""
    return one_line(tuple(a for i, a in enumerate(w) if mask >> i & 1))


def _table(memo: Callable, build: Callable, w: tuple[int, ...], config: RunConfig) -> list:
    """The table of w: a table of S_<=max_n-1 is also a deletion's table, so it is the memo's.

    One of S_max_n is no deletion's, so it is built and not kept.
    """
    return (memo if len(w) < config.max_n else build)(w)


def _negative_term(s: dict[int, int], m: int, t: dict[int, int]) -> str:
    """`coeff c at <monomial>` for the first negative term of s - x^m * t, m a key.

    The witness of a failed subtraction check: the difference is built for it alone.
    """
    key, coef = first_negative(sub(s, {m + u: c for u, c in t.items()}))
    return f"coeff {coef} at {monomial_text(key)}"


# -- alternating-sum nonnegativity (avoiders) --------------------------------


def _run_alt_nonneg(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    if not avoids(w):
        return None
    # u is the subword of word(w) at a position mask; every mask is checked.
    failures = []
    for mask, total in enumerate(_table(incexc._polynomials, incexc.alternating_polynomials, w, config)):
        bad = first_negative(total)
        if bad:
            failures.append(f"u={_subword_at(w, mask)}: coeff {bad[1]} at {monomial_text(bad[0])}")
    return failures


# -- single-removal nonnegativity (all permutations) -------------------------


def _run_single_step(sigma: tuple[int, ...], config: RunConfig) -> list[str] | None:
    failures = []
    for k in range(1, len(sigma) + 1):
        if not incexc.verify_single_step(sigma, k):
            # Read through incexc, so that the witness subtracts what its check did.
            m, t = incexc.single_step_monomial(sigma, k), incexc.schubert_skipping(sigma, k)
            failures.append(f"k={k}: {_negative_term(incexc.schubert_polynomial(sigma), m, t)}")
    return failures


# -- c_w agreement between the counting and the alternating route ------------


def _shards_avoiders(config: RunConfig) -> list[tuple[int, ...]]:
    return [w for w in _perm_shards(config) if avoids(w)]


def _run_cw_equality(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    by_ie = incexc.cw_inclusion_exclusion(w)
    by_aug = incexc.cw_augmentation(w)
    if by_ie != by_aug:
        return [f"inclusion-exclusion {by_ie} != augmentation {by_aug}"]
    return []


# -- dual character equals the Schubert polynomial ---------------------------


def _shards_chi(config: RunConfig) -> list[tuple[int, ...]]:
    shards = _perm_shards(config, n_max=4)
    if config.max_n >= 5:
        rng = random.Random(config.seed)
        perms = list(itertools.permutations(range(1, 6)))
        chosen = sorted({rng.randrange(len(perms)) for _ in range(config.sample_chi_n5 * 2)})
        shards.extend(perms[i] for i in chosen[: config.sample_chi_n5])
    return shards


def _run_chi_equality(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    character = weylchar.chi(rothe(w))
    expected = schubert.schubert_polynomial(w)
    if character != expected:
        difference = sub(character, expected)
        key = _canonical(difference)[0]
        return [f"difference {difference[key]} at {monomial_text(key)}"]
    return []


# -- diagram-sum formula holds exactly for avoiders --------------------------


def _run_diagram_formula(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    D = rothe(w)
    # The diagram sum is count_dominated(D) at x = 1: a different S_w(1) rules equality out,
    # so S_w is built only when the counts agree.
    equal = (
        count_dominated(D) == schubert.principal_specialization(w)
        and dominated_sum(D) == schubert.schubert_polynomial(w)
    )
    avoiding = avoids(w)
    if equal != avoiding:
        side = "equality" if equal else "inequality"
        return [f"unexpected {side} for avoidance={avoiding}"]
    return []


# -- purple-family subtraction ----------------------------------------------


def _run_purple_members(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    D = rothe(w)
    chi_D = schubert.schubert_polynomial(w)
    failures = []
    for k, l in enumerate(w, start=1):
        family = purple_family(D, k, l)
        # chi of D(w) less row k and column l, at x_k = 0, is S_pi skipping x_k:
        # deleting that row and column maps its dominated diagrams onto D(pi)'s.
        chi_hat_k = schubert.schubert_skipping(w, k)
        # Each member is checked by its row monomial's key; a Diagram is built only for a witness.
        failing = [
            (family.member(choice), m)
            for choice, m in zip(family.choices(), family.row_keys())
            if not nonnegative_after_subtracting(chi_D, m, chi_hat_k)
        ]
        for K, m in sorted(failing, key=lambda member: member[0].box_list()):
            failures.append(f"k={k} K={K}: {_negative_term(chi_D, m, chi_hat_k)}")
    return failures


# -- nonnegativity of the specialized alternating sums, all permutations -----


def _run_cwu_nonneg(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    # The alternating sums of thm1.1 at x = 1, for every u at once.
    g = _table(incexc._alternating, incexc.alternating_specializations, w, config)
    if min(g) >= 0:
        return []
    mask = next(mask for mask, value in enumerate(g) if value < 0)
    return [f"u={_subword_at(w, mask)}: value {g[mask]}"]


# -- purple monomials characterize the working monomials (avoiders) ----------


def _run_purple_characterization(sigma: tuple[int, ...], config: RunConfig) -> list[str] | None:
    if not avoids(sigma):
        return None
    failures = []
    for k, result in enumerate(characterize_monomials(sigma), start=1):
        missing = sorted(map(monomial_text, result.from_purple - result.working))
        if missing:
            failures.append(f"k={k}: purple monomial not working: {missing}")
        extra = sorted(map(monomial_text, result.extra))
        if extra:
            failures.append(f"k={k}: extra working monomials {extra}")
    return failures


# -- specialization identity and vanishing ----------------------------------


def _run_identity(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    h, s = _table(incexc._chain_sums, incexc.chain_sums, w, config)
    c_w, total = h[0], s[0]
    spec = schubert.principal_specialization(w)
    failures = []
    if total != spec:
        failures.append(f"sum of c over subwords = {total}, specialization = {spec}")
    if w[-1] == len(w) and c_w != 0:
        failures.append(f"c = {c_w} despite fixed last point")
    return failures


CLAIMS: dict[str, Claim] = {
    c.name: c
    for c in (
        Claim(
            "thm1.1",
            "alternating pattern expansion is nonnegative for 1432/1423-avoiders",
            _perm_shards,
            _run_alt_nonneg,
        ),
        Claim(
            "thm1.0",
            "single-removal monomial subtraction is nonnegative for all permutations",
            _perm_shards,
            _run_single_step,
        ),
        Claim(
            "thm1.2",
            "non-augmentation count equals the alternating specialization (avoiders)",
            _shards_avoiders,
            _run_cw_equality,
        ),
        Claim(
            "thm2.4",
            "dual character of the Rothe diagram equals the Schubert polynomial",
            _shards_chi,
            _run_chi_equality,
        ),
        Claim(
            "thm2.7",
            "diagram-sum formula holds exactly when 1432 and 1423 are avoided",
            _perm_shards,
            _run_diagram_formula,
        ),
        Claim(
            "thm4.1",
            "every purple-family monomial is a valid subtraction factor",
            _perm_shards,
            _run_purple_members,
        ),
        Claim(
            "conj5.1",
            "all alternating specializations are nonnegative (all permutations)",
            _perm_shards,
            _run_cwu_nonneg,
            inverse_invariant=True,
        ),
        Claim(
            "conj5.3",
            "purple monomials are exactly the working monomials for avoiders",
            _perm_shards,
            _run_purple_characterization,
        ),
        Claim(
            "identity",
            "subword c-sum equals the principal specialization; c vanishes on fixed last point",
            _perm_shards,
            _run_identity,
            inverse_invariant=True,
        ),
    )
}


def _run_shard(claim: Claim, shard: tuple[int, ...], config: RunConfig) -> VerificationReport:
    """The report of one shard, stamped with its elapsed time if timing is on."""
    timing = config.include_timing
    start = time.monotonic() if timing else 0.0
    try:
        failures = claim.run(shard, config)
    except BudgetExceededError as exc:
        verdict, witness = "budget-exceeded", str(exc)
    else:
        verdict = "outside-scope" if failures is None else "fails" if failures else "holds"
        witness = "; ".join(failures) if failures else None
    elapsed_ms = round((time.monotonic() - start) * 1000, 3) if timing else None
    return VerificationReport(claim.name, one_line(shard), verdict, witness, elapsed_ms)


def _shard_worker(args: tuple[str, tuple[int, ...], RunConfig]) -> VerificationReport:
    claim_name, shard, config = args
    return _run_shard(CLAIMS[claim_name], shard, config)


def _derived(claim: Claim, shard: tuple[int, ...]) -> bool:
    """Whether the shard may take its verdict from w^{-1}, which is smaller and so earlier."""
    return claim.inverse_invariant and inverse_values(shard) < shard


def _settle(
    claim: Claim,
    shard: tuple[int, ...],
    report: VerificationReport | None,
    config: RunConfig,
    failed: set[tuple[int, ...]],
) -> VerificationReport:
    """The shard's report, in shard order: `report`, or for None (not run) a derived or own one.

    `failed` is the parent's set of representatives that did not hold and
    whose partner w^{-1} is still to come.  A shard whose partner is smaller,
    and so already settled, is derived unless its partner is in it: its
    report is `holds`, timed by this lookup alone.
    """
    if not claim.inverse_invariant:
        return report if report is not None else _run_shard(claim, shard, config)
    timing = config.include_timing
    start = time.monotonic() if timing else 0.0
    partner = inverse_values(shard)
    if partner < shard and partner not in failed:
        elapsed_ms = round((time.monotonic() - start) * 1000, 3) if timing else None
        return VerificationReport(claim.name, one_line(shard), "holds", None, elapsed_ms)
    failed.discard(partner)  # the partner's report is out: it is looked up no more
    if report is None:
        report = _run_shard(claim, shard, config)
    if partner > shard and report.verdict != "holds":
        failed.add(shard)
    return report


def _work(claim_name: str, shards: list[tuple[int, ...]], config: RunConfig, blocks, conn) -> None:
    """A forked worker: send `(reports, error)` for each block of shards.

    A derived shard is not run: None takes its place, and the parent settles
    it.  A shard that raises ends the worker: its block goes out with the
    reports before it and the exception.  `_shard_worker` is looked up at
    each call, so a wrapper installed on the module reaches the workers too.
    """
    claim = CLAIMS[claim_name]
    try:
        for block in blocks:
            reports = []
            try:
                for shard in shards[block]:
                    if _derived(claim, shard):
                        reports.append(None)
                    else:
                        reports.append(_shard_worker((claim_name, shard, config)))
            except Exception as exc:
                conn.send((reports, exc))
                return
            conn.send((reports, None))
    except BrokenPipeError:
        pass  # the parent closed the run early and reads no more
    finally:
        conn.close()


def run_claim(claim_name: str, config: RunConfig) -> Iterator[VerificationReport]:
    """Run one claim over its configured input space, in shard order."""
    claim = CLAIMS[claim_name]
    shards = claim.shards(config)
    workers = min(config.jobs, len(shards))
    failed: set[tuple[int, ...]] = set()  # see `_settle`
    if workers <= 1:
        for shard in shards:
            yield _settle(claim, shard, None, config, failed)
        return
    import multiprocessing  # already loaded by the check in `RunConfig`

    fork = multiprocessing.get_context("fork")
    # About 16 blocks per worker: few enough to keep the messages few, enough to
    # balance shards of uneven cost.  Blocks are consecutive: S_n dealt one shard
    # at a time would split it by a pattern of its last entries, and with it the cost.
    size = -(-len(shards) // (16 * workers))
    blocks = [slice(start, start + size) for start in range(0, len(shards), size)]
    procs, conns = [], []
    finished = False
    try:
        for w in range(workers):
            conn, send_end = fork.Pipe(duplex=False)
            conns.append(conn)
            proc = fork.Process(
                target=_work,
                args=(claim_name, shards, config, blocks[w::workers], send_end),
                daemon=True,  # an interpreter that exits with the run still open ends them
            )
            proc.start()
            procs.append(proc)
            # Else the next worker inherits it, and a crashed worker's pipe never ends.
            send_end.close()
        for b in range(len(blocks)):
            # Block b is its owner's next message: the parent has read every earlier one.
            owner = b % workers
            try:
                reports, error = conns[owner].recv()
            except EOFError:
                dead = procs[owner]
                dead.join()
                crash = f"verify worker {dead.pid} exited with code {dead.exitcode}"
                raise RuntimeError(crash + " before its last report") from None
            for shard, report in zip(shards[blocks[b]], reports):
                yield _settle(claim, shard, report, config, failed)
            if error is not None:
                raise error
        finished = True
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if not finished:  # an error or an early close: the rest of the work is unwanted
                proc.terminate()
            proc.join()


def worse_code(a: int, b: int) -> int:
    """The exit code of two parts of a run: a counterexample (2) beats a refusal (3)."""
    return 2 if 2 in (a, b) else max(a, b)


_VERDICT_CODES = {"fails": 2, "budget-exceeded": 3}


def report_code(report: VerificationReport) -> int:
    """2 for a counterexample, 3 for a budget refusal, else 0."""
    return _VERDICT_CODES.get(report.verdict, 0)


def exit_code(reports: Iterable[VerificationReport]) -> int:
    """0 all holds, 2 counterexample, 3 budget exceeded somewhere."""
    return functools.reduce(worse_code, map(report_code, reports), 0)
