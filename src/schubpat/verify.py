"""Batch verification of the theorem and conjecture suites.

Each claim has an input space sharded by permutation; a shard is the
permutation's one-line notation, a plain tuple as `itertools.permutations`
makes it, and its subject is `one_line(w)`.  A claim's `run(w, config)`
returns its failure witnesses, [] when the claim holds, or None when w is
outside its scope; it may raise BudgetExceededError.  `_run_shard` alone
turns that into the shard's one VerificationReport.  Shard order is fixed,
so report files are byte-stable for a given configuration regardless of
the parallelism degree (timing is only recorded on request for the same
reason).

Under `jobs` > 1, `run_claim` forks its workers: each inherits the shard
list, so nothing is pickled on the way in.  The shards are cut into
consecutive blocks, dealt to the workers in turn; each worker sends the
reports of a block down its own pipe, and the parent yields them in shard
order, reading no worker that is two blocks ahead of it.  Forking needs a
platform that has it (not Windows), and a parent with no other thread.
"""
from __future__ import annotations

import collections
import functools
import itertools
import multiprocessing
import multiprocessing.connection
import random
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator

from . import incexc, schubert, weylchar
from .diagrams import Diagram, count_dominated, dominated_sum, rothe, row_monomial
from .errors import BudgetExceededError, UsageError
from .permwords import avoids, one_line
from .polyx import Monomial
from .purple import characterize_monomials, purple_family

DEFAULT_SEED = 2718


@dataclass(frozen=True)
class RunConfig:
    max_n: int = 5
    jobs: int = 1
    seed: int = DEFAULT_SEED
    budget_dominated: int = weylchar.DEFAULT_BUDGET
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


@dataclass(frozen=True)
class Claim:
    name: str
    description: str
    shards: Callable[[RunConfig], list[tuple[int, ...]]]
    run: Callable[[tuple[int, ...], RunConfig], list[str] | None]  # failures; None: outside scope


def _perm_shards(config: RunConfig, n_max: int | None = None) -> list[tuple[int, ...]]:
    top = config.max_n if n_max is None else min(config.max_n, n_max)
    return [w for n in range(2, top + 1) for w in itertools.permutations(range(1, n + 1))]


def _subword_at(w: tuple[int, ...], mask: int) -> str:
    """The text of the subword of word(w) that keeps position i + 1 for each bit i of mask."""
    return one_line(tuple(a for i, a in enumerate(w) if mask >> i & 1))


# -- alternating-sum nonnegativity (avoiders) --------------------------------


def _run_alt_nonneg(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    if not avoids(w):
        return None
    # u is the subword of word(w) at a position mask; every mask is checked.
    failures = []
    for mask, total in enumerate(incexc.alternating_polynomials(w)):
        ok, bad = total.is_nonnegative()
        if not ok:
            failures.append(f"u={_subword_at(w, mask)}: coeff {bad[1]} at {bad[0]}")
    return failures


# -- single-removal nonnegativity (all permutations) -------------------------


def _run_single_step(sigma: tuple[int, ...], config: RunConfig) -> list[str] | None:
    failures = []
    for k in range(1, len(sigma) + 1):
        ok, diff = incexc.verify_single_step(sigma, k)
        if not ok:
            _, bad = diff.is_nonnegative()
            failures.append(f"k={k}: coeff {bad[1]} at {bad[0]}")
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
    character = weylchar.chi(rothe(w), budget=config.budget_dominated)
    expected = schubert.schubert_polynomial(w)
    if character != expected:
        delta = character - expected
        mon = min(delta.support(), key=Monomial.sort_key)
        return [f"difference {delta.coefficient(mon)} at {mon}"]
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
        # Each member is checked by its row monomial; a Diagram is built only for a witness.
        failing = [
            family.member(choice)
            for choice, m in zip(family.choices(), family.row_monomials())
            if not chi_D.nonnegative_after_subtracting(m, chi_hat_k)
        ]
        for K in sorted(failing, key=Diagram.box_list):
            _, bad = (chi_D - chi_hat_k * row_monomial(K)).is_nonnegative()
            failures.append(f"k={k} K={K}: coeff {bad[1]} at {bad[0]}")
    return failures


# -- nonnegativity of the specialized alternating sums, all permutations -----


def _run_cwu_nonneg(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    # The alternating sums of thm1.1 at x = 1, for every u at once.
    g = incexc.alternating_specializations(w)
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
        missing = result.from_purple - result.working
        if missing:
            failures.append(f"k={k}: purple monomial not working: {sorted(map(str, missing))}")
        if result.extra:
            failures.append(f"k={k}: extra working monomials {sorted(map(str, result.extra))}")
    return failures


# -- specialization identity and vanishing ----------------------------------


def _run_identity(w: tuple[int, ...], config: RunConfig) -> list[str] | None:
    t = incexc.pattern_coefficients(w)
    c_w, total = t[-1], sum(t)
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
        ),
    )
}


def _run_shard(claim: Claim, shard: tuple[int, ...], config: RunConfig) -> VerificationReport:
    """The report of one shard, stamped with its elapsed time if timing is on."""
    start = time.monotonic()
    try:
        failures = claim.run(shard, config)
    except BudgetExceededError as exc:
        verdict, witness = "budget-exceeded", str(exc)
    else:
        verdict = "outside-scope" if failures is None else "fails" if failures else "holds"
        witness = "; ".join(failures) if failures else None
    elapsed_ms = round((time.monotonic() - start) * 1000, 3) if config.include_timing else None
    return VerificationReport(claim.name, one_line(shard), verdict, witness, elapsed_ms)


def _shard_worker(args: tuple[str, tuple[int, ...], RunConfig]) -> VerificationReport:
    claim_name, shard, config = args
    return _run_shard(CLAIMS[claim_name], shard, config)


_FORK = multiprocessing.get_context("fork")
# A worker stops being read while it holds this many blocks the parent has not yet reached.
_BLOCKS_AHEAD = 2


def _work(claim_name: str, shards: list[tuple[int, ...]], config: RunConfig, blocks, conn) -> None:
    """A forked worker: send `(reports, error)` for each block of shards, then None.

    A shard that raises ends the worker: its block goes out with the reports
    before it and the exception.  `_shard_worker` is looked up at each call,
    so a wrapper installed on the module reaches the workers too.
    """
    try:
        for block in blocks:
            reports = []
            try:
                for shard in shards[block]:
                    reports.append(_shard_worker((claim_name, shard, config)))
            except Exception as exc:
                conn.send((reports, exc))
                return
            conn.send((reports, None))
        conn.send(None)
    except BrokenPipeError:
        pass  # the parent closed the run early and reads no more
    finally:
        conn.close()


def run_claim(claim_name: str, config: RunConfig) -> Iterator[VerificationReport]:
    """Run one claim over its configured input space, in shard order."""
    claim = CLAIMS[claim_name]
    shards = claim.shards(config)
    workers = min(config.jobs, len(shards))
    if workers <= 1:
        for shard in shards:
            yield _run_shard(claim, shard, config)
        return
    # About 16 blocks per worker: few enough to keep the messages few, enough to
    # balance shards of uneven cost.  Blocks are consecutive: S_n dealt one shard
    # at a time would split it by a pattern of its last entries, and with it the cost.
    size = -(-len(shards) // (16 * workers))
    blocks = [slice(start, start + size) for start in range(0, len(shards), size)]
    procs, conns = [], []
    finished = False
    try:
        for w in range(workers):
            conn, send_end = _FORK.Pipe(duplex=False)
            conns.append(conn)
            proc = _FORK.Process(
                target=_work,
                args=(claim_name, shards, config, blocks[w::workers], send_end),
                daemon=True,  # an interpreter that exits with the run still open ends them
            )
            proc.start()
            procs.append(proc)
            # Else the next worker inherits it, and a crashed worker's pipe never ends.
            send_end.close()
        pending = [collections.deque() for _ in range(workers)]
        reading = set(range(workers))
        for b in range(len(blocks)):
            owner = b % workers
            while not pending[owner]:
                ready = multiprocessing.connection.wait(
                    [conns[w] for w in reading if len(pending[w]) < _BLOCKS_AHEAD]
                )
                for conn in ready:
                    w = conns.index(conn)
                    try:
                        message = conn.recv()
                    except EOFError:
                        procs[w].join()
                        crash = f"verify worker {procs[w].pid} exited with code {procs[w].exitcode}"
                        message = ([], RuntimeError(crash + " before its last report"))
                    if message is None or message[1] is not None:
                        reading.discard(w)
                    if message is not None:
                        pending[w].append(message)
            reports, error = pending[owner].popleft()
            yield from reports
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


def report_code(report: VerificationReport) -> int:
    """2 for a counterexample, 3 for a budget refusal, else 0."""
    return {"fails": 2, "budget-exceeded": 3}.get(report.verdict, 0)


def exit_code(reports: Iterable[VerificationReport]) -> int:
    """0 all holds, 2 counterexample, 3 budget exceeded somewhere."""
    return functools.reduce(worse_code, map(report_code, reports), 0)
