"""Exact computation and batch verification for Schubert-polynomial
pattern combinatorics: Rothe diagrams, dominance enumeration, dual
characters of flagged Weyl modules, alternating subword expansions, the
pattern-expansion coefficients c_w, and purple-box monomial families.

`import schubpat` loads `diagrams`, for `Diagram`, and what it needs; no
oracle.  Every other module is loaded by the code that uses it.
"""

from .diagrams import Diagram

__all__ = ["Diagram", "clear_caches"]
__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the engine; each is a `functools.cache` on its key.

    It imports the modules that hold them, so it empties all of them however
    little of the package has been loaded.
    """
    from . import diagrams, incexc, oracles, purple, schubert, weylchar

    for memo in (diagrams._column_dominated_sets, purple._purple_sets,
                 schubert._schubert, schubert._spec, weylchar._det, weylchar._chi_by_rank,
                 incexc._alternating, incexc._chain_sums, incexc._polynomials,
                 oracles._mask_positions, oracles._cw_recursive):
        memo.cache_clear()
