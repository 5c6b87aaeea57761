"""Exact computation and batch verification for Schubert-polynomial
pattern combinatorics: Rothe diagrams, dominance enumeration, dual
characters of flagged Weyl modules, alternating subword expansions, the
pattern-expansion coefficients c_w, and purple-box monomial families.
"""

from .diagrams import Diagram
from . import diagrams, incexc, oracles, purple, schubert, weylchar

__all__ = ["Diagram", "clear_caches"]
__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the engine; each is a `functools.cache` on its key."""
    for memo in (diagrams._column_dominated_sets, purple._purple_sets,
                 schubert._schubert, schubert._spec, weylchar._det, weylchar._chi_by_rank,
                 incexc._alternating, incexc._coefficients, incexc._polynomials,
                 oracles._mask_positions, oracles._cw_recursive):
        memo.cache_clear()
