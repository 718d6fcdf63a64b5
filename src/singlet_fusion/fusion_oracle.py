"""Independent re-derivation of fusion products from the generator rules.

Products are rebuilt from scratch with only three ingredients:

1. the generator rules, defined here: each recursion step applies the
   ``M_{1,2}`` rule, stated once in ``_m12_terms``, and the simple
   currents act as a plain shift of ``r``,
2. the column recursion
   ``X x M_{1,s+1} = M_{1,2} x (X x M_{1,s})  -  X x M_{1,s-1}``,
   which follows from ``M_{1,2} x M_{1,s} = M_{1,s-1} + M_{1,s+1}`` by
   associativity, and
3. Krull-Schmidt cancellation (:func:`ks_subtract`): decompositions into
   indecomposables are unique, so the subtraction in (2) is well defined.
   A subtraction that would go negative raises
   :class:`NegativeMultiplicityError`, whose fields ``minuend``,
   ``subtrahend`` and ``label`` record the failed step.

The column recursion is valid for any left factor ``X`` (simple or
projective).  Every irreducible module has a projective cover, so
``P x -`` is exact and ``P x Y`` depends only on the composition factors
of ``Y``.  Every product therefore takes one route: put the projective
factor (if any) on the left, read its ``r = 1`` column against each
composition factor ``M_{r',t}`` of the right factor, shift that column
once by ``(r-1) + (r'-1)`` through the simple currents, and sum.
Operands are checked before anything is shifted, so the shift checks
nothing again.  A simple right factor is its own only composition factor;
a projective ``P_{r',s'}`` gives the split reduction

    ``P x P_{r',s'} = 2 (P x M_{r',s'}) + (P x M_{r'+1,p-s'}) + (P x M_{r'-1,p-s'})``.

:func:`oracle_fuse`, the one entry point, checks both operands once and
takes this route.  This module imports only :mod:`.catalog` and
:mod:`.labels`: the closed forms in :mod:`.fusion_closed` are never
consulted, so agreement between the two routes is a genuine cross-check.

The recursion is one loop that keeps only the last two columns, so it has
no depth limit.  Its results are memoized in ``_column`` by
``(params, kind, s, s_target)``, where ``kind_{1,s}`` is the left factor:
at most ``(2p-1) p`` entries for each ``p``, whatever ``r`` the callers
use.  The memo is an LRU of 4 096 entries, which holds every column of one
``p`` up to ``p = 45`` and bounds memory whatever ``p`` a process visits.
All functions are pure, so concurrent use returns the same values as
sequential use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .catalog import (
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    UnsupportedFusion,
    _check_normal_form,
    _shift,
    composition_factors,
)
from .labels import Params

__all__ = [
    "NegativeMultiplicityError",
    "ks_subtract",
    "oracle_fuse",
]


class NegativeMultiplicityError(ArithmeticError):
    """A Krull-Schmidt subtraction ``minuend - subtrahend`` went negative at ``label``.

    This never happens on consistent inputs; seeing it means either a bug or
    a genuine inconsistency between the closed forms and the recursion, so it
    is surfaced rather than clamped.  ``minuend``, ``subtrahend`` and
    ``label`` are kept as fields.
    """

    def __init__(self, minuend: FormalSum, subtrahend: FormalSum, label: object) -> None:
        self.minuend = minuend
        self.subtrahend = subtrahend
        self.label = label
        super().__init__(f"subtracting {subtrahend} from {minuend} drives {label} negative")


def _m12_terms(params: Params, x: Indecomposable) -> Tuple[Indecomposable, ...]:
    """Summands of ``M_{1,2} x x``, repeats included: the ``M_{1,2}`` generator rule.

    On ``M_{r,s}`` it gives ``M_{r,2}`` (s = 1), ``M_{r,s-1} + M_{r,s+1}``
    (1 < s < p) and ``P_{r,p-1}`` (s = p).  On ``P_{r,s}`` it gives, for
    p >= 3, ``P_{r,2} + M_{r+1,p} + M_{r-1,p}`` (s = 1),
    ``P_{r,s-1} + P_{r,s+1}`` (1 < s < p-1) and ``P_{r,p-2} + 2 M_{r,p}``
    (s = p-1); for p = 2, ``M_{r+1,2} + 2 M_{r,2} + M_{r-1,2}``.  Any other
    kind raises :class:`UnsupportedFusion`.  ``x`` is a checked label, so
    every summand is built in normal form as is.
    """
    p, r, s = params.p, x.r, x.s
    if x.kind == SIMPLE:
        if s == p:
            return (Indecomposable(PROJECTIVE, r, p - 1),)
        if s == 1:
            return (Indecomposable(SIMPLE, r, 2),)
        return (Indecomposable(SIMPLE, r, s - 1), Indecomposable(SIMPLE, r, s + 1))
    if x.kind == PROJECTIVE:  # normalized: 1 <= s <= p-1
        # P_{r,s-1} + P_{r,s+1}, where P_{r,0} reads M_{r+1,p} + M_{r-1,p}
        # and P_{r,p} reads 2 M_{r,p}
        if s < p - 1:
            upper = (Indecomposable(PROJECTIVE, r, s + 1),)
        else:
            upper = (Indecomposable(SIMPLE, r, p),) * 2
        if s > 1:
            return (Indecomposable(PROJECTIVE, r, s - 1),) + upper
        return (Indecomposable(SIMPLE, r + 1, p), Indecomposable(SIMPLE, r - 1, p)) + upper
    raise UnsupportedFusion(f"M:1,2 fusion is not defined on {x}")


def ks_subtract(a: FormalSum, b: FormalSum) -> FormalSum:
    """Exact multiset difference ``a - b``; requires ``b <= a`` termwise."""
    acc = dict(a)
    for label, mult in b:
        left = acc.get(label, 0) - mult
        if left < 0:
            raise NegativeMultiplicityError(a, b, label)
        acc[label] = left
    return FormalSum(acc)


@lru_cache(maxsize=4096)
def _column(params: Params, kind: str, s: int, s_target: int) -> FormalSum:
    """``X x M_{1,s_target}`` for ``X = kind_{1,s}``, one column per step.

    Starts from ``X x M_{1,0} = 0`` and ``X x M_{1,1} = X``; callers check the labels.
    """
    prev, col = FormalSum(), FormalSum.of(Indecomposable(kind, 1, s))
    for _ in range(1, s_target):
        acc: Dict[Indecomposable, int] = {}
        for label, mult in col:
            for term in _m12_terms(params, label):
                acc[term] = acc.get(term, 0) + mult
        prev, col = col, ks_subtract(FormalSum(acc), prev)
    return col


def oracle_fuse(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``a x b`` for two ``M``/``P`` labels, by the recursion alone.

    ``M x P`` is read as ``P x M``, so the left factor ``a_{r,s}`` is
    projective whenever ``b`` is.  A simple ``b = M_{r',s'}`` reads the
    column ``a_{1,s} x M_{1,s'}`` shifted by ``(r-1) + (r'-1)``; a
    projective ``b`` sums such columns over its composition factors (the
    split reduction in the module docstring).  A label not in normal form
    raises :class:`~.catalog.NotNormalForm`; any other kind raises
    :class:`UnsupportedFusion`.
    """
    _check_normal_form(params, a, "oracle_fuse")
    _check_normal_form(params, b, "oracle_fuse")
    if a.kind == SIMPLE and b.kind == PROJECTIVE:
        a, b = b, a
    if a.kind not in (SIMPLE, PROJECTIVE) or b.kind not in (SIMPLE, PROJECTIVE):
        raise UnsupportedFusion(
            f"the recursion oracle covers M/P labels only, got {a} x {b}"
        )
    if b.kind == SIMPLE:
        return _shift(_column(params, a.kind, a.s, b.s), a.r + b.r - 2)
    return FormalSum.combine(
        (mult, _shift(_column(params, a.kind, a.s, y.s), a.r + y.r - 2))
        for y, mult in composition_factors(params, b)
    )
