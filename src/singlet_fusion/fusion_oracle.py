"""Independent re-derivation of fusion products from the generator rules.

Products are rebuilt from scratch with only three ingredients:

1. the generator rules (:func:`fuse_generators`, defined here),
2. the column recursion
   ``X x M_{1,s+1} = M_{1,2} x (X x M_{1,s})  -  X x M_{1,s-1}``,
   which follows from ``M_{1,2} x M_{1,s} = M_{1,s-1} + M_{1,s+1}`` by
   associativity, and
3. Krull-Schmidt cancellation (:func:`ks_subtract`): decompositions into
   indecomposables are unique, so the subtraction in (2) is well defined.

The column recursion is valid for any left factor ``X`` (simple or
projective), which settles products with one projective.  Products of two
projectives use the split reduction

    ``P x P_{r',s'} = 2 (P x M_{r',s'}) + (P x M_{r'+1,p-s'}) + (P x M_{r'-1,p-s'})``:

tensoring with the projective ``P`` splits the socle filtration of the
other factor.  :func:`oracle_fuse` dispatches a pair of ``M``/``P`` labels
to these routes.  This module imports only :mod:`.catalog` and
:mod:`.labels`: the closed forms in :mod:`.fusion_closed` are never
consulted, so agreement between the two routes is a genuine cross-check.

Every route works at ``r = 1`` and shifts ``r`` once at the end through
the simple currents.  The recursion is one loop that keeps only the last
two columns, so it has no depth limit.  Its results are memoized in
``_column`` by ``(params, kind, s, s_target)``, where ``kind_{1,s}`` is the
left factor: at most ``(2p-1) p`` entries for each ``p``, whatever ``r``
the callers use.  All functions are pure, so concurrent use returns the
same values as sequential use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from .catalog import (
    FOCK,
    JORDAN_FOCK,
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    UnsupportedFusion,
    _check_normal_form,
    normalize,
    projective,
    simple,
)
from .labels import Params, _check_s

__all__ = [
    "KSLedger",
    "NegativeMultiplicityError",
    "fuse_generators",
    "ks_subtract",
    "oracle_fuse",
    "oracle_fuse_with_column",
    "oracle_fuse_mm",
    "oracle_fuse_p",
]


@dataclass(frozen=True)
class KSLedger:
    """Record of one Krull-Schmidt cancellation step."""

    minuend: FormalSum
    subtrahend: FormalSum


class NegativeMultiplicityError(ArithmeticError):
    """A Krull-Schmidt subtraction went negative.

    This never happens on consistent inputs; seeing it means either a bug or
    a genuine inconsistency between the closed forms and the recursion, so it
    is surfaced rather than clamped.
    """

    def __init__(self, ledger: KSLedger, label: object) -> None:
        self.ledger = ledger
        self.label = label
        super().__init__(
            f"subtracting {ledger.subtrahend} from {ledger.minuend} "
            f"drives {label} negative"
        )


def _m12_terms(params: Params, x: Indecomposable) -> Tuple[Indecomposable, ...]:
    """Summands of ``M_{1,2} x x``, repeats included (rules in :func:`fuse_generators`)."""
    p, r, s = params.p, x.r, x.s
    if x.kind == SIMPLE:
        if s == p:
            return (projective(params, r, p - 1),)
        if s == 1:
            return (simple(params, r, 2),)
        return (simple(params, r, s - 1), simple(params, r, s + 1))
    if x.kind == PROJECTIVE:  # normalized: 1 <= s <= p-1
        # P_{r,s-1} + P_{r,s+1}, where P_{r,0} reads M_{r+1,p} + M_{r-1,p}
        # and P_{r,p} reads 2 M_{r,p}
        upper = (projective(params, r, s + 1),) if s < p - 1 else (simple(params, r, p),) * 2
        if s > 1:
            return (projective(params, r, s - 1),) + upper
        return (simple(params, r + 1, p), simple(params, r - 1, p)) + upper
    raise UnsupportedFusion(f"M:1,2 fusion is not defined on {x}")


def fuse_generators(
    params: Params, g: Indecomposable, x: Indecomposable
) -> FormalSum:
    """Fusion with one of the generators ``M_{2n+1,1}``, ``M_{2,1}``, ``M_{1,2}``.

    The rules, by generator:

    * ``M_{2n+1,1}`` (odd simple currents): shift ``r`` by ``2n`` on simples,
      projectives, and Fock modules alike.
    * ``M_{2,1}`` (simple current): shift ``r`` by one on simples and
      projectives; not defined on Fock modules.
    * ``M_{1,2}``: on ``M_{r,s}`` gives ``M_{r,2}`` (s = 1),
      ``M_{r,s-1} + M_{r,s+1}`` (1 < s < p), ``P_{r,p-1}`` (s = p).  On
      ``P_{r,s}`` gives, for p >= 3: ``P_{r,2} + M_{r+1,p} + M_{r-1,p}``
      (s = 1), ``P_{r,s-1} + P_{r,s+1}`` (1 < s < p-1),
      ``P_{r,p-2} + 2 M_{r,p}`` (s = p-1); for p = 2:
      ``M_{r+1,2} + 2 M_{r,2} + M_{r-1,2}``.

    An unnormalized ``P``/``F`` label (``s`` outside ``1..p-1``) and anything
    else not listed raise :class:`UnsupportedFusion`.
    """
    if g.kind != SIMPLE:
        raise UnsupportedFusion(f"unsupported generator {g}")
    if x.kind == JORDAN_FOCK:
        raise UnsupportedFusion(f"no fusion data for Jordan Fock labels ({x})")
    _check_normal_form(params, x, "fuse_generators")

    if (g.r, g.s) == (1, 2):
        return FormalSum.of(*_m12_terms(params, x))
    if g.s != 1 or (g.r % 2 == 0 and g.r != 2):
        raise UnsupportedFusion(f"unsupported generator {g}")
    # the simple currents M_{r_g,1} shift r by r_g - 1
    if x.kind not in (SIMPLE, PROJECTIVE, FOCK) or (x.kind == FOCK and g.r == 2):
        raise UnsupportedFusion(f"{g} fusion is not defined on {x}")
    return FormalSum.of(normalize(params, x._replace(r=x.r + g.r - 1)))


def ks_subtract(a: FormalSum, b: FormalSum) -> FormalSum:
    """Exact multiset difference ``a - b``; requires ``b <= a`` termwise."""
    for label, mult in b:
        if a.multiplicity(label) < mult:
            raise NegativeMultiplicityError(KSLedger(a, b), label)
    return FormalSum({label: mult - b.multiplicity(label) for label, mult in a})


@lru_cache(maxsize=None)
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


def _shift_r(params: Params, x: FormalSum, delta: int) -> FormalSum:
    """Relabel ``r -> r + delta`` on every term.

    This is fusion with the invertible simple currents (``M_{2n+1,1}`` for
    even shifts, one extra ``M_{2,1}`` for odd ones), which acts on labels
    exactly this way.
    """
    return x.map_labels(lambda lab: normalize(params, lab._replace(r=lab.r + delta)))


def oracle_fuse_with_column(params: Params, x: FormalSum, s_target: int) -> FormalSum:
    """``X x M_{1,s_target}`` via the column recursion.

    ``X`` may contain simples and projectives (the kinds the ``M_{1,2}``
    generator rules accept).  Each term ``kind_{r,s}`` reads the ``r = 1``
    column of ``kind_{1,s}`` and shifts it by ``r - 1``; the base cases are
    ``X x M_{1,1} = X`` and the generator product for ``M_{1,2}``.  No
    closed-form product formula is ever used.
    """
    if not 1 <= s_target <= params.p:
        raise ValueError(f"column index must satisfy 1 <= s <= {params.p}")
    for label, _ in x:
        if label.kind not in (SIMPLE, PROJECTIVE):
            raise UnsupportedFusion(f"column recursion accepts M/P terms only, got {label}")
        _check_normal_form(params, label, "oracle_fuse_with_column")
        _check_s(params, label.s)
    return FormalSum.combine(
        (mult, _shift_r(params, _column(params, lab.kind, lab.s, s_target), lab.r - 1))
        for lab, mult in x
    )


def oracle_fuse_mm(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``M_{r,s} x M_{r',s'}`` from generator rules and the column recursion.

    Computes ``M_{1,s} x M_{1,s'}`` by the column recursion and then shifts
    ``r`` by ``(r-1) + (r'-1)`` via the simple currents.
    """
    if a.kind != SIMPLE or b.kind != SIMPLE:
        raise UnsupportedFusion("oracle_fuse_mm takes two simple labels")
    _check_s(params, a.s)
    _check_s(params, b.s)
    return _shift_r(params, _column(params, SIMPLE, a.s, b.s), (a.r - 1) + (b.r - 1))


def oracle_fuse_p(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``P_{r,s} x b`` via the column recursion plus the split reduction.

    For ``b`` simple, commutativity puts the simple in the column slot and
    the recursion does the rest:

        ``P_{r,s} x M_{r',s'} = shift_{(r-1)+(r'-1)}(P_{1,s} x M_{1,s'})``.

    For ``b`` projective the split reduction decomposes the *second* factor
    against the projective first one (tensoring with a projective splits
    the socle filtration of the other factor):

        ``P x P_{r',s'} = 2 (P x M_{r',s'}) + (P x M_{r'+1,p-s'}) + (P x M_{r'-1,p-s'})``,

    landing in the simple case: two ``r = 1`` columns, ``s'`` and ``p-s'``.
    """
    if a.kind != PROJECTIVE:
        raise UnsupportedFusion(f"oracle_fuse_p expects a projective first factor, got {a}")
    for x in (a, b):
        _check_normal_form(params, x, "oracle_fuse_p")
    if b.kind == SIMPLE:
        _check_s(params, b.s)
        col = _column(params, PROJECTIVE, a.s, b.s)
    elif b.kind == PROJECTIVE:
        split = _column(params, PROJECTIVE, a.s, params.p - b.s)
        col = FormalSum.combine(
            [(2, _column(params, PROJECTIVE, a.s, b.s))]
            + [(1, _shift_r(params, split, delta)) for delta in (1, -1)]
        )
    else:
        raise UnsupportedFusion(f"oracle_fuse_p cannot fuse against {b}")
    return _shift_r(params, col, (a.r - 1) + (b.r - 1))


def oracle_fuse(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``a x b`` for two ``M``/``P`` labels, by the recursion alone.

    ``M x M`` goes to :func:`oracle_fuse_mm`; ``P x M`` and ``P x P`` go to
    :func:`oracle_fuse_p`, and ``M x P`` to the same with the factors
    swapped.  Any other kind raises :class:`UnsupportedFusion`.
    """
    if a.kind == SIMPLE and b.kind == SIMPLE:
        return oracle_fuse_mm(params, a, b)
    if a.kind == PROJECTIVE and b.kind in (SIMPLE, PROJECTIVE):
        return oracle_fuse_p(params, a, b)
    if a.kind == SIMPLE and b.kind == PROJECTIVE:
        return oracle_fuse_p(params, b, a)
    raise UnsupportedFusion(
        f"the recursion oracle covers M/P labels only, got {a} x {b}"
    )
