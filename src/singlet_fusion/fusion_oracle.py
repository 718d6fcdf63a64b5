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

All functions are pure; the internal memo table only caches results of
pure calls, so concurrent use returns the same values as sequential use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import (
    FOCK,
    JORDAN_FOCK,
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    UnsupportedFusion,
    normalize,
    projective,
    simple,
)
from .labels import Params

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

    Anything else raises :class:`UnsupportedFusion`.
    """
    p = params.p
    if g.kind != SIMPLE:
        raise UnsupportedFusion(f"unsupported generator {g}")
    if x.kind == JORDAN_FOCK:
        raise UnsupportedFusion(f"no fusion data for Jordan Fock labels ({x})")

    if g.s == 1 and g.r % 2 == 1 and x.kind in (SIMPLE, PROJECTIVE, FOCK):
        return FormalSum.of(normalize(params, x._replace(r=x.r + g.r - 1)))

    if (g.r, g.s) == (2, 1):
        if x.kind in (SIMPLE, PROJECTIVE):
            return FormalSum.of(normalize(params, x._replace(r=x.r + 1)))
        raise UnsupportedFusion(f"M:2,1 fusion is not defined on {x}")

    if (g.r, g.s) == (1, 2):
        if x.kind == SIMPLE:
            if x.s == p:
                return FormalSum.of(projective(params, x.r, p - 1))
            if x.s == 1:
                return FormalSum.of(simple(params, x.r, 2))
            return FormalSum.of(simple(params, x.r, x.s - 1), simple(params, x.r, x.s + 1))
        if x.kind == PROJECTIVE:  # stored projectives always have s <= p-1
            if p == 2:
                return FormalSum.of(
                    projective(params, x.r + 1, 2),
                    projective(params, x.r, 2),
                    projective(params, x.r, 2),
                    projective(params, x.r - 1, 2),
                )
            if x.s == 1:
                return FormalSum.of(
                    projective(params, x.r, 2),
                    projective(params, x.r + 1, p),
                    projective(params, x.r - 1, p),
                )
            if x.s == p - 1:
                return FormalSum.of(
                    projective(params, x.r, p - 2),
                    projective(params, x.r, p),
                    projective(params, x.r, p),
                )
            return FormalSum.of(
                projective(params, x.r, x.s - 1), projective(params, x.r, x.s + 1)
            )
        raise UnsupportedFusion(f"M:1,2 fusion is not defined on {x}")

    raise UnsupportedFusion(f"unsupported generator {g}")


def ks_subtract(a: FormalSum, b: FormalSum) -> FormalSum:
    """Exact multiset difference ``a - b``; requires ``b <= a`` termwise."""
    for label, mult in b:
        if a.multiplicity(label) < mult:
            raise NegativeMultiplicityError(KSLedger(a, b), label)
    return FormalSum({label: mult - b.multiplicity(label) for label, mult in a})


def _m12_product(params: Params, x: FormalSum) -> FormalSum:
    """``M_{1,2} x X``, termwise through the generator rules only."""
    m12 = simple(params, 1, 2)
    return FormalSum.combine(
        (mult, fuse_generators(params, m12, label)) for label, mult in x
    )


@lru_cache(maxsize=None)
def _column(params: Params, x: FormalSum, s_target: int) -> FormalSum:
    if s_target == 1:
        return x
    if s_target == 2:
        return _m12_product(params, x)
    prev2 = _column(params, x, s_target - 2)
    prev1 = _column(params, x, s_target - 1)
    return ks_subtract(_m12_product(params, prev1), prev2)


def oracle_fuse_with_column(params: Params, x: FormalSum, s_target: int) -> FormalSum:
    """``X x M_{1,s_target}`` via the column recursion.

    ``X`` may contain simples and projectives (the kinds the ``M_{1,2}``
    generator rules accept).  Base cases are ``X x M_{1,1} = X`` and the
    generator product for ``M_{1,2}``; higher columns come from the
    recursion plus Krull-Schmidt cancellation.  No closed-form product
    formula is ever used.
    """
    if not 1 <= s_target <= params.p:
        raise ValueError(f"column index must satisfy 1 <= s <= {params.p}")
    for label, _ in x:
        if label.kind not in (SIMPLE, PROJECTIVE):
            raise UnsupportedFusion(f"column recursion accepts M/P terms only, got {label}")
    return _column(params, x, s_target)


def _shift_r(params: Params, x: FormalSum, delta: int) -> FormalSum:
    """Relabel ``r -> r + delta`` on every term.

    This is fusion with the invertible simple currents (``M_{2n+1,1}`` for
    even shifts, one extra ``M_{2,1}`` for odd ones), which acts on labels
    exactly this way.
    """
    return x.map_labels(lambda lab: normalize(params, lab._replace(r=lab.r + delta)))


def oracle_fuse_mm(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``M_{r,s} x M_{r',s'}`` from generator rules and the column recursion.

    Computes ``M_{1,s} x M_{1,s'}`` by the column recursion and then shifts
    ``r`` by ``(r-1) + (r'-1)`` via the simple currents.
    """
    if a.kind != SIMPLE or b.kind != SIMPLE:
        raise UnsupportedFusion("oracle_fuse_mm takes two simple labels")
    col = oracle_fuse_with_column(
        params, FormalSum.of(simple(params, 1, a.s)), b.s
    )
    return _shift_r(params, col, (a.r - 1) + (b.r - 1))


def oracle_fuse_p(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``P_{r,s} x b`` via the column recursion plus the split reduction.

    For ``b`` simple, commutativity puts the simple in the column slot and
    the recursion does the rest:

        ``P_{r,s} x M_{r',s'} = shift_{r'-1}(P_{r,s} x M_{1,s'})``.

    For ``b`` projective the split reduction decomposes the *second* factor
    against the projective first one (tensoring with a projective splits
    the socle filtration of the other factor):

        ``P x P_{r',s'} = 2 (P x M_{r',s'}) + (P x M_{r'+1,p-s'}) + (P x M_{r'-1,p-s'})``,

    landing in the simple case.
    """
    if a.kind != PROJECTIVE:
        raise UnsupportedFusion(f"oracle_fuse_p expects a projective first factor, got {a}")
    p = params.p
    for x in (a, b):
        if x.kind == PROJECTIVE and not 1 <= x.s <= p - 1:  # P(r, p) is M(r, p)
            raise UnsupportedFusion(f"oracle_fuse_p got an unnormalized projective {x}")
    if b.kind == SIMPLE:
        col = oracle_fuse_with_column(
            params, FormalSum.of(projective(params, a.r, a.s)), b.s
        )
        return _shift_r(params, col, b.r - 1)
    if b.kind == PROJECTIVE:
        return (
            2 * oracle_fuse_p(params, a, simple(params, b.r, b.s))
            + oracle_fuse_p(params, a, simple(params, b.r + 1, p - b.s))
            + oracle_fuse_p(params, a, simple(params, b.r - 1, p - b.s))
        )
    raise UnsupportedFusion(f"oracle_fuse_p cannot fuse against {b}")


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
