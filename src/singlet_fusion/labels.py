"""Exact arithmetic on the Kac-style labels indexing singlet-algebra modules.

Every module handled by this package is indexed by a pair of integers
``(r, s)`` with ``r`` unbounded and ``1 <= s <= p``.  This module collects
the label-level arithmetic those indices carry: conformal weights, the
integer lattice coordinate of the corresponding Fock weight, and the
parity class used by the triplet-side collapse.

All values are exact: integers or :class:`fractions.Fraction`.  No floats
appear anywhere in label arithmetic.  Fock weights are handled purely
through their integer coordinate ``k`` in units of ``alpha/(2p)``, so the
irrational lattice constants ``alpha_+ = sqrt(2p)``, ``alpha_- = -sqrt(2/p)``
never materialize at runtime.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

__all__ = [
    "KacLabel",
    "Params",
    "weight",
    "lowest_weight_of_simple",
    "alpha_coordinate",
    "fock_weight",
    "rbar",
    "weight_coset_diff",
]

#: A Kac-style index pair (r, s).  Operations that evaluate weight formulas
#: accept *extended* labels where s ranges over all integers; module labels
#: proper always satisfy 1 <= s <= p (enforced in :mod:`.catalog`).
KacLabel = Tuple[int, int]


class Params:
    """The singlet parameter ``p >= 2``.

    Shared by every other object in the package; carries the derived exact
    constants.  Immutable, equal and hashed by ``p``.  A slot, not a
    ``NamedTuple`` field, because ``params.p`` is read on every product and
    a slot read is the cheaper of the two.
    """

    __slots__ = ("p",)

    p: int

    def __init__(self, p: int) -> None:
        if type(p) is not int or p < 2:
            raise ValueError(f"p must be an integer >= 2, got {p!r}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"Params(p={self.p!r})"

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        # copy and pickle rebuild through __init__; the default route sets the slot
        return Params, (self.p,)

    @property
    def weight_lower_bound(self) -> Fraction:
        """``-(p-1)^2 / (4p)``, the minimum over all simple-module weights."""
        return -Fraction((self.p - 1) ** 2, 4 * self.p)


def weight(params: Params, r: int, s: int) -> Fraction:
    """Conformal weight ``h_{r,s} = (r^2-1)p/4 - (rs-1)/2 + (s^2-1)/(4p)``.

    Extended labels are allowed: ``r`` and ``s`` may be any integers.  The
    result always has denominator dividing ``4p``.
    """
    _check_ints("label index", r, s)
    p = params.p
    return (
        Fraction((r * r - 1) * p, 4)
        - Fraction(r * s - 1, 2)
        + Fraction(s * s - 1, 4 * p)
    )


def lowest_weight_of_simple(params: Params, r: int, s: int) -> Fraction:
    """Lowest conformal weight of the simple module ``M_{r,s}``.

    Equals ``h_{r,s}`` for ``r >= 1`` and ``h_{2-r,s}`` for ``r <= 0``; the
    two branches agree when ``s = p``.
    """
    _check_ints("label index", r, s)
    _check_s(params, s)
    if r >= 1:
        return weight(params, r, s)
    return weight(params, 2 - r, s)


def alpha_coordinate(params: Params, r: int, s: int) -> int:
    """Integer coordinate ``k`` of ``alpha_{r,s}`` in units of ``alpha/(2p)``.

    ``alpha_{r,s} = (p(1-r) - (1-s)) * alpha/(2p)``, so ``k = p(1-r) - (1-s)``.
    Periodic under ``(r, s) -> (r+1, s+p)``.  ``s`` may be any integer here,
    supporting shifted indices such as ``alpha_{r-1,1}``.
    """
    _check_ints("label index", r, s)
    return params.p * (1 - r) - (1 - s)


def fock_weight(params: Params, k: int) -> Fraction:
    """Lowest conformal weight of the Fock module with lattice coordinate ``k``.

    With ``lambda = k * alpha/(2p)`` and ``<alpha, alpha> = 2p``, the weight
    ``lambda(lambda - alpha_0)/2`` reduces to the exact rational

        ``k (k - 2(p-1)) / (4p)``.

    Agrees with :func:`weight` on every Kac label:
    ``fock_weight(alpha_coordinate(r, s)) == weight(r, s)``.
    """
    _check_ints("lattice coordinate", k)
    p = params.p
    return Fraction(k * (k - 2 * (p - 1)), 4 * p)


def rbar(r: int) -> int:
    """Parity class of ``r``: 1 if ``r`` is odd, 2 if ``r`` is even."""
    _check_ints("label index", r)
    return 1 if r % 2 == 1 else 2


def weight_coset_diff(params: Params, a: KacLabel, b: KacLabel) -> Fraction:
    """Fractional part (in ``[0, 1)``) of the weight difference ``h_b - h_a``.

    Both labels are taken in the extended sense (any integer ``s``).  The
    value depends only on the weight cosets mod ``Z``; in particular

        ``weight_coset_diff((r+2n, s-1), (r, s+1)) == s/p mod 1``

    for every ``n``, which is the congruence that forces extensions between
    the corresponding simple modules to split for ``2 <= s <= p-1``.
    """
    ra, sa = a
    rb, sb = b
    return (weight(params, rb, sb) - weight(params, ra, sa)) % 1


def _check_ints(what: str, *xs: int) -> None:
    """Reject the first of ``xs`` whose type is not exactly ``int``: ``bool``
    and ``float`` too, the rule :class:`.catalog.FormalSum` applies to
    multiplicities."""
    for x in xs:
        if type(x) is not int:
            raise TypeError(f"{what} {x!r} is not an int")


def _check_s(params: Params, s: int) -> None:
    """Reject a module label's ``s`` outside ``1..p`` (``r`` is unrestricted)."""
    if not 1 <= s <= params.p:
        raise ValueError(f"module label needs 1 <= s <= {params.p}, got s={s}")
