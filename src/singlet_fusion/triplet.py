"""The triplet-algebra side: induction of singlet labels and W(p) fusion.

The triplet algebra W(p) is the simple-current extension of the singlet
algebra; induction ``W(p) x -`` sends a singlet label to a triplet label by
collapsing ``r`` to its parity class ``rbar`` (1 for odd ``r``, 2 for even).
Because induction is an exact monoidal functor, triplet fusion products can
be *derived* by fusing singlet preimages and inducing the result; this file
implements that derivation and the directly transcribed generator rules it
must agree with.

Triplet labels are the image of the singlet normal forms under
``r -> rbar``, so they come in three kinds, one per local singlet kind:

====  ==========================  ======  ===============================
code  object                      from    range of ``s``
====  ==========================  ======  ===============================
W     simple module W_{rbar,s}    M       1 <= s <= p
V     lattice module V_{rbar,s}   F       1 <= s <= p-1
R     projective R_{rbar,s}       P       1 <= s <= p-1
====  ==========================  ======  ===============================

Each range is the one the preimage kind takes in normal form; the catalog
decides it, and :func:`_check_label` asks it.  A ``V`` label is the
:func:`induce` of a ``catalog.fock`` label, so ``F(r, p)``, stored as
``M(r, p)``, induces to ``W(., p)``; :func:`projective_r` rejects ``s = p``.

``R_{rbar,s}`` is the induction of ``P_{r,s}`` for every ``s``.  Induction is
left adjoint to the exact restriction, so it sends projectives to
projectives, and ``Hom(Ind P_{r,s}, W) = Hom(P_{r,s}, Res W)`` leaves
``W_{rbar,s}`` alone on top: ``R_{rbar,s}`` is the projective cover of
``W_{rbar,s}`` (Adamovic-Milas, arXiv:0707.1857).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

from . import catalog
from .catalog import FormalSum, Indecomposable, UnsupportedFusion, UnsupportedOperation
from .catalog import _check_n_max, _check_normal_form, _is_normal
from .fusion_closed import fuse
from .labels import Params, _check_ints, rbar, weight

__all__ = [
    "SIMPLE_W",
    "LATTICE_V",
    "PROJ_R",
    "TripletIndec",
    "simple_w",
    "projective_r",
    "induce",
    "induce_sum",
    "preimage",
    "triplet_fuse_generator",
    "derived_triplet_fuse",
    "composition_factors",
    "loewy",
    "virasoro_decomposition",
]

SIMPLE_W = "W"
LATTICE_V = "V"
PROJ_R = "R"


# induction's kind map; its inverse names the preimage kind of a triplet label
_INDUCED = {catalog.SIMPLE: SIMPLE_W, catalog.FOCK: LATTICE_V, catalog.PROJECTIVE: PROJ_R}
_PREIMAGE = {t: x for x, t in _INDUCED.items()}


class TripletIndec(NamedTuple):
    """A triplet module label; ``rbar`` is the parity class (1 or 2)."""

    kind: str
    rbar: int
    s: int

    def __str__(self) -> str:
        return f"{self.kind}:{self.rbar},{self.s}"


def _check_label(params: Params, t: TripletIndec) -> None:
    """Reject an unknown kind, an ``rbar`` or ``s`` whose type is not exactly
    ``int``, ``rbar`` outside {1, 2}, or an ``s`` that is not in normal form
    for the preimage kind."""
    kind, rb, s = t
    pre = _PREIMAGE.get(kind)
    if pre is None:
        raise ValueError(f"unknown triplet kind {kind!r} in {t}")
    _check_ints("triplet label index", rb, s)
    if rb not in (1, 2):
        raise ValueError(f"rbar must be 1 or 2, got {rb}")
    p = params.p
    if not _is_normal(p, pre, s, 1):
        s_max = p if _is_normal(p, pre, p, 1) else p - 1
        raise ValueError(f"triplet label needs 1 <= s <= {s_max}, got s={s}")


def simple_w(params: Params, rb: int, s: int) -> TripletIndec:
    """The simple triplet module ``W_{rbar,s}``, ``1 <= s <= p``."""
    t = TripletIndec(SIMPLE_W, rb, s)
    _check_label(params, t)
    return t


def projective_r(params: Params, rb: int, s: int) -> TripletIndec:
    """The projective cover ``R_{rbar,s}`` of ``W_{rbar,s}``, ``1 <= s <= p-1``."""
    t = TripletIndec(PROJ_R, rb, s)
    _check_label(params, t)
    return t


def induce(params: Params, x: Indecomposable) -> TripletIndec:
    """Induction of a singlet label: collapse ``r`` to its parity class.

    ``M_{r,s} -> W_{rbar,s}``; ``F_{alpha_{r,s}} -> V_{alpha_{rbar,s}+L}``;
    ``P_{r,s} -> R_{rbar,s}``.  Jordan Fock modules induce to non-local
    objects and are rejected, as is a label not in normal form.  A normal
    form induces to a valid triplet label, so nothing more is checked.
    Cost: O(1).
    """
    _check_normal_form(params, x, "induce")
    kind = _INDUCED.get(x.kind)
    if kind is None:
        raise UnsupportedOperation(f"{x} induces to a non-local module")
    return TripletIndec(kind, rbar(x.r), x.s)


def induce_sum(params: Params, xs: FormalSum) -> FormalSum:
    """Termwise induction of a formal sum (induction is exact)."""
    return FormalSum((induce(params, lab), m) for lab, m in xs)


def preimage(params: Params, t: TripletIndec, r_shift: int = 0) -> Indecomposable:
    """A singlet preimage of a triplet label under induction.

    The default preimage has ``r = rbar``; ``r_shift`` must be even and
    moves the choice along the simple-current orbit, which induction
    forgets.
    """
    _check_label(params, t)
    _check_ints("preimage shift", r_shift)
    if r_shift % 2 != 0:
        raise ValueError("preimage shifts must be even to preserve parity")
    # a valid triplet label has a preimage in normal form
    return Indecomposable(_PREIMAGE[t.kind], t.rbar + r_shift, t.s)


def triplet_fuse_generator(
    params: Params, g: TripletIndec, x: TripletIndec
) -> FormalSum:
    """Fusion with the triplet generators ``W_{2,1}`` and ``W_{1,2}``.

    * ``W_{2,1} x W_{r,s} = W_{3-r,s}`` (self-dual simple current);
    * ``W_{1,2} x W_{r,s}`` is ``W_{r,2}`` for ``s = 1``,
      ``W_{r,s-1} + W_{r,s+1}`` for ``2 <= s <= p-1``, and ``R_{r,p-1}``
      for ``s = p``.

    Defined on simple second factors only.
    """
    _check_label(params, g)
    _check_label(params, x)
    if x.kind != SIMPLE_W:
        raise UnsupportedFusion(f"triplet generator rules take simple W labels, got {x}")
    p = params.p
    if (g.kind, g.rbar, g.s) == (SIMPLE_W, 2, 1):
        return FormalSum.of(simple_w(params, 3 - x.rbar, x.s))
    if (g.kind, g.rbar, g.s) == (SIMPLE_W, 1, 2):
        if x.s == 1:
            return FormalSum.of(simple_w(params, x.rbar, 2))
        if x.s == p:
            return FormalSum.of(projective_r(params, x.rbar, p - 1))
        return FormalSum.of(
            simple_w(params, x.rbar, x.s - 1), simple_w(params, x.rbar, x.s + 1)
        )
    raise UnsupportedFusion(f"unsupported triplet generator {g}")


def derived_triplet_fuse(
    params: Params,
    a: TripletIndec,
    b: TripletIndec,
    shift_a: int = 0,
    shift_b: int = 0,
) -> FormalSum:
    """Triplet fusion derived through induction.

    Picks singlet preimages of ``a`` and ``b`` (offset by the even shifts,
    which must not change the answer), fuses them on the singlet side, and
    induces the result termwise.  Defined for simple and projective labels.
    """
    left = preimage(params, a, shift_a)  # preimage validates both labels
    right = preimage(params, b, shift_b)
    if a.kind == LATTICE_V or b.kind == LATTICE_V:
        raise UnsupportedFusion("lattice modules have no derived fusion here")
    return induce_sum(params, fuse(params, left, right))


def composition_factors(params: Params, t: TripletIndec) -> FormalSum:
    """Simple composition factors of a triplet label: its :func:`loewy` layers together.

    ``V_{alpha_{r,s}+L}`` has factors ``W_{r,s} + W_{3-r,p-s}``; the
    projective cover ``R_{r,s}`` has ``2 W_{r,s} + 2 W_{3-r,p-s}``.
    """
    return FormalSum.combine((1, layer) for layer in loewy(params, t))


def loewy(params: Params, t: TripletIndec) -> Tuple[FormalSum, ...]:
    """Loewy layers of a triplet label, top first and socle last.

    ``V_{alpha_{r,s}+L}`` has top ``W_{3-r,p-s}`` over socle ``W_{r,s}``;
    ``R_{r,s}`` has layers ``W_{r,s} / 2 W_{3-r,p-s} / W_{r,s}``.
    """
    _check_label(params, t)
    if t.kind == SIMPLE_W:
        return (FormalSum.of(t),)
    own = simple_w(params, t.rbar, t.s)
    other = simple_w(params, 3 - t.rbar, params.p - t.s)
    if t.kind == LATTICE_V:
        return FormalSum.of(other), FormalSum.of(own)
    return FormalSum.of(own), FormalSum.of(other, other), FormalSum.of(own)


def virasoro_decomposition(
    params: Params, t: TripletIndec, n_max: int
) -> List[Tuple[Fraction, int]]:
    """Leading Virasoro content of a simple triplet module.

    ``W_{rbar,s}`` decomposes with growing multiplicities: the ``n``-th
    entry is ``(h_{rbar+2n, s}, rbar+2n)``.  In particular the lowest weight
    space is ``rbar``-dimensional.  ``n_max`` above
    ``catalog._VIRASORO_MAX_N`` raises ``ValueError``; the cost at that bound
    is stated there.
    """
    _check_label(params, t)
    if t.kind != SIMPLE_W:
        raise UnsupportedOperation(f"Virasoro decomposition only for W labels, got {t}")
    _check_n_max(n_max)
    return [
        (weight(params, t.rbar + 2 * n, t.s), t.rbar + 2 * n) for n in range(n_max + 1)
    ]
