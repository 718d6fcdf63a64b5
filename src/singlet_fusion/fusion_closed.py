"""Closed-form fusion products of singlet indecomposables.

The three general product formulas (simple x simple, projective x simple,
projective x projective) are transcribed directly; every sum is over an
integer window with a parity constraint, and is empty whenever its lower
bound exceeds its upper bound.  ``P(r, p)`` normalizes to ``M(r, p)`` inside
every sum, so the formulas compose without case splits.

The formulas depend on ``r`` and ``r'`` only through ``r + r'``: the simple
currents ``M_{2n+1,1}`` and ``M_{2,1}`` act on every label as a plain shift
of ``r``.  So each formula is written once at ``r = r' = 1`` (a private
template), and every other product is that template shifted by
``r + r' - 2`` through :func:`.catalog.shift_r`.  :func:`fuse` is the one
entry point: it checks each operand once, reads ``M x P`` as ``P x M``, and
shifts the template of the pair once.  The templates are memoized
in ``_template`` by ``(params, form, s, s')``, with ``s <= s'`` for the
symmetric ``M x M`` and ``P x P``: ``2p^2 - p`` keys for each ``p``, whatever
``r`` the callers use.  The memo holds at most 1 024 templates (LRU), each
of at most ``3p/2 + 2`` distinct terms, so it stays bounded when a caller
sweeps large ``p`` (``2p^2 - p`` is already 79 800 at ``p = 200``).

The generator rules (fusion with the simple currents ``M_{2n+1,1}`` and
``M_{2,1}``, and with ``M_{1,2}``) live in :mod:`.fusion_oracle`, which is
built on them alone.  Neither module imports the other, which is what makes
the two routes independent.  The Grothendieck ring that checks both
(:func:`.catalog.grothendieck_class` of a product against the product of
the classes of its factors) lives in :mod:`.catalog`, which imports neither
route.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .catalog import (
    FOCK,
    JORDAN_FOCK,
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    UnsupportedFusion,
    _check_normal_form,
    _pairs,
    _SumLike,
    projective,
    shift_r,
    simple,
)
from .labels import Params

__all__ = ["fuse"]

#: The closed form of each kind pair, once ``M x P`` has been turned into ``P x M``.
_FORMS = {(SIMPLE, SIMPLE): "mm", (PROJECTIVE, SIMPLE): "pm", (PROJECTIVE, PROJECTIVE): "pp"}


def _mm_terms(params: Params, s: int, t: int) -> List[Indecomposable]:
    """Summands of ``M_{1,s} x M_{1,t}``.

    The general product ``M_{r,s} x M_{r',s'}`` is a simple part
    ``M_{r+r'-1, l}`` for ``l = |s-s'|+1 .. min(s+s'-1, 2p-1-s-s')`` and a
    projective part ``P_{r+r'-1, l}`` for ``l = 2p+1-s-s' .. p``; both with
    ``l + s + s'`` odd.
    """
    p = params.p
    out = []
    for ell in range(abs(s - t) + 1, min(s + t - 1, 2 * p - 1 - s - t) + 1):
        if (ell + s + t) % 2 == 1:
            out.append(simple(params, 1, ell))
    for ell in range(2 * p + 1 - s - t, p + 1):
        if (ell + s + t) % 2 == 1:
            out.append(projective(params, 1, ell))
    return out


def _pm_windows(params: Params, s: int, t: int) -> List[Indecomposable]:
    """Summands of ``P_{1,s} x M_{1,t}``, repeats included.

    The general product ``P_{r,s} x M_{r',s'}`` (``1 <= s <= p-1``) has three
    windows, all projective (modulo ``P(., p) = M(., p)``):
    ``P_{r+r'-1, l}`` for ``l = |s-s'|+1 .. min(s+s'-1, p)`` and for
    ``l = 2p+1-s-s' .. p`` (both with ``l+s+s'`` odd), plus
    ``P_{r+r', l} + P_{r+r'-2, l}`` for ``l = p+s-s'+1 .. p`` with
    ``l+p+s+s'`` odd.
    """
    p = params.p
    out = []
    for ell in range(abs(s - t) + 1, min(s + t - 1, p) + 1):
        if (ell + s + t) % 2 == 1:
            out.append(projective(params, 1, ell))
    for ell in range(2 * p + 1 - s - t, p + 1):
        if (ell + s + t) % 2 == 1:
            out.append(projective(params, 1, ell))
    for ell in range(p + s - t + 1, p + 1):
        if (ell + p + s + t) % 2 == 1:
            out.append(projective(params, 2, ell))
            out.append(projective(params, 0, ell))
    return out


def _pp_pairs(params: Params, s: int, t: int) -> List[Tuple[Indecomposable, int]]:
    """``(summand, multiplicity)`` pairs of ``P_{1,s} x P_{1,t}``, repeats included.

    The general product ``P_{r,s} x P_{r',s'}`` (``1 <= s, s' <= p-1``) has
    six windows: twice the three windows of :func:`_pm_windows`, plus the
    three extra windows

    * ``P_{r+r', l} + P_{r+r'-2, l}`` for ``l = |s+s'-p|+1 .. min(s-s'+p-1, p)``,
    * ``P_{r+r', l} + P_{r+r'-2, l}`` for ``l = p-s+s'+1 .. p``
      (both with ``l+p+s+s'`` odd),
    * ``P_{r+r'+1, l} + 2 P_{r+r'-1, l} + P_{r+r'-3, l}`` for
      ``l = s+s'+1 .. p`` with ``l+s+s'`` odd.

    Symmetric under swapping the two factors.
    """
    p = params.p
    pairs = [(label, 2) for label in _pm_windows(params, s, t)]
    for ell in range(abs(s + t - p) + 1, min(s - t + p - 1, p) + 1):
        if (ell + p + s + t) % 2 == 1:
            pairs.append((projective(params, 2, ell), 1))
            pairs.append((projective(params, 0, ell), 1))
    for ell in range(p - s + t + 1, p + 1):
        if (ell + p + s + t) % 2 == 1:
            pairs.append((projective(params, 2, ell), 1))
            pairs.append((projective(params, 0, ell), 1))
    for ell in range(s + t + 1, p + 1):
        if (ell + s + t) % 2 == 1:
            pairs.append((projective(params, 3, ell), 1))
            pairs.append((projective(params, 1, ell), 2))
            pairs.append((projective(params, -1, ell), 1))
    return pairs


@lru_cache(maxsize=1024)
def _template(params: Params, form: str, s: int, t: int) -> FormalSum:
    """The product ``form`` of the two ``r = 1`` labels with ``s`` and ``t``."""
    if form == "mm":
        return FormalSum.of(*_mm_terms(params, s, t))
    if form == "pm":
        return FormalSum.of(*_pm_windows(params, s, t))
    return FormalSum(_pp_pairs(params, s, t))


def _fuse_pair(params: Params, x: Indecomposable, y: Indecomposable) -> FormalSum:
    _check_normal_form(params, x, "fuse")
    _check_normal_form(params, y, "fuse")
    if x.kind == SIMPLE and y.kind == PROJECTIVE:
        x, y = y, x
    form = _FORMS.get((x.kind, y.kind))
    if form is not None:
        s, t = x.s, y.s
        if form != "pm" and t < s:  # M x M and P x P are symmetric
            s, t = t, s
        return shift_r(params, _template(params, form, s, t), x.r + y.r - 2)
    if JORDAN_FOCK in (x.kind, y.kind):
        raise UnsupportedFusion(f"no fusion data for Jordan Fock labels ({x} x {y})")
    # exactly one side is a Fock module: the odd simple current M(2n+1, 1)
    # shifts its r by 2n
    g, f = (y, x) if x.kind == FOCK else (x, y)
    if f.kind == FOCK and g.kind == SIMPLE and g.s == 1 and g.r % 2 == 1:
        return shift_r(params, FormalSum.of(f), g.r - 1)
    raise UnsupportedFusion(
        f"{x} x {y}: Fock modules fuse only with the odd simple currents M(2n+1, 1)"
    )


def fuse(params: Params, a: _SumLike, b: _SumLike) -> FormalSum:
    """Bilinear extension of the fusion product to formal sums.

    Each term pair is checked once; ``M x P`` is read as ``P x M``, and the
    ``M x M``, ``P x M`` and ``P x P`` products are their ``r = 1`` template
    (:func:`_mm_terms`, :func:`_pm_windows`, :func:`_pp_pairs`) shifted by
    ``r + r' - 2``.  Fock modules fuse only with odd simple currents; Jordan
    Fock labels never fuse.  A label not in normal form raises
    :class:`~.catalog.NotNormalForm`, any other pair :class:`UnsupportedFusion`.
    """
    if isinstance(a, Indecomposable) and isinstance(b, Indecomposable):
        return _fuse_pair(params, a, b)
    return FormalSum.combine(
        (mx * my, _fuse_pair(params, x, y))
        for x, mx in _pairs(a)
        for y, my in _pairs(b)
    )
