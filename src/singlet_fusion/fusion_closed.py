"""Closed-form fusion products of singlet indecomposables.

The three general product formulas (simple x simple, projective x simple,
projective x projective) are transcribed directly, as data: each is a short
list of sums over an integer window ``l = lo..hi`` with a parity constraint,
all built by one rule (``_window``), and empty whenever ``lo > hi``.
``P x P`` reuses the three windows of ``P x M``.  ``P(r, p)`` normalizes to
``M(r, p)`` inside every sum, so the formulas compose without case splits.

The formulas depend on ``r`` and ``r'`` only through ``r + r'``: the simple
currents ``M_{2n+1,1}`` and ``M_{2,1}`` act on every label as a plain shift
of ``r``.  So each formula is written once at ``r = r' = 1`` (a private
template), and every other product is that template shifted by
``r + r' - 2``.  :func:`fuse` is the one entry point: it checks each
operand once, reads ``M x P`` as ``P x M``, and shifts the template of the
pair once, with no check per term.  ``_template`` memoizes the templates
by ``(p, kind pair, s, s')``, with ``s <= s'`` for the symmetric ``M x M``
and ``P x P``: ``2p^2 - p`` keys for each ``p``, whatever ``r`` the callers
use.  The memo (``_templates``) is a first-in, first-out
:class:`.catalog._Memo` of its own, bounded by the labels its templates
hold, so it stays bounded when a caller sweeps large ``p``, where one
template has up to ``3p/2 + 2`` distinct terms; a hit takes no lock.
A product has O(p) terms, so :func:`fuse` refuses ``p`` above ``_MAX_P``.

The recursion oracle in :mod:`.fusion_oracle` rebuilds every product from
the generator rules alone: the simple currents shift ``r``, and its
``_m12_terms`` states the ``M_{1,2}`` rule once.  It has no public
per-generator function; :func:`fuse` answers a product with a generator
like any other.  Neither module imports the other, which is what makes
the two routes independent.  The Grothendieck ring that checks both
(:func:`.catalog.grothendieck_class` of a product against the product of
the classes of its factors) lives in :mod:`.catalog`, which imports neither
route.
"""

from __future__ import annotations

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
    _label,
    _Memo,
    _pairs,
    _SumLike,
)
from .labels import Params

__all__ = ["fuse"]

_Window = Tuple[str, range, Tuple[int, ...]]

#: Largest ``p`` :func:`fuse` accepts.  A product has O(p) terms (at most
#: ``3p/2 + 2`` distinct ones per pair of labels); at p = 100 000 the largest
#: (``P_{1,1} x P_{1,1}``, 150 000 terms) takes 0.5–0.9 s and 45 MB through
#: ``fuse`` on the command line, on one core (CPython 3.11, x86-64).
_MAX_P = 100_000


def _window(lo: int, hi: int, parity: int) -> range:
    """The values ``l = lo..hi`` with ``l + parity`` odd; empty when ``lo > hi``."""
    return range(lo + (lo + parity + 1) % 2, hi + 1, 2)


def _windows(p: int, kinds: Tuple[str, str], s: int, t: int) -> List[_Window]:
    """The sums that make up the product of the ``r = 1`` labels of ``kinds``
    with ``s`` and ``t``, ``M x P`` read as ``P x M``.

    Each sum is ``(kind, window, rs)``: for each ``l`` in the window, one
    ``kind_{r,l}`` for each ``r`` in ``rs`` (repeats add).  At ``r = r' = 1``
    the ``rs`` ``(1,)``, ``(2, 0)`` and ``(3, 1, 1, -1)`` are ``P_{1,l}``,
    ``P_{2,l} + P_{0,l}`` and ``P_{3,l} + 2 P_{1,l} + P_{-1,l}``.

    The general product ``M_{r,s} x M_{r',s'}`` is a simple part
    ``M_{r+r'-1, l}`` for ``l = |s-s'|+1 .. min(s+s'-1, 2p-1-s-s')`` and a
    projective part ``P_{r+r'-1, l}`` for ``l = 2p+1-s-s' .. p``; both with
    ``l + s + s'`` odd.

    The general product ``P_{r,s} x M_{r',s'}`` (``1 <= s <= p-1``) has three
    windows, all projective (modulo ``P(., p) = M(., p)``):
    ``P_{r+r'-1, l}`` for ``l = |s-s'|+1 .. min(s+s'-1, p)`` and for
    ``l = 2p+1-s-s' .. p`` (both with ``l+s+s'`` odd), plus
    ``P_{r+r', l} + P_{r+r'-2, l}`` for ``l = p+s-s'+1 .. p`` with
    ``l+p+s+s'`` odd.

    The general product ``P_{r,s} x P_{r',s'}`` (``1 <= s, s' <= p-1``) has
    six windows: twice the three windows of ``P x M``, plus the three extra
    windows

    * ``P_{r+r', l} + P_{r+r'-2, l}`` for ``l = |s+s'-p|+1 .. min(s-s'+p-1, p)``,
    * ``P_{r+r', l} + P_{r+r'-2, l}`` for ``l = p-s+s'+1 .. p``
      (both with ``l+p+s+s'`` odd),
    * ``P_{r+r'+1, l} + 2 P_{r+r'-1, l} + P_{r+r'-3, l}`` for
      ``l = s+s'+1 .. p`` with ``l+s+s'`` odd.

    Symmetric under swapping the two factors.
    """
    if kinds == (SIMPLE, SIMPLE):
        return [
            (SIMPLE, _window(abs(s - t) + 1, min(s + t - 1, 2 * p - 1 - s - t), s + t), (1,)),
            (PROJECTIVE, _window(2 * p + 1 - s - t, p, s + t), (1,)),
        ]
    if kinds == (PROJECTIVE, SIMPLE):
        return [
            (PROJECTIVE, _window(abs(s - t) + 1, min(s + t - 1, p), s + t), (1,)),
            (PROJECTIVE, _window(2 * p + 1 - s - t, p, s + t), (1,)),
            (PROJECTIVE, _window(p + s - t + 1, p, p + s + t), (2, 0)),
        ]
    pm = _windows(p, (PROJECTIVE, SIMPLE), s, t)
    return [(kind, ells, rs * 2) for kind, ells, rs in pm] + [
        (PROJECTIVE, _window(abs(s + t - p) + 1, min(s - t + p - 1, p), p + s + t), (2, 0)),
        (PROJECTIVE, _window(p - s + t + 1, p, p + s + t), (2, 0)),
        (PROJECTIVE, _window(s + t + 1, p, s + t), (3, 1, 1, -1)),
    ]


_templates = _Memo()


def _template(params: Params, kinds: Tuple[str, str], s: int, t: int) -> FormalSum:
    """The product of the two ``r = 1`` labels of ``kinds`` with ``s`` and ``t``."""
    key = (params.p, kinds, s, t)
    template = _templates.get(key)
    if template is None:
        template = FormalSum(
            (_label(params, kind, r, ell), 1)
            for kind, ells, rs in _windows(params.p, kinds, s, t)
            for ell in ells
            for r in rs
        )
        _templates.put(key, template)
    return template


def _shift(x: FormalSum, delta: int) -> FormalSum:
    """Relabel ``r -> r + delta`` on every term of ``x``; ``x`` itself for ``delta = 0``.

    The shift of the ``r = 1`` templates and of the Fock products.  The
    caller passes normal-form terms and an int ``delta``; nothing is checked.
    Normal form does not depend on ``r``, so the shifted terms stay in
    normal form and in sorted order.
    """
    if not delta:
        return x
    new = tuple.__new__  # Indecomposable(...) without its Python-level __new__
    # a list, not a generator: tuple() of a generator over-allocates its
    # result, and callers keep the shifted sums
    return FormalSum._from_sorted(
        tuple([(new(Indecomposable, (k, r + delta, s, n)), m) for (k, r, s, n), m in x])
    )


def _fuse_pair(params: Params, x: Indecomposable, y: Indecomposable) -> FormalSum:
    _check_normal_form(params, x, "fuse")
    _check_normal_form(params, y, "fuse")
    if x.kind == SIMPLE and y.kind == PROJECTIVE:
        x, y = y, x
    if x.kind in (SIMPLE, PROJECTIVE) and y.kind in (SIMPLE, PROJECTIVE):
        s, t = x.s, y.s
        if x.kind == y.kind and t < s:  # M x M and P x P are symmetric
            s, t = t, s
        return _shift(_template(params, (x.kind, y.kind), s, t), x.r + y.r - 2)
    if JORDAN_FOCK in (x.kind, y.kind):
        raise UnsupportedFusion(f"no fusion data for Jordan Fock labels ({x} x {y})")
    # f is a Fock module (so is g in F x F, which the test below refuses):
    # the odd simple current g = M(2n+1, 1) shifts its r by 2n
    g, f = (y, x) if x.kind == FOCK else (x, y)
    if g.kind == SIMPLE and g.s == 1 and g.r % 2 == 1:
        return _shift(FormalSum.of(f), g.r - 1)
    raise UnsupportedFusion(
        f"{x} x {y}: Fock modules fuse only with the odd simple currents M(2n+1, 1)"
    )


def fuse(params: Params, a: _SumLike, b: _SumLike) -> FormalSum:
    """Bilinear extension of the fusion product to formal sums.

    Each term pair is checked once; ``M x P`` is read as ``P x M``, and the
    ``M x M``, ``P x M`` and ``P x P`` products are their ``r = 1`` template
    (memoized by kind pair, built from the parity windows of ``_windows``)
    shifted by ``r + r' - 2``.  Fock modules fuse only with odd simple currents; Jordan
    Fock labels never fuse.  ``p`` above ``_MAX_P`` raises ``ValueError``
    before any template is built; a label not in normal form raises
    :class:`~.catalog.NotNormalForm`, any other pair :class:`UnsupportedFusion`.
    """
    if params.p > _MAX_P:
        raise ValueError(
            f"fuse needs p <= {_MAX_P}, got p={params.p}: a product has O(p) terms"
        )
    if isinstance(a, Indecomposable) and isinstance(b, Indecomposable):
        return _fuse_pair(params, a, b)
    return FormalSum.combine(
        (mx * my, _fuse_pair(params, x, y))
        for x, mx in _pairs(a)
        for y, my in _pairs(b)
    )
