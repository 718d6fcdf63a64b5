"""Independent re-derivation of fusion products from the generator rules.

Products are rebuilt from scratch with only three ingredients:

1. the generator rules, defined here: each recursion step applies the
   ``M_{1,2}`` rule, stated once in ``_m12_terms``, and the simple
   currents act as a plain shift of ``r``,
2. the column recursion
   ``X x M_{1,s+1} = M_{1,2} x (X x M_{1,s})  -  X x M_{1,s-1}``,
   which follows from ``M_{1,2} x M_{1,s} = M_{1,s-1} + M_{1,s+1}`` by
   associativity, and
3. Krull-Schmidt cancellation (:func:`ks_subtract`, one in-place dict
   subtraction in the walk): decompositions into indecomposables are
   unique, so the subtraction in (2) is well defined.
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

Each left factor ``kind_{1,s}`` has one *chain*: the loop that walks its
columns ``s_target = 1, 2, ...`` keeping only the last two, so it has no
depth limit.  The chain's frontier ``(t, prev, col)`` is kept, so a later
request for a larger ``s_target`` resumes the walk where the last one
stopped; a smaller one restarts from ``s_target = 1``.  One step costs
O(labels in the column), at most O(p), so a cold product walks at most
O(p^2) labels: ``oracle_fuse`` refuses ``p`` above ``_MAX_P``
before any walk.  Columns are memoized in ``_column`` by
``(params, kind, s, s_target)``, whatever ``r`` the callers use, in an
LRU of 4 096 entries; the frontiers are an LRU bounded by the labels
they hold (``_FRONTIER_LABELS``), so memory stays bounded whatever ``p``
a process visits.  Every result depends on the arguments alone: a thread
owns the frontier it takes, and a lock guards only the memo's bookkeeping,
so concurrent use returns the same values as sequential use.
"""

from __future__ import annotations

from functools import lru_cache
from threading import Lock
from typing import Dict, Iterable, Optional, Tuple

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

#: Largest ``p`` :func:`oracle_fuse` accepts.  A cold product walks at most
#: ``p`` columns of at most O(p) labels each; at p = 2000 the costliest
#: (``P_{1,1300} x M_{1,2000}``) takes about 1.4 s and 20 MB on one core.
_MAX_P = 2000

#: Labels the chain frontiers may hold in all (``len(prev) + len(col)``
#: summed over chains); a p = 200 frontier holds a few hundred.
_FRONTIER_LABELS = 1 << 15

_Column = Dict[Indecomposable, int]
_Frontier = Tuple[int, _Column, _Column]


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
    (s = p-1); for p = 2, ``M_{r+1,2} + 2 M_{r,2} + M_{r-1,2}``.  ``x`` is
    a checked ``M`` or ``P`` label (:func:`oracle_fuse` refuses every other
    kind before any walk), so every summand is built in normal form as is.
    """
    p, r, s = params.p, x.r, x.s
    if x.kind == SIMPLE:
        if s == p:
            return (Indecomposable(PROJECTIVE, r, p - 1),)
        if s == 1:
            return (Indecomposable(SIMPLE, r, 2),)
        return (Indecomposable(SIMPLE, r, s - 1), Indecomposable(SIMPLE, r, s + 1))
    # P_{r,s}, normalized: 1 <= s <= p-1.  P_{r,s-1} + P_{r,s+1}, where
    # P_{r,0} reads M_{r+1,p} + M_{r-1,p} and P_{r,p} reads 2 M_{r,p}
    if s < p - 1:
        upper = (Indecomposable(PROJECTIVE, r, s + 1),)
    else:
        upper = (Indecomposable(SIMPLE, r, p),) * 2
    if s > 1:
        return (Indecomposable(PROJECTIVE, r, s - 1),) + upper
    return (Indecomposable(SIMPLE, r + 1, p), Indecomposable(SIMPLE, r - 1, p)) + upper


def _subtract(acc: Dict[object, int], sub: Iterable[Tuple[object, int]]) -> None:
    """``acc -= sub`` in place, zeros dropped; requires ``sub <= acc`` termwise.

    ``sub`` holds distinct labels with positive multiplicities and can be
    iterated twice.  A term that would go negative restores ``acc`` and raises
    :class:`NegativeMultiplicityError` with both operands as sums.
    """
    for label, mult in sub:
        left = acc.get(label, 0) - mult
        if left > 0:
            acc[label] = left
        elif not left:
            del acc[label]
        else:
            for done, back in sub:
                if done == label:
                    break
                acc[done] = acc.get(done, 0) + back
            raise NegativeMultiplicityError(FormalSum(acc), FormalSum(sub), label)


def ks_subtract(a: FormalSum, b: FormalSum) -> FormalSum:
    """Exact multiset difference ``a - b``; requires ``b <= a`` termwise."""
    acc = dict(a._key)
    _subtract(acc, b._key)
    return FormalSum(acc)


class _Frontiers:
    """The chain frontiers ``(params, kind, s) -> (t, prev, col)``, an LRU
    bounded by the labels they hold.

    :meth:`take` removes a frontier, so the thread that walks a chain owns
    it; :meth:`keep` puts it back as the most recent and evicts the least
    recent chains while more than ``_FRONTIER_LABELS`` labels are held.  The
    lock guards this bookkeeping only, never a walk.  Frontier dicts are
    never changed once kept: each step builds a new column.
    """

    def __init__(self) -> None:
        self.chains: Dict[Tuple[Params, str, int], _Frontier] = {}
        self.labels = 0
        self.lock = Lock()

    def take(self, key: Tuple[Params, str, int], s_target: int) -> Optional[_Frontier]:
        """The frontier of chain ``key`` if it has not passed ``s_target``; dropped if it has."""
        with self.lock:
            frontier = self.chains.pop(key, None)
            if frontier is not None:
                self.labels -= len(frontier[1]) + len(frontier[2])
        if frontier is None or frontier[0] > s_target:
            return None
        return frontier

    def keep(self, key: Tuple[Params, str, int], frontier: _Frontier) -> None:
        with self.lock:
            old = self.chains.pop(key, None)
            if old is not None:
                self.labels -= len(old[1]) + len(old[2])
            self.chains[key] = frontier
            self.labels += len(frontier[1]) + len(frontier[2])
            while self.labels > _FRONTIER_LABELS:
                _, prev, col = self.chains.pop(next(iter(self.chains)))
                self.labels -= len(prev) + len(col)


_frontiers = _Frontiers()


@lru_cache(maxsize=4096)
def _column(params: Params, kind: str, s: int, s_target: int) -> FormalSum:
    """``X x M_{1,s_target}`` for ``X = kind_{1,s}``, one column per step.

    The chain starts from ``X x M_{1,0} = 0`` and ``X x M_{1,1} = X``, or
    resumes from its kept frontier; callers check the labels.  Each step
    costs O(labels in the column), and each label's ``M_{1,2}`` row is
    built once per walk.
    """
    key = (params, kind, s)
    frontier = _frontiers.take(key, s_target)
    if frontier is None:
        t, prev, col = 1, {}, {Indecomposable(kind, 1, s): 1}
    else:
        t, prev, col = frontier
    rows: Dict[Indecomposable, Tuple[Indecomposable, ...]] = {}
    while t < s_target:
        acc: _Column = {}
        for label, mult in col.items():
            row = rows.get(label)
            if row is None:
                row = rows[label] = _m12_terms(params, label)
            for term in row:
                acc[term] = acc.get(term, 0) + mult
        _subtract(acc, prev.items())
        prev, col, t = col, acc, t + 1
    _frontiers.keep(key, (t, prev, col))
    return FormalSum(col)


def oracle_fuse(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``a x b`` for two ``M``/``P`` labels, by the recursion alone.

    ``M x P`` is read as ``P x M``, so the left factor ``a_{r,s}`` is
    projective whenever ``b`` is.  A simple ``b = M_{r',s'}`` reads the
    column ``a_{1,s} x M_{1,s'}`` shifted by ``(r-1) + (r'-1)``; a
    projective ``b`` sums such columns over its composition factors (the
    split reduction in the module docstring), read in ascending ``s'`` so
    that one walk of ``a``'s chain serves them all.  ``p`` above
    ``_MAX_P`` raises ``ValueError`` before any walk; a label not in normal
    form raises :class:`~.catalog.NotNormalForm`; any other kind raises
    :class:`UnsupportedFusion`.
    """
    if params.p > _MAX_P:
        raise ValueError(
            f"oracle_fuse needs p <= {_MAX_P}, got p={params.p}: "
            "a cold product walks O(p^2) labels"
        )
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
    factors = sorted(composition_factors(params, b)._key, key=lambda ym: ym[0].s)
    return FormalSum.combine(
        (mult, _shift(_column(params, a.kind, a.s, y.s), a.r + y.r - 2))
        for y, mult in factors
    )
