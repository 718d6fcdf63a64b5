"""Independent re-derivation of fusion products from the generator rules.

Products are rebuilt from scratch with only three ingredients:

1. the generator rules, defined here: each recursion step applies the
   ``M_{1,2}`` rule, stated once in ``_m12_terms``, and the simple
   currents act as a plain shift of ``r``,
2. the column recursion
   ``X x M_{1,s+1} = M_{1,2} x (X x M_{1,s})  -  X x M_{1,s-1}``,
   which follows from ``M_{1,2} x M_{1,s} = M_{1,s-1} + M_{1,s+1}`` by
   associativity, and
3. Krull-Schmidt cancellation (one in-place subtraction in the walk):
   decompositions into indecomposables are unique, so the subtraction in
   (2) is well defined.
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
columns ``t = 1, 2, ...`` keeping only the last two, so it has no depth
limit.  A walk leaves its last two columns in the store, so a later walk
to ``s_target`` resumes from the highest ``t < s_target`` whose columns
``t - 1`` and ``t`` are both kept, and starts from ``t = 1`` when no such
pair is.  One step costs O(labels in the column), at most O(p), so a cold
product walks at most O(p^2) labels: ``oracle_fuse`` refuses ``p`` above
``_MAX_P`` before any walk.

The walk runs on integer *codes*, not on labels: a code packs the
``(kind, r, s)`` of one term into one int (``_encode``), so dict keys hash
as the ints themselves, and a column's base ``r = 1`` keeps its codes
small.  Each label's
``M_{1,2}`` row is read from one table per ``p``, built from
``_m12_terms`` as the walk first meets the label.  :func:`oracle_fuse`
sums the columns a product needs in code space and turns codes back into
labels once, in ``_decode``, which applies the product's ``r`` shift: the
oracle's one shift.

One store (``_store``, a first-in, first-out :class:`.catalog._Memo` of
its own) holds the row tables and the columns, whatever ``r`` the callers
use, under one budget of labels held, so memory stays bounded whatever
``p`` a process visits.  Every result depends on the arguments alone: a
kept column never changes and rows are pure, so two threads that walk one
chain compute and keep the same values.  The store's lock serializes only
its writes, never a read or a walk, so concurrent use returns the same
values as sequential use.
"""

from __future__ import annotations

from typing import Dict, Iterable, NoReturn, Optional, Sequence, Tuple

from .catalog import (
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    UnsupportedFusion,
    _check_normal_form,
    _Memo,
    composition_factors,
)
from .labels import Params

__all__ = [
    "NegativeMultiplicityError",
    "oracle_fuse",
]

#: Largest ``p`` :func:`oracle_fuse` accepts.  A cold product walks at most
#: ``p`` columns of at most O(p) labels each; at p = 2000 the costliest
#: (``P_{1,1300} x M_{1,2000}``) takes 0.6-0.9 s and 20 MB peak RSS as a
#: ``fuse --engine both`` process (CPython 3.11, one core of a shared 2-CPU
#: Xeon host).
_MAX_P = 2000

# A code is ``(r - 1) << _R_SHIFT | kind bit | s``: ``s <= _MAX_P <
# 2**_S_BITS`` and ``r`` is unbounded, so no two labels share a code, and
# adding ``d << _R_SHIFT`` moves ``r`` by ``d``.  Codes sort by ``(r, kind, s)``.
_S_BITS = _MAX_P.bit_length()
_S_MASK = (1 << _S_BITS) - 1
_P_BIT = 1 << _S_BITS
_R_SHIFT = _S_BITS + 1
_KINDS = (SIMPLE, PROJECTIVE)

#: ``(code, multiplicity)`` pairs of one column, in label order.
_Column = Tuple[Tuple[int, int], ...]


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


def _encode(x: Indecomposable) -> int:
    """The code of an ``M`` or ``P`` label."""
    return (x.r - 1) << _R_SHIFT | (_P_BIT if x.kind == PROJECTIVE else 0) | x.s


def _label(code: int, base: int = 1) -> Indecomposable:
    """The label a code stands for, its ``r`` moved by ``base - 1``."""
    r = (code >> _R_SHIFT) + base
    # Indecomposable(...) without its Python-level __new__
    return tuple.__new__(Indecomposable, (_KINDS[code >> _S_BITS & 1], r, code & _S_MASK, 1))


def _label_order(pairs: Sequence[Tuple[int, int]]) -> _Column:
    """``(code, multiplicity)`` pairs sorted by code, put in label order.

    Labels sort by ``(kind, r, s)`` and codes by ``(r, kind, s)``, so the
    ``M`` codes come first, then the ``P`` codes, each in the order given.
    """
    simples = [cm for cm in pairs if not cm[0] & _P_BIT]
    return tuple(simples + [cm for cm in pairs if cm[0] & _P_BIT])


def _decode(column: _Column, delta: int) -> FormalSum:
    """The sum of a column in label order, ``r`` shifted by ``delta``.

    The oracle's one shift: every product leaves the store through here.
    """
    base = delta + 1
    return FormalSum._from_sorted(tuple([(_label(c, base), m) for c, m in column]))


def _row(params: Params, code: int) -> Tuple[int, ...]:
    """The ``M_{1,2}`` row of one code, read from :func:`_m12_terms`."""
    return tuple([_encode(term) for term in _m12_terms(params, _label(code))])


#: Row tables ``(p,)`` (code -> row) and columns ``(p, kind, s, t)`` of chain
#: ``kind_{1,s}``.  A walk adds rows to its table outside the lock, then puts
#: it back and its last two columns.
_store = _Memo()


def _resume(chain: Tuple[int, str, int], s_target: int) -> Optional[Tuple[int, _Column, _Column]]:
    """``(t, column t - 1, column t)`` for the highest ``t < s_target`` whose
    two columns are kept, or ``None``; a pair evicted meanwhile is skipped."""
    get = _store.get
    for t in range(s_target - 1, 1, -1):
        col = get(chain + (t,))
        if col is not None:
            prev = get(chain + (t - 1,))
            if prev is not None:
                return t, prev, col
    return None


def _raise_negative(acc: Dict[int, int], prev: Iterable[Tuple[int, int]], code: int) -> NoReturn:
    """Put back the terms of ``prev`` that ``acc`` lost before ``code``, and
    raise :class:`NegativeMultiplicityError` for ``acc - prev`` in labels."""
    for done, mult in prev:
        if done == code:
            break
        acc[done] = acc.get(done, 0) + mult
    raise NegativeMultiplicityError(
        _decode(_label_order(sorted(acc.items())), 0),
        _decode(_label_order(sorted(prev)), 0),
        _label(code),
    )


def _walk(params: Params, kind: str, s: int, s_target: int) -> _Column:
    """``X x M_{1,s_target}`` for ``X = kind_{1,s}`` in codes, one column per step.

    The chain starts from ``X x M_{1,0} = 0`` and ``X x M_{1,1} = X``, or
    resumes from its highest kept pair of columns below ``s_target``; callers
    check the labels.  Each step costs O(labels in the column); a label's
    row is built once per row table.
    """
    p = params.p
    chain = (p, kind, s)
    rows = _store.get((p,))
    if rows is None:
        rows = {}
    # prev and col iterate as (code, multiplicity) pairs: kept tuples at the
    # start, then the items of the dicts the steps build
    start = _resume(chain, s_target)
    t, prev, col = start or (1, (), ((_encode(Indecomposable(kind, 1, s)), 1),))
    row_of = rows.get
    while t < s_target:
        acc: Dict[int, int] = {}
        add = acc.get
        for code, mult in col:
            row = row_of(code)
            if row is None:
                row = rows[code] = _row(params, code)
            for term in row:
                acc[term] = add(term, 0) + mult
        for code, mult in prev:  # Krull-Schmidt: acc -= prev
            left = add(code, 0) - mult
            if left > 0:
                acc[code] = left
            elif not left:
                del acc[code]
            else:
                _raise_negative(acc, prev, code)
        prev, col, t = col, acc.items(), t + 1
    column = _label_order(sorted(col))
    _store.put((p,), rows)
    if t > 1:
        _store.put(chain + (t - 1,), _label_order(sorted(prev)))
    _store.put(chain + (t,), column)
    return column


def _column(params: Params, kind: str, s: int, s_target: int) -> _Column:
    """The kept column ``kind_{1,s} x M_{1,s_target}``, or a walk to it."""
    column = _store.get((params.p, kind, s, s_target))
    return _walk(params, kind, s, s_target) if column is None else column


def oracle_fuse(params: Params, a: Indecomposable, b: Indecomposable) -> FormalSum:
    """``a x b`` for two ``M``/``P`` labels, by the recursion alone.

    ``M x P`` is read as ``P x M``, so the left factor ``a_{r,s}`` is
    projective whenever ``b`` is.  A simple ``b = M_{r',s'}`` reads the
    column ``a_{1,s} x M_{1,s'}`` shifted by ``(r-1) + (r'-1)``; a
    projective ``b`` sums such columns over its composition factors (the
    split reduction in the module docstring) in code space, each moved by
    its factor's ``r`` relative to ``b``'s, and shifts the sum once.  The
    factors are read in ascending ``s'``, so that one walk of ``a``'s chain
    serves them all.  ``p`` above ``_MAX_P`` raises ``ValueError`` before
    any walk; a label not in normal form raises
    :class:`~.catalog.NotNormalForm`; any other kind raises
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
    shift = a.r + b.r - 2
    if b.kind == SIMPLE:
        return _decode(_column(params, a.kind, a.s, b.s), shift)
    acc: Dict[int, int] = {}
    for y, mult in sorted(composition_factors(params, b), key=lambda ym: ym[0].s):
        up = (y.r - b.r) << _R_SHIFT
        for code, k in _column(params, a.kind, a.s, y.s):
            code += up
            acc[code] = acc.get(code, 0) + mult * k
    return _decode(_label_order(sorted(acc.items())), shift)
