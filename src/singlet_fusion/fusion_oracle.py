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
factor (if any) on the left, read its ``r = 1`` column ``t`` once for each
distinct ``t`` among the composition factors ``M_{r',t}`` of the right
factor, add it at each such factor's ``r``, and shift the sum once by
``(r-1) + (r'-1)`` through the simple currents.  Operands are checked
before anything is shifted, so the shift checks nothing again.  A simple
right factor is its own only composition factor; a projective
``P_{r',s'}``, whose series :func:`.catalog._factor_pairs` states, gives
the split reduction, which reads the columns ``s'`` and ``p - s'`` (one
column when they are equal):

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
pair is.

The walk runs on integer *codes*, not on labels: a code packs the
``(kind, r, s)`` of one term into one int (``_encode``), so dict keys hash
as the ints themselves, and integer order is label order, so a sorted
column is in label order as it is.  Within a walk a column is a short list
of *runs*: stretches of codes of one kind and one ``r``, with ``s`` stepping
by 2 and one multiplicity.  Most labels ``x`` have the row
``M_{1,2} x x = x_{s-1} + x_{s+1}``, so ``M_{1,2}`` maps a run to the same
run shifted down and up by one; a step cuts each run at the few *singular*
labels whose row is anything else, adds their rows one by one, and so costs
O(runs), not O(labels).  The first walk at ``p`` to meet a block of labels
of one kind and one ``r`` reads every label's row there from
``_m12_terms`` and keeps only the singular ones; a label is singular exactly
when its row says so, so a wrong row at any label still changes the answer.
A cold product takes at most ``p`` steps, but it scans O(p) labels per
block and its columns hold O(p) labels: ``oracle_fuse`` refuses ``p`` above
``_MAX_P`` before any walk.  :func:`oracle_fuse` sums the columns a
product needs in code space and turns codes back into labels once, in
``_decode``, which applies the product's ``r`` shift: the oracle's one
shift.

One store (``_store``, a first-in, first-out :class:`.catalog._Memo` of
its own) holds each block's singular rows and the columns, whatever ``r``
the callers use, under one budget of labels held, so memory stays bounded
whatever ``p`` a process visits.  Every value kept depends on its key alone
and never changes, so two threads that walk one chain compute and keep the
same values.  The store's lock serializes only its writes, never a read or
a walk, so concurrent use returns the same values as sequential use.
"""

from __future__ import annotations

from typing import Dict, List, NoReturn, Optional, Tuple

from .catalog import (
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    UnsupportedFusion,
    _check_normal_form,
    _factor_pairs,
    _Memo,
)
from .labels import Params

__all__ = [
    "NegativeMultiplicityError",
    "oracle_fuse",
]

#: Largest ``p`` :func:`oracle_fuse` accepts.  A cold product walks at most
#: ``p`` columns of a few runs each, but scans O(p) labels per block and keeps
#: columns of O(p) labels; at p = 2000, ``P_{1,1300} x M_{1,2000}`` takes
#: 0.15-0.21 s and 19 MB peak RSS as a ``fuse --engine both`` process, and
#: the costliest product found, ``P_{1,500} x P_{1,1}``, 0.16-0.23 s and
#: 22 MB (CPython 3.11, one core of a shared 2-CPU Xeon host).
_MAX_P = 2000

# A code is ``kind bit | (r - 1 + _R_BIAS) << _S_BITS | s``, so codes sort as
# labels do, by ``(kind, r, s)``, and adding ``d << _S_BITS`` moves ``r`` by
# ``d``.  Every code has ``|r - 1| <= p``: one ``M_{1,2}`` step moves ``r`` by
# at most 1 (only ``P_{r,1}`` gives ``M_{r+1,p} + M_{r-1,p}``), a chain takes
# at most ``p - 1`` steps, and a projective right factor moves a column by at
# most 1 more.  So ``s <= p <= _MAX_P < _R_BIAS = 2**_S_BITS`` keeps the
# ``r`` field in ``(0, 2 * _R_BIAS)`` and no two labels share a code.
_S_BITS = _MAX_P.bit_length()
_S_MASK = (1 << _S_BITS) - 1
_R_BIAS = 1 << _S_BITS
_R_MASK = 2 * _R_BIAS - 1
_K_SHIFT = 2 * _S_BITS + 1
_P_BIT = 1 << _K_SHIFT
_KINDS = (SIMPLE, PROJECTIVE)

#: ``(code, multiplicity)`` pairs of one column, in label order.
_Column = Tuple[Tuple[int, int], ...]

#: The singular rows ``(code, row)`` of one block, ascending.
_Block = Tuple[Tuple[int, Tuple[int, ...]], ...]

#: A column as *runs* ``(lo, hi, multiplicity)``: the codes ``lo, lo + 2, ...,
#: hi`` of one block, each with that multiplicity; maximal, and sorted by ``lo``.
_Runs = List[Tuple[int, int, int]]


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
    return (_P_BIT if x.kind == PROJECTIVE else 0) | (x.r - 1 + _R_BIAS) << _S_BITS | x.s


def _label(code: int, base: int = 1) -> Indecomposable:
    """The label a code stands for, its ``r`` moved by ``base - 1``."""
    r = (code >> _S_BITS & _R_MASK) - _R_BIAS + base
    # Indecomposable(...) without its Python-level __new__
    return tuple.__new__(Indecomposable, (_KINDS[code >> _K_SHIFT], r, code & _S_MASK, 1))


def _decode(column: _Column, delta: int) -> FormalSum:
    """The sum of a column in label order, ``r`` shifted by ``delta``.

    The oracle's one shift: every product leaves the store through here.
    Each label is built inline, as :func:`_label` builds one.
    """
    base, new, kinds = delta + 1 - _R_BIAS, tuple.__new__, _KINDS
    return FormalSum._from_sorted(tuple([
        (new(Indecomposable, (kinds[c >> _K_SHIFT], (c >> _S_BITS & _R_MASK) + base,
                              c & _S_MASK, 1)), m)
        for c, m in column
    ]))


def _row(params: Params, code: int) -> Tuple[int, ...]:
    """The ``M_{1,2}`` row of one code, read from :func:`_m12_terms`."""
    return tuple([_encode(term) for term in _m12_terms(params, _label(code))])


def _block(params: Params, base: int) -> _Block:
    """The singular rows of block ``base``: ``(code, row)`` for each code of
    the block whose row is not ``(code - 1, code + 1)``, ascending.

    A block is the ``M`` or ``P`` labels of one ``r``, and ``base`` is its
    code with ``s = 0``, which no label has.  The first read of a block at
    ``p`` reads the row of every label in it, and the store keeps the
    singular ones under ``(p, base)``.
    """
    key = (params.p, base)
    block = _store.get(key)
    if block is None:
        top = params.p - (base >= _P_BIT)
        rows = [(code, _row(params, code)) for code in range(base + 1, base + top + 1)]
        block = tuple([(code, row) for code, row in rows if row != (code - 1, code + 1)])
        _store.put(key, block)
    return block


def _runs(column: _Column) -> _Runs:
    """The runs of a kept column."""
    runs, last = [], [None, None]  # the run each parity of s had last
    for code, mult in column:
        run = last[code & 1]
        if run is not None and run[1] == code - 2 and run[2] == mult:
            run[1] = code
        else:
            run = last[code & 1] = [code, code, mult]
            runs.append(run)
    return [tuple(run) for run in runs]


def _expand(runs: _Runs) -> _Column:
    """The ``(code, multiplicity)`` pairs of a column's runs, in label order."""
    return tuple(sorted([(code, m) for lo, hi, m in runs for code in range(lo, hi + 1, 2)]))


def _sweep(delta: Dict[int, int]) -> _Runs:
    """The runs a stride-2 difference map describes, negative ones included.

    ``delta`` maps a code to the change of multiplicity there against the
    code two below it; the two parities of ``s`` are summed apart, so runs
    of both may interleave.
    """
    runs = []
    even = odd = 0  # the multiplicity since the last change, by parity
    even_lo = odd_lo = 0  # the code of that change
    for code in sorted(delta):
        d = delta[code]
        if not d:
            continue
        if code & 1:
            if odd:
                runs.append((odd_lo, code - 2, odd))
            odd += d
            odd_lo = code
        else:
            if even:
                runs.append((even_lo, code - 2, even))
            even += d
            even_lo = code
    runs.sort()
    return runs


#: The singular rows ``(p, base)`` of each block met, and the columns
#: ``(p, kind, s, t)`` of chain ``kind_{1,s}``; a walk puts its last two.
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


def _raise_negative(delta: Dict[int, int], prev: _Runs, code: int) -> NoReturn:
    """Put ``prev`` back into ``delta``, and raise
    :class:`NegativeMultiplicityError` for the sum it gives minus ``prev``."""
    for lo, hi, mult in prev:
        delta[lo] += mult
        delta[hi + 2] -= mult
    raise NegativeMultiplicityError(
        _decode(_expand(_sweep(delta)), 0), _decode(_expand(prev), 0), _label(code)
    )


def _walk(params: Params, kind: str, s: int, s_target: int) -> _Column:
    """``X x M_{1,s_target}`` for ``X = kind_{1,s}`` in codes, one column per step.

    The chain starts from ``X x M_{1,0} = 0`` and ``X x M_{1,1} = X``, or
    resumes from its highest kept pair of columns below ``s_target``; callers
    check the labels.  A step reads and writes runs: it cuts each run of the
    column at its block's singular codes, adds each singular code's row and
    each remaining segment shifted down and up by one, subtracts the column
    before as runs, and sweeps the boundaries into the next column.  So a
    step costs O(runs), and a walk reads each block it meets once.
    """
    chain = (params.p, kind, s)
    start = _resume(chain, s_target)
    if start is None:
        code = _encode(Indecomposable(kind, 1, s))
        t, prev, col, kept = 1, [], [(code, code, 1)], ((code, 1),)
    else:
        t, prev, kept = start
        prev, col = _runs(prev), _runs(kept)
    first = col  # kept is its expansion: a one-step walk puts kept back as is
    blocks: Dict[int, _Block] = {}  # by base: the blocks this walk met
    block_bits = ~_S_MASK
    while t < s_target:
        # delta: the next column as differences between codes two apart
        delta: Dict[int, int] = {}
        get = delta.get
        for lo, hi, mult in col:
            base = lo & block_bits
            singular = blocks.get(base)
            if singular is None:
                singular = blocks[base] = _block(params, base)
            for code, row in singular:
                if lo <= code <= hi and not (code - lo) & 1:
                    if lo < code:  # the segment lo .. code - 2, down and up by one
                        delta[lo - 1] = get(lo - 1, 0) + mult
                        delta[lo + 1] = get(lo + 1, 0) + mult
                        delta[code - 1] = get(code - 1, 0) - mult
                        delta[code + 1] = get(code + 1, 0) - mult
                    for term in row:
                        delta[term] = get(term, 0) + mult
                        delta[term + 2] = get(term + 2, 0) - mult
                    lo = code + 2
            if lo <= hi:  # the last segment lo .. hi
                delta[lo - 1] = get(lo - 1, 0) + mult
                delta[lo + 1] = get(lo + 1, 0) + mult
                delta[hi + 1] = get(hi + 1, 0) - mult
                delta[hi + 3] = get(hi + 3, 0) - mult
        for lo, hi, mult in prev:  # Krull-Schmidt: subtract prev
            delta[lo] = get(lo, 0) - mult
            delta[hi + 2] = get(hi + 2, 0) + mult
        runs = _sweep(delta)
        for lo, _, mult in runs:
            if mult < 0:
                _raise_negative(delta, prev, lo)
        prev, col, t = col, runs, t + 1
    column = _expand(col)
    if t > 1:
        _store.put(chain + (t - 1,), kept if prev is first else _expand(prev))
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
    projective ``b`` reads the column of each distinct ``s`` among its
    composition factors once, in ascending ``s`` so that one walk of ``a``'s
    chain serves them all, adds it in code space at each factor's ``r``
    relative to ``b``'s (the split reduction in the module docstring), and
    shifts the sum once.  ``p`` above ``_MAX_P`` raises ``ValueError`` before
    any walk; a label not in normal form raises
    :class:`~.catalog.NotNormalForm`; any other kind raises
    :class:`UnsupportedFusion`.
    """
    if params.p > _MAX_P:
        raise ValueError(
            f"oracle_fuse needs p <= {_MAX_P}, got p={params.p}: "
            "a cold product builds rows and columns of O(p) labels"
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
    # (s, r move as a code, multiplicity) per factor, so equal s are adjacent
    factors = sorted([(y.s, (y.r - b.r) << _S_BITS, m) for y, m in _factor_pairs(params, b)])
    acc: Dict[int, int] = {}
    get, last = acc.get, 0
    for t, up, mult in factors:
        if t != last:
            column, last = _column(params, a.kind, a.s, t), t
        for code, k in column:
            code += up
            acc[code] = get(code, 0) + mult * k
    return _decode(sorted(acc.items()), shift)
