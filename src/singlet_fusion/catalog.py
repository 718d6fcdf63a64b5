"""Registry of indecomposable singlet modules and their structural data.

Four families of indecomposables are tracked, tagged by a short kind code
that doubles as the CLI label grammar:

====  =============================  =========================================
code  object                         normalization at construction
====  =============================  =========================================
M     simple module M_{r,s}          none
P     projective cover P_{r,s}       P(r, p) -> M(r, p)
F     Fock module F_{alpha_{r,s}}    F(r, p) -> M(r, p)
FJ    Jordan Fock module F^{(n)}     s = p required; n = 1 -> M(r, p)
====  =============================  =========================================

Two labels are equal exactly when their normal forms are equal, so the
aliases ``P_{r,p} = F_{alpha_{r,p}} = M_{r,p}`` hold on the nose.  The
builders :func:`simple`, :func:`projective`, :func:`fock`, :func:`jordan_fock`
and :func:`normalize` are each one call to one private rule.  It raises
``TypeError`` for an index whose type is not exactly ``int`` and
``ValueError`` for any other label the table does not allow (``n != 1`` on
``M``, ``P`` or ``F`` too), and repairs nothing.  Every other public function
rejects a label not in normal form (one built with :class:`Indecomposable`
directly) with a :class:`NotNormalForm`, or a ``TypeError`` for an index that
is not exactly ``int``.  Each fusion route shifts its ``r = 1`` products
itself and checks nothing per term: it only ever sees terms built from
labels its entry point has already checked.

Each module is described by its composition factors
(:func:`composition_factors`, of a label or of a formal sum) and, for
``M``, ``P`` and ``F``, its Loewy layers (:func:`loewy`, a tuple of sums,
top first).  The module also holds the Grothendieck ring of
composition-factor classes, as the injective ring map
:func:`grothendieck_class` into Laurent polynomials, read off the
composition factors.
:func:`label_window` lists every ``M`` and ``P`` label with
``rmin <= r <= rmax``: the window ``cli`` ``table`` tabulates and the
``verify`` suites walk.  Both cap it by :data:`MAX_FUSION_PAIRS`, counted
by ``_window_size`` before any label is built.
Both fusion routes import this module, so it imports neither of them; each
keeps its own ``_Memo``, the first-in, first-out memo bounded by labels
held that is defined here.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from threading import Lock
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Sized, Tuple, Union

from .labels import Params, _check_ints, _check_s, alpha_coordinate

__all__ = [
    "SIMPLE",
    "PROJECTIVE",
    "FOCK",
    "JORDAN_FOCK",
    "Indecomposable",
    "FormalSum",
    "UnsupportedOperation",
    "UnsupportedFusion",
    "NotNormalForm",
    "simple",
    "projective",
    "fock",
    "jordan_fock",
    "normalize",
    "label_window",
    "composition_factors",
    "grothendieck_class",
    "loewy",
    "dual",
    "jordan_fock_matrices",
    "RationalMatrix",
]

SIMPLE = "M"
PROJECTIVE = "P"
FOCK = "F"
JORDAN_FOCK = "FJ"


class UnsupportedOperation(ValueError):
    """Raised when an operation is not defined for a label kind."""


class UnsupportedFusion(ValueError):
    """Raised for products the catalog does not define (e.g. ``F x F``)."""


class NotNormalForm(ValueError):
    """Raised when an entry point other than a builder gets a label not in normal form."""


class Indecomposable(NamedTuple):
    """An indecomposable module label.  ``n`` is the Jordan size (FJ only)."""

    kind: str
    r: int
    s: int
    n: int = 1

    def __str__(self) -> str:
        if self.kind == JORDAN_FOCK:
            return f"{self.kind}:{self.r},{self.s},{self.n}"
        return f"{self.kind}:{self.r},{self.s}"


def _label(params: Params, kind: str, r: int, s: int, n: int = 1) -> Indecomposable:
    """The normal form of ``(kind, r, s, n)``, the one statement of the rule.

    Every index is an exact ``int``; ``M``, ``P`` and ``F`` take ``1 <= s <= p``
    and ``n = 1``, ``FJ`` takes ``s = p`` and ``n >= 1``.  The aliases
    ``P_{r,p}``, ``F_{r,p}`` and ``F^{(1)}`` become ``M_{r,p}``; anything else raises.
    """
    if not (type(r) is type(s) is type(n) is int):
        _check_ints("label index", r, s, n)
    p = params.p
    if kind == JORDAN_FOCK:
        if s != p:
            raise ValueError(f"Jordan Fock labels require s = p, got s={s}")
        if n < 1:
            raise ValueError(f"Jordan size must be >= 1, got {n}")
        if n == 1:
            kind = SIMPLE
    elif kind == SIMPLE or kind == PROJECTIVE or kind == FOCK:
        if not 1 <= s <= p:
            _check_s(params, s)
        if n != 1:
            raise ValueError(f"{kind} labels take no Jordan size, got n={n}")
        if s == p:
            kind = SIMPLE
    else:
        raise ValueError(f"unknown label kind {kind!r}")
    return tuple.__new__(Indecomposable, (kind, r, s, n))  # skips the Python-level __new__


def simple(params: Params, r: int, s: int) -> Indecomposable:
    """The simple module ``M_{r,s}``, ``1 <= s <= p``."""
    return _label(params, SIMPLE, r, s)


def projective(params: Params, r: int, s: int) -> Indecomposable:
    """The projective cover ``P_{r,s}``; ``P_{r,p}`` normalizes to ``M_{r,p}``."""
    return _label(params, PROJECTIVE, r, s)


def fock(params: Params, r: int, s: int) -> Indecomposable:
    """The Fock module ``F_{alpha_{r,s}}``; ``F(r, p)`` normalizes to ``M_{r,p}``."""
    return _label(params, FOCK, r, s)


def jordan_fock(params: Params, r: int, n: int) -> Indecomposable:
    """The rank-``n`` Jordan Fock module ``F^{(n)}`` at ``s = p``; ``n = 1`` is ``M_{r,p}``."""
    return _label(params, JORDAN_FOCK, r, params.p, n)


def normalize(params: Params, x: Indecomposable) -> Indecomposable:
    """Normal form of a label by the builders' rule; idempotent, and it
    raises for any label no builder makes (``n != 1`` on ``M``, ``P`` or ``F`` too)."""
    return _label(params, *x)


#: Most items one ``verify`` suite walks at one p (``verify._check_window``
#: says which), and most rows ``cli`` ``table`` builds (one per ordered pair).
#: Unbounded, the fusion suite's ``((2 rwin + 1)(2p - 1))^2`` ordered pairs
#: would exhaust memory (4.8e8 at p = 6, ``--rwin 1000``); the triplet suite's
#: ``(2p + 2)^2`` W/R label pairs, whatever ``rwin`` is, take time about as
#: p^2.7 (17 s at p = 80); the window's ``(2 rwin + 1)(2p - 1)`` labels would
#: run for days (``labels`` took 2.4 s at p = 6, ``--rwin 2000``).  At p = 6,
#: 245 025 table rows took 2.1-3.0 s of CPU and 16 MB peak RSS as TSV, which
#: streams its rows, and 2.2-3.7 s and 53 MB as JSON, which holds each row's
#: text (closed engine, six runs each, CPython 3.11, pinned to one core of a
#: shared 2-CPU Xeon host).  The largest benchmarked window has 3 025 pairs,
#: the largest benchmarked table 9 801 rows.
MAX_FUSION_PAIRS = 250_000


def _window_size(params: Params, rmin: int, rmax: int) -> int:
    """How many labels :func:`label_window` lists, counted without building one."""
    return max(rmax - rmin + 1, 0) * (2 * params.p - 1)


def label_window(params: Params, rmin: int, rmax: int) -> List[Indecomposable]:
    """Every simple label, then every projective label, with ``rmin <= r <= rmax``.

    Each kind is listed by ``r``, then ``s``, so the list is sorted in
    :class:`Indecomposable` order (``M`` before ``P``, then ``r``, then ``s``).
    """
    _check_ints("window bound", rmin, rmax)
    rs = range(rmin, rmax + 1)
    return [simple(params, r, s) for r in rs for s in range(1, params.p + 1)] + [
        projective(params, r, s) for r in rs for s in range(1, params.p)
    ]


_KINDS = (SIMPLE, PROJECTIVE, FOCK, JORDAN_FOCK)


def _is_normal(p: int, kind: str, s: int, n: int) -> bool:
    """Whether the label ``(kind, r, s, n)`` is in normal form; ``r`` never matters."""
    if kind == SIMPLE:
        return n == 1 and 1 <= s <= p
    if kind == PROJECTIVE or kind == FOCK:
        return n == 1 and 1 <= s <= p - 1
    return kind == JORDAN_FOCK and s == p and n >= 2


def _check_normal_form(params: Params, x: Indecomposable, what: str) -> None:
    """Raise :class:`NotNormalForm` for a label not in normal form.

    ``what`` names the caller.  The message names an unknown kind, an ``M``
    label with ``s`` outside ``1..p``, or else the unnormalized label.  An
    index whose type is not exactly ``int`` raises ``TypeError`` first.
    """
    kind, r, s, n = x
    if type(r) is type(s) is type(n) is int and _is_normal(params.p, kind, s, n):
        return
    _check_ints("label index", r, s, n)
    if kind not in _KINDS:
        raise NotNormalForm(f"unknown label kind {kind!r}")
    if kind == SIMPLE and n == 1:
        raise NotNormalForm(f"module label needs 1 <= s <= {params.p}, got s={s}")
    if kind in (PROJECTIVE, FOCK) and n == 1:
        name = "projective" if kind == PROJECTIVE else "Fock module"
        raise NotNormalForm(f"{what} got an unnormalized {name} {x}")
    raise NotNormalForm(f"{what} got an unnormalized label {x!r}")


# ---------------------------------------------------------------------------
# Formal sums
# ---------------------------------------------------------------------------

_TermsArg = Union[Mapping[object, int], Iterable[Tuple[object, int]]]


class FormalSum:
    """A finite multiset of labels with positive integer multiplicities.

    This is the value type of every fusion product: a Krull-Schmidt
    decomposition recorded as its sorted ``(label, multiplicity)`` pairs,
    one per distinct label.  That tuple is the whole value; equality,
    hashing, iteration and lookup all read it, and iterating a sum gives
    those pairs.  Sums are immutable and hashable; :meth:`combine` adds and
    scales them.  The empty sum ``FormalSum()`` is the zero object and is
    falsy.

    Any orderable, hashable label type works; singlet sums hold
    :class:`Indecomposable`, triplet sums hold ``TripletIndec``.
    """

    __slots__ = ("_key",)

    def __init__(self, terms: _TermsArg = ()) -> None:
        acc: Dict[object, int] = {}
        # the exact-type test spares plain dicts the slow ABC check
        if type(terms) is dict or isinstance(terms, Mapping):
            terms = terms.items()
        for label, mult in terms:
            if type(mult) is not int:  # refuses bool and float too
                raise TypeError(f"multiplicity {mult!r} of {label} is not an int")
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {label}")
            if mult:
                acc[label] = acc.get(label, 0) + mult
        self._key = tuple(sorted(acc.items()))

    @classmethod
    def _from_sorted(cls, key: Tuple[Tuple[object, int], ...]) -> "FormalSum":
        """A sum from pairs already as iteration gives them: sorted, distinct
        labels, positive int multiplicities.  Nothing is checked or sorted."""
        x = cls.__new__(cls)
        x._key = key
        return x

    @classmethod
    def of(cls, *labels: object) -> "FormalSum":
        """Sum of the given labels, each with multiplicity one (repeats add)."""
        return cls((lab, 1) for lab in labels)

    @classmethod
    def combine(cls, scaled: Iterable[Tuple[int, "FormalSum"]]) -> "FormalSum":
        """``sum(k * x for k, x in scaled)``, accumulated in one dict: the one
        way to add and scale sums, checked as the constructor checks.  A scale
        ``k`` whose type is not exactly ``int`` (``bool`` too) raises ``TypeError``."""
        acc: Dict[object, int] = {}
        for k, x in scaled:
            if type(k) is not int:
                raise TypeError(f"scale {k!r} is not an int")
            for label, mult in x._key:
                acc[label] = acc.get(label, 0) + k * mult
        return cls(acc)

    def multiplicity(self, label: object) -> int:
        """Multiplicity of ``label``; 0 for any label not in the sum."""
        for lab, mult in self._key:
            if lab == label:
                return mult
        return 0

    def total(self) -> int:
        """Total multiplicity (number of indecomposable summands)."""
        return sum(mult for _, mult in self._key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __iter__(self) -> Iterator[Tuple[object, int]]:
        return iter(self._key)

    def __len__(self) -> int:
        return len(self._key)

    def __str__(self) -> str:
        if not self._key:
            return "0"
        parts = []
        for lab, mult in self._key:
            parts.append(str(lab) if mult == 1 else f"{mult}*{lab}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"FormalSum({self._key!r})"


#: Labels one memo may hold, and the room ``verify.fusion_suite`` keeps ring
#: images for: a sum or a column counts its terms, an oracle block its
#: singular rows, an oracle chain's frontier 3.  It is about twice the most a
#: benchmark session holds, so no workload evicts: with fresh memos, 267
#: (``table-both``), 553 (``verify-all``) and 4 186 (``large-p``, seeds 1 and
#: 424 242, sessions 0-99) labels of closed-form templates, and 215, 509 and
#: 3 851 of oracle blocks, columns and frontiers.
#: The exhaustive fusion suite reads most values once: its closed-form
#: templates hold 9 325 labels at p = 20 and 73 350 at p = 40, and the
#: columns of one left factor's chain, read before the next chain's, under
#: p^2 / 2.  There the budget, not p, bounds the memos.  A value larger than
#: the budget (a ``P x P`` template at p = 100 000 has 150 000) is not kept
#: and evicts nothing.
_LABELS = 1 << 13


class _Memo:
    """A first-in, first-out memo bounded by the labels its values hold.

    ``entries`` maps each key to its value, oldest first, and ``labels`` is
    the sum of their ``len``.  A read reorders nothing and a kept value never
    changes, so ``get``, the dict's own bound ``get`` (``None`` when absent),
    takes no lock and costs one C call; :meth:`put` runs under the lock,
    which serializes every write and the tally.
    """

    def __init__(self) -> None:
        self.entries: Dict[tuple, Any] = {}
        self.get = self.entries.get
        self.labels = 0
        self.lock = Lock()

    def put(self, key: tuple, value: Sized) -> None:
        """Keep ``value`` under ``key`` as the newest entry, and evict the
        oldest while more than ``_LABELS`` labels are held.  A value that
        alone holds more is not kept and evicts nothing."""
        with self.lock:
            entries = self.entries
            self.labels -= len(entries.pop(key, ()))
            labels = len(value)
            if labels > _LABELS:
                return
            entries[key] = value
            self.labels += labels
            while self.labels > _LABELS:
                self.labels -= len(entries.pop(next(iter(entries))))


# ---------------------------------------------------------------------------
# Structural data
# ---------------------------------------------------------------------------


def _factor_pairs(
    params: Params, x: Indecomposable
) -> Tuple[Tuple[Indecomposable, int], ...]:
    """``(simple, multiplicity)`` pairs of the composition series of ``x``.

    The caller checks ``x`` with :func:`_check_normal_form`, so every factor
    is a valid simple as built, without the Python-level ``__new__``.
    """
    kind, r, s, n = x
    if kind == SIMPLE:
        return ((x, 1),)
    new, p = tuple.__new__, params.p
    if kind == FOCK:
        return (
            (new(Indecomposable, (SIMPLE, r, s, 1)), 1),
            (new(Indecomposable, (SIMPLE, r + 1, p - s, 1)), 1),
        )
    if kind == PROJECTIVE:
        return (
            (new(Indecomposable, (SIMPLE, r, s, 1)), 2),
            (new(Indecomposable, (SIMPLE, r - 1, p - s, 1)), 1),
            (new(Indecomposable, (SIMPLE, r + 1, p - s, 1)), 1),
        )
    return ((new(Indecomposable, (SIMPLE, r, s, 1)), n),)  # JORDAN_FOCK


_SumLike = Union[FormalSum, Indecomposable]


def _pairs(x: _SumLike) -> Iterable[Tuple[Indecomposable, int]]:
    """``(label, multiplicity)`` pairs of a sum, or of one label."""
    return ((x, 1),) if isinstance(x, Indecomposable) else x


def _flat(params: Params, x: _SumLike) -> Dict[Indecomposable, int]:
    acc: Dict[Indecomposable, int] = {}
    for label, m in _pairs(x):
        _check_normal_form(params, label, "composition_factors")
        for y, k in _factor_pairs(params, label):
            acc[y] = acc.get(y, 0) + m * k
    return acc


def composition_factors(params: Params, x: _SumLike) -> FormalSum:
    """Multiset of simple composition factors of a label in normal form, or
    of a formal sum of such labels (extended linearly).

    * ``M_{r,s}``: itself.
    * ``F_{alpha_{r,s}}``, ``s <= p-1``: ``M_{r,s} + M_{r+1,p-s}`` from the
      non-split sequence ``0 -> M_{r,s} -> F -> M_{r+1,p-s} -> 0``.
    * ``P_{r,s}``, ``s <= p-1``: ``2 M_{r,s} + M_{r-1,p-s} + M_{r+1,p-s}``.
    * ``F^{(n)}``: ``n`` copies of ``M_{r,p}``, by induction on the
      self-extension ``0 -> F^{(n-1)} -> F^{(n)} -> F -> 0``.
    """
    return FormalSum(_flat(params, x))


def grothendieck_class(params: Params, x: _SumLike) -> Dict[int, int]:
    """``D(x) = (w - w^{-1}) [x]``, the class of a label in normal form or of
    a formal sum of such labels, as a sparse ``{exponent: coefficient}``
    Laurent polynomial in ``w`` with no zero coefficients.

    Fusion is bi-exact, so ``D(a) D(b) = (w - w^{-1}) D(fuse(a, b))``; the
    verification suite checks that, and ``D`` reads neither fusion route.
    ``[M_{r,s}] -> w^{p(r-1)} (w^s - w^{-s})/(w - w^{-1})`` is a ring map: it
    sends ``x = [M_{2,1}]`` to ``w^p`` and ``y = [M_{1,2}]`` to ``w + w^{-1}``,
    where the relation ``U_p(y) - U_{p-2}(y) = x + x^{-1}`` of the ring's
    Chebyshev presentation holds.  So each composition factor ``M_{r,s}``
    adds ``w^{A+s} - w^{A-s}``, ``A = p(r-1)``, which gives

    * ``P_{r,s}``: ``w^{A+s} - w^{A-s} + w^{A+2p-s} - w^{A-2p+s}``;
    * ``F_{alpha_{r,s}}``: ``w^{pr-s} (w^p - w^{-p})``;
    * ``F^{(n)}``: ``n D(M_{r,p})``.

    ``D`` is injective: ``D(M_{r,s})`` has top degree ``p(r-1) + s`` with
    coefficient 1, distinct for ``1 <= s <= p``, so the top term of the
    highest such simple in a nonzero class survives.
    """
    p = params.p
    acc: Dict[int, int] = {}
    for y, m in _flat(params, x).items():
        a = p * (y.r - 1)
        acc[a + y.s] = acc.get(a + y.s, 0) + m
        acc[a - y.s] = acc.get(a - y.s, 0) - m
    return {e: c for e, c in acc.items() if c}


def loewy(params: Params, x: Indecomposable) -> Tuple[FormalSum, ...]:
    """Loewy layers of ``M``, ``P`` or ``F`` labels: formal sums of simples,
    top first and socle last.

    Each factor of a layer extends each factor of the next, so the layers
    are the whole diagram, and together they are the composition factors.

    * simples: one layer;
    * ``F_{alpha_{r,s}}``: layers ``[M_{r+1,p-s}], [M_{r,s}]``;
    * ``P_{r,s}``: layers ``[M_{r,s}], [M_{r-1,p-s} + M_{r+1,p-s}], [M_{r,s}]``,
      a diamond.

    Jordan Fock labels are rejected: their full socle filtration is not part
    of the catalog.  So is a label not in normal form.
    """
    _check_normal_form(params, x, "loewy")
    p = params.p
    if x.kind == SIMPLE:
        return (FormalSum.of(x),)
    if x.kind == FOCK:
        sub = simple(params, x.r, x.s)
        quo = simple(params, x.r + 1, p - x.s)
        return FormalSum.of(quo), FormalSum.of(sub)
    if x.kind == PROJECTIVE:
        top = simple(params, x.r, x.s)
        left = simple(params, x.r - 1, p - x.s)
        right = simple(params, x.r + 1, p - x.s)
        return FormalSum.of(top), FormalSum.of(left, right), FormalSum.of(top)
    raise UnsupportedOperation(f"no Loewy data for {x}")


def dual(params: Params, x: Indecomposable) -> Indecomposable:
    """Contragredient dual: ``M_{r,s} -> M_{2-r,s}`` and ``P_{r,s} -> P_{2-r,s}``.

    An involution that preserves the kind and ``s`` and fixes exactly the
    labels with ``r = 1``.  Duals of Fock and Jordan Fock modules are not in
    the catalog and are rejected, as is a label not in normal form.
    """
    _check_normal_form(params, x, "dual")
    if x.kind == SIMPLE:
        return simple(params, 2 - x.r, x.s)
    if x.kind == PROJECTIVE:
        return projective(params, 2 - x.r, x.s)
    raise UnsupportedOperation(f"no dual data for {x}")


# ---------------------------------------------------------------------------
# Jordan Fock matrices (exact rational linear algebra)
# ---------------------------------------------------------------------------

RationalMatrix = Tuple[Tuple[Fraction, ...], ...]

#: ``jordan_fock_matrices`` refuses ``n`` above this: it builds three ``n x n``
#: matrices, so its cost grows as ``n^2`` (n = 400 took 0.76 s and 41 MB at
#: p = 3).  At the bound a call takes about 0.004 s at p = 3 and 0.5 s at
#: p = 1 000, under 16 MB peak RSS (CPython 3.11, one pinned core of a shared
#: 2-CPU Xeon host).
_JORDAN_MAX_N = 32

#: ``jordan_fock_matrices`` also refuses ``n^2 p`` above this, since its cost
#: grows steeply with p too (n = 64 took 97 s at p = 8 000).  The bound admits
#: n = 3 up to p = 125 000, the catalog suite's label cap, and n = 32 up to
#: p = 1 098.  At the bound, n = 3 and p = 125 000 took 5.0-5.2 s and n = 32
#: and p = 1 098 took 0.6 s, each under 16 MB peak RSS (CPython 3.11, one
#: pinned core of the same host).
_JORDAN_MAX_WORK = 9 * 125_000


def _toeplitz(coeffs: Sequence[Fraction]) -> RationalMatrix:
    """The matrix of ``sum_d coeffs[d] N^d``, ``N`` the ``len(coeffs)``-square
    unit-superdiagonal nilpotent: upper-triangular Toeplitz."""
    n = len(coeffs)
    return tuple(
        tuple(Fraction(coeffs[j - i] if j >= i else 0) for j in range(n)) for i in range(n)
    )


def _times_linear(c: List[int], a0: int) -> List[int]:
    """``c (a0 + 2N)`` for a polynomial ``c`` in ``N``, truncated at ``N^len(c) = 0``."""
    return [a0 * c[0]] + [a0 * c[d] + 2 * c[d - 1] for d in range(1, len(c))]


def _binomial(k: int, m: int, n: int) -> List[Fraction]:
    """``binom(k + 2N, m)`` as its ``n`` coefficients in ``N``, with ``N^n = 0``.

    A balanced product tree of the ``m`` linear factors ``k - j + 2N``.  Up to
    256 factors they are multiplied in one at a time over the integers and
    divided by ``m!``.  Above that the factors split in half by
    ``binom(x, h) binom(x - h, m - h) = binom(m, h) binom(x, m)``, so each
    node's fractions are reduced at about the size of its own answer: at
    ``m = 31 999`` no numerator or denominator of the top one has more than
    about 104 000 bits, where ``m!`` has 433 000, and gcds against ``m!``
    would cost most of the time.
    Cost: ``m`` small-integer steps in the leaves, and ``O(n^2)`` fraction
    operations at each of the ``O(m / 256)`` nodes above them, the top
    split dominating.
    """
    if m <= 256:
        c = [1] + [0] * (n - 1)
        for j in range(m):
            c = _times_linear(c, k - j)
        fact = math.factorial(m)
        return [Fraction(x, fact) for x in c]
    h = m // 2
    left, right, b = _binomial(k, h, n), _binomial(k - h, m - h, n), math.comb(m, h)
    return [sum(left[i] * right[d - i] for i in range(d + 1)) / b for d in range(n)]


def jordan_fock_matrices(
    params: Params, r: int, n: int
) -> Tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    """Top-level action matrices ``(A, L0, H0)`` on the Jordan Fock module ``F^{(n)}``.

    ``A`` is the zero-mode of the lattice generator on the ``n``-dimensional
    lowest weight space: a single Jordan block with eigenvalue
    ``k = alpha_coordinate(r, p)``.  The block is stored in the basis that
    clears the ``sqrt(2p)`` lattice normalization, which makes every entry
    rational and puts ``2`` on the superdiagonal (``sqrt(2p) * sqrt(2/p) = 2``,
    the spacing of the screening direction), so ``A = k Id + 2N`` with
    ``N = (A - k Id)/2`` the unit-superdiagonal nilpotent.  Then

        ``L0 = A^2/(4p) - (p-1)/(2p) A``       (Virasoro zero-mode)
        ``H0 = binom(A, 2p-1)``                (zero-mode of the weight-(2p-1)
                                                generator)

    are exact rational matrices.  Each of the three is a polynomial in ``N``,
    so it is upper-triangular Toeplitz and its row 0 holds its coefficients in
    ``N``; in particular ``L0`` and ``H0`` commute.  Expanding ``L0`` about
    ``k = p(2-r) - 1`` gives, for every ``r``, exactly

        ``L0 = h_{r,p} Id + (1-r) N + N^2/p``.

    For ``r != 1``, ``L0`` has a regular (rank ``n-1``) nilpotent part, so it
    acts indecomposably on its own.  For ``r = 1`` the eigenvalue sits at the
    critical point of the weight function, the linear term drops out, and
    ``L0 - h_{1,p} Id = N^2/p`` (zero for ``n = 2``, but nonzero of rank
    ``n-2`` for ``n >= 3``); there ``H0`` is the nilpotent nonzero matrix that
    witnesses indecomposability.

    Requires ``2 <= n <= _JORDAN_MAX_N`` and ``n^2 p <= _JORDAN_MAX_WORK``.
    Cost: ``n^2`` entries of ``O(p log p)`` bits; ``H0`` comes from
    :func:`_binomial`, and one call with ``n = 3`` takes about 0.1 s at
    ``p = 8 000`` and 0.2 s at ``p = 16 000`` (CPython 3.11, one core of a
    shared 2-CPU Xeon host).
    """
    _check_ints("label index", r, n)
    if n < 2:
        raise ValueError(f"Jordan Fock matrices need n >= 2, got {n}")
    if n > _JORDAN_MAX_N:
        raise ValueError(
            f"jordan_fock_matrices needs n <= {_JORDAN_MAX_N}, got n={n}: "
            "three n x n rational matrices"
        )
    p = params.p
    if n * n * p > _JORDAN_MAX_WORK:
        raise ValueError(
            f"jordan_fock_matrices needs n^2 p <= {_JORDAN_MAX_WORK}, got n={n}, p={p}: "
            "n^2 entries of O(p log p) bits"
        )
    k = alpha_coordinate(params, r, p)
    # A and A^2 as integer polynomials in N, with N^n = 0
    a = [k, 2] + [0] * (n - 2)
    l0 = [Fraction(x, 4 * p) - Fraction((p - 1) * y, 2 * p) for x, y in zip(_times_linear(a, k), a)]
    return _toeplitz(a), _toeplitz(l0), _toeplitz(_binomial(k, 2 * p - 1, n))
