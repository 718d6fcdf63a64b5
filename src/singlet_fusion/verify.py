"""Re-runnable verification suites behind ``singlet-fusion verify``.

Every suite is ``suite(params, rwin)``: it replays the defining identities
of one layer of the package and returns ``(checks, failures)`` where
``failures`` is a list of human-readable messages (empty on success).  Each
suite first calls :func:`_check_window`, so a direct call refuses the same
requests as :func:`run_suites`, before anything is built.  The suites are
deterministic and pure.  :data:`SUITES` is the registry :func:`run_suites`
dispatches through.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from . import bpz, catalog, fusion_closed, fusion_oracle, triplet
from .catalog import FormalSum, _window_size
from .labels import (
    Params,
    _check_ints,
    alpha_coordinate,
    fock_weight,
    lowest_weight_of_simple,
    rbar,
    weight,
    weight_coset_diff,
)

__all__ = [
    "SUITES",
    "run_suites",
    "fusion_suite",
    "triplet_suite",
    "bpz_suite",
    "catalog_suite",
    "labels_suite",
]

Result = Tuple[int, List[str]]

#: Largest p the bpz suite runs at.  Its residuals multiply f'' by p, so the
#: float rounding in f'' shows in them as about 3e-16 p: 4.4e-9 at p = 10^7.
#: A sweep of every 1 250th p from 10^6 first fails a 1e-8 gate at
#: p = 19 268 750.
_BPZ_MAX_P = 10_000_000


class _Recorder:
    def __init__(self) -> None:
        self.checks = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: Callable[[], str]) -> None:
        """Count one check; ``message()`` builds its text only on failure."""
        self.checks += 1
        if not ok:
            self.failures.append(message())

    def result(self) -> Result:
        return self.checks, self.failures


def _check_window(params: Params, rwin: int, suite: str) -> None:
    """Reject a non-``int`` or negative ``rwin``, and any ``suite`` over
    ``catalog.MAX_FUSION_PAIRS``, before any label is built: ``fusion`` counts ordered label
    pairs, ``triplet`` its W/R label pairs and then labels, ``catalog`` and ``labels``
    labels.  ``bpz`` refuses any p above ``_BPZ_MAX_P`` before any series is built."""
    _check_ints("rwin", rwin)
    if rwin < 0:
        raise ValueError(f"rwin must be >= 0 (verify --rwin), got {rwin}")
    p = params.p
    if suite == "bpz":
        if p > _BPZ_MAX_P:
            raise ValueError(
                f"bpz suite needs p <= {_BPZ_MAX_P}, got p={p}: above that, float "
                "rounding in its residuals reaches the 1e-8 gates"
            )
        return
    cap = catalog.MAX_FUSION_PAIRS
    if suite == "triplet" and (2 * p + 2) ** 2 > cap:
        raise ValueError(
            f"triplet suite at p={p} has {(2 * p + 2) ** 2} W/R label pairs, "
            f"more than {cap}, for any --rwin"
        )
    labels = _window_size(params, -rwin, rwin)
    if suite == "fusion" and labels * labels > cap:
        raise ValueError(
            f"fusion window at p={p}, rwin={rwin} has {labels * labels} ordered pairs, "
            f"more than {cap}; narrow --rwin"
        )
    if labels > cap:
        raise ValueError(
            f"label window at p={p}, rwin={rwin} has {labels} labels, "
            f"more than {cap}; narrow --rwin"
        )


def _laurent_product(f: Dict[int, int], g: Dict[int, int]) -> Dict[int, int]:
    """Product of sparse ``{exponent: coefficient}`` Laurent polynomials, zeros dropped."""
    acc: Dict[int, int] = {}
    for i, a in f.items():
        for j, b in g.items():
            acc[i + j] = acc.get(i + j, 0) + a * b
    return {e: c for e, c in acc.items() if c}


def _ring_image(
    params: Params, ab: FormalSum, classes: Dict[catalog.Indecomposable, Dict[int, int]]
) -> Dict[int, int]:
    """``(w - w^{-1}) D(ab)``, summed as ``m (w - w^{-1}) D(label)`` over the terms of ``ab``.

    ``classes`` memoizes ``D(label)``; a label not in it yet is read from
    :func:`.catalog.grothendieck_class` and added.  ``D`` is linear, so this
    equals ``(w - w^{-1}) D(ab)`` read off the whole sum at once.
    """
    acc: Dict[int, int] = {}
    for label, m in ab:
        d = classes.get(label)
        if d is None:
            d = classes[label] = catalog.grothendieck_class(params, label)
        for e, c in d.items():
            acc[e + 1] = acc.get(e + 1, 0) + m * c
            acc[e - 1] = acc.get(e - 1, 0) - m * c
    return {e: c for e, c in acc.items() if c}


def fusion_suite(params: Params, rwin: int) -> Result:
    """Oracle equivalence plus the ring identities on a label window.

    One walk over every ordered pair of the window checks commutativity,
    Grothendieck consistency (``D(a) D(b) = (w - w^{-1}) D(fuse(a, b))``,
    with ``D`` :func:`.catalog.grothendieck_class`) and, except for
    ``M x P`` (which the oracle reads as ``P x M``), agreement with the oracle.
    ``D`` is read once per distinct label per call, from a dict local to the
    call that starts with the window and gains each answer label as it first
    appears; the right side is ``sum m (w - w^{-1}) D(label)`` over the answer.
    """
    _check_window(params, rwin, "fusion")
    rec = _Recorder()
    labels = catalog.label_window(params, -rwin, rwin)
    classes = {x: catalog.grothendieck_class(params, x) for x in labels}

    unit = catalog.simple(params, 1, 1)
    for x in labels:
        rec.check(
            fusion_closed.fuse(params, unit, x) == FormalSum.of(x),
            lambda: f"unit failure at {x}",
        )
    for a in labels:
        for b in labels:
            ab = fusion_closed.fuse(params, a, b)
            rec.check(
                ab == fusion_closed.fuse(params, b, a),
                lambda: f"commutativity failure at {a} x {b}",
            )
            rec.check(
                _laurent_product(classes[a], classes[b]) == _ring_image(params, ab, classes),
                lambda: f"Grothendieck consistency failure at {a} x {b}",
            )
            if a.kind == catalog.SIMPLE and b.kind == catalog.PROJECTIVE:
                continue
            oracle = fusion_oracle.oracle_fuse(params, a, b)
            rec.check(
                ab == oracle,
                lambda: f"oracle mismatch at {a} x {b}: closed {ab} vs oracle {oracle}",
            )
    for a in (x for x in labels if x.kind == catalog.SIMPLE):
        d = catalog.dual(params, a)
        product = fusion_closed.fuse(params, a, d)
        expected = unit if a.s < params.p else catalog.projective(params, 1, 1)
        rec.check(
            product.multiplicity(expected) == 1,
            lambda: f"duality multiplicity failure at {a}: {product}",
        )
    for r in range(-rwin, rwin + 1):
        rec.check(
            fusion_closed.fuse(
                params, catalog.simple(params, r, 1), catalog.simple(params, 2 - r, 1)
            )
            == FormalSum.of(unit),
            lambda: f"simple-current invertibility failure at r={r}",
        )
    return rec.result()


def triplet_suite(params: Params, rwin: int) -> Result:
    """Generator agreement, preimage independence, exactness bookkeeping."""
    _check_window(params, rwin, "triplet")
    rec = _Recorder()
    p = params.p
    w21 = triplet.simple_w(params, 2, 1)
    w12 = triplet.simple_w(params, 1, 2)
    for rb in (1, 2):
        for s in range(1, p + 1):
            x = triplet.simple_w(params, rb, s)
            for g in (w21, w12):
                rec.check(
                    triplet.derived_triplet_fuse(params, g, x)
                    == triplet.triplet_fuse_generator(params, g, x),
                    lambda: f"generator agreement failure at {g} x {x}",
                )
    labels = [
        triplet.simple_w(params, rb, s) for rb in (1, 2) for s in range(1, p + 1)
    ] + [triplet.projective_r(params, rb, p - 1) for rb in (1, 2)]
    for a in labels:
        for b in labels:
            base = triplet.derived_triplet_fuse(params, a, b)
            for sa in (-2, 0, 2):
                for sb in (-2, 0, 2):
                    rec.check(
                        triplet.derived_triplet_fuse(params, a, b, sa, sb) == base,
                        lambda: (
                            f"preimage dependence at {a} x {b} with shifts {(sa, sb)}"
                        ),
                    )
    for r in range(-rwin, rwin + 1):
        induced = triplet.induce_sum(
            params,
            catalog.composition_factors(params, catalog.projective(params, r, p - 1)),
        )
        target = triplet.composition_factors(
            params, triplet.projective_r(params, rbar(r), p - 1)
        )
        rec.check(
            induced == target,
            lambda: f"exactness bookkeeping failure at r={r}: {induced} vs {target}",
        )
    return rec.result()


def _max_gap(a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]) -> float:
    """Largest entrywise ``|a - b|`` of two 2x2 matrices; NaN if any gap is NaN."""
    gaps = [abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)]
    return math.nan if any(map(math.isnan, gaps)) else max(gaps)


def bpz_suite(params: Params, rwin: int) -> Result:
    """Residual, connection, and rigidity checks at one p; ``rwin`` is checked, not used."""
    _check_window(params, rwin, "bpz")
    rec = _Recorder()
    phi1, phi2 = bpz.phi_basis(params)
    psi1, psi2 = bpz.psi_basis(params)
    grid_phi = [0.05 + 0.05 * i for i in range(12)]  # (0.05, 0.6)
    grid_psi = [0.40 + 0.05 * i for i in range(12)]  # (0.4, 0.95)
    for f, grid, name in (
        (phi1, grid_phi, "phi1"),
        (phi2, grid_phi, "phi2"),
        (psi1, grid_psi, "psi1"),
        (psi2, grid_psi, "psi2"),
    ):
        for x in grid:
            r, rh = (abs(v) for v in bpz.residuals(params, f, x))
            rec.check(r < 1e-8, lambda: f"{name} residual {r:.3e} at x={x}")
            rec.check(
                rh < 1e-8,
                lambda: f"{name} hypergeometric residual {rh:.3e} at x={x}",
            )
    closed = bpz.connection_closed(params).matrix
    numeric = bpz.connection_numeric(params).matrix
    diff = _max_gap(numeric, closed)
    rec.check(diff < 1e-8, lambda: f"connection numeric/closed gap {diff:.3e}")
    backward = bpz.connection_numeric(params, reverse=True).matrix
    roundtrip = [
        [row[0] * backward[0][j] + row[1] * backward[1][j] for j in (0, 1)]
        for row in numeric
    ]
    gap = _max_gap(roundtrip, [[1.0, 0.0], [0.0, 1.0]])
    rec.check(gap < 1e-7, lambda: f"roundtrip identity gap {gap:.3e}")
    rec.check(
        abs(bpz.rigidity_coefficient(params)) > 1e-10,
        lambda: "rigidity coefficient vanished",
    )
    return rec.result()


def _catalog_labels(params: Params, rwin: int) -> Iterator[catalog.Indecomposable]:
    """Every M, P and F label and one Jordan Fock label per r, built one at a time."""
    for r in range(-rwin, rwin + 1):
        for s in range(1, params.p + 1):
            yield catalog.simple(params, r, s)
            yield catalog.projective(params, r, s)
            yield catalog.fock(params, r, s)
        yield catalog.jordan_fock(params, r, 2)


def catalog_suite(params: Params, rwin: int) -> Result:
    """Normalization, Loewy flattening, duals, and Jordan Fock structure.

    The Jordan checks read the coefficients in ``N`` of ``L0`` and ``H0`` (row 0,
    see :func:`.catalog.jordan_fock_matrices`), first the exact identity
    ``L0 = h_{r,p} Id + (1 - r) N + N^2/p``."""
    _check_window(params, rwin, "catalog")
    rec = _Recorder()
    for x in _catalog_labels(params, rwin):
        rec.check(
            catalog.normalize(params, x) == x,
            lambda: f"normalization not idempotent at {x}",
        )
        if x.kind != catalog.JORDAN_FOCK:
            rec.check(
                FormalSum.combine((1, layer) for layer in catalog.loewy(params, x))
                == catalog.composition_factors(params, x),
                lambda: f"Loewy layers disagree with composition factors at {x}",
            )
        if x.kind in (catalog.SIMPLE, catalog.PROJECTIVE):
            d = catalog.dual(params, x)
            rec.check(
                catalog.dual(params, d) == x, lambda: f"dual not an involution at {x}"
            )
            rec.check(
                d.kind == x.kind and d.s == x.s,
                lambda: f"dual changed shape at {x}",
            )
            rec.check(
                (d == x) == (x.r == 1),
                lambda: f"dual fixed-point criterion failed at {x}",
            )
        if x.kind == catalog.PROJECTIVE:
            rec.check(
                catalog.composition_factors(params, x).total() == 4,
                lambda: f"projective length != 4 at {x}",
            )
    # Cost: these eight Jordan calls grow about as p^2.3 and dominate at large
    # p.  At p = 125 000, the largest p the label cap admits at rwin 0, the
    # suite took 50 s (49 s of it here) and 17.6 MB peak RSS (CPython 3.11, one
    # core of a shared 2-CPU Xeon host), so the label cap bounds this suite too
    p = params.p
    for r in (-1, 0, 1, 2):
        for n in (2, 3):
            # row 0 of a polynomial in N is its coefficient list
            l0, h0 = (m[0] for m in catalog.jordan_fock_matrices(params, r, n)[1:])
            rec.check(
                l0 == (weight(params, r, p), 1 - r, Fraction(1, p))[:n],
                lambda: f"L0 != h Id + (1-r) N + N^2/p at r={r}, n={n}: "
                f"row 0 is {tuple(map(str, l0))}",
            )
            if r != 1:
                rec.check(any(l0[1:]), lambda: f"L0 unexpectedly scalar at r={r}, n={n}")
            else:
                rec.check(
                    h0[0] == 0 and any(h0[1:]),
                    lambda: f"H0 not nilpotent nonzero at r=1, n={n}",
                )
                if n == 2:
                    rec.check(not any(l0[1:]), lambda: "L0 not scalar at r=1, n=2")
    return rec.result()


def labels_suite(params: Params, rwin: int) -> Result:
    """Weight identities: periodicity, Fock consistency, congruence, bound."""
    _check_window(params, rwin, "labels")
    rec = _Recorder()
    p = params.p
    for r in range(-rwin, rwin + 1):
        for s in range(1, 2 * p + 1):
            rec.check(
                alpha_coordinate(params, r + 1, s + p) == alpha_coordinate(params, r, s),
                lambda: f"alpha periodicity failure at ({r},{s})",
            )
        for s in range(1, p + 1):
            rec.check(
                fock_weight(params, alpha_coordinate(params, r, s))
                == weight(params, r, s),
                lambda: f"Fock/Kac weight mismatch at ({r},{s})",
            )
            wt = weight(params, r, s)
            rec.check(
                (4 * p) % wt.denominator == 0,
                lambda: f"weight denominator does not divide 4p at ({r},{s})",
            )
            rec.check(
                lowest_weight_of_simple(params, r, s) >= params.weight_lower_bound,
                lambda: f"weight lower bound violated at ({r},{s})",
            )
        for n in range(-3, 4):
            for s in range(2, p):
                got = weight_coset_diff(params, (r + 2 * n, s - 1), (r, s + 1))
                rec.check(
                    got == Fraction(s, p),
                    lambda: f"coset congruence failure at r={r}, n={n}, s={s}: {got}",
                )
    return rec.result()


#: Every suite, called as ``SUITES[name](params, rwin)``.
SUITES: Dict[str, Callable[[Params, int], Result]] = {
    "fusion": fusion_suite,
    "triplet": triplet_suite,
    "bpz": bpz_suite,
    "catalog": catalog_suite,
    "labels": labels_suite,
}


def run_suites(
    names: Sequence[str], p_values: Iterable[int], rwin: int
) -> Dict[str, Dict[int, Result]]:
    """Run several suites over several values of p, each p once.

    Repeated suite names and values of p are dropped, keeping the first of
    each.  An empty suite or p list, unknown suite names, a bad p, and every
    window any requested suite would reject are rejected before the first
    suite runs, so a bad request fails at once.
    """
    names = list(dict.fromkeys(names))
    if not names:
        raise ValueError("empty suite list")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    every_p = [Params(p) for p in dict.fromkeys(p_values)]
    if not every_p:
        raise ValueError("empty p list")
    for params in every_p:
        for name in names:
            _check_window(params, rwin, name)
    return {name: {params.p: SUITES[name](params, rwin) for params in every_p} for name in names}
