"""Acceptance suite: the package's exit criteria, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Every tolerance is pinned here; nothing is calibrated at
run time.  Criterion 9 asserts the exact Jordan Fock L0 structure that
``catalog.jordan_fock_matrices`` documents; the corrected dichotomy test next
to it checks the same matrices through indecomposability.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from singlet_fusion import bpz, catalog, fusion_closed, fusion_oracle, triplet, verify
from singlet_fusion.catalog import (
    FormalSum,
    dual,
    jordan_fock_matrices,
    projective,
    simple,
)
from singlet_fusion.labels import (
    Params,
    alpha_coordinate,
    fock_weight,
    lowest_weight_of_simple,
    weight,
    weight_coset_diff,
)


def _verdict(num: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def _window_labels(params, rmin, rmax, with_projectives=True):
    simples = [
        simple(params, r, s)
        for r in range(rmin, rmax + 1)
        for s in range(1, params.p + 1)
    ]
    if not with_projectives:
        return simples
    return simples + [
        projective(params, r, s)
        for r in range(rmin, rmax + 1)
        for s in range(1, params.p)
    ]


def _closed(params, a, b):
    return fusion_closed.fuse(params, a, b)


def test_criterion_01_oracle_equivalence():
    start = time.time()
    ok = True
    for p in (2, 3, 4, 5, 6):
        params = Params(p)
        labels = _window_labels(params, -3, 3)
        for a in labels:
            for b in labels:
                if _closed(params, a, b) != fusion_oracle.oracle_fuse(params, a, b):
                    ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _verdict(
        1, ok, f"closed forms == generator recursion, p=2..6, r in [-3,3] ({elapsed:.1f}s)"
    )


def test_criterion_02_generator_rules():
    ok = True
    for p in (2, 3, 4, 5, 6):
        params = Params(p)
        for r in range(-3, 4):
            for s in range(1, p + 1):
                x = simple(params, r, s)
                # shifts by M_{2,1} and the odd simple currents
                ok &= fusion_closed.fuse(
                    params, simple(params, 2, 1), x
                ) == FormalSum.of(simple(params, r + 1, s))
                for n in (-2, -1, 0, 1, 2):
                    ok &= fusion_closed.fuse(
                        params, simple(params, 2 * n + 1, 1), x
                    ) == FormalSum.of(simple(params, 2 * n + r, s))
                    ok &= fusion_closed.fuse(
                        params, simple(params, 2 * n + 1, 1), simple(params, 2 * r + 1, 1)
                    ) == FormalSum.of(simple(params, 2 * (n + r) + 1, 1))
                # every generator rule agrees with its closed form
                for g in (
                    simple(params, 2, 1),
                    simple(params, 1, 2),
                    simple(params, -1, 1),
                    simple(params, 3, 1),
                ):
                    ok &= fusion_oracle.oracle_fuse(
                        params, x, g
                    ) == fusion_closed.fuse(params, x, g)
                if s <= p - 1:
                    px = projective(params, r, s)
                    for g in (simple(params, 2, 1), simple(params, 1, 2)):
                        ok &= fusion_oracle.oracle_fuse(
                            params, px, g
                        ) == fusion_closed.fuse(params, px, g)
                    ok &= fusion_closed.fuse(
                        params, px, simple(params, 2, 1)
                    ) == FormalSum.of(projective(params, r + 1, s))
            # the two named identities
            ok &= fusion_closed.fuse(
                params, simple(params, 1, 2), simple(params, r, p)
            ) == FormalSum.of(projective(params, r, p - 1))
        if p == 2:
            for r in range(-3, 4):
                got = fusion_closed.fuse(
                    params, projective(params, r, 1), simple(params, 1, 2)
                )
                expected = FormalSum(
                    [
                        (simple(params, r + 1, 2), 1),
                        (simple(params, r, 2), 2),
                        (simple(params, r - 1, 2), 1),
                    ]
                )
                ok &= got == expected
    _verdict(2, ok, "generator rules reproduced verbatim by the closed forms")


def test_criterion_03_ring_axioms():
    ok = True
    for p in (2, 3, 4, 5, 6):
        params = Params(p)
        unit = FormalSum.of(simple(params, 1, 1))
        labels = _window_labels(params, -3, 3)
        for x in labels:
            ok &= fusion_closed.fuse(params, unit, x) == FormalSum.of(x)
        for a in labels:
            for b in labels:
                ok &= fusion_closed.fuse(params, a, b) == fusion_closed.fuse(
                    params, b, a
                )
    for p in (2, 3, 4):
        params = Params(p)
        simples = _window_labels(params, -2, 2, with_projectives=False)
        for a, b, c in itertools.product(simples, repeat=3):
            left = fusion_closed.fuse(params, fusion_closed.fuse(params, a, b), c)
            right = fusion_closed.fuse(params, a, fusion_closed.fuse(params, b, c))
            ok &= left == right
    rng = random.Random(20260810)
    for _ in range(200):
        p = rng.choice((2, 3, 4))
        params = Params(p)
        labels = _window_labels(params, -2, 2)
        triple = [rng.choice(labels) for _ in range(3)]
        if all(t.kind == catalog.SIMPLE for t in triple):
            triple[rng.randrange(3)] = rng.choice(
                [t for t in labels if t.kind == catalog.PROJECTIVE]
            )
        a, b, c = triple
        left = fusion_closed.fuse(params, fusion_closed.fuse(params, a, b), c)
        right = fusion_closed.fuse(params, a, fusion_closed.fuse(params, b, c))
        ok &= left == right
    _verdict(3, ok, "unit, commutativity, associativity (incl. 200 mixed triples)")


def test_criterion_04_duality():
    ok = True
    for p in (2, 3, 4, 5, 6):
        params = Params(p)
        for r in range(-4, 5):
            for s in range(1, p + 1):
                a = simple(params, r, s)
                product = fusion_closed.fuse(params, a, dual(params, a))
                witness = (
                    simple(params, 1, 1) if s < p else projective(params, 1, 1)
                )
                ok &= product.multiplicity(witness) == 1
    _verdict(4, ok, "M x M' contains the unit (P_{1,1} at s=p) exactly once")


def test_criterion_05_grothendieck_consistency():
    # D(x) = (w - 1/w)[x], so the product of classes reads
    # D(a) D(b) = (w - 1/w) D(a x b)
    d, times = catalog.grothendieck_class, verify._laurent_product
    ok = True
    for p in (2, 3, 4, 5, 6):
        params = Params(p)
        labels = _window_labels(params, -3, 3)
        for a in labels:
            for b in labels:
                ab = fusion_closed.fuse(params, a, b)
                ok &= times({1: 1, -1: -1}, d(params, ab)) == times(d(params, a), d(params, b))
    _verdict(5, ok, "composition-factor flattening commutes with fusion")


def test_criterion_06_triplet_consistency():
    ok = True
    for p in (2, 3, 4, 5, 6):
        params = Params(p)
        w21 = triplet.simple_w(params, 2, 1)
        w12 = triplet.simple_w(params, 1, 2)
        for rb in (1, 2):
            for s in range(1, p + 1):
                x = triplet.simple_w(params, rb, s)
                ok &= triplet.derived_triplet_fuse(params, w21, x) == FormalSum.of(
                    triplet.simple_w(params, 3 - rb, s)
                )
                got = triplet.derived_triplet_fuse(params, w12, x)
                if s == 1:
                    expected = FormalSum.of(triplet.simple_w(params, rb, 2))
                elif s == p:
                    expected = FormalSum.of(triplet.projective_r(params, rb, p - 1))
                else:
                    expected = FormalSum.of(
                        triplet.simple_w(params, rb, s - 1),
                        triplet.simple_w(params, rb, s + 1),
                    )
                ok &= got == expected
        all_labels = [
            triplet.simple_w(params, rb, s)
            for rb in (1, 2)
            for s in range(1, p + 1)
        ] + [triplet.projective_r(params, rb, p - 1) for rb in (1, 2)]
        for a in all_labels:
            for b in all_labels:
                base = triplet.derived_triplet_fuse(params, a, b)
                for sa in (-2, 0, 2):
                    for sb in (-2, 0, 2):
                        ok &= (
                            triplet.derived_triplet_fuse(params, a, b, sa, sb) == base
                        )
    _verdict(6, ok, "triplet generator rules via induction; preimage independent")


def test_criterion_07_connection_coefficients():
    start = time.time()
    ok = True
    for p in (2, 3, 4, 5, 7):
        params = Params(p)
        numeric = np.array(bpz.connection_numeric(params).matrix)
        closed = np.array(bpz.connection_closed(params).matrix)
        ok &= float(np.max(np.abs(numeric - closed))) < 1e-8
        if p == 2:
            ok &= abs(numeric[0][0] - math.log(4) / math.pi) < 1e-8
            ok &= abs(numeric[0][1] + 1 / math.pi) < 1e-8
        if p == 3:
            ok &= abs(numeric[0][1]) < 1e-8
        if p == 4:
            ok &= abs(numeric[0][0] - 1 / math.sqrt(2)) < 1e-10
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _verdict(7, ok, f"connection coefficients, p in 2,3,4,5,7 ({elapsed:.1f}s)")


def test_criterion_08_ode_validity():
    ok = True
    for p in (2, 3, 4, 5, 7):
        params = Params(p)
        phis = bpz.phi_basis(params)
        psis = bpz.psi_basis(params)
        for f in phis:
            for x in np.linspace(0.05, 0.6, 12):
                ok &= all(abs(v) < 1e-8 for v in bpz.residuals(params, f, float(x)))
        for f in psis:
            for x in np.linspace(0.4, 0.95, 12):
                ok &= all(abs(v) < 1e-8 for v in bpz.residuals(params, f, float(x)))
    _verdict(8, ok, "Frobenius residuals < 1e-8; substitution lands in 2F1 equation")


def test_criterion_09_jordan_fock_structure():
    # Exact form: L0 commutes with H0; for r != 1, L0 is non-scalar with a
    # regular nilpotent part; at r = 1, H0 is nilpotent nonzero and
    # L0 - h_{1,p} Id = N^2/p exactly, where N = (A - k Id)/2 is the
    # unit-superdiagonal nilpotent; p=2, n=2 witnesses.  With A = k Id + 2N,
    # L0 = f(A) for f(x) = x^2/(4p) - (p-1)x/(2p), so
    # L0 = f(k) Id + (k-(p-1))/p N + N^2/p.  At r = 1, k = p-1 is the
    # critical point of f, the linear term vanishes and only N^2/p is left:
    # zero for n = 2, nonzero for n >= 3.  So L0 is not scalar at r = 1 once
    # n >= 3, in any basis, and the test asserts the identity itself.
    ok = True
    details = []
    for p in (2, 3):
        params = Params(p)
        for r in (-1, 0, 1, 2):
            for n in (2, 3):
                a, l0, h0 = jordan_fock_matrices(params, r, n)
                if _matmul(l0, h0) != _matmul(h0, l0):
                    ok = False
                    details.append(f"commutator p={p} r={r} n={n}")
                if r != 1:
                    nil = _minus_scalar(l0, l0[0][0])
                    if _is_scalar(l0) or not all(
                        nil[i][i + 1] != 0 for i in range(n - 1)
                    ):
                        ok = False
                        details.append(f"regular p={p} r={r} n={n}")
                    continue
                if not (_is_nilpotent(h0) and not _is_zero(h0)):
                    ok = False
                    details.append(f"H0 p={p} n={n}")
                k = alpha_coordinate(params, 1, p)
                nilp = _scaled(Fraction(1, 2), _minus_scalar(a, k))
                h = weight(params, 1, p)
                if _minus_scalar(l0, h) != _scaled(
                    Fraction(1, p), _matmul(nilp, nilp)
                ):
                    ok = False
                    details.append(f"L0-h=N^2/p p={p} n={n}")
    a, l0, h0 = jordan_fock_matrices(Params(2), 1, 2)
    ok &= l0 == ((Fraction(-1, 8), 0), (0, Fraction(-1, 8)))
    ok &= h0 == ((0, Fraction(-1, 3)), (0, 0))
    _verdict(9, ok, f"Jordan Fock exact L0 structure {details if details else ''}")


def test_criterion_09_jordan_fock_corrected_dichotomy():
    # the structural content that actually holds on the full window
    ok = True
    for p in (2, 3):
        params = Params(p)
        for r in (-1, 0, 1, 2):
            for n in (2, 3):
                _, l0, h0 = jordan_fock_matrices(params, r, n)
                ok &= _matmul(l0, h0) == _matmul(h0, l0)
                nil = _minus_scalar(l0, l0[0][0])
                regular = all(nil[i][i + 1] != 0 for i in range(n - 1))
                ok &= regular == (r != 1)  # L0 cyclic (indecomposable) iff r != 1
                if r == 1:
                    ok &= _is_nilpotent(h0) and not _is_zero(h0)
                    if n == 2:
                        ok &= _is_scalar(l0)
    a, l0, h0 = jordan_fock_matrices(Params(2), 1, 2)
    ok &= a == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    ok &= l0 == ((Fraction(-1, 8), 0), (0, Fraction(-1, 8)))
    ok &= h0 == ((0, Fraction(-1, 3)), (0, 0))
    _verdict(9, ok, "Jordan Fock corrected dichotomy + exact p=2 witnesses")


def test_criterion_10_weight_identities():
    ok = True
    for p in range(2, 8):
        params = Params(p)
        for r in range(-4, 5):
            for s in range(1, 2 * p + 1):
                ok &= alpha_coordinate(params, r + 1, s + p) == alpha_coordinate(
                    params, r, s
                )
            for s in range(1, p + 1):
                ok &= fock_weight(params, alpha_coordinate(params, r, s)) == weight(
                    params, r, s
                )
                ok &= (
                    lowest_weight_of_simple(params, r, s)
                    >= params.weight_lower_bound
                )
            for n in range(-3, 4):
                for s in range(2, p):
                    ok &= weight_coset_diff(
                        params, (r + 2 * n, s - 1), (r, s + 1)
                    ) == Fraction(s, p)
    _verdict(10, ok, "periodicity, Fock consistency, s/p congruence, lower bound")


def _is_scalar(m):
    n = len(m)
    return all(
        m[i][j] == (m[0][0] if i == j else 0) for i in range(n) for j in range(n)
    )


def _is_zero(m):
    return all(e == 0 for row in m for e in row)


def _minus_scalar(m, c):
    """``m - c Id``."""
    return tuple(tuple(e - c * (i == j) for j, e in enumerate(row)) for i, row in enumerate(m))


def _scaled(c, m):
    """``c m``."""
    return tuple(tuple(c * e for e in row) for row in m)


def _matmul(a, b):
    """The exact matrix product ``a b``."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _is_nilpotent(m):
    power = m
    for _ in range(len(m)):
        if _is_zero(power):
            return True
        power = _matmul(power, m)
    return _is_zero(power)
