import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import hyp2f1

from singlet_fusion import bpz, verify
from singlet_fusion.labels import Params

P_VALUES = (2, 3, 4, 5, 7)


# --- Frobenius bases ---------------------------------------------------------------


def _has_log(f):
    return any(comp.log_const is not None for comp in f.components)


def test_phi_exponents():
    p3 = Params(3)
    phi1, phi2 = bpz.phi_basis(p3)
    assert [comp.e_near for comp in phi1.components] == [pytest.approx(1 / 6)]
    assert [comp.e_near for comp in phi2.components] == [pytest.approx(1 / 2)]
    assert not _has_log(phi1) and not _has_log(phi2)
    phi1, phi2 = bpz.phi_basis(Params(2))
    exponents = [comp.e_near for comp in phi1.components + phi2.components]
    assert exponents == [pytest.approx(1 / 4)] * 3
    assert not _has_log(phi1) and _has_log(phi2)


def test_log_companion_series_has_zero_constant_term():
    _, phi2 = bpz.phi_basis(Params(2))
    (companion,) = [comp for comp in phi2.components if comp.log_const is None]
    # series is in Horner order: the constant term d_0 comes last
    assert companion.series[-1] == 0.0
    assert companion.series[-2] == pytest.approx(0.5)  # d_1 from the recurrence


@pytest.mark.parametrize("p", P_VALUES)
def test_ode_residuals_on_grids(p):
    params = Params(p)
    phis = bpz.phi_basis(params)
    psis = bpz.psi_basis(params)
    for f in phis:
        for x in np.linspace(0.05, 0.6, 12):
            assert abs(bpz.residuals(params, f, float(x))[0]) < 1e-8
    for f in psis:
        for x in np.linspace(0.4, 0.95, 12):
            assert abs(bpz.residuals(params, f, float(x))[0]) < 1e-8


def _closed_forms(p, x):
    """``(phi_1, phi_2)`` at ``x`` through scipy's 2F1 (``p >= 3`` for ``phi_2``)."""
    e = 1 / (2 * p)
    phi1 = x**e * (1 - x) ** e * hyp2f1(1 / p, 3 / p - 1, 2 / p, x)
    phi2 = x ** (1 - 3 * e) * (1 - x) ** e * hyp2f1(1 - 1 / p, 1 / p, 2 - 2 / p, x)
    return phi1, phi2


@pytest.mark.parametrize("p", (2, 3, 4, 7))
def test_bases_match_hyp2f1_closed_forms(p):
    # p = 2 has a log companion with no plain 2F1 form: compare phi_1, psi_1 only
    count = 1 if p == 2 else 2
    phis = bpz.phi_basis(Params(p))
    psis = bpz.psi_basis(Params(p))
    for x in (0.15, 0.35, 0.55, 0.75):
        at_x, at_mirror = _closed_forms(p, x), _closed_forms(p, 1 - x)
        for i in range(count):
            assert phis[i].derivatives(x)[0] == pytest.approx(at_x[i], abs=1e-12)
            assert psis[i].derivatives(x)[0] == pytest.approx(at_mirror[i], abs=1e-12)


def test_residuals_reject_the_wrong_equation():
    # the p = 3 basis does not solve the p = 4 equation
    wrong = Params(4)
    for f in bpz.phi_basis(Params(3)) + bpz.psi_basis(Params(3)):
        for x in (0.25, 0.5, 0.75):
            ode, hyp = bpz.residuals(wrong, f, x)
            assert abs(ode) > 1e-3
            assert abs(hyp) > 1e-3


def test_solution_records_are_read_only():
    m = ((1.0, 0.0), (0.0, 1.0))
    assert bpz.ConnectionMatrix(m).condition is None
    assert bpz.ConnectionMatrix(m, 2.0) == bpz.ConnectionMatrix(matrix=m, condition=2.0)
    phi1, _ = bpz.phi_basis(Params(3))
    (comp,) = phi1.components
    same = bpz.FrobeniusSolution(0, phi1.components)
    assert (same.expansion_point, same.components) == (0, phi1.components)
    assert same.derivatives(0.3) == phi1.derivatives(0.3)
    for record, field in (
        (bpz.ConnectionMatrix(m), "condition"),
        (bpz.ConnectionMatrix(m), "matrix"),
        (phi1, "expansion_point"),
        (phi1, "components"),
        (comp, "e_near"),
        (comp, "log_const"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_residual_input_validation():
    phi1, _ = bpz.phi_basis(Params(2))
    with pytest.raises(ValueError):
        bpz.residuals(Params(2), phi1, 1e-9)
    with pytest.raises(ValueError):
        bpz.residuals(Params(2), phi1, 1 - 1e-9)
    with pytest.raises(ValueError):
        phi1.derivatives(1.5)


@pytest.mark.parametrize("p", P_VALUES)
def test_substitution_maps_to_hypergeometric(p):
    params = Params(p)
    for f in bpz.phi_basis(params) + bpz.psi_basis(params):
        for x in (0.15, 0.35, 0.55, 0.75):
            assert abs(bpz.residuals(params, f, x)[1]) < 1e-8


# --- connection matrices --------------------------------------------------------------


def test_connection_closed_p4_first_row():
    row = bpz.connection_closed(Params(4)).matrix[0]
    assert row[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    expected_b = math.gamma(0.5) ** 2 / (2 * math.gamma(0.25) * math.gamma(0.75))
    assert row[1] == pytest.approx(expected_b, abs=1e-15)


def test_connection_closed_p3_collapses():
    m = bpz.connection_closed(Params(3)).matrix
    assert m[0][0] == pytest.approx(1.0, abs=1e-14)
    assert m[0][1] == 0.0


def test_connection_closed_p2_log_values():
    m = bpz.connection_closed(Params(2)).matrix
    assert m[0][0] == pytest.approx(math.log(4) / math.pi, abs=1e-15)
    assert m[0][1] == pytest.approx(-1 / math.pi, abs=1e-15)


@pytest.mark.parametrize("p", P_VALUES)
def test_connection_numeric_matches_closed(p):
    params = Params(p)
    numeric = bpz.connection_numeric(params)
    closed = bpz.connection_closed(params)
    assert np.max(np.abs(np.array(numeric.matrix) - np.array(closed.matrix))) < 1e-8
    assert numeric.condition is not None and numeric.condition < 1e4


@pytest.mark.parametrize("p", P_VALUES)
def test_connection_roundtrip_identity(p):
    params = Params(p)
    forward = np.array(bpz.connection_numeric(params).matrix)
    backward = np.array(bpz.connection_numeric(params, reverse=True).matrix)
    assert np.max(np.abs(forward @ backward - np.eye(2))) < 1e-7


@pytest.mark.parametrize("p", P_VALUES)
def test_connection_matrix_is_involution(p):
    m = np.array(bpz.connection_closed(Params(p)).matrix)
    assert np.max(np.abs(m @ m - np.eye(2))) < 1e-12


def test_connection_numeric_condition_guard(monkeypatch):
    monkeypatch.setattr(bpz, "MAX_CONDITION", 1.0)
    with pytest.raises(bpz.IllConditionedMatching):
        bpz.connection_numeric(Params(3))


# --- rigidity coefficient -----------------------------------------------------------------


def test_rigidity_values():
    assert bpz.rigidity_coefficient(Params(4)) == pytest.approx(1 / math.sqrt(2))
    assert bpz.rigidity_coefficient(Params(6)) == pytest.approx(1 / math.sqrt(3))
    assert bpz.rigidity_coefficient(Params(2)) == pytest.approx(1 / math.pi)


@pytest.mark.parametrize("p", P_VALUES)
def test_rigidity_nonvanishing(p):
    assert abs(bpz.rigidity_coefficient(Params(p))) > 1e-10


@pytest.mark.parametrize("p", (2, 5))
def test_rigidity_check_reads_the_numeric_matrix(monkeypatch, p):
    # a zero first row in the computed matrix must fail the rigidity check
    def zero_first_row(params, reverse=False):
        return bpz.ConnectionMatrix(((0.0, 0.0), (1.0, 1.0)), condition=1.0)

    monkeypatch.setattr(bpz, "connection_numeric", zero_first_row)
    assert bpz.rigidity_coefficient(Params(p)) == 0.0
    assert "rigidity coefficient vanished" in verify.bpz_suite(Params(p), 0)[1]


# --- mpmath cross-check ------------------------------------------------------------------


def _mp_g_basis(p):
    """``(g_1, g_2)`` at 30 digits, with ``phi_i = x^{1/2p} (1-x)^{1/2p} g_i``.

    For ``p = 2`` the log companion ``F ln x + G`` is ``-d/dc`` at ``c = 1`` of
    ``x^{1-c} 2F1(a-c+1, b-c+1; 2-c; x) - 2F1(a, b; c; x)``, ``a = b = 1/2``.
    """
    one = mpmath.mpf(1)
    if p >= 3:
        return (
            lambda x: mpmath.hyp2f1(one / p, 3 * one / p - 1, 2 * one / p, x),
            lambda x: x ** (1 - 2 * one / p)
            * mpmath.hyp2f1(1 - one / p, one / p, 2 - 2 * one / p, x),
        )
    half = one / 2

    def log_companion(x):
        return -mpmath.diff(
            lambda c: x ** (1 - c) * mpmath.hyp2f1(1.5 - c, 1.5 - c, 2 - c, x)
            - mpmath.hyp2f1(half, half, c, x),
            1,
        )

    def g1(x):
        return mpmath.hyp2f1(half, half, 1, x)

    return g1, lambda x: log_companion(x) - mpmath.log(4) * g1(x)


@pytest.mark.parametrize("p", range(2, 13))
def test_connection_closed_matches_mpmath(p):
    # psi_k(x) = phi_k(1 - x); the common x^{1/2p} (1-x)^{1/2p} cancels
    with mpmath.workdps(30):
        g = _mp_g_basis(p)
        points = (mpmath.mpf("0.4"), mpmath.mpf("0.6"))
        psi = mpmath.matrix([[gk(1 - x) for gk in g] for x in points])
        rows = [mpmath.lu_solve(psi, [gi(x) for x in points]) for gi in g]
        expected = np.array([[float(row[k]) for k in range(2)] for row in rows])
    params = Params(p)
    closed = np.array(bpz.connection_closed(params).matrix)
    assert np.max(np.abs(closed - expected)) < 1e-12
    # the exact matrix is an involution: both directions share the reference
    for reverse in (False, True):
        numeric = np.array(bpz.connection_numeric(params, reverse=reverse).matrix)
        assert np.max(np.abs(numeric - expected)) < 1e-14, reverse


# --- work per p ---------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("p, series", [(2, 1), (5, 2)])
def test_bpz_suite_builds_each_series_and_value_once(monkeypatch, p, series):
    builds = _count_calls(monkeypatch, bpz, "_hyp_series_coeffs")
    evals = _count_calls(monkeypatch, bpz.FrobeniusSolution, "derivatives")
    bpz._frobenius.cache_clear()
    assert verify.bpz_suite(Params(p), 0) == (99, [])
    assert builds[0] == series
    # 4 functions x 12 residual grid points, 4 functions x 2 match points
    assert evals[0] == 4 * 12 + 4 * len(bpz.MATCH_POINTS)


def _phi_values(p):
    return [v.hex() for f in bpz.phi_basis(Params(p)) for v in f.derivatives(0.3)]


def _connection(p):
    m = bpz.connection_numeric(Params(p), reverse=p % 2 == 1)
    return [v.hex() for row in m.matrix for v in row] + [m.condition.hex()]


def test_memo_depends_on_p_alone_and_holds_one_p():
    calls = [(fn, p) for fn in (_phi_values, _connection) for p in range(2, 10)]
    expected = {}
    for fn, p in calls:
        bpz._frobenius.cache_clear()
        expected[fn, p] = fn(p)
    order = calls * 3
    random.Random(0).shuffle(order)
    for fn, p in order:
        assert fn(p) == expected[fn, p]
        assert bpz._frobenius.cache_info().currsize == 1
    assert bpz._frobenius.cache_info().maxsize == 1


# --- bit-identity pins ----------------------------------------------------------------


# float.hex of the basis values and derivatives and of the connection matrices
# from the plain-float QR matching solve; any change in the order or kind of
# float operations shows here
PINS = json.loads(Path(__file__).with_name("bpz_pins.json").read_text())


@pytest.mark.parametrize("p", sorted({row[0] for row in PINS["derivatives"]}))
def test_floats_pinned_bit_for_bit(p):
    params = Params(p)
    bases = {"phi": bpz.phi_basis(params), "psi": bpz.psi_basis(params)}
    for pin_p, name, x, expected in PINS["derivatives"]:
        if pin_p == p:
            f = bases[name[:3]][int(name[3]) - 1]
            got = [float.hex(v) for v in f.derivatives(x)]
            assert got == expected, (name, x)
    for pin_p, reverse, matrix, condition in PINS["connection"]:
        if pin_p == p:
            got = bpz.connection_numeric(params, reverse=reverse)
            assert [[float.hex(v) for v in row] for row in got.matrix] == matrix
            assert float.hex(got.condition) == condition


def test_rigidity_coefficient_pinned_bit_for_bit():
    got = bpz.rigidity_coefficient(Params(3))
    assert float.hex(got) == PINS["rigidity_p3"]


def test_dot_adds_left_to_right_on_every_python():
    # Python 3.12's sum() of floats is compensated and returns 1.0 here; the
    # matching solve must round the same way on every supported version
    assert bpz._dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
