import cmath
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlet_fusion import catalog, fusion_closed, fusion_oracle, triplet
from singlet_fusion.catalog import (
    FormalSum,
    Indecomposable,
    UnsupportedOperation,
    composition_factors,
    dual,
    fock,
    grothendieck_class,
    jordan_fock,
    jordan_fock_matrices,
    loewy,
    normalize,
    projective,
    simple,
)
from singlet_fusion.labels import (
    Params,
    alpha_coordinate,
    fock_weight,
    lowest_weight_of_simple,
    rbar,
    weight,
)

P2 = Params(2)
P3 = Params(3)

params_st = st.integers(min_value=2, max_value=6).map(Params)
r_st = st.integers(min_value=-4, max_value=4)


# --- labels and normalization ------------------------------------------------


def test_aliasing_at_s_p():
    assert projective(P2, 3, 2) == simple(P2, 3, 2)
    assert fock(P2, 3, 2) == simple(P2, 3, 2)
    assert jordan_fock(P3, 0, 1) == simple(P3, 0, 3)
    assert projective(P3, 1, 2).kind == catalog.PROJECTIVE


@given(params_st, r_st, st.data())
def test_normalize_idempotent(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    for x in (
        simple(params, r, s),
        projective(params, r, s),
        fock(params, r, s),
        jordan_fock(params, r, data.draw(st.integers(min_value=1, max_value=4))),
    ):
        assert normalize(params, x) == x


def test_label_validation():
    with pytest.raises(ValueError):
        simple(P2, 1, 3)
    with pytest.raises(ValueError):
        projective(P2, 1, 0)
    with pytest.raises(ValueError):
        jordan_fock(P2, 1, 0)
    with pytest.raises(ValueError):
        normalize(P3, Indecomposable(catalog.JORDAN_FOCK, 1, 2, 2))
    # a Jordan size on a kind that takes none is refused, not dropped
    with pytest.raises(ValueError):
        normalize(P3, Indecomposable(catalog.SIMPLE, 1, 2, 5))
    with pytest.raises(ValueError):
        normalize(P3, Indecomposable(catalog.PROJECTIVE, 1, 1, 2))


@pytest.mark.parametrize("bad", [1.5, 2.0, True], ids=repr)
def test_builders_reject_non_int_indices(bad):
    # the rule FormalSum applies to multiplicities: the type must be exactly int
    builds = [
        lambda: simple(P3, bad, 2),
        lambda: simple(P3, 1, bad),
        lambda: projective(P3, bad, 1),
        lambda: projective(P3, 1, bad),
        lambda: fock(P3, bad, 1),
        lambda: fock(P3, 1, bad),
        lambda: jordan_fock(P3, bad, 2),
        lambda: jordan_fock(P3, 1, bad),
        lambda: normalize(P3, Indecomposable(catalog.SIMPLE, bad, 2)),
        lambda: normalize(P3, Indecomposable(catalog.PROJECTIVE, 1, bad)),
        lambda: normalize(P3, Indecomposable(catalog.SIMPLE, 1, 2, bad)),
        lambda: normalize(P3, Indecomposable(catalog.JORDAN_FOCK, 1, 3.0, 2)),
    ]
    for build in builds:
        with pytest.raises(TypeError, match="is not an int"):
            build()


@pytest.mark.parametrize("bad", [1.5, 2.0, True], ids=repr)
def test_index_arguments_reject_non_ints(bad):
    # the builders' rule on every other public index argument
    calls = [
        lambda: weight(P3, bad, 2),
        lambda: weight(P3, 1, bad),
        lambda: lowest_weight_of_simple(P3, bad, 2),
        lambda: lowest_weight_of_simple(P3, 1, bad),
        lambda: jordan_fock_matrices(P3, bad, 2),
        lambda: jordan_fock_matrices(P3, 1, bad),
        lambda: alpha_coordinate(P3, bad, 2),
        lambda: alpha_coordinate(P3, 1, bad),
        lambda: fock_weight(P3, bad),
        lambda: rbar(bad),
        # a raw label whose r is not an int is refused, not fused or induced
        lambda: fusion_closed.fuse(P3, Indecomposable(catalog.SIMPLE, bad, 2), simple(P3, 1, 2)),
        lambda: fusion_oracle.oracle_fuse(P3, Indecomposable(catalog.SIMPLE, bad, 2), simple(P3, 1, 2)),
        lambda: triplet.induce(P3, Indecomposable(catalog.SIMPLE, bad, 2)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="is not an int"):
            call()


@pytest.mark.parametrize("p", range(2, 7))
def test_normalize_agrees_with_is_normal(p):
    # the builders' rule and the consumers' check state one normal form:
    # normalize raises, or returns a normal form it keeps; it keeps every
    # normal form, and changes nothing but the three aliases of M(r, p)
    params = Params(p)
    for kind in ("M", "P", "F", "FJ", "Q"):
        for r, s, n in itertools.product((-1, 0, 1), range(-1, p + 2), range(4)):
            raw = Indecomposable(kind, r, s, n)
            try:
                got = normalize(params, raw)
            except (ValueError, TypeError):
                assert not catalog._is_normal(p, kind, s, n), raw
                continue
            assert catalog._is_normal(p, got.kind, got.s, got.n), raw
            assert normalize(params, got) == got
            if got != raw:
                alias = kind in ("P", "F") and n == 1 or kind == "FJ" and n == 1
                assert alias and s == p and got == simple(params, r, p), raw


def test_label_string_forms():
    assert str(simple(P2, -1, 2)) == "M:-1,2"
    assert str(jordan_fock(P2, 1, 3)) == "FJ:1,2,3"
    assert str(projective(P3, 0, 1)) == "P:0,1"
    assert str(fock(P3, 2, 1)) == "F:2,1"
    assert repr(simple(P2, -1, 2)) == "Indecomposable(kind='M', r=-1, s=2, n=1)"
    assert repr(projective(P3, 0, 1)) == "Indecomposable(kind='P', r=0, s=1, n=1)"
    assert repr(fock(P3, 2, 1)) == "Indecomposable(kind='F', r=2, s=1, n=1)"
    assert repr(jordan_fock(P2, 1, 3)) == "Indecomposable(kind='FJ', r=1, s=2, n=3)"


def test_label_sort_order():
    # kind first (F < FJ < M < P), then r, s, n
    labels = [
        projective(P3, 0, 1),
        simple(P3, 1, 1),
        simple(P3, 0, 2),
        jordan_fock(P3, -1, 3),
        jordan_fock(P3, -1, 2),
        fock(P3, 2, 1),
        fock(P3, -2, 2),
        simple(P3, 0, 1),
    ]
    assert [str(x) for x in sorted(labels)] == [
        "F:-2,2",
        "F:2,1",
        "FJ:-1,3,2",
        "FJ:-1,3,3",
        "M:0,1",
        "M:0,2",
        "M:1,1",
        "P:0,1",
    ]
    assert [lab for lab, _ in FormalSum.of(*labels)] == sorted(labels)


def test_label_window_lists_simples_then_projectives():
    params = Params(3)
    labels = catalog.label_window(params, -1, 2)
    assert labels == [
        catalog.simple(params, r, s) for r in range(-1, 3) for s in (1, 2, 3)
    ] + [catalog.projective(params, r, s) for r in range(-1, 3) for s in (1, 2)]
    assert catalog.label_window(params, 1, 0) == []


def test_label_window_is_sorted():
    # cli table rows rely on it: the window is its own sort
    for p in range(2, 13):
        params = Params(p)
        for rmin in range(-5, 5):
            for rmax in range(rmin, 5):
                labels = catalog.label_window(params, rmin, rmax)
                assert labels == sorted(labels), (p, rmin, rmax)


@pytest.mark.parametrize("rmin, rmax", [(False, True), (0, True), (0.0, 1), (-1, 1.0)])
def test_label_window_refuses_bounds_that_are_not_int(rmin, rmax):
    with pytest.raises(TypeError, match="is not an int"):
        catalog.label_window(Params(3), rmin, rmax)


def test_window_size_counts_what_label_window_builds():
    # both caps (verify's windows and cli table's rows) count with _window_size
    for p in range(2, 13):
        params = Params(p)
        for rmin in range(-5, 5):
            for rmax in range(rmin - 1, 5):
                size = catalog._window_size(params, rmin, rmax)
                assert len(catalog.label_window(params, rmin, rmax)) == size, (p, rmin, rmax)


def test_label_aliases_are_equal_and_hash_equal():
    m = simple(P3, 2, 3)
    for alias in (projective(P3, 2, 3), fock(P3, 2, 3), jordan_fock(P3, 2, 1)):
        assert alias == m and hash(alias) == hash(m)
    assert len({m, projective(P3, 2, 3), fock(P3, 2, 3)}) == 1
    assert projective(P3, 2, 2) != simple(P3, 2, 2)


def test_labels_are_immutable():
    x = simple(P3, 1, 2)
    with pytest.raises(AttributeError):
        x.r = 5
    assert x == simple(P3, 1, 2)


# --- formal sums --------------------------------------------------------------


def test_formal_sum_basics():
    a, b = simple(P2, 1, 1), simple(P2, 0, 1)
    s = FormalSum.of(a, b, a)
    assert s.multiplicity(a) == 2 and s.multiplicity(b) == 1
    # a label of another type, even an unhashable one, is simply absent
    assert s.multiplicity(simple(P2, 2, 1)) == 0
    assert s.multiplicity("M:1,1") == 0 and s.multiplicity([a]) == 0
    assert s.total() == 3 and len(s) == 2
    assert FormalSum.combine([(1, s), (1, FormalSum())]) == s
    assert FormalSum.combine([(2, s)]) == FormalSum([(a, 4), (b, 2)])
    assert not FormalSum()
    assert str(FormalSum()) == "0"
    assert repr(FormalSum.of(b)) == (
        "FormalSum(((Indecomposable(kind='M', r=0, s=1, n=1), 1),))"
    )
    assert str(s) == "M:0,1 + 2*M:1,1"


def test_formal_sum_from_dict_equals_from_pairs():
    a, b = simple(P3, 1, 1), projective(P3, 0, 2)
    from_dict = FormalSum({a: 2, b: 1, simple(P3, 0, 1): 0})
    from_pairs = FormalSum([(b, 1), (a, 1), (a, 1)])
    assert from_dict == from_pairs and hash(from_dict) == hash(from_pairs)
    assert tuple(from_dict) == ((a, 2), (b, 1))


def test_formal_sum_rejects_non_integer_multiplicities():
    a = simple(P3, 1, 1)
    for bad in (1.5, 2.0, True, Fraction(1)):
        with pytest.raises(TypeError):
            FormalSum([(a, bad)])
        with pytest.raises(TypeError):
            FormalSum({a: bad})


def test_combine_rejects_non_int_scales():
    # the constructor's rule on multiplicities: True is not 1, False is not 0
    x = FormalSum.of(simple(P3, 1, 1))
    for bad in (True, False, 1.0):
        with pytest.raises(TypeError, match="is not an int"):
            FormalSum.combine([(bad, x)])


def test_formal_sum_rejects_negative():
    with pytest.raises(ValueError):
        FormalSum([(simple(P2, 1, 1), -1)])
    with pytest.raises(ValueError):
        FormalSum.combine([(-2, FormalSum.of(simple(P2, 1, 1)))])


def test_formal_sum_hashable():
    a = FormalSum.of(simple(P2, 1, 1))
    assert hash(a) == hash(FormalSum.of(simple(P2, 1, 1)))
    assert len({a, FormalSum.of(simple(P2, 1, 1))}) == 1


def test_shift_r_moves_every_term_and_composes():
    x = FormalSum([(simple(P3, 1, 3), 2), (projective(P3, 0, 1), 1), (fock(P3, 2, 2), 1)])
    shifted = fusion_closed._shift(x, 3)
    assert shifted == FormalSum(
        [(simple(P3, 4, 3), 2), (projective(P3, 3, 1), 1), (fock(P3, 5, 2), 1)]
    )
    assert fusion_closed._shift(shifted, -3) == x
    assert fusion_closed._shift(x, 0) == x
    assert not fusion_closed._shift(FormalSum(), 5)


def _old_shift_r(params, x, delta):
    return FormalSum((normalize(params, lab._replace(r=lab.r + delta)), m) for lab, m in x)


@st.composite
def _normal_sums(draw):
    params = draw(params_st)
    p = params.p
    r = st.integers(min_value=-10**6, max_value=10**6)
    label = st.one_of(
        st.builds(lambda r, s: simple(params, r, s), r, st.integers(1, p)),
        st.builds(lambda r, s: projective(params, r, s), r, st.integers(1, p)),
        st.builds(lambda r, s: fock(params, r, s), r, st.integers(1, p)),
        st.builds(lambda r, n: jordan_fock(params, r, n), r, st.integers(1, 5)),
    )
    return params, FormalSum(draw(st.lists(st.tuples(label, st.integers(1, 3)), max_size=8)))


@given(_normal_sums(), st.integers(min_value=-10**6, max_value=10**6))
def test_shift_r_on_normal_forms_matches_the_relabelling(case, delta):
    params, x = case
    got = fusion_closed._shift(x, delta)
    assert got == _old_shift_r(params, x, delta)
    assert list(got) == sorted(got)
    assert got.total() == x.total()


_RAW_LABELS = [
    Indecomposable("P", 1, 3),
    Indecomposable("M", 1, 2, 2),
    Indecomposable("F", 1, 3),
    Indecomposable("FJ", 1, 3, 1),
    Indecomposable("FJ", 1, 2, 2),
    Indecomposable("M", 1, 4),
    Indecomposable("Q", 1, 1),
]
_UNIT = simple(P3, 1, 1)
_CONSUMERS = {
    "fuse": lambda x: fusion_closed.fuse(P3, x, _UNIT),
    "oracle_fuse": lambda x: fusion_oracle.oracle_fuse(P3, x, _UNIT),
    "composition_factors": lambda x: composition_factors(P3, x),
    # composition factors of the label as a one-term sum: flattened like the label
    "flatten": lambda x: composition_factors(P3, FormalSum.of(x)),
    # the class map D behind the Grothendieck product check
    "grothendieck_product": lambda x: grothendieck_class(P3, x),
    "loewy": lambda x: loewy(P3, x),
    "dual": lambda x: dual(P3, x),
    "induce": lambda x: triplet.induce(P3, x),
}


_NON_INT_LABELS = [
    Indecomposable("M", 1.5, 2),
    Indecomposable("P", 1, 2.0),
    Indecomposable("M", 1, 2, True),
]


@pytest.mark.parametrize(
    "raw, consumer",
    [(raw, consumer) for raw in _RAW_LABELS + _NON_INT_LABELS for consumer in _CONSUMERS],
    ids=lambda x: f"{x.kind}:{x.r},{x.s},{x.n}" if isinstance(x, Indecomposable) else x,
)
def test_label_consumers_reject_raw_labels(raw, consumer):
    # only the builders normalize; every other entry point refuses a label
    # built around them instead of repairing it or answering for an alias,
    # and says so with the one normal-form exception, or with TypeError for
    # an index whose type is not exactly int
    expected = catalog.NotNormalForm if all(type(i) is int for i in raw[1:]) else TypeError
    with pytest.raises(expected):
        _CONSUMERS[consumer](raw)


def test_shift_r_by_zero_returns_the_sum_itself():
    x = FormalSum([(simple(P3, 1, 3), 2), (projective(P3, 0, 1), 1)])
    assert fusion_closed._shift(x, 0) is x


def test_from_sorted_equals_the_checked_sum():
    x = FormalSum([(fock(P3, 2, 2), 1), (simple(P3, 1, 3), 2), (projective(P3, 0, 1), 3)])
    y = FormalSum._from_sorted(tuple(x))
    assert y == x and hash(y) == hash(x)
    assert tuple(y) == tuple(x) and str(y) == str(x) and y.total() == x.total()
    assert y.multiplicity(simple(P3, 1, 3)) == 2
    assert not FormalSum._from_sorted(())


def test_formal_sum_holds_only_its_sorted_terms():
    x = FormalSum({simple(P3, 1, 3): 2, projective(P3, 0, 1): 1, simple(P3, 1, 1): 0})
    assert FormalSum.__slots__ == ("_key",) and not hasattr(x, "__dict__")
    assert tuple(x) == ((simple(P3, 1, 3), 2), (projective(P3, 0, 1), 1))


# --- composition factors and Loewy data ---------------------------------------


def test_composition_factors_examples():
    assert composition_factors(P3, simple(P3, 1, 2)) == FormalSum.of(simple(P3, 1, 2))
    assert composition_factors(P2, projective(P2, 0, 1)) == FormalSum(
        [(simple(P2, 0, 1), 2), (simple(P2, -1, 1), 1), (simple(P2, 1, 1), 1)]
    )
    assert composition_factors(P3, fock(P3, 1, 1)) == FormalSum.of(
        simple(P3, 1, 1), simple(P3, 2, 2)
    )
    assert composition_factors(P2, jordan_fock(P2, 1, 3)) == FormalSum(
        [(simple(P2, 1, 2), 3)]
    )


@given(params_st, r_st, st.data())
def test_projective_length_four(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    total = composition_factors(params, projective(params, r, s)).total()
    assert total == (4 if s < params.p else 1)


def test_loewy_shapes():
    d = loewy(P2, projective(P2, 1, 1))
    assert [tuple(layer) for layer in d] == [
        tuple(FormalSum.of(simple(P2, 1, 1))),
        tuple(FormalSum.of(simple(P2, 0, 1), simple(P2, 2, 1))),
        tuple(FormalSum.of(simple(P2, 1, 1))),
    ]
    assert loewy(P3, simple(P3, 3, 2)) == (FormalSum.of(simple(P3, 3, 2)),)
    assert loewy(P2, fock(P2, 0, 1)) == (
        FormalSum.of(simple(P2, 1, 1)),
        FormalSum.of(simple(P2, 0, 1)),
    )


def test_loewy_rejects_jordan():
    with pytest.raises(UnsupportedOperation):
        loewy(P2, jordan_fock(P2, 1, 2))


@given(params_st, r_st, st.data())
def test_loewy_flattens_to_composition_factors(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    for x in (simple(params, r, s), projective(params, r, s), fock(params, r, s)):
        factors = composition_factors(params, x)
        assert FormalSum.combine((1, layer) for layer in loewy(params, x)) == factors
        # a label gives the same factors as its one-term sum
        assert composition_factors(params, FormalSum.of(x)) == factors


# --- duals ---------------------------------------------------------------------


def test_dual_examples():
    assert dual(P3, simple(P3, 1, 2)) == simple(P3, 1, 2)
    assert dual(P3, simple(P3, 3, 2)) == simple(P3, -1, 2)
    assert dual(P3, projective(P3, 0, 1)) == projective(P3, 2, 1)
    with pytest.raises(UnsupportedOperation):
        dual(P3, fock(P3, 1, 1))
    with pytest.raises(UnsupportedOperation):
        dual(P2, jordan_fock(P2, 1, 2))


@given(params_st, r_st, st.data())
def test_dual_involution_and_fixed_points(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    for x in (simple(params, r, s), projective(params, r, s)):
        d = dual(params, x)
        assert dual(params, d) == x
        assert d.kind == x.kind and d.s == x.s
        assert (d == x) == (x.r == 1)


# --- Jordan Fock matrices -------------------------------------------------------


def _no_work(*args):
    raise AssertionError("work started")


def _is_scalar(m):
    n = len(m)
    return all(m[i][j] == (m[0][0] if i == j else 0) for i in range(n) for j in range(n))


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


def test_jordan_matrices_p2_witnesses():
    a, l0, h0 = jordan_fock_matrices(P2, 1, 2)
    assert a == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    assert l0 == ((Fraction(-1, 8), 0), (0, Fraction(-1, 8)))
    assert h0 == ((0, Fraction(-1, 3)), (0, 0))


def test_jordan_matrices_r2_not_scalar():
    _, l0, _ = jordan_fock_matrices(P2, 2, 2)
    assert not _is_scalar(l0)
    assert l0[0][1] != 0


def test_jordan_matrices_need_n_at_least_2():
    with pytest.raises(ValueError):
        jordan_fock_matrices(P2, 1, 1)


def test_jordan_matrices_n_bound(monkeypatch):
    # the bound is checked before any matrix entry is computed; the catalog
    # suite asks for n = 2 and 3 only
    bound = catalog._JORDAN_MAX_N
    assert bound >= 3
    monkeypatch.setattr(catalog, "_binomial", _no_work)
    monkeypatch.setattr(catalog, "_toeplitz", _no_work)
    with pytest.raises(AssertionError, match="work started"):
        jordan_fock_matrices(P3, 1, bound)
    message = f"jordan_fock_matrices needs n <= {bound}, got n={bound + 1}"
    with pytest.raises(ValueError, match=message):
        jordan_fock_matrices(P3, 1, bound + 1)


@pytest.mark.parametrize("n, p", [(3, 125_000), (32, 1_098)])
def test_jordan_matrices_work_bound(monkeypatch, n, p):
    # n^2 p is bounded before any matrix entry is computed; the bound admits
    # the catalog suite's n = 3 at its label cap, p = 125 000
    bound = catalog._JORDAN_MAX_WORK
    assert n * n * p <= bound < n * n * (p + 1)
    monkeypatch.setattr(catalog, "_binomial", _no_work)
    with pytest.raises(AssertionError, match="work started"):
        jordan_fock_matrices(Params(p), 1, n)
    message = re.escape(f"jordan_fock_matrices needs n^2 p <= {bound}, got n={n}, p={p + 1}")
    with pytest.raises(ValueError, match=message):
        jordan_fock_matrices(Params(p + 1), 1, n)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [-1, 0, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_jordan_matrices_structure(p, r, n):
    params = Params(p)
    a, l0, h0 = jordan_fock_matrices(params, r, n)
    assert _matmul(l0, h0) == _matmul(h0, l0)
    # with N = (A - k Id)/2, exactly L0 - h_{r,p} Id = (1-r) N + N^2/p,
    # written here as N (N + p(1-r) Id)/p
    k = alpha_coordinate(params, r, p)
    nilp = _scaled(Fraction(1, 2), _minus_scalar(a, k))
    assert _minus_scalar(l0, weight(params, r, p)) == _scaled(
        Fraction(1, p), _matmul(nilp, _minus_scalar(nilp, p * (r - 1)))
    )
    if r != 1:
        # the Jordan block survives in L0: a full-rank nilpotent part
        assert not _is_scalar(l0)
        off = _minus_scalar(l0, l0[0][0])
        assert all(off[i][i + 1] != 0 for i in range(n - 1))
    else:
        assert _is_nilpotent(h0) and not _is_zero(h0)
        # at the critical point k = alpha_{1,p} the linear term vanishes but
        # the quadratic one does not, so the action stops being scalar once n >= 3
        assert _is_scalar(l0) == (n == 2)


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_jordan_matrices_match_their_matrix_definitions(p):
    # the reference: A = k Id + 2N, L0 = A^2/(4p) - (p-1)/(2p) A and
    # H0 = binom(A, 2p-1), each built by exact matrix products
    params = Params(p)
    for r in (-1, 0, 1, 2):
        for n in (2, 3, 4):
            a, l0, h0 = jordan_fock_matrices(params, r, n)
            two_n = tuple(tuple(Fraction(2 * (j == i + 1)) for j in range(n)) for i in range(n))
            assert a == _minus_scalar(two_n, -alpha_coordinate(params, r, p))
            quadratic = _scaled(Fraction(1, 4 * p), _matmul(a, a))
            linear = _scaled(Fraction(p - 1, 2 * p), a)
            assert l0 == tuple(
                tuple(x - y for x, y in zip(row_q, row_l)) for row_q, row_l in zip(quadratic, linear)
            )
            falling = a
            for j in range(1, 2 * p - 1):
                falling = _matmul(falling, _minus_scalar(a, j))
            assert h0 == _scaled(Fraction(1, math.factorial(2 * p - 1)), falling)


@pytest.mark.parametrize("p", [129, 200, 500])
def test_jordan_h0_split_matches_one_factor_at_a_time(p):
    # 2p - 1 > 256 factors, so H0 comes from the binomial split; the reference
    # multiplies in k - j + 2N one at a time and divides by (2p - 1)! once
    params = Params(p)
    for r in (-1, 0, 1, 2, 7):
        k = alpha_coordinate(params, r, p)
        for n in (2, 3, 4, 6):
            falling = [1] + [0] * (n - 1)
            for j in range(2 * p - 1):
                falling = [(k - j) * falling[0]] + [
                    (k - j) * falling[d] + 2 * falling[d - 1] for d in range(1, n)
                ]
            row = jordan_fock_matrices(params, r, n)[2][0]
            assert row == tuple(Fraction(x, math.factorial(2 * p - 1)) for x in falling)
            assert all(type(x) is Fraction for x in row)


def test_jordan_scalar_part_is_the_module_weight():
    from singlet_fusion.labels import lowest_weight_of_simple, weight

    for p in (2, 3):
        params = Params(p)
        for r in (-1, 0, 1, 2):
            _, l0, _ = jordan_fock_matrices(params, r, 2)
            # the diagonal is h_{r,p}, which at s = p is also the module's
            # lowest weight for either sign of r
            assert l0[0][0] == weight(params, r, params.p)
            assert l0[0][0] == lowest_weight_of_simple(params, r, params.p)


def _verlinde(params, theta, total):
    """Image of a sum of simples under ``[M_{r,s}] -> e^{ip(r-1)theta} sin(s theta)/sin(theta)``.

    This sends ``x = [M_{2,1}]`` to ``e^{ip theta}`` and ``y = [M_{1,2}]`` to
    ``2 cos(theta)``, a ring map out of ``Z[x^{+-1}, y] / (U_p - U_{p-2} - x - 1/x)``.
    """
    return sum(
        m
        * cmath.exp(1j * params.p * (lab.r - 1) * theta)
        * math.sin(lab.s * theta)
        / math.sin(theta)
        for lab, m in total
    )


def _at(poly, w):
    """A sparse ``{exponent: coefficient}`` Laurent polynomial evaluated at ``w``."""
    return sum(c * w**e for e, c in poly.items())


@pytest.mark.parametrize("p", range(2, 8))
def test_grothendieck_product_matches_the_verlinde_picture(p):
    # at w = e^{i theta}, D(x) = (w - 1/w)[x] is 2i sin(theta) times the
    # Verlinde value of x's composition factors, on labels and on products
    params = Params(p)
    labels = [simple(params, r, s) for r in range(-1, 3) for s in range(1, p + 1)]
    labels += [projective(params, r, s) for r in range(-1, 3) for s in range(1, p)]
    for theta in (0.3, 1.1, 2.0):
        w, factor = cmath.exp(1j * theta), 2j * math.sin(theta)
        value = {x: _verlinde(params, theta, composition_factors(params, x)) for x in labels}
        for x in labels:
            got = _at(grothendieck_class(params, x), w)
            assert abs(got - factor * value[x]) < 1e-9, (x, theta)
        for a in labels:
            for b in labels:
                got = _at(grothendieck_class(params, fusion_closed.fuse(params, a, b)), w)
                assert abs(got - factor * value[a] * value[b]) < 1e-9, (a, b, theta)


def _window(p):
    """Every M, P and F label with r in -3..3 at one p, and its parameters."""
    params = Params(p)
    cells = [(r, s) for r in range(-3, 4) for s in range(1, p + 1)]
    return (
        params,
        [simple(params, r, s) for r, s in cells],
        [projective(params, r, s) for r, s in cells if s < p],
        [fock(params, r, s) for r, s in cells],
    )


@pytest.mark.parametrize("p", range(2, 9))
def test_grothendieck_class_is_injective_on_simples(p):
    # D(M_{r,s}) has top degree p(r-1) + s with coefficient 1, distinct over
    # the window, so no nonzero class maps to zero
    params, simples, _, _ = _window(p)
    tops = set()
    for x in simples:
        d = grothendieck_class(params, x)
        top = max(d)
        assert (top, d[top]) == (p * (x.r - 1) + x.s, 1), x
        tops.add(top)
    assert len(tops) == len(simples)


@pytest.mark.parametrize("p", range(2, 9))
def test_grothendieck_class_closed_forms(p):
    params, simples, projectives, focks = _window(p)
    for x in projectives:
        a, s = p * (x.r - 1), x.s
        closed = {a + s: 1, a - s: -1, a + 2 * p - s: 1, a - 2 * p + s: -1}
        assert grothendieck_class(params, x) == closed, x
    # F_{r,s} (M_{r,p} at s = p) is the monomial w^{pr-s} times w^p - w^-p
    for x in focks:
        e = p * x.r - x.s
        assert grothendieck_class(params, x) == {e + p: 1, e - p: -1}, x
    for r in range(-3, 4):
        d = grothendieck_class(params, simple(params, r, p))
        for n in (2, 3, 4):
            assert grothendieck_class(params, jordan_fock(params, r, n)) == {
                e: n * c for e, c in d.items()
            }


@pytest.mark.parametrize("p", range(2, 9))
def test_grothendieck_class_turns_duality_into_w_to_inverse_w(p):
    # D(dual X)(w) = -D(X)(1/w) for every M and P label
    params, simples, projectives, _ = _window(p)
    for x in simples + projectives:
        flipped = {-e: -c for e, c in grothendieck_class(params, x).items()}
        assert grothendieck_class(params, dual(params, x)) == flipped, x


# --- the fusion routes' memo ----------------------------------------------------


class _NoLock:
    """A lock that fails the test when anything takes it."""

    def acquire(self, *args):
        raise AssertionError("the lock was taken")

    __enter__ = acquire


def test_memo_get_takes_no_lock():
    memo = catalog._Memo()
    memo.put(("a",), (1, 2))
    memo.lock = _NoLock()
    assert memo.get(("a",)) == (1, 2)
    assert memo.get(("b",)) is None


def test_memo_evicts_the_oldest_entry_first(monkeypatch):
    # a read does not make an entry newer: a, read after b was put, is still
    # the oldest when c needs room, where an LRU would evict b
    monkeypatch.setattr(catalog, "_LABELS", 4)
    memo = catalog._Memo()
    memo.put(("a",), "xx")
    memo.put(("b",), "xx")
    assert memo.get(("a",)) == "xx"
    memo.put(("c",), "xx")
    assert list(memo.entries) == [("b",), ("c",)]
    assert memo.labels == 4


def test_memo_keeps_plain_values_and_an_exact_tally(monkeypatch):
    # a hit is the dict's own bound get: no Python frame, no (labels, value)
    # pair; the tally is re-read from the values after puts, a re-put that
    # shrinks an entry, evictions, and a value too large to keep
    monkeypatch.setattr(catalog, "_LABELS", 6)
    memo = catalog._Memo()
    assert memo.get == memo.entries.get and memo.get.__self__ is memo.entries
    memo.put(("a",), "xxx")
    memo.put(("b",), "xx")
    memo.put(("a",), "x")
    assert memo.get(("a",)) == "x"
    memo.put(("c",), "xxxx")
    memo.put(("d",), "xxxxxxx")
    assert list(memo.entries) == [("a",), ("c",)]
    assert memo.labels == sum(map(len, memo.entries.values())) == 5
