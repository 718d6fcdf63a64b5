import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_fusion import catalog, cli, fusion_closed, verify
from singlet_fusion.catalog import (
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    NotNormalForm,
    UnsupportedFusion,
    fock,
    grothendieck_class,
    jordan_fock,
    normalize,
    projective,
    simple,
)
from singlet_fusion.fusion_closed import fuse
from singlet_fusion.fusion_oracle import oracle_fuse
from singlet_fusion.labels import Params

P2 = Params(2)
P3 = Params(3)

MM, PM, PP = (SIMPLE, SIMPLE), (PROJECTIVE, SIMPLE), (PROJECTIVE, PROJECTIVE)

params_st = st.integers(min_value=2, max_value=6).map(Params)
r_st = st.integers(min_value=-4, max_value=4)


def _label_st(kinds=("M", "P")):
    @st.composite
    def build(draw):
        params = draw(params_st)
        r = draw(r_st)
        kind = draw(st.sampled_from(kinds))
        if kind == "M":
            s = draw(st.integers(min_value=1, max_value=params.p))
            return params, simple(params, r, s)
        s = draw(st.integers(min_value=1, max_value=params.p))
        return params, projective(params, r, s)

    return build()


# --- simple x simple -----------------------------------------------------------


def test_fuse_mm_examples():
    assert fuse(P3, simple(P3, 1, 2), simple(P3, 0, 2)) == FormalSum.of(
        simple(P3, 0, 1), simple(P3, 0, 3)
    )
    assert fuse(P2, simple(P2, 1, 2), simple(P2, 1, 2)) == FormalSum.of(
        projective(P2, 1, 1)
    )
    assert fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3)) == FormalSum.of(
        projective(P3, 1, 1), simple(P3, 1, 3)
    )


@given(params_st, r_st, st.data())
def test_fuse_mm_unit(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    one = simple(params, 1, 1)
    x = simple(params, r, s)
    assert fuse(params, one, x) == FormalSum.of(x)
    assert fuse(params, x, one) == FormalSum.of(x)


@given(params_st, st.data())
def test_fuse_mm_commutes(params, data):
    ra, rb = data.draw(r_st), data.draw(r_st)
    sa = data.draw(st.integers(min_value=1, max_value=params.p))
    sb = data.draw(st.integers(min_value=1, max_value=params.p))
    a, b = simple(params, ra, sa), simple(params, rb, sb)
    assert fuse(params, a, b) == fuse(params, b, a)


@given(params_st, r_st)
def test_simple_current_inverses(params, r):
    assert fuse(
        params, simple(params, r, 1), simple(params, 2 - r, 1)
    ) == FormalSum.of(simple(params, 1, 1))


# --- projective products --------------------------------------------------------


def test_fuse_pm_examples():
    assert fuse(P3, projective(P3, 2, 1), simple(P3, 1, 1)) == FormalSum.of(
        projective(P3, 2, 1)
    )
    assert fuse(P3, projective(P3, 1, 1), simple(P3, 1, 2)) == FormalSum.of(
        projective(P3, 1, 2), simple(P3, 2, 3), simple(P3, 0, 3)
    )
    assert fuse(P2, projective(P2, 1, 1), simple(P2, 0, 1)) == FormalSum.of(
        projective(P2, 0, 1)
    )


def test_fuse_pp_examples():
    assert fuse(P2, projective(P2, 1, 1), projective(P2, 1, 1)) == FormalSum(
        [
            (projective(P2, 1, 1), 2),
            (projective(P2, 2, 1), 1),
            (projective(P2, 0, 1), 1),
        ]
    )
    # hand evaluation of the six-window formula at p = 3
    assert fuse(P3, projective(P3, 1, 1), projective(P3, 1, 1)) == FormalSum(
        [
            (projective(P3, 1, 1), 2),
            (projective(P3, 2, 2), 1),
            (projective(P3, 0, 2), 1),
            (simple(P3, 3, 3), 1),
            (simple(P3, 1, 3), 2),
            (simple(P3, -1, 3), 1),
        ]
    )


@given(params_st, st.data())
@settings(max_examples=60)
def test_fuse_pp_commutes(params, data):
    ra, rb = data.draw(r_st), data.draw(r_st)
    sa = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    sb = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    a, b = projective(params, ra, sa), projective(params, rb, sb)
    assert fuse(params, a, b) == fuse(params, b, a)


# --- generator rules --------------------------------------------------------------


def test_generator_examples():
    # the simple currents shift r; M_{1,2} is one step of the oracle's rule
    for route in (fuse, oracle_fuse):
        assert route(P3, simple(P3, 3, 1), simple(P3, 5, 1)) == FormalSum.of(
            simple(P3, 7, 1)
        )
        assert route(P2, simple(P2, 2, 1), projective(P2, 0, 1)) == FormalSum.of(
            projective(P2, 1, 1)
        )
    assert oracle_fuse(P2, projective(P2, 1, 1), simple(P2, 1, 2)) == FormalSum(
        [
            (simple(P2, 2, 2), 1),
            (simple(P2, 1, 2), 2),
            (simple(P2, 0, 2), 1),
        ]
    )
    assert fuse(P3, simple(P3, -1, 1), fock(P3, 1, 2)) == FormalSum.of(fock(P3, -1, 2))


def test_generator_rejects():
    with pytest.raises(UnsupportedFusion):
        fuse(P3, simple(P3, 2, 1), fock(P3, 1, 1))
    with pytest.raises(UnsupportedFusion):
        fuse(P3, simple(P3, 1, 2), fock(P3, 1, 1))
    with pytest.raises(UnsupportedFusion):
        fuse(P2, simple(P2, 1, 2), jordan_fock(P2, 1, 2))


@given(params_st, r_st, st.data())
def test_generators_agree_with_closed_forms(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    x = simple(params, r, s)
    for g in (
        simple(params, 2 * data.draw(st.integers(-2, 2)) + 1, 1),
        simple(params, 2, 1),
        simple(params, 1, 2),
    ):
        # the label on the left, so the oracle takes one step of the rule
        assert oracle_fuse(params, x, g) == fuse(params, x, g)
    if s <= params.p - 1:
        px = projective(params, r, s)
        for g in (simple(params, 2, 1), simple(params, 1, 2)):
            assert oracle_fuse(params, px, g) == fuse(params, px, g)


# --- bilinear front end -------------------------------------------------------------


def test_fuse_bilinear():
    zero = FormalSum()
    assert fuse(P2, zero, FormalSum.of(simple(P2, 1, 1))) == zero
    two_units = FormalSum([(simple(P2, 1, 1), 2)])
    x = projective(P2, 0, 1)
    assert fuse(P2, two_units, FormalSum.of(x)) == FormalSum([(x, 2)])
    mixed = FormalSum.of(simple(P2, 1, 2), simple(P2, 2, 1))
    assert fuse(P2, mixed, simple(P2, 1, 2)) == FormalSum.of(
        projective(P2, 1, 1), simple(P2, 2, 2)
    )


def test_fuse_dispatch_rejections():
    with pytest.raises(UnsupportedFusion):
        fuse(P3, fock(P3, 1, 1), fock(P3, 1, 1))
    with pytest.raises(UnsupportedFusion):
        fuse(P3, fock(P3, 1, 1), simple(P3, 2, 1))
    with pytest.raises(UnsupportedFusion):
        fuse(P2, jordan_fock(P2, 1, 2), simple(P2, 1, 1))
    # odd simple currents are the one legal Fock pairing, either side
    assert fuse(P3, fock(P3, 1, 1), simple(P3, 3, 1)) == FormalSum.of(fock(P3, 3, 1))
    assert fuse(P3, simple(P3, 3, 1), fock(P3, 1, 1)) == FormalSum.of(fock(P3, 3, 1))


def test_closed_forms_reject_out_of_range_simples():
    # raw labels skip the constructors' check; the closed forms must not
    # answer for them (M:1,4 x M:1,1 used to give P:1,2, M:1,0 gave 0)
    for bad in (Indecomposable("M", 1, 4), Indecomposable("M", 1, 0)):
        with pytest.raises(NotNormalForm, match="1 <= s <= 3"):
            fuse(P3, bad, simple(P3, 1, 1))
        with pytest.raises(NotNormalForm, match="1 <= s <= 3"):
            fuse(P3, simple(P3, 1, 1), bad)
        with pytest.raises(NotNormalForm, match="1 <= s <= 3"):
            fuse(P3, projective(P3, 1, 1), bad)


def test_fuse_names_an_unknown_kind():
    bad = Indecomposable("Q", 1, 1)
    for a, b in ((bad, simple(P3, 1, 1)), (projective(P3, 1, 1), bad)):
        with pytest.raises(NotNormalForm, match="unknown label kind 'Q'"):
            fuse(P3, a, b)


# --- associativity and Grothendieck shadow ---------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_associativity_simples_small_window(p):
    params = Params(p)
    labels = [
        simple(params, r, s) for r in range(-1, 2) for s in range(1, params.p + 1)
    ]
    for a, b, c in itertools.product(labels, repeat=3):
        left = fuse(params, fuse(params, a, b), c)
        right = fuse(params, a, fuse(params, b, c))
        assert left == right, (a, b, c)


_W = {1: 1, -1: -1}  # w - 1/w


def test_grothendieck_examples():
    # the unit's class is w - 1/w, so D(P) D(M_{1,1}) = (w - 1/w) D(P)
    prs = projective(P3, 0, 2)
    unit = grothendieck_class(P3, FormalSum.of(simple(P3, 1, 1)))
    assert unit == _W
    d_prs = grothendieck_class(P3, FormalSum.of(prs))
    assert d_prs == {-1: 1, -5: -1, 1: 1, -7: -1}
    assert verify._laurent_product(d_prs, unit) == verify._laurent_product(_W, d_prs)
    # M_{1,2} x M_{1,2} = 2 M_{1,1} + M_{0,1} + M_{2,1} at p = 2: both sides
    # are w^4 - 2 + w^-4
    square = verify._laurent_product(
        grothendieck_class(P2, simple(P2, 1, 2)), grothendieck_class(P2, simple(P2, 1, 2))
    )
    assert square == {4: 1, 0: -2, -4: 1}
    total = FormalSum(
        [(simple(P2, 1, 1), 2), (simple(P2, 0, 1), 1), (simple(P2, 2, 1), 1)]
    )
    assert verify._laurent_product(_W, grothendieck_class(P2, total)) == square


@given(params_st, st.data())
@settings(max_examples=60)
def test_pp_splits_along_either_factor(params, data):
    # tensoring with a projective splits the other factor's socle
    # filtration, so P x P equals the weighted sum of P x (factors) taken
    # on either side
    ra, rb = data.draw(r_st), data.draw(r_st)
    sa = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    sb = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    a, b = projective(params, ra, sa), projective(params, rb, sb)
    whole = fuse(params, a, b)
    via_b = FormalSum.combine([
        (2, fuse(params, a, simple(params, rb, sb))),
        (1, fuse(params, a, simple(params, rb + 1, params.p - sb))),
        (1, fuse(params, a, simple(params, rb - 1, params.p - sb))),
    ])
    via_a = FormalSum.combine([
        (2, fuse(params, b, simple(params, ra, sa))),
        (1, fuse(params, b, simple(params, ra + 1, params.p - sa))),
        (1, fuse(params, b, simple(params, ra - 1, params.p - sa))),
    ])
    assert whole == via_b == via_a


@given(_label_st(), st.data())
@settings(max_examples=80)
def test_grothendieck_commutes_with_fusion(pair, data):
    params, a = pair
    rb = data.draw(r_st)
    kind = data.draw(st.sampled_from(("M", "P")))
    sb = data.draw(st.integers(min_value=1, max_value=params.p))
    b = simple(params, rb, sb) if kind == "M" else projective(params, rb, sb)
    rhs = verify._laurent_product(grothendieck_class(params, a), grothendieck_class(params, b))
    assert verify._laurent_product(_W, grothendieck_class(params, fuse(params, a, b))) == rhs
    assert verify._laurent_product(_W, grothendieck_class(params, fuse(params, b, a))) == rhs


def test_grothendieck_check_catches_a_wrong_fuse_mm(monkeypatch):
    # drop one copy of the largest-s simple summand from every M x M
    # template; the ring product does not go through the templates, so the
    # fusion suite's Grothendieck check must flag every pair whose product
    # changed
    params = Params(4)
    right = fusion_closed._template

    def wrong(params, kinds, s, t):
        out = right(params, kinds, s, t)
        simples = [lab for lab, _ in out if lab.kind == "M"]
        if kinds != (SIMPLE, SIMPLE) or not simples:
            return out
        top = max(simples, key=lambda lab: lab.s)
        return FormalSum((lab, m - (lab == top)) for lab, m in out)

    labels = [simple(params, r, s) for r in range(-1, 2) for s in range(1, 5)]
    before = {(a, b): fuse(params, a, b) for a in labels for b in labels}
    monkeypatch.setattr(fusion_closed, "_template", wrong)
    changed = {f"{a} x {b}" for (a, b), ab in before.items() if fuse(params, a, b) != ab}
    assert len(changed) == 117
    _, failures = verify.fusion_suite(params, 1)
    prefix = "Grothendieck consistency failure at "
    flagged = {msg[len(prefix):] for msg in failures if msg.startswith(prefix)}
    assert flagged == changed


# --- r-free templates -------------------------------------------------------------


def _all_products(params, rs):
    """Every M/P pair over ``rs`` with the projective factor first."""
    p = params.p
    ms = [simple(params, r, s) for r in rs for s in range(1, p + 1)]
    ps = [projective(params, r, s) for r in rs for s in range(1, p)]
    for a in ms:
        for b in ms:
            fuse(params, a, b)
    for a in ps:
        for b in ms:
            fuse(params, a, b)
        for b in ps:
            fuse(params, a, b)


def _fresh_templates(monkeypatch):
    """An empty template memo for this test; returns it."""
    memo = catalog._Memo()
    monkeypatch.setattr(fusion_closed, "_templates", memo)
    return memo


def _held(memo):
    """Labels the memo's templates hold, counted afresh: one per distinct term."""
    return sum(len(template) for template in memo.entries.values())


def test_template_memo_does_not_grow_with_r(monkeypatch):
    params = Params(4)
    memo = _fresh_templates(monkeypatch)
    _all_products(params, [1])
    # canonical keys: s <= t for M x M and P x P, both orders for P x M
    assert len(memo.entries) == 10 + 12 + 6
    held = memo.labels
    _all_products(params, range(-50, 51))
    assert len(memo.entries) == 10 + 12 + 6
    assert _held(memo) == memo.labels == held <= catalog._LABELS


@pytest.mark.parametrize("kind", [simple, projective], ids=["simple-fuse_mm", "projective-fuse_pp"])
def test_template_shared_by_swapped_factors(monkeypatch, kind):
    params = Params(5)
    memo = _fresh_templates(monkeypatch)
    put, builds = memo.put, []

    def counted(key, template):
        builds.append(key)
        put(key, template)

    monkeypatch.setattr(memo, "put", counted)
    a, b = kind(params, 3, 1), kind(params, -2, 4)
    ab = fuse(params, a, b)
    assert len(memo.entries) == len(builds) == 1
    assert fuse(params, b, a) == ab
    assert len(memo.entries) == len(builds) == 1
    assert _held(memo) == memo.labels <= catalog._LABELS


def test_template_memo_is_bounded_by_labels(monkeypatch):
    # P_{1,s} x P_{1,s} at p = 2 000 has 3 000 distinct terms for s <= p/2,
    # so twelve distinct products would hold 36 000 labels; under a budget of
    # 10 000 the oldest go first, and the three newest are kept
    memo = _fresh_templates(monkeypatch)
    budget = 10_000
    monkeypatch.setattr(catalog, "_LABELS", budget)
    params = Params(2000)
    keys = []
    for s in range(1, 13):
        a = projective(params, 1, s)
        fuse(params, a, a)
        keys.append((2000, PP, s, s))
        assert _held(memo) == memo.labels <= budget
    assert list(memo.entries) == keys[-3:]


def test_oversize_template_is_not_kept_and_evicts_nothing(monkeypatch):
    # P_{1,1} x P_{1,1} at p = 20 000 has 30 000 distinct terms, more than a
    # budget of 10 000: it is answered but not kept, and the small templates
    # kept before it stay
    memo = _fresh_templates(monkeypatch)
    monkeypatch.setattr(catalog, "_LABELS", 10_000)
    params = Params(20_000)
    for s in (1, 2, 3):
        a = simple(params, 1, s)
        fuse(params, a, a)
    small = list(memo.entries)
    assert small == [(20_000, MM, s, s) for s in (1, 2, 3)]
    a = projective(params, 1, 1)
    assert len(fuse(params, a, a)) == 30_000
    assert list(memo.entries) == small
    assert _held(memo) == memo.labels == 1 + 2 + 3


def test_closed_p_bound_boundary(monkeypatch, capsys):
    # p = _MAX_P reaches the template; the next p is refused before any
    # template is built, by the library entry point and so by the CLI
    bound = fusion_closed._MAX_P
    assert bound >= 100_000  # above every caller: table, verify and triplet stop at p < 250

    def no_template(*args):
        raise AssertionError("a template was built")

    monkeypatch.setattr(fusion_closed, "_template", no_template)
    top = Params(bound)
    with pytest.raises(AssertionError, match="a template was built"):
        fuse(top, simple(top, 1, 2), simple(top, 1, 2))
    over = Params(bound + 1)
    message = f"fuse needs p <= {bound}, got p={bound + 1}"
    for a, b in (
        (simple(over, 1, 2), simple(over, 1, 2)),
        (projective(over, 1, 1), FormalSum.of(simple(over, 1, 1))),
        (fock(over, 1, 2), simple(over, 3, 1)),
    ):
        with pytest.raises(ValueError, match=message):
            fuse(over, a, b)
    assert cli.main(["fuse", "--p", str(bound + 1), "M:1,2", "M:1,2"]) == 2
    assert message in capsys.readouterr().err


def test_template_matches_the_products_at_r_one():
    params = Params(5)
    for s in range(1, 6):
        for t in range(1, 6):
            a, b = simple(params, 1, s), simple(params, 1, t)
            lo, hi = min(s, t), max(s, t)
            assert fuse(params, a, b) == fusion_closed._template(params, MM, lo, hi)
            if s < 5:
                pa = projective(params, 1, s)
                assert fuse(params, pa, b) == fusion_closed._template(params, PM, s, t)
                if t < 5:
                    pb = projective(params, 1, t)
                    got = fuse(params, pa, pb)
                    assert got == fusion_closed._template(params, PP, lo, hi)


@pytest.mark.parametrize("p", range(2, 9))
def test_both_engines_return_sorted_normal_forms(p):
    # the r-shift of the r = 1 products checks no term, so the products
    # themselves are checked here: every term a normal form, in sorted order
    params = Params(p)
    labels = catalog.label_window(params, -1, 2)
    for a in labels:
        for b in labels:
            for product in (fuse(params, a, b), oracle_fuse(params, a, b)):
                assert all(normalize(params, label) == label for label, _ in product)
                assert list(product) == sorted(product)


def test_memo_cannot_hide_a_broken_formula(monkeypatch):
    # drop the top l of the last window of every M x M template; with the
    # memo cleared, the rebuilt templates carry the fault and the fusion
    # suite sees it
    right = fusion_closed._windows

    def wrong(p, kinds, s, t):
        windows = right(p, kinds, s, t)
        if kinds != MM:
            return windows
        *head, (kind, ells, rs) = windows
        return head + [(kind, ells[:-1], rs)]

    _fresh_templates(monkeypatch)
    assert verify.fusion_suite(Params(4), 1)[1] == []
    monkeypatch.setattr(fusion_closed, "_windows", wrong)
    memo = _fresh_templates(monkeypatch)
    checks, failures = verify.fusion_suite(Params(4), 1)
    assert _held(memo) == memo.labels <= catalog._LABELS
    assert failures
    assert any(msg.startswith("oracle mismatch at M:") for msg in failures)


# --- the window loops the templates replaced, kept as the reference -------------------


def _mm_terms(params, s, t):
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


def _pm_windows(params, s, t):
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


def _pp_pairs(params, s, t):
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


@pytest.mark.parametrize("p", range(2, 21))
def test_templates_equal_the_window_loops(monkeypatch, p):
    # every key, both orders for M x M and P x P, against the loops above
    params = Params(p)
    memo = _fresh_templates(monkeypatch)
    for s in range(1, p + 1):
        for t in range(1, p + 1):
            assert fusion_closed._template(params, MM, s, t) == FormalSum.of(
                *_mm_terms(params, s, t)
            ), (s, t)
            if s < p:
                assert fusion_closed._template(params, PM, s, t) == FormalSum.of(
                    *_pm_windows(params, s, t)
                ), (s, t)
                if t < p:
                    assert fusion_closed._template(params, PP, s, t) == FormalSum(
                        _pp_pairs(params, s, t)
                    ), (s, t)
    assert _held(memo) == memo.labels <= catalog._LABELS
