import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlet_fusion import catalog, triplet
from singlet_fusion.catalog import FormalSum, UnsupportedFusion, UnsupportedOperation
from singlet_fusion.labels import Params, rbar

P2 = Params(2)
P3 = Params(3)

params_st = st.integers(min_value=2, max_value=6).map(Params)
r_st = st.integers(min_value=-4, max_value=4)


# --- labels ---------------------------------------------------------------------


def test_lattice_aliasing_at_s_p():
    assert triplet.induce(P3, catalog.fock(P3, 1, 3)) == triplet.simple_w(P3, 1, 3)
    assert triplet.induce(P3, catalog.fock(P3, 2, 2)).kind == triplet.LATTICE_V


def test_projective_r_range():
    assert triplet.projective_r(P3, 1, 2).s == 2
    with pytest.raises(ValueError):
        triplet.projective_r(P3, 1, 3)
    with pytest.raises(ValueError):
        triplet.simple_w(P3, 3, 1)


BAD_LABELS = [
    triplet.TripletIndec("X", 1, 1),  # unknown kind
    triplet.TripletIndec("W", 3, 1),  # rbar outside {1, 2}
    triplet.TripletIndec("R", 0, 1),
    triplet.TripletIndec("W", 1, 0),  # s below range
    triplet.TripletIndec("W", 1, 4),  # W needs s <= p
    triplet.TripletIndec("V", 1, 3),  # V and R need s <= p-1
    triplet.TripletIndec("R", 1, 3),
    triplet.TripletIndec("W", 5, 9),
]


@pytest.mark.parametrize("bad", BAD_LABELS, ids=str)
def test_public_functions_reject_bad_labels(bad):
    good = triplet.simple_w(P3, 1, 2)
    calls = [
        lambda: triplet.preimage(P3, bad),
        lambda: triplet.triplet_fuse_generator(P3, bad, good),
        lambda: triplet.triplet_fuse_generator(P3, good, bad),
        lambda: triplet.derived_triplet_fuse(P3, bad, good),
        lambda: triplet.derived_triplet_fuse(P3, good, bad),
        lambda: triplet.composition_factors(P3, bad),
        lambda: triplet.loewy(P3, bad),
    ]
    for call in calls:
        # the label check itself, not a later UnsupportedFusion/UnsupportedOperation
        with pytest.raises(ValueError) as excinfo:
            call()
        assert excinfo.type is ValueError


# --- induction ------------------------------------------------------------------


def test_induce_examples():
    assert triplet.induce(P3, catalog.simple(P3, 3, 2)) == triplet.simple_w(P3, 1, 2)
    assert triplet.induce(P3, catalog.projective(P3, 0, 2)) == triplet.projective_r(
        P3, 2, 2
    )
    assert triplet.induce(P3, catalog.fock(P3, 1, 1)) == triplet.TripletIndec(
        triplet.LATTICE_V, 1, 1
    )
    # s = p Fock labels normalize to simples before inducing
    assert triplet.induce(P2, catalog.fock(P2, 4, 2)) == triplet.simple_w(P2, 2, 2)


def test_induce_rejects_jordan():
    with pytest.raises(UnsupportedOperation):
        triplet.induce(P2, catalog.jordan_fock(P2, 1, 2))


@given(params_st, r_st, st.data())
def test_induce_collapses_parity_only(params, r, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    got = triplet.induce(params, catalog.simple(params, r, s))
    assert got == triplet.simple_w(params, rbar(r), s)
    shifted = triplet.induce(params, catalog.simple(params, r + 2, s))
    assert got == shifted


def test_induce_sum_termwise():
    assert triplet.induce_sum(P3, FormalSum()) == FormalSum()
    xs = FormalSum.of(catalog.simple(P3, 1, 2), catalog.simple(P3, 2, 2))
    assert triplet.induce_sum(P3, xs) == FormalSum.of(
        triplet.simple_w(P3, 1, 2), triplet.simple_w(P3, 2, 2)
    )
    ps = FormalSum([(catalog.projective(P3, 1, 2), 2)])
    assert triplet.induce_sum(P3, ps) == FormalSum(
        [(triplet.projective_r(P3, 1, 2), 2)]
    )


# each builder, the singlet kind it induces from, and the kind it builds
BUILDERS = (
    (triplet.simple_w, catalog.SIMPLE, triplet.SIMPLE_W),
    (
        lambda params, rb, s: triplet.induce(params, catalog.fock(params, rb, s)),
        catalog.FOCK,
        triplet.LATTICE_V,
    ),
    (triplet.projective_r, catalog.PROJECTIVE, triplet.PROJ_R),
)


def _valid_triplet_labels(params):
    for r in range(-3, 4):
        for build, kind, _ in BUILDERS:
            for s in range(1, params.p + 1):
                if catalog._is_normal(params.p, kind, s, 1):
                    yield build(params, rbar(r), s)


@pytest.mark.parametrize("p", range(2, 9))
def test_induce_undoes_preimage(p):
    params = Params(p)
    for t in _valid_triplet_labels(params):
        for k in (-2, 0, 2):
            assert triplet.induce(params, triplet.preimage(params, t, k)) == t, (t, k)


@pytest.mark.parametrize("p", range(2, 9))
def test_preimage_of_induce_keeps_kind_s_and_parity(p):
    params = Params(p)
    for r in range(-3, 4):
        for build in (catalog.simple, catalog.fock, catalog.projective):
            for s in range(1, p + 1):
                x = build(params, r, s)
                y = triplet.preimage(params, triplet.induce(params, x))
                assert (y.kind, y.s, y.r % 2) == (x.kind, x.s, x.r % 2), x


@pytest.mark.parametrize("p", range(2, 9))
def test_builders_reject_what_the_catalog_rejects(p):
    # V(., p) is the one alias: it builds W(., p), whose preimage M(., p) is normal
    params = Params(p)
    for r in range(-3, 4):
        for build, kind, built in BUILDERS:
            for s in range(0, p + 2):
                if kind == catalog.FOCK and s == p:
                    assert build(params, rbar(r), s) == triplet.simple_w(params, rbar(r), s)
                elif catalog._is_normal(p, kind, s, 1):
                    t = build(params, rbar(r), s)
                    assert (t.kind, t.rbar, t.s) == (built, rbar(r), s)
                else:
                    with pytest.raises(ValueError):
                        build(params, rbar(r), s)


@pytest.mark.parametrize("bad", [1.5, 2.0, True], ids=repr)
def test_triplet_labels_reject_non_int_indices(bad):
    # rbar, s and the preimage shift follow the catalog builders' int rule
    w = triplet.simple_w(P3, 1, 2)
    calls = [
        lambda: triplet.simple_w(P3, bad, 2),
        lambda: triplet.simple_w(P3, 1, bad),
        lambda: triplet.induce(P3, catalog.fock(P3, 1, bad)),
        lambda: triplet.projective_r(P3, bad, 1),
        lambda: triplet.preimage(P3, triplet.TripletIndec(triplet.SIMPLE_W, 1, bad)),
        lambda: triplet.preimage(P3, w, bad),
        lambda: triplet.derived_triplet_fuse(P3, w, w, 0, bad),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="is not an int"):
            call()


def test_mixed_sum_order_and_str():
    p4 = Params(4)
    xs = FormalSum.of(
        triplet.simple_w(p4, 2, 1),
        triplet.projective_r(p4, 2, 3),
        triplet.induce(p4, catalog.fock(p4, 1, 2)),
        triplet.simple_w(p4, 1, 4),
        triplet.projective_r(p4, 1, 1),
        triplet.induce(p4, catalog.fock(p4, 2, 4)),
        triplet.simple_w(p4, 2, 1),
    )
    assert str(xs) == "R:1,1 + R:2,3 + V:1,2 + W:1,4 + 2*W:2,1 + W:2,4"
    assert repr(tuple(xs)[0][0]) == "TripletIndec(kind='R', rbar=1, s=1)"


# --- generator rules ---------------------------------------------------------------


def test_triplet_generator_examples():
    w21 = triplet.simple_w(P3, 2, 1)
    w12 = triplet.simple_w(P3, 1, 2)
    assert triplet.triplet_fuse_generator(P3, w21, triplet.simple_w(P3, 2, 3)) == (
        FormalSum.of(triplet.simple_w(P3, 1, 3))
    )
    assert triplet.triplet_fuse_generator(P3, w12, triplet.simple_w(P3, 1, 3)) == (
        FormalSum.of(triplet.projective_r(P3, 1, 2))
    )
    assert triplet.triplet_fuse_generator(P3, w12, w21) == FormalSum.of(
        triplet.simple_w(P3, 2, 2)
    )


def test_triplet_generator_rejections():
    with pytest.raises(UnsupportedFusion):
        triplet.triplet_fuse_generator(
            P3, triplet.simple_w(P3, 2, 2), triplet.simple_w(P3, 1, 1)
        )
    with pytest.raises(UnsupportedFusion):
        triplet.triplet_fuse_generator(
            P3, triplet.simple_w(P3, 1, 2), triplet.induce(P3, catalog.fock(P3, 1, 1))
        )


# --- derived fusion ------------------------------------------------------------------


def test_derived_fusion_examples():
    assert triplet.derived_triplet_fuse(
        P3, triplet.simple_w(P3, 1, 2), triplet.simple_w(P3, 1, 3)
    ) == FormalSum.of(triplet.projective_r(P3, 1, 2))
    assert triplet.derived_triplet_fuse(
        P3, triplet.simple_w(P3, 2, 1), triplet.simple_w(P3, 2, 1)
    ) == FormalSum.of(triplet.simple_w(P3, 1, 1))
    assert triplet.derived_triplet_fuse(
        P2, triplet.simple_w(P2, 1, 2), triplet.simple_w(P2, 1, 2)
    ) == FormalSum.of(triplet.projective_r(P2, 1, 1))


def test_derived_fusion_with_projective_arguments():
    # the self-dual current flips the parity of a projective label
    assert triplet.derived_triplet_fuse(
        P3, triplet.simple_w(P3, 2, 1), triplet.projective_r(P3, 1, 2)
    ) == FormalSum.of(triplet.projective_r(P3, 2, 2))
    # fusing the degenerate generator into the projective cover R_{1,p-1}
    # walks one column down, to the projective cover R_{1,p-2} for p >= 3
    got = triplet.derived_triplet_fuse(
        P3, triplet.simple_w(P3, 1, 2), triplet.projective_r(P3, 1, 2)
    )
    lower = triplet.projective_r(P3, 1, 1)
    assert got == FormalSum([(lower, 1), (triplet.simple_w(P3, 1, 3), 2)])
    assert triplet.composition_factors(P3, lower) == FormalSum(
        [(triplet.simple_w(P3, 1, 1), 2), (triplet.simple_w(P3, 2, 2), 2)]
    )
    # at p = 2 everything collapses onto the s = 2 simples
    got = triplet.derived_triplet_fuse(
        P2, triplet.simple_w(P2, 1, 2), triplet.projective_r(P2, 1, 1)
    )
    assert got == FormalSum(
        [(triplet.simple_w(P2, 1, 2), 2), (triplet.simple_w(P2, 2, 2), 2)]
    )


@given(params_st, st.data())
def test_generator_agreement(params, data):
    rb = data.draw(st.sampled_from((1, 2)))
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    x = triplet.simple_w(params, rb, s)
    for g in (triplet.simple_w(params, 2, 1), triplet.simple_w(params, 1, 2)):
        assert triplet.derived_triplet_fuse(
            params, g, x
        ) == triplet.triplet_fuse_generator(params, g, x)


@given(params_st, st.data())
def test_preimage_independence(params, data):
    def draw_label():
        if data.draw(st.booleans()):
            return triplet.simple_w(
                params,
                data.draw(st.sampled_from((1, 2))),
                data.draw(st.integers(min_value=1, max_value=params.p)),
            )
        return triplet.projective_r(
            params,
            data.draw(st.sampled_from((1, 2))),
            data.draw(st.integers(min_value=1, max_value=params.p - 1)),
        )

    a, b = draw_label(), draw_label()
    base = triplet.derived_triplet_fuse(params, a, b)
    for sa in (-2, 0, 2):
        for sb in (-2, 0, 2):
            assert triplet.derived_triplet_fuse(params, a, b, sa, sb) == base


def test_preimage_shift_must_be_even():
    with pytest.raises(ValueError):
        triplet.preimage(P3, triplet.simple_w(P3, 1, 1), r_shift=1)


def test_derived_fusion_rejects_lattice():
    with pytest.raises(UnsupportedFusion):
        triplet.derived_triplet_fuse(
            P3, triplet.induce(P3, catalog.fock(P3, 1, 1)), triplet.simple_w(P3, 1, 1)
        )


# --- structural data -------------------------------------------------------------------


@given(params_st, r_st, st.data())
def test_exactness_bookkeeping(params, r, data):
    # inducing the composition factors of P_{r,s} reproduces the factors
    # of R_{rbar,s} read off its Loewy diagram, for every s
    s = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    induced = triplet.induce_sum(
        params, catalog.composition_factors(params, catalog.projective(params, r, s))
    )
    layers = triplet.loewy(params, triplet.projective_r(params, rbar(r), s))
    assert induced == FormalSum.combine((1, layer) for layer in layers)


def test_every_projective_is_the_cover_of_its_top():
    # R_{rbar,s} = Ind P_{r,s} is the projective cover of W_{rbar,s} for
    # every s: the induced factors of P_{r,s} are 2 W_{rbar,s} + 2 W_{3-rbar,p-s},
    # both as composition factors and as Loewy layers, and W_{rbar,s} alone
    # is the top and the socle
    cases = 0
    for p in range(2, 13):
        params = Params(p)
        for r in range(-3, 4):
            rb = rbar(r)
            for s in range(1, p):
                t = triplet.projective_r(params, rb, s)
                own = triplet.simple_w(params, rb, s)
                other = triplet.simple_w(params, 3 - rb, p - s)
                expected = FormalSum([(own, 2), (other, 2)])
                induced = triplet.induce_sum(
                    params,
                    catalog.composition_factors(params, catalog.projective(params, r, s)),
                )
                layers = triplet.loewy(params, t)
                assert induced == expected, (p, r, s)
                assert triplet.composition_factors(params, t) == expected, (p, r, s)
                assert FormalSum.combine((1, layer) for layer in layers) == expected, (p, r, s)
                assert layers[0] == layers[-1] == FormalSum.of(own), (p, r, s)
                cases += 1
    assert cases == 462


def test_lattice_composition_factors():
    v11 = triplet.induce(P3, catalog.fock(P3, 1, 1))
    assert triplet.composition_factors(P3, v11) == FormalSum.of(
        triplet.simple_w(P3, 1, 1), triplet.simple_w(P3, 2, 2)
    )
    # every R_{rbar,s} is a projective cover, not only s = p-1
    p4 = Params(4)
    assert triplet.composition_factors(p4, triplet.projective_r(p4, 1, 1)) == FormalSum(
        [(triplet.simple_w(p4, 1, 1), 2), (triplet.simple_w(p4, 2, 3), 2)]
    )
