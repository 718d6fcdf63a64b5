import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_fusion import cli, fusion_closed
from singlet_fusion import fusion_oracle as oracle_mod
from singlet_fusion.catalog import (
    FOCK,
    JORDAN_FOCK,
    PROJECTIVE,
    SIMPLE,
    FormalSum,
    Indecomposable,
    NotNormalForm,
    UnsupportedFusion,
    fock,
    jordan_fock,
    projective,
    simple,
)
from singlet_fusion.fusion_oracle import (
    NegativeMultiplicityError,
    ks_subtract,
    oracle_fuse,
)
from singlet_fusion.labels import Params

P2 = Params(2)
P3 = Params(3)

params_st = st.integers(min_value=2, max_value=6).map(Params)
r_st = st.integers(min_value=-3, max_value=3)


# --- Krull-Schmidt subtraction ------------------------------------------------


def test_ks_subtract_examples():
    a = FormalSum([(simple(P3, 1, 1), 1), (simple(P3, 1, 3), 2)])
    b = FormalSum.of(simple(P3, 1, 3))
    assert ks_subtract(a, b) == FormalSum.of(simple(P3, 1, 1), simple(P3, 1, 3))
    assert ks_subtract(a, a) == FormalSum()
    assert not ks_subtract(a, a)


def test_ks_subtract_raises_and_reports():
    a = FormalSum.of(simple(P3, 1, 1))
    b = FormalSum.of(simple(P3, 2, 1))
    with pytest.raises(NegativeMultiplicityError) as err:
        ks_subtract(a, b)
    assert err.value.minuend == a
    assert err.value.subtrahend == b
    assert err.value.label == simple(P3, 2, 1)


@given(params_st, st.data())
def test_ks_subtract_roundtrip(params, data):
    labels = st.tuples(r_st, st.integers(min_value=1, max_value=params.p)).map(
        lambda t: simple(params, *t)
    )
    a = FormalSum(data.draw(st.lists(st.tuples(labels, st.integers(1, 3)), max_size=5)))
    b = FormalSum(data.draw(st.lists(st.tuples(labels, st.integers(1, 3)), max_size=5)))
    assert ks_subtract(FormalSum.combine([(1, a), (1, b)]), b) == a


# --- column recursion ------------------------------------------------------------


@given(params_st, st.data())
def test_column_on_unit_gives_the_column(params, data):
    s = data.draw(st.integers(min_value=1, max_value=params.p))
    got = oracle_fuse(params, simple(params, 1, 1), simple(params, 1, s))
    assert got == FormalSum.of(simple(params, 1, s))


def test_column_examples():
    got = oracle_fuse(P3, simple(P3, 1, 2), simple(P3, 1, 3))
    assert got == fusion_closed.fuse(P3, simple(P3, 1, 2), simple(P3, 1, 3))
    assert got == FormalSum.of(projective(P3, 1, 2))
    got = oracle_fuse(P2, projective(P2, 1, 1), simple(P2, 1, 2))
    assert got == fusion_closed.fuse(P2, projective(P2, 1, 1), simple(P2, 1, 2))


def test_column_validates_inputs():
    with pytest.raises(ValueError):
        oracle_fuse(P2, simple(P2, 1, 1), Indecomposable(SIMPLE, 1, 3))
    with pytest.raises(UnsupportedFusion):
        oracle_fuse(P3, fock(P3, 1, 1), simple(P3, 1, 2))


# --- oracle vs closed forms -------------------------------------------------------


def test_oracle_mm_examples():
    assert oracle_fuse(P3, simple(P3, 2, 1), simple(P3, 0, 1)) == FormalSum.of(
        simple(P3, 1, 1)
    )
    assert oracle_fuse(P2, simple(P2, 1, 2), simple(P2, 1, 2)) == FormalSum.of(
        projective(P2, 1, 1)
    )


def test_oracle_p_examples():
    assert oracle_fuse(P2, projective(P2, 1, 1), projective(P2, 1, 1)) == FormalSum(
        [
            (projective(P2, 1, 1), 2),
            (projective(P2, 2, 1), 1),
            (projective(P2, 0, 1), 1),
        ]
    )
    assert oracle_fuse(P3, projective(P3, 1, 1), simple(P3, 1, 1)) == FormalSum.of(
        projective(P3, 1, 1)
    )
    assert oracle_fuse(P3, projective(P3, 1, 2), simple(P3, 0, 2)) == (
        fusion_closed.fuse(P3, projective(P3, 1, 2), simple(P3, 0, 2))
    )


# M is the odd simple current M_{3,1}, the one simple a Fock module fuses with
_KIND_LABELS = {
    SIMPLE: simple(P3, 3, 1),
    PROJECTIVE: projective(P3, -1, 2),
    FOCK: fock(P3, 2, 1),
    JORDAN_FOCK: jordan_fock(P3, 1, 2),
}
_MP_PAIRS = {(SIMPLE, SIMPLE), (SIMPLE, PROJECTIVE), (PROJECTIVE, SIMPLE), (PROJECTIVE, PROJECTIVE)}


@pytest.mark.parametrize("kx, ky", list(itertools.product(_KIND_LABELS, repeat=2)))
@pytest.mark.parametrize(
    "route, answers, refusal",
    [
        (fusion_closed.fuse, _MP_PAIRS | {(SIMPLE, FOCK), (FOCK, SIMPLE)}, "Fock"),
        (oracle_fuse, _MP_PAIRS, "M/P labels only"),
    ],
    ids=["fuse", "oracle_fuse"],
)
def test_dispatch_table(route, answers, refusal, kx, ky):
    # which kind pairs each engine answers; every other pair, Jordan Fock
    # labels on either side included, raises UnsupportedFusion
    x, y = _KIND_LABELS[kx], _KIND_LABELS[ky]
    if (kx, ky) not in answers:
        with pytest.raises(UnsupportedFusion, match=refusal):
            route(P3, x, y)
        return
    assert route(P3, x, y) == route(P3, y, x)
    if {kx, ky} == {SIMPLE, PROJECTIVE}:
        # M x P is read as P x M, also for a simple that is not a current
        m, proj = simple(P3, 0, 2), _KIND_LABELS[PROJECTIVE]
        assert route(P3, m, proj) == route(P3, proj, m) == fusion_closed.fuse(P3, proj, m)


def test_oracle_rejects_unnormalized_projectives():
    # P(r, p) is stored as M(r, p), so a raw P label at s = p (or s = 0) was
    # built around the constructors; both routes refuse it rather than
    # answer for an alias
    unit = simple(P3, 1, 1)
    for raw in (Indecomposable(PROJECTIVE, 1, 3), Indecomposable(PROJECTIVE, 1, 0)):
        for a, b in (
            (raw, unit),
            (unit, raw),
            (projective(P3, 1, 1), raw),
            (raw, projective(P3, 1, 1)),
        ):
            for route in (fusion_closed.fuse, oracle_fuse):
                with pytest.raises(NotNormalForm, match="unnormalized projective"):
                    route(P3, a, b)


def test_generators_and_fock_fusion_reject_unnormalized_labels():
    # F(r, p) and P(r, p) are stored as M(r, p); a raw F/P label at s = p
    # (or s = 0) is refused by the Fock branch of fuse and by the oracle
    # on every generator pair instead of answering for the alias
    odd_current, current, m12 = simple(P3, 3, 1), simple(P3, 2, 1), simple(P3, 1, 2)
    for s in (0, 3):
        raw_f, raw_p = Indecomposable(FOCK, 1, s), Indecomposable(PROJECTIVE, 1, s)
        for a, b in ((raw_f, odd_current), (odd_current, raw_f), (raw_p, fock(P3, 1, 1))):
            with pytest.raises(NotNormalForm, match="unnormalized"):
                fusion_closed.fuse(P3, a, b)
        for g, x in ((odd_current, raw_f), (odd_current, raw_p), (current, raw_p), (m12, raw_p)):
            with pytest.raises(NotNormalForm, match="unnormalized"):
                oracle_fuse(P3, g, x)


_M12, _RAW_M = simple(P3, 1, 2), Indecomposable(SIMPLE, 1, 2, 5)
_RAW_P, _RAW_F = Indecomposable(PROJECTIVE, 1, 1, 2), Indecomposable(FOCK, 1, 1, 2)


@pytest.mark.parametrize(
    "route, a, b",
    [(fusion_closed.fuse, _RAW_F, simple(P3, 3, 1))]
    + [
        (route, a, b)
        for route in (fusion_closed.fuse, oracle_fuse)
        for a, b in ((_RAW_M, _M12), (_M12, _RAW_M), (_RAW_P, _M12), (_M12, _RAW_P))
    ],
)
def test_fusion_entry_points_reject_labels_with_n_not_one(route, a, b):
    # n is the Jordan size of FJ labels only, so no route may read an M/P/F
    # label with n != 1 as n = 1
    with pytest.raises(NotNormalForm, match="unnormalized"):
        route(P3, a, b)


def test_oracle_rejects_out_of_range_simples():
    # the column loop must never see a raw s = 0 or s = p + 1: s = 0 would
    # run no step and return the left factor unchanged
    unit, proj = simple(P3, 1, 1), projective(P3, 1, 1)
    for s in (0, P3.p + 1):
        raw = Indecomposable(SIMPLE, 1, s)
        for a, b in ((raw, unit), (unit, raw), (proj, raw), (raw, proj)):
            with pytest.raises(ValueError):
                oracle_fuse(P3, a, b)


def test_oracle_mm_at_p1200(capsys):
    # the column loop has no recursion depth; the recursive memo raised
    # RecursionError here
    argv = ["fuse", "--p", "1200", "M:1,1200", "M:1,1200", "--engine", "both"]
    assert cli.main(argv) == 0
    assert '"match": true' in capsys.readouterr().out


def test_column_memo_is_bounded():
    # (2p - 1) p = 4 005 columns at p = 45 fit; a run over many p cannot grow it further
    assert oracle_mod._column.cache_info().maxsize == 4096


@pytest.mark.parametrize("left, right", [(simple, simple), (projective, simple), (projective, projective)])
def test_column_memo_does_not_grow_with_r(left, right):
    params = Params(5)
    oracle_mod._column.cache_clear()
    b = right(params, 1, 3)
    oracle_fuse(params, left(params, 1, 2), b)
    size = oracle_mod._column.cache_info().currsize
    for r in range(-50, 50):
        a = left(params, r, 2)
        assert oracle_fuse(params, a, b) == fusion_closed.fuse(params, a, b)
    assert oracle_mod._column.cache_info().currsize == size


@given(params_st, st.data())
@settings(max_examples=120)
def test_oracle_equivalence_sampled(params, data):
    ra, rb = data.draw(r_st), data.draw(r_st)
    sa = data.draw(st.integers(min_value=1, max_value=params.p))
    sb = data.draw(st.integers(min_value=1, max_value=params.p))
    a, b = simple(params, ra, sa), simple(params, rb, sb)
    assert oracle_fuse(params, a, b) == fusion_closed.fuse(params, a, b)
    if sa <= params.p - 1:
        pa = projective(params, ra, sa)
        assert oracle_fuse(params, pa, b) == fusion_closed.fuse(params, pa, b)
        assert oracle_fuse(params, b, pa) == oracle_fuse(params, pa, b)
        assert oracle_fuse(params, b, pa) == fusion_closed.fuse(params, b, pa)
        if sb <= params.p - 1:
            pb = projective(params, rb, sb)
            assert oracle_fuse(params, pa, pb) == fusion_closed.fuse(params, pa, pb)


def test_oracle_never_touches_closed_forms(monkeypatch):
    # the recursion must stay independent of the formulas it validates;
    # patch the closed forms on both modules so direct imports would trip too
    def boom(*args, **kwargs):
        raise AssertionError("oracle called a closed-form product")

    import singlet_fusion.fusion_oracle as oracle_mod

    oracle_mod._column.cache_clear()
    for name in ("_template", "fuse"):
        monkeypatch.setattr(fusion_closed, name, boom)
        monkeypatch.setattr(oracle_mod, name, boom, raising=False)
    got = oracle_fuse(P3, projective(P3, 1, 2), projective(P3, 2, 1))
    assert got.total() > 0
    got_mm = oracle_fuse(P2, simple(P2, 1, 2), simple(P2, 1, 2))
    assert got_mm == FormalSum.of(projective(P2, 1, 1))
    oracle_mod._column.cache_clear()


def _package_imports():
    """Module -> names it imports, read with ``ast`` so nothing is executed.

    Relative imports come back as ``singlet_fusion.<module>``.
    """
    package = Path(fusion_closed.__file__).parent
    graph = {}
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    names.add(f"singlet_fusion.{node.module}")
                else:
                    names.update(f"singlet_fusion.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module)
        graph[path.stem] = names
    return graph


def _private_reads():
    """Module -> ``alias._name`` reads of another package module's private names.

    Package modules are those bound by ``from . import x`` or
    ``from singlet_fusion import x``; dunder names are not private.
    """
    package = Path(fusion_closed.__file__).parent
    reads = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level and not node.module or node.module == "singlet_fusion")
            for alias in node.names
        }
        reads[path.stem] = {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        }
    return reads


def test_import_graph_keeps_the_routes_independent():
    graph = _package_imports()
    assert {m: names for m, names in _private_reads().items() if names} == {}
    assert "singlet_fusion.fusion_closed" not in graph["fusion_oracle"]
    assert "singlet_fusion.fusion_oracle" not in graph["fusion_closed"]
    internal = {n for n in graph["fusion_oracle"] if n.startswith("singlet_fusion")}
    assert internal == {"singlet_fusion.catalog", "singlet_fusion.labels"}
    # the Grothendieck ring product lives in catalog, which both routes share,
    # so it must reach neither of them
    internal = {n for n in graph["catalog"] if n.startswith("singlet_fusion")}
    assert internal == {"singlet_fusion.labels"}
    for module, names in graph.items():
        assert not any(
            n == "concurrent" or n.startswith("concurrent.") for n in names
        ), module


def test_concurrent_calls_match_serial_results():
    from concurrent.futures import ThreadPoolExecutor

    import singlet_fusion.fusion_oracle as oracle_mod

    params = Params(5)
    pairs = [
        (simple(params, ra, sa), simple(params, rb, sb))
        for ra in (-1, 0, 2)
        for rb in (-2, 1)
        for sa in range(1, 6)
        for sb in range(1, 6)
    ]
    oracle_mod._column.cache_clear()
    serial = [oracle_fuse(params, a, b) for a, b in pairs]
    oracle_mod._column.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda ab: oracle_fuse(params, *ab), pairs))
    assert serial == parallel


def test_memo_consistency_between_orders():
    import singlet_fusion.fusion_oracle as oracle_mod

    oracle_mod._column.cache_clear()
    first = oracle_fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3))
    again = oracle_fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3))
    oracle_mod._column.cache_clear()
    cold = oracle_fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3))
    assert first == again == cold
