import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_fusion import catalog, cli, fusion_closed
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
from singlet_fusion.fusion_oracle import NegativeMultiplicityError, oracle_fuse
from singlet_fusion.labels import Params, alpha_coordinate

P2 = Params(2)
P3 = Params(3)

params_st = st.integers(min_value=2, max_value=6).map(Params)
r_st = st.integers(min_value=-3, max_value=3)


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


def _reference_column(params, kind, s, s_target):
    """The column loop as it was before chains resumed: every column rebuilt
    from s = 1 on ``FormalSum`` values, subtracting through ``combine``."""
    prev, col = FormalSum(), FormalSum.of(Indecomposable(kind, 1, s))
    for _ in range(1, s_target):
        acc = {}
        for label, mult in col:
            for term in oracle_mod._m12_terms(params, label):
                acc[term] = acc.get(term, 0) + mult
        prev, col = col, FormalSum.combine([(1, FormalSum(acc)), (-1, prev)])
    return col


def _fresh_memos(monkeypatch):
    """An empty oracle store for this test: no blocks or columns; returns it."""
    store = catalog._Memo()
    monkeypatch.setattr(oracle_mod, "_store", store)
    return store


def _chains(store):
    """The ``(p, kind, s)`` chains the store keeps a column of."""
    return {key[:3] for key in store.entries if len(key) == 4}


def _held(store):
    """Labels the store's entries hold, counted afresh from their values:
    a block counts its singular rows, a column its terms, a frontier 3."""
    return sum(len(value) for value in store.entries.values())


def _count_steps(monkeypatch):
    """A list that gains one entry per step of every walk: each step sweeps
    its boundaries once, and a step that raises sweeps twice, since its
    error's minuend is the same step with nothing subtracted."""
    steps, sweep = [], oracle_mod._sweep

    def counted(delta):
        steps.append(delta)
        return sweep(delta)

    monkeypatch.setattr(oracle_mod, "_sweep", counted)
    return steps


def _label_columns(params, kind, s, s_target):
    """Columns ``1 .. s_target`` of chain ``kind_{1,s}`` in codes, walked the
    way the oracle did before runs: every step reads the row of each label
    of the column and subtracts the column before label by label.  The list
    ends before the first step that would go negative."""
    prev, col = {}, {oracle_mod._encode(Indecomposable(kind, 1, s)): 1}
    rows, columns = {}, [tuple(sorted(col.items()))]
    for _ in range(1, s_target):
        acc = {}
        for code, mult in col.items():
            row = rows.get(code)
            if row is None:
                row = rows[code] = oracle_mod._row(params, code)
            for term in row:
                acc[term] = acc.get(term, 0) + mult
        for code, mult in prev.items():
            left = acc.get(code, 0) - mult
            if left < 0:
                return columns
            if left:
                acc[code] = left
            else:
                del acc[code]
        prev, col = col, acc
        columns.append(tuple(sorted(col.items())))
    return columns


def _chain_heads(params):
    """``(kind, s)`` of every chain at ``params``."""
    return [(SIMPLE, s) for s in range(1, params.p + 1)] + [
        (PROJECTIVE, s) for s in range(1, params.p)
    ]


def _column_requests(params):
    return [(kind, s, t) for kind, s in _chain_heads(params) for t in range(1, params.p + 1)]


@pytest.mark.parametrize("budget", [None, 12], ids=["default budget", "evicting budget"])
def test_chain_order_independence(monkeypatch, budget):
    # every (kind, s, t) column at p = 2..20 equals the label walk's, whether
    # asked cold, ascending, descending or shuffled, with the chains
    # interleaved; no request repeats within a store, so each one walks.  Up
    # to p = 9 the label walk's columns also equal the rebuild-from-s = 1
    # reference
    import random

    if budget is not None:
        monkeypatch.setattr(catalog, "_LABELS", budget)

    rng = random.Random(28)
    for p in range(2, 21):
        params = Params(p)
        requests = _column_requests(params)
        want = {
            (kind, s, t): column
            for kind, s in _chain_heads(params)
            for t, column in enumerate(_label_columns(params, kind, s, p), 1)
        }
        assert sorted(want) == sorted(requests)
        if p < 10:
            for req in requests:
                assert oracle_mod._decode(want[req], 0) == _reference_column(params, *req), req
        for req in requests:  # cold
            _fresh_memos(monkeypatch)
            assert oracle_mod._column(params, *req) == want[req], req
        by_t = sorted(requests, key=lambda req: (req[2], req[:2]))
        shuffled = rng.sample(requests, len(requests))
        for order in (by_t, by_t[::-1], shuffled):
            store = _fresh_memos(monkeypatch)
            evicted = False
            for req in order:
                others = _chains(store) - {(p, *req[:2])}
                assert oracle_mod._column(params, *req) == want[req], req
                evicted |= not others <= _chains(store)
                assert _held(store) == store.labels <= catalog._LABELS
        if budget is not None and p >= 5:
            assert evicted, p


def test_projective_right_factor_walks_one_chain(monkeypatch):
    # P_{0,2} at p = 7 has composition factors M_{-1,5} + 2 M_{0,2} + M_{1,5};
    # they are read in ascending s', not in label order, so the walk to 5
    # resumes from the frontier the walk to 2 left (3 steps, not 4), and the
    # second factor at 5 reads the kept column
    _fresh_memos(monkeypatch)
    steps, column, walks = _count_steps(monkeypatch), oracle_mod._column, []

    def spy(params, kind, s, s_target):
        before = len(steps)
        got = column(params, kind, s, s_target)
        walks.append((s_target, len(steps) - before))
        return got

    monkeypatch.setattr(oracle_mod, "_column", spy)
    params = Params(7)
    a, b = projective(params, 1, 3), projective(params, 0, 2)
    assert oracle_fuse(params, a, b) == fusion_closed.fuse(params, a, b)
    assert walks == [(2, 1), (5, 3)]


@pytest.mark.parametrize("p", range(2, 8))
def test_projective_right_factor_equals_the_sum_over_its_composition_factors(p):
    # the reference reads the projective factor on the left against each
    # composition factor of the right one, one simple product at a time
    params = Params(p)
    lefts = [simple(params, 1, s) for s in range(1, p + 1)]
    lefts += [projective(params, 1, s) for s in range(1, p)]
    for a in lefts:
        for b in (projective(params, r, s) for r in (-1, 0, 1) for s in range(1, p)):
            left, right = (a, b) if a.kind == PROJECTIVE else (b, a)
            want = FormalSum.combine(
                (m, oracle_fuse(params, left, y))
                for y, m in catalog.composition_factors(params, right)
            )
            assert oracle_fuse(params, a, b) == want, (a, b)


@pytest.mark.parametrize("p", [2, 3, 6, 7])
def test_projective_right_factor_reads_each_column_once(monkeypatch, p):
    # P_{r',s'} has the factors M_{r',s'} and M_{r'+-1,p-s'}: two distinct
    # columns, read in ascending order, or one when s' = p - s'
    params, column, reads = Params(p), oracle_mod._column, []

    def spy(params, kind, s, s_target):
        reads.append(s_target)
        return column(params, kind, s, s_target)

    monkeypatch.setattr(oracle_mod, "_column", spy)
    for s in range(1, p):
        for b in (projective(params, r, s) for r in (-1, 2)):
            reads.clear()
            oracle_fuse(params, projective(params, 3, 1), b)
            assert len(reads) == (1 if 2 * s == p else 2), (b, reads)
            assert reads == sorted({s, p - s}), (b, reads)


def test_projective_right_factor_is_checked_once(monkeypatch):
    # oracle_fuse checks both operands; the composition series of the right
    # factor reads the checked label and checks nothing again
    params, check, calls = Params(6), catalog._check_normal_form, []
    a, b = projective(params, 1, 2), projective(params, 0, 3)
    want = fusion_closed.fuse(params, a, b)

    def spy(params, x, what):
        calls.append((x, what))
        check(params, x, what)

    monkeypatch.setattr(catalog, "_check_normal_form", spy)
    monkeypatch.setattr(oracle_mod, "_check_normal_form", spy)
    assert oracle_fuse(params, a, b) == want
    assert calls == [(a, "oracle_fuse"), (b, "oracle_fuse")]


def test_decode_builds_the_labels_that_label_builds():
    # both kinds, the r field at both ends (r = 2 - _R_BIAS and _R_BIAS), the
    # s field at both ends, several shifts
    bias = oracle_mod._R_BIAS
    codes = sorted(
        oracle_mod._encode(Indecomposable(kind, r, s))
        for kind in (SIMPLE, PROJECTIVE)
        for r in (2 - bias, -1, 0, 1, 2, bias)
        for s in (1, 2, oracle_mod._MAX_P - 1, oracle_mod._MAX_P)
    )
    column = tuple((c, 1 + c % 5) for c in codes)
    for delta in (0, 1, -3, 10**12, -(10**12)):
        got = oracle_mod._decode(column, delta)
        labels = [(oracle_mod._label(c), m) for c, m in column]
        assert list(got) == [(x._replace(r=x.r + delta), m) for x, m in labels], delta
        assert all(type(x) is Indecomposable for x, _ in got)


def test_a_walk_resumes_from_the_frontier_at_or_below_its_target(monkeypatch):
    # each step sweeps once.  The walk to 10 resumes from the frontier at 5;
    # the walk to 8 finds it at 10 and starts from 1 (7 steps); the walk to
    # 12 resumes from the frontier at 8.  The store keeps the column each
    # walk ended at and one frontier, at 12
    store = _fresh_memos(monkeypatch)
    steps = _count_steps(monkeypatch)
    params = Params(12)
    unit = simple(params, 1, 1)
    for t, want in ((5, 4), (10, 5), (8, 7), (12, 4)):
        steps.clear()
        assert oracle_fuse(params, unit, simple(params, 1, t)) == FormalSum.of(simple(params, 1, t))
        assert len(steps) == want, t
    assert sorted(key[3] for key in store.entries if len(key) == 4) == [5, 8, 10, 12]
    frontiers = {key: value for key, value in store.entries.items() if len(key) == 3}
    assert list(frontiers) == [(12, SIMPLE, 1)]
    assert frontiers[12, SIMPLE, 1][0] == 12
    assert _held(store) == store.labels <= catalog._LABELS


def test_every_frontier_holds_few_runs(monkeypatch):
    # every column of every chain at p = 2..20, asked in ascending t: each
    # column of each frontier a walk leaves is at most 12 runs (the bound on
    # closed products), so a frontier counting as 3 labels keeps the store's
    # budget honest
    for p in range(2, 21):
        params = Params(p)
        store = _fresh_memos(monkeypatch)
        for kind, s, t in _column_requests(params):
            oracle_mod._column(params, kind, s, t)
            frontier = store.get((p, kind, s))
            assert frontier[0] == t
            assert len(frontier[1]) <= 12 and len(frontier[2]) <= 12, (p, kind, s, t)
        assert _held(store) == store.labels


def _runs_of(column):
    """The maximal runs ``(lo, hi, multiplicity)`` of a ``(code, multiplicity)``
    column in label order: codes two apart with one multiplicity join."""
    runs = []
    for code, mult in column:
        if runs and runs[-1][1] + 2 == code and runs[-1][2] == mult:
            runs[-1] = (runs[-1][0], code, mult)
        else:
            runs.append((code, code, mult))
    return runs


@pytest.mark.parametrize("p", range(2, 13))
def test_step_builds_the_next_column_from_the_frontier(monkeypatch, p):
    # for every chain and t < p, _step on the frontier a walk to t leaves
    # gives the runs of column t + 1, and with nothing subtracted it gives
    # M_{1,2} x column t, summed label by label from the rule: the minuend
    # its error reports
    params = Params(p)
    for kind, s in _chain_heads(params):
        columns = _label_columns(params, kind, s, p)
        for t in range(1, p):
            store = _fresh_memos(monkeypatch)
            oracle_mod._column(params, kind, s, t)
            t_front, prev, col = store.get((p, kind, s))
            assert t_front == t
            assert oracle_mod._step(params, col, prev) == _runs_of(columns[t]), (kind, s, t)
            acc = {}
            for x, mult in oracle_mod._decode(columns[t - 1], 0):
                for y in oracle_mod._m12_terms(params, x):
                    acc[y] = acc.get(y, 0) + mult
            minuend = oracle_mod._decode(oracle_mod._expand(oracle_mod._step(params, col, ())), 0)
            assert minuend == FormalSum(acc), (kind, s, t)


def _reference_block(params, kind, r):
    """``(label, summands)`` for each label of kind ``kind`` and index ``r``
    whose ``M_{1,2}`` summands are not its ``s - 1`` and ``s + 1``
    neighbours, read from the rule label by label."""
    top = params.p - (kind == PROJECTIVE)
    singular = []
    for s in range(1, top + 1):
        x = Indecomposable(kind, r, s)
        terms = oracle_mod._m12_terms(params, x)
        if terms != (Indecomposable(kind, r, s - 1), Indecomposable(kind, r, s + 1)):
            singular.append((x, terms))
    return singular


@pytest.mark.parametrize("p", [2, 3, 7])
def test_the_store_keeps_immutable_blocks_of_singular_rows(monkeypatch, p):
    # each chain's top walked cold, or every column asked in ascending t so
    # that each walk past t = 1 resumes: the store keeps tuples only, no
    # per-p table, each frontier is (t, runs, runs) and each block entry
    # holds exactly the singular rows of its block
    params = Params(p)
    cold = [(kind, s, p) for kind, s in _chain_heads(params)]
    resumed = sorted(_column_requests(params), key=lambda req: (req[2], req[:2]))
    for requests in (cold, resumed):
        store = _fresh_memos(monkeypatch)
        for req in requests:
            oracle_mod._column(params, *req)
        assert (p,) not in store.entries
        blocks = 0
        for key, value in store.entries.items():
            assert type(value) is tuple, key
            if len(key) == 3:
                t, prev, col = value
                assert key[0] == p and type(t) is int and type(prev) is type(col) is tuple, key
                assert all(type(run) is tuple for run in prev + col), key
                continue
            assert all(type(pair) is tuple for pair in value), key
            if len(key) == 4:
                continue
            assert len(key) == 2 and key[0] == p, key
            blocks += 1
            x = oracle_mod._label(key[1] + 1)
            got = [
                (oracle_mod._label(code), tuple(map(oracle_mod._label, row)))
                for code, row in value
            ]
            assert got == _reference_block(params, x.kind, x.r), key
            assert all(type(row) is tuple for _, row in value), key
        assert blocks >= 2


def test_dropped_m12_summand_raises_with_formal_sum_fields(monkeypatch):
    # M_{1,2} x M_{1,s} loses M_{1,s+1} for 1 < s < p: the third column of the
    # unit's chain is 0, and the fourth subtracts M_{1,2} from nothing
    right = oracle_mod._m12_terms

    def dropped(params, x):
        terms = right(params, x)
        return terms[:1] if x.kind == SIMPLE and len(terms) == 2 else terms

    _fresh_memos(monkeypatch)
    monkeypatch.setattr(oracle_mod, "_m12_terms", dropped)
    params = Params(5)
    with pytest.raises(NegativeMultiplicityError) as err:
        oracle_fuse(params, simple(params, 1, 1), simple(params, 1, 4))
    assert type(err.value.minuend) is FormalSum and type(err.value.subtrahend) is FormalSum
    assert err.value.minuend == FormalSum()
    assert err.value.subtrahend == FormalSum.of(simple(params, 1, 2))
    assert err.value.label == simple(params, 1, 2)


def test_walk_error_reports_the_minuend_before_subtraction(monkeypatch):
    # M_{1,2} x M_{1,5} loses its one summand P_{1,4} at p = 5.  The chain of
    # M_{1,3} then reads M_{1,1} + M_{1,3} + M_{1,5} at t = 3 and M_{1,2} at
    # t = 4, so the step to t = 5 subtracts M_{1,1} and M_{1,3} from
    # M_{1,1} + M_{1,3} before M_{1,5} goes negative; the minuend is the
    # same step with nothing subtracted
    right = oracle_mod._m12_terms

    def dropped(params, x):
        return () if x.kind == SIMPLE and x.s == params.p else right(params, x)

    _fresh_memos(monkeypatch)
    monkeypatch.setattr(oracle_mod, "_m12_terms", dropped)
    params = Params(5)
    m = {s: simple(params, 1, s) for s in (1, 3, 5)}
    with pytest.raises(NegativeMultiplicityError) as err:
        oracle_fuse(params, m[3], m[5])
    assert err.value.minuend == FormalSum.of(m[1], m[3])
    assert err.value.subtrahend == FormalSum.of(m[1], m[3], m[5])
    assert err.value.label == m[5]


def test_error_reports_the_lowest_label_that_goes_negative(monkeypatch):
    # M_{1,2} x M_{1,2} loses M_{1,3} at p = 7.  The chain of M_{1,4} then
    # subtracts M_{1,1} + M_{1,5} + M_{1,7} from 2 M_{1,7} + P_{1,5} at
    # t = 6: M_{1,1} and M_{1,5} both go negative, in two runs
    right = oracle_mod._m12_terms

    def dropped(params, x):
        terms = right(params, x)
        return terms[:1] if x.kind == SIMPLE and x.s == 2 else terms

    _fresh_memos(monkeypatch)
    monkeypatch.setattr(oracle_mod, "_m12_terms", dropped)
    params = Params(7)
    m = {s: simple(params, 1, s) for s in range(1, 8)}
    with pytest.raises(NegativeMultiplicityError) as err:
        oracle_fuse(params, m[4], m[6])
    assert err.value.minuend == FormalSum([(m[7], 2), (projective(params, 1, 5), 1)])
    assert err.value.subtrahend == FormalSum.of(m[1], m[5], m[7])
    assert err.value.label == m[1]


@pytest.mark.parametrize(
    "row",
    [lambda m: (m[2],), lambda m: (m[4],), lambda m: (m[2], m[4], m[4])],
    ids=["drops M_{1,4}", "drops M_{1,2}", "adds M_{1,4}"],
)
def test_a_wrong_row_inside_a_run_changes_the_answer(monkeypatch, row):
    # at p = 7, column 3 of the chain of M_{1,3} is one run,
    # M_{1,1} + M_{1,3} + M_{1,5}, and column 2 is M_{1,2} + M_{1,4}.  With
    # that frontier and no block kept, a walk to 4 takes one step from it; a
    # wrong row at M_{1,3} alone, inside the run, changes its answer or
    # raises, and every column of p = 7 still equals the label walk's
    params = Params(7)
    m = {s: simple(params, 1, s) for s in range(1, 8)}
    code = {s: oracle_mod._encode(m[s]) for s in m}
    frontier = (3, ((code[2], code[4], 1),), ((code[1], code[5], 1),))
    store = _fresh_memos(monkeypatch)
    assert oracle_fuse(params, m[3], m[3]) == FormalSum.of(m[1], m[3], m[5])
    assert store.get((7, SIMPLE, 3)) == frontier
    want = oracle_fuse(params, m[3], m[4])
    rule = oracle_mod._m12_terms

    def wrong(params, x):
        return row(m) if x == m[3] else rule(params, x)

    monkeypatch.setattr(oracle_mod, "_m12_terms", wrong)
    _fresh_memos(monkeypatch).put((7, SIMPLE, 3), frontier)
    steps = _count_steps(monkeypatch)
    try:
        got = oracle_fuse(params, m[3], m[4])
    except NegativeMultiplicityError:
        got = None
    assert len(steps) == 1
    assert got != want
    for kind, s in _chain_heads(params):
        columns = _label_columns(params, kind, s, params.p)
        for t in range(1, params.p + 1):
            _fresh_memos(monkeypatch)
            if t <= len(columns):
                assert oracle_mod._column(params, kind, s, t) == columns[t - 1], (kind, s, t)
            else:
                with pytest.raises(NegativeMultiplicityError):
                    oracle_mod._column(params, kind, s, t)


# --- the grading ----------------------------------------------------------------


@pytest.mark.parametrize("p", range(2, 13))
def test_the_m12_rule_flips_the_alpha_coordinate_parity(p):
    # every summand y of M_{1,2} x x has alpha_{y} - alpha_{x} odd: the rule
    # flips the monodromy grading of J = M_{2,1}, on M and P labels alike
    params = Params(p)
    for r in range(-3, 4):
        labels = [simple(params, r, s) for s in range(1, p + 1)]
        labels += [projective(params, r, s) for s in range(1, p)]
        for x in labels:
            k = alpha_coordinate(params, x.r, x.s)
            for y in oracle_mod._m12_terms(params, x):
                assert (alpha_coordinate(params, y.r, y.s) - k) % 2 == 1, (x, y)


@pytest.mark.parametrize("p", [2, 3, 7, oracle_mod._MAX_P])
def test_the_code_grading_is_the_alpha_coordinate_parity(p):
    # _grading reads s + p r mod 2 off a code: it differs from the parity of
    # alpha_{r,s} by one constant at each p, for both kinds, the r field at
    # both ends and the s field at both ends
    params, bias = Params(p), oracle_mod._R_BIAS
    offsets = set()
    for kind in (SIMPLE, PROJECTIVE):
        for r in (2 - bias, 1 - p, -1, 0, 1, 2, 3, p + 1, bias):
            for s in (1, 2, p - 1, p):
                code = oracle_mod._encode(Indecomposable(kind, r, s))
                offsets.add(oracle_mod._grading(p, code) ^ alpha_coordinate(params, r, s) & 1)
    assert len(offsets) == 1


def test_a_row_that_breaks_the_grading_raises_at_its_blocks_first_scan(monkeypatch):
    # P_{r,1} -> M_{r+-1,p-1} in place of M_{r+-1,p}: g moves by p - 2 +- p,
    # an even number.  The first walk to read the P block of r = 1 at p = 7
    # raises, naming the row's label and the term, and keeps no block entry
    rule = oracle_mod._m12_terms

    def wrong(params, x):
        terms = rule(params, x)
        if x.kind == PROJECTIVE and x.s == 1:
            p = params.p
            return (simple(params, x.r + 1, p - 1), simple(params, x.r - 1, p - 1)) + terms[2:]
        return terms

    store = _fresh_memos(monkeypatch)
    monkeypatch.setattr(oracle_mod, "_m12_terms", wrong)
    params = Params(7)
    with pytest.raises(ArithmeticError) as err:
        oracle_fuse(params, projective(params, 1, 1), simple(params, 1, 3))
    assert type(err.value) is ArithmeticError
    assert "P:1,1" in str(err.value) and "M:2,6" in str(err.value)
    base = oracle_mod._encode(projective(params, 1, 1)) - 1
    assert (7, base) not in store.entries
    assert not [key for key in store.entries if len(key) == 2]


def _two_parity_sweep(delta):
    """The runs a stride-2 difference map describes, the two parities of
    ``s`` summed apart and the runs sorted at the end: the sweep before the
    grading was the walk's invariant, kept as the reference."""
    runs = []
    even = odd = 0
    even_lo = odd_lo = 0
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


def test_the_sweep_equals_the_two_parity_sweep_on_every_step(monkeypatch):
    # every step of every chain at p = 2..20, walked cold to its top: the
    # one-accumulator sweep gives the runs the two-parity one gives
    sweep, steps = oracle_mod._sweep, _count_steps(monkeypatch)
    for p in range(2, 21):
        params = Params(p)
        for kind, s in _chain_heads(params):
            _fresh_memos(monkeypatch)
            steps.clear()
            oracle_mod._column(params, kind, s, p)
            assert len(steps) == p - 1
            for delta in steps:
                assert sweep(delta) == _two_parity_sweep(delta), (p, kind, s)


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


def test_oracle_p_bound_boundary(monkeypatch, capsys):
    # p = _MAX_P reaches the walk; the next p is refused before any walk,
    # by the library entry point and so by the CLI
    bound = oracle_mod._MAX_P
    assert bound >= 1200

    def no_walk(*args):
        raise AssertionError("a chain was walked")

    monkeypatch.setattr(oracle_mod, "_column", no_walk)
    top = Params(bound)
    with pytest.raises(AssertionError, match="a chain was walked"):
        oracle_fuse(top, simple(top, 1, 2), simple(top, 1, 2))
    over = Params(bound + 1)
    message = f"oracle_fuse needs p <= {bound}, got p={bound + 1}"
    for a, b in ((simple(over, 1, 2), simple(over, 1, 2)), (projective(over, 1, 1), simple(over, 1, 1))):
        with pytest.raises(ValueError, match=message):
            oracle_fuse(over, a, b)
    argv = ["fuse", "--p", str(bound + 1), "M:1,2", "M:1,2", "--engine"]
    assert cli.main(argv + ["closed"]) == 0
    capsys.readouterr()

    def no_closed_form(*args):
        raise AssertionError("a closed form was built")

    # --engine both is refused before the closed form is built
    monkeypatch.setattr(fusion_closed, "fuse", no_closed_form)
    for engine in ("oracle", "both"):
        assert cli.main(argv + [engine]) == 2
        assert message in capsys.readouterr().err


def test_both_memos_are_bounded(monkeypatch):
    # rows, columns and frontiers share one budget of labels held: walking
    # every chain of p = 20, 28, ..., 76 to its end would hold 23 688 labels,
    # more than a budget of 16 384
    store = _fresh_memos(monkeypatch)
    budget = 1 << 14
    monkeypatch.setattr(catalog, "_LABELS", budget)
    for p in range(20, 80, 8):
        params = Params(p)
        top = simple(params, 1, p)
        for a in catalog.label_window(params, 1, 1):
            oracle_fuse(params, a, top)
            assert store.labels <= budget
    assert _held(store) == store.labels > budget // 2
    # the oldest entries went first: p = 20's are gone, p = 76's are all
    # kept: the last column and the frontier of each chain, and the singular
    # rows of each block the walks met, which are the blocks of every
    # frontier's column 75
    kept = [key[0] for key in store.entries]
    assert 20 not in kept
    blocks = {key for key in store.entries if len(key) == 2 and key[0] == 76}
    assert kept.count(76) == len(blocks) + 2 * (2 * 76 - 1)
    assert [p for p, _, _ in _chains(store)].count(76) == 2 * 76 - 1
    assert blocks == {
        (76, lo & ~oracle_mod._S_MASK)
        for key, value in store.entries.items()
        if len(key) == 3 and key[0] == 76 and value[0] == 76
        for lo, _, _ in value[1]
    }


@pytest.mark.parametrize("left, right", [(simple, simple), (projective, simple), (projective, projective)])
def test_column_memo_does_not_grow_with_r(monkeypatch, left, right):
    store = _fresh_memos(monkeypatch)
    params = Params(5)
    b = right(params, 1, 3)
    oracle_fuse(params, left(params, 1, 2), b)
    size = (len(store.entries), store.labels)
    for r in range(-50, 50):
        a = left(params, r, 2)
        assert oracle_fuse(params, a, b) == fusion_closed.fuse(params, a, b)
    assert (len(store.entries), store.labels) == size


@pytest.mark.parametrize("p", [2, oracle_mod._MAX_P])
def test_codes_never_alias(p):
    # columns are walked at r = 1 and shifted once, at decode: labels at
    # r = +-10^12 and the largest s the cap admits come back exact for every
    # M/P kind pair, p = 2's own P rule included
    params = Params(p)
    labels = [
        build(params, r, s)
        for r in (10**12, -(10**12))
        for build, s in ((simple, p), (projective, p - 1), (simple, 1))
    ]
    for a in labels:
        for b in labels:
            assert oracle_fuse(params, a, b) == fusion_closed.fuse(params, a, b), (a, b)


@pytest.mark.parametrize("p", [2, 3, 7, oracle_mod._MAX_P])
def test_codes_sort_as_labels_within_the_walks_bound(p):
    # every code the oracle makes has |r - 1| <= p; in that range codes sort
    # as labels do, unpack to the label they pack, and adding d << _S_BITS
    # moves r by d; at _MAX_P the interior of r and s is sampled
    if p < 50:
        rs, ss = range(1 - p, p + 2), range(1, p + 1)
    else:
        rs = [1 - p, 2 - p, -1, 0, 1, 2, 3, p // 2, p, p + 1]
        ss = [1, 2, 3, p // 2, p - 2, p - 1, p]
    labels = [
        Indecomposable(kind, r, s)
        for kind in (SIMPLE, PROJECTIVE)
        for r in rs
        for s in ss
        if s < p or kind == SIMPLE
    ]
    encode, label, s_bits = oracle_mod._encode, oracle_mod._label, oracle_mod._S_BITS
    assert sorted(labels, key=encode) == sorted(labels)
    for x in labels:
        code = encode(x)
        assert label(code) == x
        lo, hi = 1 - x.r - p, 1 - x.r + p  # the d with |r - 1 + d| <= p
        for d in range(lo, hi + 1) if p < 50 else (lo, -1, 1, hi):
            if lo <= d <= hi:
                assert label(code + (d << s_bits)) == x._replace(r=x.r + d), (x, d)


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

    _fresh_memos(monkeypatch)
    for name in ("_template", "fuse"):
        monkeypatch.setattr(fusion_closed, name, boom)
        monkeypatch.setattr(oracle_mod, name, boom, raising=False)
    got = oracle_fuse(P3, projective(P3, 1, 2), projective(P3, 2, 1))
    assert got.total() > 0
    got_mm = oracle_fuse(P2, simple(P2, 1, 2), simple(P2, 1, 2))
    assert got_mm == FormalSum.of(projective(P2, 1, 1))


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


def _private_names():
    """Module -> other package modules' private names it reads, and imports.

    Reads are ``alias._name``, where ``alias`` is bound by ``from . import x``
    or ``from singlet_fusion import x``; imports are ``from .x import _name``
    and ``from singlet_fusion.x import _name``, both given as ``x._name``.
    Dunder names are not private.
    """
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    package = Path(fusion_closed.__file__).parent
    reads, imports = {}, {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules = {
            alias.asname or alias.name
            for node in froms
            if node.level and not node.module or node.module == "singlet_fusion"
            for alias in node.names
        }
        reads[path.stem] = {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        }
        imports[path.stem] = {
            f"{node.module.rpartition('.')[2]}.{alias.name}"
            for node in froms
            if node.module
            and (node.level or node.module.startswith("singlet_fusion."))
            for alias in node.names
            if private(alias.name)
        }
    return reads, imports


#: every private name one package module imports from another; a new one is
#: added here on purpose or not at all
_PRIVATE_IMPORTS = {
    "catalog": {"labels._check_ints", "labels._check_s"},
    "cli": {"catalog._window_size"},
    "fusion_closed": {
        "catalog._check_normal_form",
        "catalog._label",
        "catalog._Memo",
        "catalog._pairs",
        "catalog._SumLike",
    },
    "fusion_oracle": {"catalog._check_normal_form", "catalog._factor_pairs", "catalog._Memo"},
    "triplet": {
        "catalog._check_normal_form",
        "catalog._is_normal",
        "labels._check_ints",
    },
    "verify": {"catalog._LABELS", "catalog._window_size", "labels._check_ints"},
}


def test_import_graph_keeps_the_routes_independent():
    graph = _package_imports()
    reads, imports = _private_names()
    assert {m: names for m, names in reads.items() if names} == {}
    assert {m: names for m, names in imports.items() if names} == _PRIVATE_IMPORTS
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


def test_concurrent_calls_match_serial_results(monkeypatch):
    # threads resume, restart and evict the same chains, blocks and
    # closed-form templates; a block, column or template depends on its key
    # alone, and a frontier is replaced, never changed, so every answer is
    # the serial one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    params = Params(5)
    pairs = [
        (x(params, ra, sa), y(params, rb, sb))
        for x in (simple, projective)
        for y in (simple, projective)
        for ra in (-1, 0, 2)
        for rb in (-2, 1)
        for sa in range(1, 5)
        for sb in range(5, 0, -1)  # P_{rb,5} normalizes to M_{rb,5}: the chain's top
    ]

    def both(ab):
        return oracle_fuse(params, *ab), fusion_closed.fuse(params, *ab)

    _fresh_memos(monkeypatch)
    serial = [both(ab) for ab in pairs]
    store = _fresh_memos(monkeypatch)
    templates = catalog._Memo()
    monkeypatch.setattr(fusion_closed, "_templates", templates)
    monkeypatch.setattr(catalog, "_LABELS", 12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, inside walks and reads
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(both, pairs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert serial == parallel
    # two threads may keep the same values; the count of labels held stays
    # exact
    assert _held(store) == store.labels <= 12
    assert _held(templates) == templates.labels <= 12


def test_concurrent_walks_share_one_frontier(monkeypatch):
    # 8 threads walk the chain of M_{1,3} at p = 7 up and down at once, each
    # from another target on, so each replaces the frontier under the
    # others, and a budget of 5 labels evicts it and the blocks even in
    # serial use; any frontier resumes to the same columns, so every column is
    # the serial one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    params = Params(7)
    targets = [*range(1, 8), *range(7, 0, -1)] * 3
    want = {}
    for t in range(1, 8):
        _fresh_memos(monkeypatch)
        want[t] = oracle_mod._column(params, SIMPLE, 3, t)
    monkeypatch.setattr(catalog, "_LABELS", 5)
    store, evicted, rows, row = _fresh_memos(monkeypatch), 0, [], oracle_mod._row

    def counted(params, code):
        rows.append(code)
        return row(params, code)

    monkeypatch.setattr(oracle_mod, "_row", counted)
    for t in targets:
        evicted += (7, SIMPLE, 3) not in store.entries
        assert oracle_mod._column(params, SIMPLE, 3, t) == want[t], t
    assert evicted > 1
    # each step reads its blocks from the store, so a block the budget
    # evicts is scanned again (a scan reads every row of its block, s = 1
    # first)
    scans = [code & ~oracle_mod._S_MASK for code in rows if code & oracle_mod._S_MASK == 1]
    assert len(scans) > len(set(scans)), scans
    store = _fresh_memos(monkeypatch)

    def walks(i):
        return [(t, oracle_mod._column(params, SIMPLE, 3, t)) for t in targets[i:] + targets[:i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, inside walks and puts
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(walks, range(0, 40, 5), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for t, column in result:
            assert column == want[t], t
    assert _held(store) == store.labels <= 5


def test_memo_consistency_between_orders(monkeypatch):
    _fresh_memos(monkeypatch)
    first = oracle_fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3))
    again = oracle_fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3))
    _fresh_memos(monkeypatch)
    cold = oracle_fuse(P3, simple(P3, 1, 3), simple(P3, 1, 3))
    assert first == again == cold
