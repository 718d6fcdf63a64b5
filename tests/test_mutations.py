"""Mutation matrix: each wrong rule below must make ``verify --suite all`` fail.

Each case monkeypatches one mutation into the package, in its own module
and in every module that imported the name from it.  It first shows that
the mutation changes at least one answer in the window of the ``verify-all``
workload (p = 2..6, ``rwin = 2``), so a mutation that changes nothing cannot
pass, and then that :func:`.verify.run_suites` over that window reports
failures in every suite the case names.  The Jordan Fock case changes
``catalog.jordan_fock_matrices`` and must fail the catalog suite at every p.
"""

from fractions import Fraction

import pytest

from singlet_fusion import catalog, fusion_closed, fusion_oracle, verify
from singlet_fusion.catalog import FormalSum, Indecomposable
from singlet_fusion.labels import Params

def _cold_memos(monkeypatch):
    # both routes' memos, which a mutation could otherwise leak into or read
    # stale answers from, start empty; the monkeypatch undo drops them
    monkeypatch.setattr(fusion_closed, "_templates", catalog._Memo())
    monkeypatch.setattr(fusion_oracle, "_store", catalog._Memo())


@pytest.fixture(autouse=True)
def _cold_memos_around_each_case(monkeypatch):
    _cold_memos(monkeypatch)


def _top_simple_dropped_from_mm(right):
    # one copy of the largest-s simple summand leaves every M x M template
    def wrong(params, kinds, s, t):
        out = right(params, kinds, s, t)
        simples = [lab for lab, _ in out if lab.kind == catalog.SIMPLE]
        if kinds != (catalog.SIMPLE, catalog.SIMPLE) or not simples:
            return out
        top = max(simples, key=lambda lab: lab.s)
        return FormalSum((lab, m - (lab == top)) for lab, m in out)

    return wrong


def _pm_summand_dropped(right):
    # P_{r+r'-2,l} leaves the last P x M window (and so both P x P copies of it)
    def wrong(p, kinds, s, t):
        windows = right(p, kinds, s, t)
        if kinds != (catalog.PROJECTIVE, catalog.SIMPLE):
            return windows
        *head, (kind, ells, rs) = windows
        return head + [(kind, ells, rs[:-1])]

    return wrong


def _dual_as_one_minus_r(right):
    # M_{r,s} -> M_{1-r,s} (and P alike) instead of M_{2-r,s}
    def wrong(params, x):
        d = right(params, x)
        return catalog.normalize(params, Indecomposable(d.kind, d.r - 1, d.s))

    return wrong


def _shift_off_by_one(right):
    return lambda x, delta: right(x, delta + 1)


def _p0_read_as_two_copies(right):
    # P_{r,0} in M_{1,2} x P_{r,1} read as 2 M_{r+1,p}, not M_{r+1,p} + M_{r-1,p}
    def wrong(params, x):
        out = right(params, x)
        if x.kind == catalog.PROJECTIVE and x.s == 1 and params.p >= 3:
            return (Indecomposable(catalog.SIMPLE, x.r + 1, params.p),) * 2 + out[2:]
        return out

    return wrong


def _one_simple_copy_in_p(right):
    # P_{r,s}'s composition series with one copy of M_{r,s}, not two
    def wrong(params, x):
        out = right(params, x)
        if x.kind == catalog.PROJECTIVE:
            return ((out[0][0], 1),) + out[1:]
        return out

    return wrong


def _products(fuse):
    def probe(params, labels):
        return [fuse(params, a, b) for a in labels for b in labels]

    return probe


def _duals(params, labels):
    return [catalog.dual(params, x) for x in labels]  # read at call time: the mutation's target


_CLOSED = _products(fusion_closed.fuse)
_ORACLE = _products(fusion_oracle.oracle_fuse)

#: (module, name, mutation of the original, answers it changes, suites that catch it)
CASES = {
    "wrong M x M template": (
        fusion_closed, "_template", _top_simple_dropped_from_mm, _CLOSED, ("fusion", "triplet")
    ),
    "dropped summand in the P x M windows": (
        fusion_closed, "_windows", _pm_summand_dropped, _CLOSED, ("fusion",)
    ),
    "dual as r -> 1 - r": (
        catalog, "dual", _dual_as_one_minus_r, _duals, ("fusion", "catalog")
    ),
    "shift_r off by one in the closed forms": (
        fusion_closed, "_shift", _shift_off_by_one, _CLOSED, ("fusion", "triplet")
    ),
    "shift off by one in the oracle": (
        fusion_oracle, "_decode", _shift_off_by_one, _ORACLE, ("fusion",)
    ),
    "wrong _m12_terms row": (
        fusion_oracle, "_m12_terms", _p0_read_as_two_copies, _ORACLE, ("fusion",)
    ),
    "one copy of M_{r,s} in P_{r,s}'s composition series": (
        catalog, "_factor_pairs", _one_simple_copy_in_p, _ORACLE, ("fusion",)
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_verify_all_catches_the_mutation(case, monkeypatch):
    module, name, mutate, probe, suites = CASES[case]
    params = Params(3)
    labels = catalog.label_window(params, -1, 1)
    before = probe(params, labels)
    right = getattr(module, name)
    wrong = mutate(right)
    for holder in (catalog, fusion_closed, fusion_oracle, verify):
        if getattr(holder, name, None) is right:
            monkeypatch.setattr(holder, name, wrong)
    _cold_memos(monkeypatch)
    assert probe(params, labels) != before, "the mutation changes no answer"
    report = verify.run_suites(list(verify.SUITES), range(2, 7), rwin=2)
    failing = {suite for suite, per_p in report.items() if any(f for _, f in per_p.values())}
    assert failing >= set(suites)


def _n2_doubled(right):
    # L0 - h_{1,p} Id = 2N^2/p at r = 1: one more 1/p on L0's second superdiagonal
    def wrong(params, r, n):
        a, l0, h0 = right(params, r, n)
        extra = Fraction(1, params.p)
        l0 = tuple(
            tuple(e + extra * (j - i == 2) for j, e in enumerate(row)) for i, row in enumerate(l0)
        )
        return a, l0, h0

    return wrong


def test_catalog_suite_catches_a_wrong_n2_coefficient(monkeypatch):
    before = catalog.jordan_fock_matrices(Params(3), 1, 3)
    monkeypatch.setattr(
        catalog, "jordan_fock_matrices", _n2_doubled(catalog.jordan_fock_matrices)
    )
    after = catalog.jordan_fock_matrices(Params(3), 1, 3)
    assert after != before, "the mutation changes no answer"
    report = verify.run_suites(["catalog"], range(2, 7), rwin=2)
    assert all(failures for _, failures in report["catalog"].values())
