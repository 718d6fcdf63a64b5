"""Failure messages of the verify suites: built only on failure, text unchanged."""

import gc
import tracemalloc

import pytest

from singlet_fusion import bpz, catalog, fusion_closed, fusion_oracle, triplet, verify
from singlet_fusion.catalog import FormalSum
from singlet_fusion.labels import Params


def test_passing_check_never_builds_its_message():
    def message():
        raise AssertionError("message built for a passing check")

    rec = verify._Recorder()
    rec.check(True, message)
    rec.check(False, lambda: "boom")
    assert rec.result() == (2, ["boom"])


def test_bpz_failure_message_text(monkeypatch):
    monkeypatch.setattr(
        bpz,
        "residuals",
        lambda params, f, x: (0.0, -1.23456e-6 if x > 0.9 else 0.0),
    )
    assert verify.bpz_suite(Params(3), 0) == (
        99,
        [
            "psi1 hypergeometric residual 1.235e-06 at x=0.9500000000000001",
            "psi2 hypergeometric residual 1.235e-06 at x=0.9500000000000001",
        ],
    )


def test_fusion_suite_exhaustive_at_p20():
    # every M/P pair at r = 1: all three routes agree on all 4 243 checks
    assert verify.fusion_suite(Params(20), 0) == (4243, [])


def test_fusion_failure_message_text(monkeypatch):
    oracle_fuse = fusion_oracle.oracle_fuse

    def broken(params, a, b):
        if a == b == catalog.projective(params, 0, 1):
            return FormalSum.of(catalog.simple(params, 9, 1))
        return oracle_fuse(params, a, b)

    monkeypatch.setattr(fusion_oracle, "oracle_fuse", broken)
    assert verify.fusion_suite(Params(2), 0) == (
        31,
        [
            "oracle mismatch at P:0,1 x P:0,1: "
            "closed P:-2,1 + 2*P:-1,1 + P:0,1 vs oracle M:9,1"
        ],
    )


def test_fusion_window_cap_boundary(monkeypatch):
    # p = 6 has 11 labels per r: rwin 22 gives 495^2 = 245 025 ordered pairs,
    # rwin 23 gives 517^2 = 267 289
    assert catalog.MAX_FUSION_PAIRS == 250_000
    verify._check_window(Params(6), 22, "fusion")

    def no_labels(*args):
        raise AssertionError("a label was built")

    monkeypatch.setattr(catalog, "simple", no_labels)
    with pytest.raises(ValueError, match="has 267289 ordered pairs"):
        verify.fusion_suite(Params(6), 23)
    with pytest.raises(ValueError, match=f"has {(2001 * 11) ** 2} ordered pairs"):
        verify.fusion_suite(Params(6), 1000)


def test_run_suites_checks_every_fusion_window_first(monkeypatch):
    def no_suite(params, rwin):
        raise AssertionError("a suite ran before the window check")

    monkeypatch.setitem(verify.SUITES, "labels", no_suite)
    # p = 2 fits (141^2 pairs), p = 6 does not
    with pytest.raises(ValueError, match="p=6, rwin=23"):
        verify.run_suites(["labels", "fusion"], [2, 6], rwin=23)


def test_label_window_cap_boundary(monkeypatch):
    # p = 6 has 11 labels per r: rwin 11 363 gives 22 727 * 11 = 249 997 labels,
    # rwin 11 364 gives 22 729 * 11 = 250 019; the linear suites stop there too
    verify._check_window(Params(6), 11_363, "labels")
    for name in ("triplet", "catalog", "labels"):
        with pytest.raises(ValueError, match="p=6, rwin=11364 has 250019 labels"):
            verify.SUITES[name](Params(6), 11_364)

    def no_suite(params, rwin):
        raise AssertionError("a suite ran before the window check")

    monkeypatch.setitem(verify.SUITES, "labels", no_suite)
    with pytest.raises(ValueError, match="p=6, rwin=11364 has 250019 labels"):
        verify.run_suites(["labels"], [2, 6], rwin=11_364)


def test_triplet_pair_cap_boundary(monkeypatch):
    # the triplet suite walks (2p + 2)^2 W/R label pairs whatever rwin is:
    # p = 249 gives 500^2 = 250 000, p = 250 gives 502^2 = 252 004
    verify._check_window(Params(249), 0, "triplet")

    def no_labels(*args):
        raise AssertionError("a label was built")

    monkeypatch.setattr(triplet, "simple_w", no_labels)
    message = "triplet suite at p=250 has 252004 W/R label pairs, more than 250000"
    with pytest.raises(ValueError, match=message) as info:
        verify.triplet_suite(Params(250), 0)
    assert "narrow --rwin" not in str(info.value)
    with pytest.raises(ValueError, match=message):
        verify.run_suites(["triplet"], [2, 250], rwin=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify.run_suites(["labels"], [2], rwin=True),
        lambda: verify.run_suites(["labels"], [2], rwin=1.0),
        lambda: verify.SUITES["bpz"](Params(2), 2.5),
    ],
)
def test_non_int_windows_are_rejected(call):
    with pytest.raises(TypeError, match="rwin .* is not an int"):
        call()


def test_run_suites_rejects_a_bad_p_before_any_suite(monkeypatch):
    runs = []

    def suite(params, rwin):
        runs.append(params.p)
        return 1, []

    monkeypatch.setitem(verify.SUITES, "labels", suite)
    with pytest.raises(ValueError, match="p must be an integer >= 2, got 1"):
        verify.run_suites(["labels"], [2, 3, 1], rwin=1)
    assert runs == []


def test_bpz_suite_has_no_window_cap():
    checks, failures = verify.run_suites(["bpz"], [120], rwin=1000)["bpz"][120]
    assert (checks, failures) == (99, [])


def test_bpz_p_bound_boundary(monkeypatch):
    # p = 10^7 passes every 1e-8 gate; the next p is refused before any
    # series is built, also when an earlier p of the request is fine
    checks, failures = verify.run_suites(["bpz"], [10_000_000], rwin=0)["bpz"][10_000_000]
    assert (checks, failures) == (99, [])

    def no_series(p):
        raise AssertionError("a series was built")

    monkeypatch.setattr(bpz, "_frobenius", no_series)
    for call in (
        lambda: verify.SUITES["bpz"](Params(10_000_001), 0),
        lambda: verify.bpz_suite(Params(10_000_001), 0),
        lambda: verify.run_suites(["bpz"], [3, 10_000_001], rwin=0),
    ):
        with pytest.raises(ValueError, match="bpz suite needs p <= 10000000, got p=10000001"):
            call()


@pytest.mark.parametrize("name", ["fusion", "triplet", "bpz", "catalog", "labels"])
def test_every_suite_is_registered_as_itself(name):
    # one calling contract: the registry holds each suite, not an adapter
    assert verify.SUITES[name] is getattr(verify, f"{name}_suite")


@pytest.mark.parametrize(
    "names, p_values, message",
    [(["fusion"], [], "empty p list"), ([], [2], "empty suite list")],
    ids=["no-p", "no-suite"],
)
def test_run_suites_refuses_an_empty_list_before_any_suite(monkeypatch, names, p_values, message):
    def no_suite(params, rwin):
        raise AssertionError("a suite ran")

    for name in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, name, no_suite)
    with pytest.raises(ValueError, match=message):
        verify.run_suites(names, p_values, rwin=0)


def test_run_suites_runs_each_p_once(monkeypatch):
    runs = []
    for name in list(verify.SUITES):

        def suite(params, rwin, name=name):
            runs.append((name, params.p))
            return 1, []

        monkeypatch.setitem(verify.SUITES, name, suite)
    report = verify.run_suites(list(verify.SUITES), [2, 3, 2], rwin=0)
    assert runs == [(name, p) for name in verify.SUITES for p in (2, 3)]
    assert all(list(per_p) == [2, 3] for per_p in report.values())


def test_run_suites_runs_each_suite_name_once(monkeypatch):
    runs = []

    def suite(params, rwin):
        runs.append(params.p)
        return 1, []

    monkeypatch.setitem(verify.SUITES, "labels", suite)
    report = verify.run_suites(["labels", "labels"], [2], rwin=1)
    assert runs == [2]
    assert report == {"labels": {2: (1, [])}}


def test_run_suites_rejects_unknown_names_before_any_suite(monkeypatch):
    def no_suite(params, rwin):
        raise AssertionError("a suite ran before the name check")

    monkeypatch.setitem(verify.SUITES, "labels", no_suite)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(["labels", "nope"], [2], rwin=0)


def test_suite_registry_is_pinned():
    # the one list of suite names; ``all`` is every one of them, in this order
    assert tuple(verify.SUITES) == ("fusion", "triplet", "bpz", "catalog", "labels")


def test_all_runs_every_suite_in_registry_order():
    report = verify.run_suites(["all"], [2], 0)
    assert tuple(report) == tuple(verify.SUITES)
    assert report == verify.run_suites(list(verify.SUITES), [2], 0)


def test_all_and_a_suite_it_holds_run_that_suite_once(monkeypatch):
    runs = []
    for name in list(verify.SUITES):
        monkeypatch.setitem(
            verify.SUITES, name, lambda params, rwin, name=name: runs.append(name) or (1, [])
        )
    verify.run_suites(["all", "labels"], [2], 0)
    assert runs == list(verify.SUITES)


def test_unknown_suite_refusal_names_every_suite_and_all():
    with pytest.raises(ValueError) as refusal:
        verify.run_suites(["nope"], [2], 0)
    message = str(refusal.value)
    assert all(name in message for name in [*verify.SUITES, "all"])


def _catalog_suite_peak(rwin):
    # a cyclic collection that falls due inside the traced call moves its
    # peak, so every measurement starts with the collector's counts at zero
    gc.collect()
    tracemalloc.start()
    try:
        verify.catalog_suite(Params(2), rwin)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_catalog_suite_memory_does_not_grow_with_rwin():
    _catalog_suite_peak(2)  # warm imports and caches
    assert _catalog_suite_peak(2000) <= 2 * _catalog_suite_peak(200)


def test_ring_image_matches_the_whole_answer_class():
    # the reference is the per-pair expression the suite used before it read
    # D once per distinct label: D of the whole answer, then times (w - w^{-1})
    for p in range(2, 7):
        params = Params(p)
        labels = catalog.label_window(params, -2, 2)
        classes = {x: catalog.grothendieck_class(params, x) for x in labels}
        for a in labels:
            for b in labels:
                ab = fusion_closed.fuse(params, a, b)
                reference = verify._laurent_product(
                    {1: 1, -1: -1}, catalog.grothendieck_class(params, ab)
                )
                assert verify._ring_image(params, ab, classes) == reference, (a, b)


def test_fusion_suite_reads_each_class_once_per_call(monkeypatch):
    params = Params(3)
    grothendieck_class = catalog.grothendieck_class
    asked = []

    def counting(params, x):
        asked.append(x)
        return grothendieck_class(params, x)

    monkeypatch.setattr(catalog, "grothendieck_class", counting)
    assert verify.fusion_suite(params, 1)[1] == []
    first = list(asked)
    assert len(first) == len(set(first))
    assert set(catalog.label_window(params, -1, 1)) < set(first)  # answers leave the window
    assert verify.fusion_suite(params, 1)[1] == []
    assert asked == first + first  # nothing is kept from one call to the next


def test_ring_memo_is_local_to_one_call(monkeypatch):
    # D of a label outside the window is read only for an answer; a memo kept
    # across calls would hide the patched class from the second call
    params = Params(3)
    assert verify.fusion_suite(params, 1)[1] == []
    grothendieck_class = catalog.grothendieck_class

    def wrong_outside_the_window(params, x):
        d = grothendieck_class(params, x)
        return {e: 2 * c for e, c in d.items()} if abs(x.r) > 1 else d

    monkeypatch.setattr(catalog, "grothendieck_class", wrong_outside_the_window)
    failures = verify.fusion_suite(params, 1)[1]
    assert failures and all(
        m.startswith("Grothendieck consistency failure at ") for m in failures
    )


def test_ring_image_is_summed_once_per_distinct_answer(monkeypatch):
    params = Params(3)
    ring_image, summed = verify._ring_image, []

    def counting(params, ab, classes):
        summed.append(ab)
        return ring_image(params, ab, classes)

    monkeypatch.setattr(verify, "_ring_image", counting)
    labels = catalog.label_window(params, -1, 1)
    answers = {fusion_closed.fuse(params, a, b) for a in labels for b in labels}
    assert verify.fusion_suite(params, 1)[1] == []
    assert len(summed) == len(answers) < len(labels) ** 2
    assert sum(map(len, answers)) <= verify._LABELS


@pytest.mark.parametrize("budget", [-1, 0, 40])
def test_ring_images_kept_or_not_give_the_same_result(monkeypatch, budget):
    # a wrong class outside the window makes failures; keeping no image, or
    # running out of room part way, gives the same checks, order and messages
    params = Params(3)
    grothendieck_class = catalog.grothendieck_class

    def wrong_outside_the_window(params, x):
        d = grothendieck_class(params, x)
        return {e: 2 * c for e, c in d.items()} if abs(x.r) > 1 else d

    monkeypatch.setattr(catalog, "grothendieck_class", wrong_outside_the_window)
    kept = verify.fusion_suite(params, 1)
    assert kept[1]
    monkeypatch.setattr(verify, "_LABELS", budget)
    assert verify.fusion_suite(params, 1) == kept
