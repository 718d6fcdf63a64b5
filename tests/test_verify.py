"""Failure messages of the verify suites: built only on failure, text unchanged."""

from singlet_fusion import bpz, catalog, fusion_oracle, verify
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
        "hypergeometric_residual",
        lambda params, f, x: -1.23456e-6 if x > 0.9 else 0.0,
    )
    assert verify.bpz_suite(Params(3)) == (
        99,
        [
            "psi1 hypergeometric residual 1.235e-06 at x=0.9500000000000001",
            "psi2 hypergeometric residual 1.235e-06 at x=0.9500000000000001",
        ],
    )


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
