"""The pinned CLI outputs of ``pinned.json``, run by ``pinned.check``.

Tier-1 runs every entry that names no ``legs``; CI runs the whole registry
with ``python tests/pinned.py`` on each leg.
"""

import os
from pathlib import Path

import pytest

import pinned
from singlet_fusion import cli

ROOT = Path(__file__).resolve().parent.parent
CHEAP = {"argv": ["induce", "--p", "3", "M:4,2"], "exit": 0}


@pytest.fixture(autouse=True)
def _checkout_src(monkeypatch):
    # the children run in a temporary directory, so the path must be absolute
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize(
    "entry",
    [e for e in pinned.entries() if "legs" not in e],
    ids=lambda e: " ".join(e["argv"]),
)
def test_pinned_output(entry):
    assert pinned.check(entry) == []


def test_registry_fields():
    for entry in pinned.entries():
        assert {"argv", "exit"} <= set(entry) <= pinned.FIELDS, entry
    assert pinned.check({**CHEAP, "hash": "0"}) == ["unknown field 'hash'"]


@pytest.mark.parametrize(
    "field, value, report",
    [
        ("sha256", "0" * 64, "stdout sha256 "),
        ("exit", 2, "exit 0, expected 2"),
        ("stderr", "no such text", "stderr lacks 'no such text'"),
        ("rss_mb", 1, "peak RSS "),
    ],
    ids=["sha256", "exit", "stderr", "rss_mb"],
)
def test_check_reports_a_wrong_field(field, value, report):
    failed = pinned.check({**CHEAP, field: value})
    assert len(failed) == 1 and failed[0].startswith(report), failed


def test_check_skips_other_legs():
    assert pinned.check({**CHEAP, "sha256": "0", "legs": ["2.7"]}) is None


def test_readme_induce_example_is_verbatim(capsys):
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    shown = lines[lines.index("singlet-fusion induce --p 3 M:4,2") + 1]
    assert cli.main(["induce", "--p", "3", "M:4,2"]) == 0
    assert "# " + capsys.readouterr().out == shown + "\n"
