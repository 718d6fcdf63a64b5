import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from singlet_fusion import catalog, cli, fusion_closed, fusion_oracle
from singlet_fusion.catalog import FormalSum, fock, jordan_fock, projective, simple
from singlet_fusion.labels import Params


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_label_grammar():
    p3 = Params(3)
    assert cli.parse_label(p3, "M:4,2") == simple(p3, 4, 2)
    assert cli.parse_label(p3, "P:-1,2") == projective(p3, -1, 2)
    assert cli.parse_label(p3, "P:1,3") == simple(p3, 1, 3)  # normalized
    assert cli.parse_label(p3, "FJ:1,3,2") == jordan_fock(p3, 1, 2)
    for bad in ("M:1", "Q:1,1", "M:a,1", "M:1,9", "FJ:1,3", "FJ:1,2,2", "FJ:1,3,0", "FJ:1,3,-2",
                "M:1_0,2", "M:\u0661,2", "M: 1,2", "M:+1,2", "M:-0,1", "M:01,1", "FJ:1,3,02"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            cli.parse_label(p3, bad)


def test_fuse_command(capsys):
    code, out, _ = run(capsys, "fuse", "--p", "2", "M:1,2", "M:1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["terms"] == [{"kind": "P", "mult": 1, "r": 1, "s": 1}]


def test_fuse_unit_with_projective(capsys):
    code, out, _ = run(capsys, "fuse", "--p", "3", "M:1,1", "P:0,2")
    assert code == 0
    assert json.loads(out)["terms"] == [{"kind": "P", "mult": 1, "r": 0, "s": 2}]


def test_fuse_engine_both_reports_match(capsys):
    code, out, _ = run(capsys, "fuse", "--p", "3", "M:1,3", "M:1,3", "--engine", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["terms"] == doc["oracle_terms"]


def test_fuse_engine_mismatch_exits_3(capsys, monkeypatch):
    from singlet_fusion.catalog import FormalSum

    monkeypatch.setattr(
        cli.fusion_oracle,
        "oracle_fuse",
        lambda params, a, b: FormalSum.of(simple(params, 9, 1)),
    )
    code, out, _ = run(capsys, "fuse", "--p", "2", "M:1,1", "M:1,1", "--engine", "both")
    assert code == 3
    assert json.loads(out)["match"] is False


def test_fuse_rejects_bad_label(capsys):
    code, out, err = run(capsys, "fuse", "--p", "2", "M:1,9", "M:1,1")
    assert code == 2
    assert out == ""
    assert "M:1,9" in err


def test_fuse_rejects_unsupported_product(capsys):
    code, _, err = run(capsys, "fuse", "--p", "2", "F:1,1", "F:1,1")
    assert code == 2
    assert "Fock" in err


def test_induce_command(capsys):
    code, out, _ = run(capsys, "induce", "--p", "3", "M:4,2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "command": "induce",
        "input": "M:4,2",
        "kind": "W",
        "p": 3,
        "rbar": 2,
        "s": 2,
        "schema": 1,
    }

    code, out, _ = run(capsys, "induce", "--p", "2", "F:1,1")
    assert json.loads(out)["kind"] == "V"

    # every R_{rbar,s} is a projective cover; s < p-1 is no special case
    code, out, _ = run(capsys, "induce", "--p", "4", "P:1,1")
    assert code == 0
    assert (json.loads(out)["kind"], json.loads(out)["s"]) == ("R", 1)

    code, out, err = run(capsys, "induce", "--p", "2", "FJ:1,2,2")
    assert code == 2
    assert out == ""
    assert err == "singlet-fusion: FJ:1,2,2 induces to a non-local module\n"


def test_table_tsv_deterministic(capsys):
    code, out1, _ = run(capsys, "table", "--p", "2", "--rmin", "-1", "--rmax", "1")
    code2, out2, _ = run(capsys, "table", "--p", "2", "--rmin", "-1", "--rmax", "1")
    assert code == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    # 6 simples + 3 projectives -> 81 ordered pairs plus the header
    assert len(lines) == 82
    assert lines[0] == "left\tright\tresult"
    assert lines[1].startswith("M:-1,1\tM:-1,1\t")


def test_table_empty_range(capsys, monkeypatch):
    # --rmin above --rmax is a usage error, raised before any label is built
    def no_labels(*args):
        raise AssertionError("a label was built")

    monkeypatch.setattr(cli.catalog, "simple", no_labels)
    code, out, err = run(capsys, "table", "--p", "2", "--rmin", "1", "--rmax", "0")
    assert (code, out) == (2, "")
    assert "--rmin 1 is greater than --rmax 0" in err


def test_table_over_the_row_cap_exits_2_before_any_product(capsys, monkeypatch):
    def no_products(*args):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(cli.fusion_closed, "fuse", no_products)
    code, out, err = run(capsys, "table", "--p", "6", "--rmin", "0", "--rmax", "100000")
    assert code == 2
    assert out == ""
    assert f"table would have {(100001 * 11) ** 2} rows" in err


def test_table_row_cap_boundary(capsys, monkeypatch):
    # the table-both benchmark window (9 801 rows) stays far under the cap
    assert 9801 * 20 < cli.catalog.MAX_FUSION_PAIRS
    monkeypatch.setattr(cli.catalog, "MAX_FUSION_PAIRS", 9801)
    code, out, _ = run(capsys, "table", "--p", "6", "--rmin", "-4", "--rmax", "4")
    assert code == 0
    assert len(out.splitlines()) == 9802
    monkeypatch.setattr(cli.catalog, "MAX_FUSION_PAIRS", 9800)
    code, out, err = run(capsys, "table", "--p", "6", "--rmin", "-4", "--rmax", "4")
    assert (code, out) == (2, "")
    assert "table would have 9801 rows, more than 9800" in err


def test_table_json_engine_both(capsys):
    code, out, _ = run(
        capsys,
        "table", "--p", "2", "--rmin", "0", "--rmax", "0",
        "--engine", "both", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == 0
    assert all(row["match"] for row in doc["rows"])


@pytest.mark.parametrize(
    "engine, fmt, digest",
    [
        ("both", "tsv", "24abd0c878cdc786c1c82c1943898349ce7ec45cdfeb2c1c4f596f1c158b3db5"),
        ("both", "json", "953d974db8a8e67f9abf384e4c3837ab95d604b0e69888d420faf1f92ac052e6"),
        ("closed", "tsv", "b70a78c19bd467c0a2578d09e1627cadc1cd0b925c477dc1dcbb43508c4e9a84"),
    ],
)
def test_table_bytes_are_pinned(capsys, engine, fmt, digest):
    # the whole stdout of a p = 3 table, header, row order and final newline included
    code, out, err = run(
        capsys,
        "table", "--p", "3", "--rmin", "-1", "--rmax", "1",
        "--engine", engine, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_engine_mismatch_exits_3(capsys, monkeypatch):
    from singlet_fusion.catalog import FormalSum

    monkeypatch.setattr(
        cli.fusion_oracle,
        "oracle_fuse",
        lambda params, a, b: FormalSum.of(simple(params, 9, 1)),
    )
    code, out, _ = run(
        capsys,
        "table", "--p", "2", "--rmin", "0", "--rmax", "0",
        "--engine", "both", "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["mismatches"] > 0


def test_table_tsv_engine_mismatch_exits_3(capsys, monkeypatch):
    # the streamed TSV counts mismatches as it writes: every row reads NO
    from singlet_fusion.catalog import FormalSum

    monkeypatch.setattr(
        cli.fusion_oracle,
        "oracle_fuse",
        lambda params, a, b: FormalSum.of(simple(params, 9, 1)),
    )
    code, out, _ = run(
        capsys, "table", "--p", "2", "--rmin", "0", "--rmax", "0", "--engine", "both"
    )
    lines = out.splitlines()
    assert code == 3
    assert lines[0] == "left\tright\tresult\tmatch"
    assert len(lines) == 10 and all(line.endswith("\tNO") for line in lines[1:])


def test_table_tsv_memory_does_not_grow_with_rows():
    # TSV rows are written as they are computed, so the 9 801-row two-engine
    # table peaks near 0.3 MB of Python allocations, cold engine memos
    # included; a list of its row tuples alone reaches 1.5-1.9 MB, and
    # holding every row and the joined output took about 4.7 MB
    argv = ["table", "--p", "6", "--rmin", "-4", "--rmax", "4", "--engine", "both"]
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_table_out_file_has_the_stdout_bytes(tmp_path, capsys, fmt):
    # the pinned p = 3 two-engine tables, written to --out and to stdout
    argv = ["table", "--p", "3", "--rmin", "-1", "--rmax", "1", "--engine", "both", "--format", fmt]
    target = tmp_path / f"table.{fmt}"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


def test_table_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "table.tsv"
    code, out, err = run(
        capsys, "table", "--p", "3", "--rmin", "-1", "--rmax", "1", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("singlet-fusion: ") and str(target) in err
    assert not target.exists()


def _child(argv, **kwargs):
    """``python -m singlet_fusion argv`` in a child that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "singlet_fusion", *argv]
    return subprocess.Popen(cmd, stderr=subprocess.PIPE, env=env, **kwargs)


def test_stdout_closed_after_the_first_line_exits_141_quietly():
    # table ... | head -1: the 504 KB table outgrows the pipe, so the reader
    # leaves while rows are still being written; that is not a usage failure
    argv = ["table", "--p", "6", "--rmin", "-4", "--rmax", "4"]
    with _child(argv, stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"left\tright\tresult\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_PIPE, b"")


def test_stdout_closed_before_the_final_flush_exits_141_quietly():
    # a one-line report fits in the buffer, so its write fails only at the
    # flush; the pipe's read end is closed before the child starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(["fuse", "--p", "3", "M:1,2", "M:1,2"], stdout=write_end)
    finally:
        os.close(write_end)
    with proc:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_PIPE, b"")


def test_cli_rejects_bad_p(capsys):
    code, _, err = run(capsys, "fuse", "--p", "1", "M:1,1", "M:1,1")
    assert code == 2
    assert "p must be" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse", "--p", "1_0", "M:1,2", "M:1,2"],
        ["verify", "--suite", "labels", "--p", "\u0663,+2", "--rwin", "0"],
        ["table", "--p", "2", "--rmin", " 0", "--rmax", "+0"],
        ["verify", "--suite", "labels", "--p", "2", "--rwin", "+0"],
        ["induce", "--p", "\uff13", "M:1,1"],
        ["fuse", "--p", "03", "M:1,2", "M:1,2"],
        ["verify", "--suite", "labels", "--p", "2", "--rwin", "00"],
        ["verify", "--suite", "labels", "--p", "2,03", "--rwin", "0"],
    ],
)
def test_every_number_is_an_optional_minus_and_ascii_digits(capsys, argv):
    # int() alone reads 1_0 as 10, a non-ASCII 3 as 3, " 0" and +0 as 0, and
    # 03 as 3: str never prints any of them
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an option's value
        code = exc.code
    assert (code, capsys.readouterr().out) == (2, "")


def test_verify_command(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "fusion", "--p", "2", "--rwin", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_failures"] == 0
    assert doc["total_checks"] > 0


def test_verify_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setitem(cli.verify.SUITES, "fusion", lambda params, rwin: (1, ["boom"]))
    code, out, _ = run(capsys, "verify", "--suite", "fusion", "--p", "2")
    assert code == 3
    assert json.loads(out)["total_failures"] == 1


def test_verify_bad_p_list(capsys):
    code, _, err = run(capsys, "verify", "--suite", "fusion", "--p", "2,x")
    assert code == 2
    assert "p list" in err


@pytest.mark.parametrize(
    "p_list, refusal",
    [(v, f"cannot parse p list {v!r}") for v in (",3,,2,", "3,", ",3", "3,,2")]
    + [(v, "empty p list") for v in (",", ",,", "")],
)
def test_verify_refuses_an_empty_p_entry(capsys, p_list, refusal):
    # a list with no entries at all reaches run_suites, which names it
    code, out, err = run(capsys, "verify", "--suite", "labels", "--p", p_list, "--rwin", "0")
    assert (code, out) == (2, "")
    assert refusal in err


def test_verify_rejects_negative_rwin(capsys):
    code, out, err = run(capsys, "verify", "--suite", "fusion", "--p", "3", "--rwin", "-1")
    assert code == 2
    assert out == ""
    assert "--rwin" in err


def test_verify_over_the_pair_cap_exits_2_before_any_label(capsys, monkeypatch):
    def no_labels(*args):
        raise AssertionError("a label was built")

    monkeypatch.setattr(cli.verify.catalog, "simple", no_labels)
    code, out, err = run(capsys, "verify", "--suite", "fusion", "--p", "6", "--rwin", "1000")
    assert (code, out) == (2, "")
    assert f"has {(2001 * 11) ** 2} ordered pairs, more than 250000" in err
    assert "Traceback" not in err


def test_verify_bpz_over_the_p_bound_exits_2(capsys, monkeypatch):
    def no_series(p):
        raise AssertionError("a series was built")

    monkeypatch.setattr(cli.verify.bpz, "_frobenius", no_series)
    code, out, err = run(capsys, "verify", "--suite", "bpz", "--p", "1000000000")
    assert (code, out) == (2, "")
    assert "bpz suite needs p <= 10000000, got p=1000000000" in err
    assert "Traceback" not in err


def test_run_suites_rejects_negative_rwin():
    with pytest.raises(ValueError, match="--rwin"):
        cli.verify.run_suites(["fusion", "triplet"], [3], rwin=-1)


@pytest.mark.parametrize("name", sorted(cli.verify.SUITES))
def test_every_suite_rejects_negative_rwin(name):
    # called directly, not through run_suites: a windowed suite with a
    # negative window would otherwise run an empty or partial window
    with pytest.raises(ValueError, match="--rwin"):
        cli.verify.SUITES[name](Params(3), -1)


@pytest.mark.parametrize("p", ["7", "11", "16"])
def test_table_engines_agree_beyond_the_acceptance_window(p, capsys):
    # every M/P pair at r = 0..1; the acceptance suite stops at p = 6
    code, _, _ = run(capsys, "table", "--p", p, "--rmin", "0", "--rmax", "1", "--engine", "both")
    assert code == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "fuse", "--p", "2", "M:1,2", "M:1,2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["terms"] == [
        {"kind": "P", "mult": 1, "r": 1, "s": 1}
    ]


@pytest.mark.parametrize("payload", ["a\tb"])
def test_emit_ends_with_one_newline(tmp_path, capsys, payload):
    # stdout and --out get the same bytes: the payload and one final newline
    target = tmp_path / "result"
    cli._emit(payload, None)
    cli._emit(payload, str(target))
    assert capsys.readouterr().out == target.read_text(encoding="utf-8") == "a\tb\n"


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "result.json"
    code, out, err = run(
        capsys, "fuse", "--p", "3", "M:1,1", "M:1,2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("singlet-fusion: ") and str(target) in err
    assert not target.exists()


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # one ArgumentParser tree: the top-level parser and one per subcommand
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "fuse", "--p", "2", "M:1,2", "M:1,2")[0] == 0
    assert built == ["singlet-fusion"] + [
        f"singlet-fusion {command}" for command in ("fuse", "table", "verify", "induce")
    ]
    cli._build_parser.cache_clear()  # later tests get a parser built without the patch


def test_cli_reads_verify_only_on_the_verify_path():
    # fuse, table and induce run no suite: only _cmd_verify and the parser's
    # --suite choices read verify
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "verify"
        or isinstance(node, ast.ImportFrom)
        and node.module == "verify"
    }
    assert "_cmd_verify" in readers
    assert readers <= {"_cmd_verify", "_build_parser"}


def _outcome(capsys, argv, target):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    written = target.read_text(encoding="utf-8") if target.exists() else None
    return code, captured.out, captured.err, written


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # each call on the one cached parser gives what it gives on a fresh parser
    target = tmp_path / "result.json"
    calls = [
        ["fuse", "--p", "3", "M:1,1"],  # argparse usage error: no right label
        ["fuse", "--p", "3", "M:1,4", "M:1,1"],  # validation error
        ["fuse", "--p", "3", "M:1,2", "M:1,2", "--engine", "both"],
        ["fuse", "--p", "2", "M:1,2", "M:1,2", "--out", str(target)],
        ["fuse", "--p", "2", "M:1,2", "M:1,2"],
        ["table", "--p", "2", "--rmin", "0", "--rmax", "0", "--format", "json"],
        ["table", "--p", "2", "--rmin", "0", "--rmax", "0"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv, target))
    target.unlink()
    cli._build_parser.cache_clear()
    cached = [_outcome(capsys, argv, target) for argv in calls]
    assert cached == fresh
    assert [outcome[0] for outcome in cached] == [2, 2, 0, 0, 0, 0, 0]
    assert cached[3][1] == "" and cached[3][3] == cached[4][1] != ""
    assert cached[6][1].startswith("left\tright\tresult\n")


# Reports are written from text.  These tests compare every byte with what one
# json.dumps(sort_keys=True) of the report's dict form makes, as the CLI once did.


def _dumps_report(command, doc):
    doc = dict(doc, schema=cli.SCHEMA, command=command)
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def _term_dicts(product):
    return [{"kind": x.kind, "r": x.r, "s": x.s, "mult": mult} for x, mult in product]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _fuse_pairs(params):
    """Every ordered pair of the r = -1..1 window, and each Fock label of it
    with the odd simple currents ``M_{-1,1}``, ``M_{1,1}`` and ``M_{3,1}``."""
    window = catalog.label_window(params, -1, 1)
    focks = [fock(params, r, s) for r in (-1, 0, 1) for s in range(1, params.p)]
    currents = [simple(params, r, 1) for r in (-1, 1, 3)]
    return (
        [(a, b) for a in window for b in window]
        + [(f, c) for f in focks for c in currents]
        + [(c, f) for f in focks for c in currents]
    )


@pytest.mark.parametrize("p", range(2, 8))
def test_fuse_bytes_equal_the_dumps_of_the_dict_form(p):
    params = Params(p)
    seen = set()
    for left, right in _fuse_pairs(params):
        closed = fusion_closed.fuse(params, left, right)
        engines = ("closed",)
        if left.kind != catalog.FOCK and right.kind != catalog.FOCK:
            oracle = fusion_oracle.oracle_fuse(params, left, right)
            engines += ("oracle", "both")
        for engine in engines:
            primary = oracle if engine == "oracle" else closed
            doc = {
                "p": p, "engine": engine, "left": str(left), "right": str(right),
                "terms": _term_dicts(primary),
            }
            if engine == "both":
                doc.update(oracle_terms=_term_dicts(oracle), match=closed == oracle)
            argv = ["fuse", "--p", str(p), str(left), str(right), "--engine", engine]
            assert _stdout(argv) == (0, _dumps_report("fuse", doc)), argv
            seen.update(x.kind for x, _ in primary)
            seen.update("mult > 1" for _, mult in primary if mult > 1)
            seen.update("r < 0" for x, _ in primary if x.r < 0)
    assert seen == {"M", "P", "F", "mult > 1", "r < 0"}


@pytest.mark.parametrize("engine", ["closed", "oracle", "both", "both, wrong oracle"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_json_bytes_equal_the_dumps_of_the_dict_form(p, engine, monkeypatch):
    params = Params(p)
    unit, oracle_fuse = simple(params, 1, 1), fusion_oracle.oracle_fuse
    if engine == "both, wrong oracle":
        # the oracle reads a x M_{1,1} as a x a, so every row with M_{1,1} on
        # the right but the first is a "match": false row
        engine = "both"
        monkeypatch.setattr(
            cli.fusion_oracle, "oracle_fuse", lambda params, a, b: oracle_fuse(params, a, a if b == unit else b)
        )
    labels = catalog.label_window(params, -1, 1)
    rows = []
    for left in labels:
        for right in labels:
            closed = fusion_closed.fuse(params, left, right)
            oracle = cli.fusion_oracle.oracle_fuse(params, left, right)
            row = {"left": str(left), "right": str(right)}
            row["result"] = str(oracle if engine == "oracle" else closed)
            if engine == "both":
                row["match"] = closed == oracle
            rows.append(row)
    doc = {"p": p, "engine": engine, "rows": rows}
    if engine == "both":
        doc["mismatches"] = sum(not row["match"] for row in rows)
        assert doc["mismatches"] == (0 if cli.fusion_oracle.oracle_fuse is oracle_fuse else len(labels) - 1)
    argv = ["table", "--p", str(p), "--engine", engine, "--format", "json"]
    assert _stdout(argv) == (3 if doc.get("mismatches") else 0, _dumps_report("table", doc))


def test_fuse_mismatch_bytes_equal_the_dumps_of_the_dict_form(monkeypatch):
    params = Params(3)
    left, right = simple(params, 1, 2), projective(params, 1, 1)
    wrong = FormalSum.of(simple(params, 9, 1), simple(params, 9, 1), projective(params, -2, 2))
    monkeypatch.setattr(cli.fusion_oracle, "oracle_fuse", lambda params, a, b: wrong)
    doc = {
        "p": 3, "engine": "both", "left": "M:1,2", "right": "P:1,1", "match": False,
        "terms": _term_dicts(fusion_closed.fuse(params, left, right)),
        "oracle_terms": [
            {"kind": "M", "r": 9, "s": 1, "mult": 2}, {"kind": "P", "r": -2, "s": 2, "mult": 1},
        ],
    }
    argv = ["fuse", "--p", "3", "M:1,2", "P:1,1", "--engine", "both"]
    assert _stdout(argv) == (3, _dumps_report("fuse", doc))


def test_an_empty_term_list_is_written_as_an_empty_array(monkeypatch):
    monkeypatch.setattr(cli.fusion_closed, "fuse", lambda params, a, b: FormalSum())
    doc = {"p": 3, "engine": "closed", "left": "M:1,1", "right": "M:1,2", "terms": []}
    code, out = _stdout(["fuse", "--p", "3", "M:1,1", "M:1,2"])
    assert (code, out) == (0, _dumps_report("fuse", doc))
    assert out.endswith('"terms": []}\n')
    assert "".join(cli._pieces({"a": cli._Rendered(), "b": 1})) == '{"a": [], "b": 1}'


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse", "--p", "7", "P:2,3", "M:-1,5", "--engine", "both"],
        ["table", "--p", "3", "--engine", "both", "--format", "json"],
        ["table", "--p", "3", "--engine", "closed"],
        ["verify", "--suite", "labels", "--p", "2,3", "--rwin", "1"],
        ["induce", "--p", "3", "M:4,2"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_out_file_bytes_equal_the_stdout_bytes(tmp_path, argv):
    target = tmp_path / "result"
    code, out = _stdout(argv)
    assert _stdout(argv + ["--out", str(target)]) == (code, "")
    assert code == 0 and target.read_bytes() == out.encode("utf-8") != b""


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--p", "6", "--rmin", "-4", "--rmax", "4", "--format", "json"],
        ["fuse", "--p", "100000", "P:1,1", "P:1,1"],
    ],
    ids=["json table", "fuse at p = 100000"],
)
def test_stdout_closed_mid_report_exits_141_quietly(argv):
    # ... | head -c 100: a report is written in pieces, so the reader can
    # leave while the document is half written
    with _child(argv, stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b'{"command": ')
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_PIPE, b"")


def _workloads():
    """``perfbench/workloads.py`` of this checkout, read as it stands."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, seed, block",
    [
        ("table-both", 1, 0),
        ("verify-all", 1, 0),
        ("large-p", 1, 81),
        ("large-p", 424242, 53),
    ],
)
def test_no_benchmark_workload_evicts(monkeypatch, workload, seed, block):
    # one benchmark session from fresh memos holds the same entries under
    # the budget as under none; of large-p sessions 0-99 these two blocks
    # hold the most: 3 851 oracle labels (seed 1) and 4 186 closed-form
    # template labels (seed 424 242)
    workloads = _workloads()
    ops = workloads.session_ops(workloads.load_goldens(), workload, seed, block)
    held = []
    for budget in (catalog._LABELS, sys.maxsize):
        monkeypatch.setattr(catalog, "_LABELS", budget)
        memos = catalog._Memo(), catalog._Memo()
        monkeypatch.setattr(fusion_closed, "_templates", memos[0])
        monkeypatch.setattr(fusion_oracle, "_store", memos[1])
        for op in ops:
            assert _stdout(op.argv)[0] == 0, op.argv
        held.append([(memo.labels, list(memo.entries)) for memo in memos])
    assert held[0] == held[1]
