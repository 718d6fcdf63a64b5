"""Every function defined in ``src`` is entered by a command, or is on a short allowlist.

One subprocess runs the commands below through ``cli`` under ``sys.settrace``
and reports every code object it entered.  A fresh interpreter starts with
cold memos (both routes' memos and ``bpz._frobenius``), so a function
reached only on a memo miss still counts, and the tracers of pytest and
hypothesis are left alone.  Every ``def`` in the ``src`` AST, methods and
nested functions included, that no command enters must be on ``ALLOWLIST``,
and every allowlisted function must be one that no command enters: the two
sets are compared for equality.  The allowlist holds only dunder methods that
no command calls: an error path lives inside a function that commands enter.
A new function therefore comes with a command in ``COMMANDS`` that reaches
it; a dead one is deleted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent

# the CI workloads, small: both engines on a whole table (TSV and JSON), every
# suite, fuse on M/P and on M x F, and induce of each singlet kind; the last
# command runs through the console-script wrapper with sys.argv set
COMMANDS = [
    ["table", "--p", "3", "--rmin", "-1", "--rmax", "1", "--engine", "both"],
    ["table", "--p", "3", "--rmin", "-1", "--rmax", "1", "--engine", "both", "--format", "json"],
    ["verify", "--suite", "all", "--p", "2,3", "--rwin", "1"],
    ["fuse", "--p", "3", "M:1,2", "P:1,1", "--engine", "both"],
    ["fuse", "--p", "3", "M:3,1", "F:1,1"],
    ["induce", "--p", "4", "P:1,1"],
    ["induce", "--p", "4", "F:2,1"],
    ["induce", "--p", "3", "M:4,2"],
]

# ``file:qualified name`` of each function no command enters -> the test that reaches it
ALLOWLIST = {
    "catalog.py:FormalSum.__repr__": "test_catalog.py::test_formal_sum_basics",
    "triplet.py:TripletIndec.__str__": "test_triplet.py::test_mixed_sum_order_and_str",
    # error path: no consistent input drives a step's subtraction negative
    "fusion_oracle.py:NegativeMultiplicityError.__init__": (
        "test_fusion_oracle.py::test_walk_error_reports_the_minuend_before_subtraction"
    ),
    # Params is a slots class: its value semantics are pinned, no command compares,
    # hashes, prints, copies or assigns one
    **{
        f"labels.py:Params.{name}": "test_labels.py::test_params_is_an_immutable_value"
        for name in ("__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__", "__reduce__")
    },
}

_TRACE = """
import contextlib, io, json, os, sys

src, commands = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
entered = set()


def tracer(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno))
    # no local tracer: only the call events are wanted


sys.settrace(tracer)
from singlet_fusion import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes += [cli.main(argv) for argv in commands[:-1]]
    sys.argv = ["singlet-fusion"] + commands[-1]
    try:
        cli.entrypoint()
    except SystemExit as exc:
        codes.append(exc.code)
sys.settrace(None)
root = os.path.realpath(src) + os.sep
print(json.dumps({
    "codes": codes,
    "entered": sorted(
        [os.path.realpath(f), line]
        for f, line in entered
        if os.path.realpath(f).startswith(root)
    ),
}))
"""


def _src_defs():
    """``(path, first line) -> (file:qualified name, def line)`` for every ``def`` in ``src``.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line for a decorated function.
    """
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = (f"{path.name}:{name}", child.lineno)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "singlet_fusion").glob("*.py")):
        path = Path(os.path.realpath(path))
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, "")
    return defs


def _trace_commands():
    out = subprocess.run(
        [sys.executable, "-c", _TRACE, str(SRC), json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(out.stdout)
    assert report["codes"] == [0] * len(COMMANDS), report["codes"]
    return {(path, line) for path, line in report["entered"]}


def test_every_src_function_is_entered_by_a_command_or_allowlisted():
    defs = _src_defs()
    entered = _trace_commands()
    never = {name for key, (name, _) in defs.items() if key not in entered}
    where = {name: (path, line) for (path, _), (name, line) in defs.items()}
    problems = []
    for name in sorted(never ^ set(ALLOWLIST)):
        if name not in where:
            problems.append(f"allowlist entry {name} names no def in src")
            continue
        path, line = where[name]
        why = (
            "is never entered by a command and is not on the allowlist"
            if name in never
            else "is on the allowlist, but a command enters it"
        )
        problems.append(f"{path}:{line} {name.partition(':')[2]} {why}")
    assert never == set(ALLOWLIST), "\n".join(problems)


def test_each_allowlist_entry_names_a_test_that_exists():
    for name, where in ALLOWLIST.items():
        test_file, _, test_name = where.partition("::")
        tree = ast.parse((TESTS / test_file).read_text(encoding="utf-8"))
        tests = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert test_name in tests, f"{name}: {where} is not a test"


def _is_dunder_method(name):
    owner, _, method = name.partition(":")[2].rpartition(".")
    return bool(owner) and method.startswith("__") and method.endswith("__")


def test_allowlist_holds_only_dunder_methods():
    # a function that no command reaches is deleted or wired to a command,
    # never parked here
    parked = [n for n in ALLOWLIST if not _is_dunder_method(n)]
    assert parked == []
