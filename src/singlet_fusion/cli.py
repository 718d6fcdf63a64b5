"""Batch command-line front end.

Subcommands:

``fuse``     one fusion product, closed form and/or recursion oracle;
``table``    the full fusion table over a label window, TSV or JSON;
``verify``   the invariant suites of every layer, with a JSON report;
``induce``   induction of one singlet label to the triplet side.

The parser is built once per process, by the first :func:`main` call, and
reused; each call parses its own ``argv`` into a fresh namespace.  Only a
process that calls :func:`main` many times gains: the console script calls
it once.

Labels are written ``KIND:r,s`` with ``KIND`` in ``{M, P, F, FJ}`` (Jordan
Fock labels take a third component, ``FJ:r,s,n``).  Every number, in a
label, an option or the ``verify --p`` list, is spelled as ``str`` prints
an int (``0|-?[1-9][0-9]*``), and no ``verify --p`` entry is empty.  Output
is JSON on stdout unless ``--format tsv`` or ``--out`` says otherwise;
diagnostics go to stderr.  Exit codes: 0 success, 2 usage or validation
failure (including an ``--out`` path that cannot be written, a ``table`` with
``--rmin`` above ``--rmax``, and a request over ``catalog.MAX_FUSION_PAIRS``:
``table`` rows and ``verify`` fusion pairs, the triplet suite's W/R label
pairs at any ``--rwin`` (from p = 250), and the triplet, catalog and labels
suites' window labels; bpz has no window cap but refuses p above 10 000 000,
where float rounding reaches its residual gates; ``fuse`` refuses p above
``fusion_closed._MAX_P`` = 100 000 with the closed forms and above
``fusion_oracle._MAX_P`` = 2 000 with the oracle), 3 verification failure or
engine mismatch, and 141 (128 + SIGPIPE, as a shell reports a writer the
signal stopped) when the reader closes stdout before all of it is written,
as ``table ... | head -1`` does: nothing goes to stderr, and no verdict on
the unwritten part is given.  Only ``verify`` imports :mod:`.verify` and ``bpz``;
it passes ``--suite`` to :func:`.verify.run_suites`, which reads ``all`` and
refuses an unknown name or an empty p list.  Every suite is ``suite(params,
rwin)`` and, called directly, refuses the same requests before anything is built.
Runs are deterministic: row order is lexicographic, JSON keys are sorted,
and nothing is randomized.

A TSV ``table`` is written row by row as each product is computed, so its
memory does not grow with the row count; every refusal above comes before
its first byte.  A JSON report is written from text, member by member, and
the items of a long list (``fuse`` terms, ``table`` rows) one at a time, so
no string grows with the document.  ``fuse`` renders each term as it writes
it, except that ``--engine both`` holds a matching list, which it writes
twice.  A JSON ``table`` holds its rows, each as its JSON text alone,
because its sorted ``"mismatches"`` key comes before ``"rows"``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import catalog, fusion_closed, fusion_oracle, triplet
from .catalog import FormalSum, Indecomposable, _window_size
from .labels import Params

__all__ = ["main", "entrypoint", "parse_label"]

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141

#: every number on the command line as ``str`` prints it: ``0``, or an optional
#: ``-`` and ASCII digits that do not start with ``0`` (``int`` alone would also
#: take ``1_0``, `` 1``, ``+1``, ``-0``, ``01`` and non-ASCII digits); label
#: indices, integer options and the ``verify --p`` list are all read by
#: :func:`_int`
_INT = re.compile(r"0|-?[1-9][0-9]*")


def _int(text: str) -> int:
    """``int(text)`` for a :data:`_INT` spelling; ``ValueError`` for any other."""
    if not _INT.fullmatch(text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its refusal: "invalid int value"


def parse_label(params: Params, text: str) -> Indecomposable:
    """Parse ``KIND:r,s`` (``FJ:r,s,n`` for Jordan Fock) into a normalized label."""
    kind, _, rest = text.partition(":")
    try:
        parts = [_int(v) for v in rest.split(",")]
    except ValueError:
        raise ValueError(
            f"cannot parse label {text!r}: each index is an int as str prints it"
        ) from None
    if len(parts) != (3 if kind == catalog.JORDAN_FOCK else 2):
        raise ValueError(f"label {text!r}: expected KIND:r,s or FJ:r,s,n")
    try:
        return catalog.normalize(params, Indecomposable(kind, *parts))
    except ValueError as exc:
        raise ValueError(f"label {text!r}: {exc}") from None


@contextlib.contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """The file ``out``, opened for writing, or ``sys.stdout`` as it is now."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write ``pieces`` one by one, then one final newline, to ``out`` or stdout."""
    with _output(out) as fh:
        fh.writelines(pieces)
        fh.write("\n")


#: the text ``json.dumps(obj, sort_keys=True, separators=(", ", ": "))`` makes,
#: from one encoder built once (``dumps`` builds one per call)
_json = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode


class _Rendered:
    """A JSON array whose items, JSON text, are written one at a time; it can
    be iterated, and so written, more than once."""

    def __init__(self, items: Iterable[object] = ()) -> None:
        self.items = items

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)


class _Terms(_Rendered):
    """The terms of a product, each rendered as it is written, so none is held."""

    def __iter__(self) -> Iterator[str]:
        return (_TERM % (label.kind, mult, label.r, label.s) for label, mult in self.items)


#: a ``fuse`` term and a ``table`` row as :func:`_json` writes their dicts;
#: a kind is ASCII letters, and a row takes JSON text in every field
_TERM = '{"kind": "%s", "mult": %d, "r": %d, "s": %d}'
_ROW = '{"left": %s, "result": %s, "right": %s}'
_ROW_MATCH = '{"left": %s, "match": %s, "result": %s, "right": %s}'


def _pieces(doc: Dict[str, object]) -> Iterator[str]:
    """``doc`` as the text :func:`_json` makes of it, in pieces.

    Members come in sorted-key order.  A plain value is one piece, made by
    :func:`_json`; each item of a :class:`_Rendered` array is a piece of its
    own, so no piece grows with the length of a list.
    """
    sep = "{"
    for key in sorted(doc):
        value = doc[key]
        yield f"{sep}{encode_basestring_ascii(key)}: "
        sep = ", "
        if isinstance(value, _Rendered):
            items = iter(value)
            yield "[" + next(items, "")
            for item in items:
                yield ", " + item
            yield "]"
        else:
            yield _json(value)
    yield "}"


def _report(args: argparse.Namespace, doc: Dict[str, object]) -> None:
    """Emit ``doc`` as JSON, stamped with the schema and the command."""
    doc.update(schema=SCHEMA, command=args.command)
    _emit(_pieces(doc), args.out)


def _products(
    params: Params, engine: str, left: Indecomposable, right: Indecomposable
) -> List[FormalSum]:
    """The product by each engine ``engine`` names, the closed form first.

    The oracle is asked first, so a ``p`` it refuses fails before any
    closed-form work.
    """
    products = []
    if engine != "closed":
        products.append(fusion_oracle.oracle_fuse(params, left, right))
    if engine != "oracle":
        products.insert(0, fusion_closed.fuse(params, left, right))
    return products


def _cmd_fuse(args: argparse.Namespace) -> int:
    params = Params(args.p)
    left = parse_label(params, args.left)
    right = parse_label(params, args.right)
    products = _products(params, args.engine, left, right)
    primary, match = products[0], products[0] == products[-1]
    doc = {
        "p": args.p,
        "engine": args.engine,
        "left": str(left),
        "right": str(right),
        "terms": _Terms(primary),
    }
    if args.engine == "both":
        # a matching list is written twice, so it is rendered once and held;
        # the oracle's p cap keeps it short
        if match:
            doc["terms"] = doc["oracle_terms"] = _Rendered(list(doc["terms"]))
        else:
            doc["oracle_terms"] = _Terms(products[-1])
        doc["match"] = match
    _report(args, doc)
    return EXIT_OK if match else EXIT_VERIFY


def _table_rows(
    params: Params, engine: str, labels: List[Indecomposable]
) -> Iterator[Tuple[str, str, str, bool]]:
    """Yield ``(left, right, result, match)`` for every ordered pair of ``labels``.

    Rows come in label order, one product at a time; each label's name is
    built once.  ``match`` is always true unless ``engine`` is ``both``.
    """
    names = [str(x) for x in labels]
    for left, left_name in zip(labels, names):
        for right, right_name in zip(labels, names):
            products = _products(params, engine, left, right)
            yield left_name, right_name, str(products[0]), products[0] == products[-1]


def _cmd_table(args: argparse.Namespace) -> int:
    params = Params(args.p)
    if args.rmin > args.rmax:
        raise ValueError(f"--rmin {args.rmin} is greater than --rmax {args.rmax}")
    count, cap = _window_size(params, args.rmin, args.rmax) ** 2, catalog.MAX_FUSION_PAIRS
    if count > cap:
        raise ValueError(f"table would have {count} rows, more than {cap}; narrow --rmin/--rmax")
    # the window is in label order, so the rows are too
    labels = catalog.label_window(params, args.rmin, args.rmax)
    both = args.engine == "both"
    rows = _table_rows(params, args.engine, labels)
    if args.format == "json":
        # sorted keys put "mismatches" before "rows", so the rows are held,
        # as their JSON text alone, and counted as they are rendered
        table, mismatches, text = [], 0, encode_basestring_ascii
        for left, right, result, match in rows:
            mismatches += not match
            left, result, right = text(left), text(result), text(right)
            table.append(
                _ROW_MATCH % (left, "true" if match else "false", result, right)
                if both
                else _ROW % (left, result, right)
            )
        doc = {"p": args.p, "engine": args.engine, "rows": _Rendered(table)}
        if both:
            doc["mismatches"] = mismatches
        _report(args, doc)
        return EXIT_VERIFY if mismatches else EXIT_OK
    # TSV streams: each row is written as it is computed, and the match
    # flag, the only non-text column, reads yes or NO
    flag = ("\tNO", "\tyes") if both else ("", "")
    columns = ("left", "right", "result", "match")[: 4 if both else 3]
    mismatches = 0
    with _output(args.out) as fh:
        fh.write("\t".join(columns) + "\n")
        for left, right, result, match in rows:
            mismatches += not match
            fh.write(f"{left}\t{right}\t{result}{flag[match]}\n")
    return EXIT_VERIFY if mismatches else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    try:
        # an empty entry is refused; a list with no entries reaches run_suites
        p_values = [_int(v) for v in args.p.split(",")] if args.p.strip(",") else []
    except ValueError:
        raise ValueError(f"cannot parse p list {args.p!r}")
    report = verify.run_suites([args.suite], p_values, rwin=args.rwin)
    suites_doc = {}
    total_checks = total_failures = 0
    for name, per_p in report.items():
        suites_doc[name] = {}
        for p, (checks, failures) in per_p.items():
            suites_doc[name][str(p)] = {
                "checks": checks,
                "failures": len(failures),
                "messages": failures[:20],
            }
            total_checks += checks
            total_failures += len(failures)
    doc = {
        "suites": suites_doc,
        "total_checks": total_checks,
        "total_failures": total_failures,
    }
    _report(args, doc)
    return EXIT_VERIFY if total_failures else EXIT_OK


def _cmd_induce(args: argparse.Namespace) -> int:
    params = Params(args.p)
    label = parse_label(params, args.label)
    induced = triplet.induce(params, label)
    doc = {
        "p": args.p,
        "input": str(label),
        "kind": induced.kind,
        "rbar": induced.rbar,
        "s": induced.s,
    }
    _report(args, doc)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="singlet-fusion",
        description="Exact fusion calculator for singlet algebra module categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse two labels")
    fuse.add_argument("--p", type=_int, required=True)
    fuse.add_argument("--engine", choices=("closed", "oracle", "both"), default="closed")
    fuse.add_argument("--out", default=None)
    fuse.add_argument("left")
    fuse.add_argument("right")
    fuse.set_defaults(func=_cmd_fuse)

    table = sub.add_parser("table", help="full fusion table over a label window")
    table.add_argument("--p", type=_int, required=True)
    table.add_argument("--rmin", type=_int, default=-1)
    table.add_argument("--rmax", type=_int, default=1)
    table.add_argument("--engine", choices=("closed", "oracle", "both"), default="closed")
    table.add_argument("--format", choices=("tsv", "json"), default="tsv")
    table.add_argument("--out", default=None)
    table.set_defaults(func=_cmd_table)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", default="all", help="one suite, or all (the default)")
    ver.add_argument("--p", default="2,3", help="comma-separated p values")
    ver.add_argument("--rwin", type=_int, default=3)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    ind = sub.add_parser("induce", help="induce a singlet label to the triplet side")
    ind.add_argument("--p", type=_int, required=True)
    ind.add_argument("--out", default=None)
    ind.add_argument("label")
    ind.set_defaults(func=_cmd_induce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the exit code instead of calling ``sys.exit``.

    Every call parses ``argv`` into a fresh namespace with the one cached parser.
    Stdout is flushed before the call returns, so a reader that closed it
    early is seen here, whenever the write that finds it happens.
    """
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered can go nowhere; point stdout at devnull so
        # the interpreter's own flush at exit does not fail again
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"singlet-fusion: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
