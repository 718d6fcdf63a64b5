"""Batch command-line front end.

Subcommands:

``fuse``     one fusion product, closed form and/or recursion oracle;
``table``    the full fusion table over a label window, TSV or JSON;
``verify``   the invariant suites of every layer, with a JSON report;
``induce``   induction of one singlet label to the triplet side.

Labels are written ``KIND:r,s`` with ``KIND`` in ``{M, P, F, FJ}`` (Jordan
Fock labels take a third component, ``FJ:r,s,n``).  Output is JSON on
stdout unless ``--format tsv`` or ``--out`` says otherwise; diagnostics go
to stderr.  Exit codes: 0 success, 2 usage or validation failure
(including an ``--out`` path that cannot be written, a ``table`` with
``--rmin`` above ``--rmax``, and a request over ``verify.MAX_FUSION_PAIRS``:
``table`` rows and ``verify`` fusion pairs, the triplet suite's W/R label
pairs at any ``--rwin`` (from p = 250), and the triplet, catalog and labels
suites' window labels; bpz has no cap), 3 verification failure or engine mismatch.
Runs are deterministic: row order is lexicographic, JSON keys are sorted,
and nothing is randomized.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from . import catalog, fusion_closed, fusion_oracle, triplet, verify
from .catalog import FormalSum, Indecomposable
from .labels import Params

__all__ = ["main", "entrypoint", "parse_label"]

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def parse_label(params: Params, text: str) -> Indecomposable:
    """Parse ``KIND:r,s`` (``FJ:r,s,n`` for Jordan Fock) into a normalized label."""
    kind, _, rest = text.partition(":")
    try:
        parts = [int(v) for v in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse label {text!r}: {exc}") from None
    if len(parts) != (3 if kind == catalog.JORDAN_FOCK else 2):
        raise ValueError(f"label {text!r}: expected KIND:r,s or FJ:r,s,n")
    try:
        return catalog.normalize(params, Indecomposable(kind, *parts))
    except ValueError as exc:
        raise ValueError(f"label {text!r}: {exc}") from None


def _term_dict(label: Indecomposable, mult: int) -> Dict[str, object]:
    out: Dict[str, object] = {"kind": label.kind, "r": label.r, "s": label.s}
    if label.kind == catalog.JORDAN_FOCK:
        out["n"] = label.n
    out["mult"] = mult
    return out


def _emit(payload: str, out: Optional[str]) -> None:
    # add the missing final newline without copying a large payload
    end = "" if payload.endswith("\n") else "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            print(payload, end=end, file=fh)
    else:
        print(payload, end=end)


def _json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _report(args: argparse.Namespace, doc: Dict[str, object]) -> None:
    """Emit ``doc`` as JSON, stamped with the schema and the command."""
    doc.update(schema=SCHEMA, command=args.command)
    _emit(_json(doc), args.out)


def _products(
    params: Params, engine: str, left: Indecomposable, right: Indecomposable
) -> List[FormalSum]:
    """The product by each engine ``engine`` names, the closed form first."""
    products = []
    if engine != "oracle":
        products.append(fusion_closed.fuse(params, left, right))
    if engine != "closed":
        products.append(fusion_oracle.oracle_fuse(params, left, right))
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
        "terms": [_term_dict(lab, mult) for lab, mult in primary],
    }
    if args.engine == "both":
        doc["oracle_terms"] = [_term_dict(lab, mult) for lab, mult in products[-1]]
        doc["match"] = match
    _report(args, doc)
    return EXIT_OK if match else EXIT_VERIFY


def _table_labels(params: Params, rmin: int, rmax: int) -> List[Indecomposable]:
    """:func:`.verify.label_window`, sorted.

    Raises ``ValueError`` before building any label when ``rmin > rmax`` or
    the table would have more rows (ordered pairs) than
    ``verify.MAX_FUSION_PAIRS``.
    """
    if rmin > rmax:
        raise ValueError(f"--rmin {rmin} is greater than --rmax {rmax}")
    cap = verify.MAX_FUSION_PAIRS
    count = (rmax - rmin + 1) * (2 * params.p - 1)
    if count * count > cap:
        raise ValueError(
            f"table would have {count * count} rows, more than {cap}; narrow --rmin/--rmax"
        )
    return sorted(verify.label_window(params, rmin, rmax))


def _cmd_table(args: argparse.Namespace) -> int:
    params = Params(args.p)
    labels = _table_labels(params, args.rmin, args.rmax)
    rows = []
    mismatches = 0
    for left, right in ((a, b) for a in labels for b in labels):
        products = _products(params, args.engine, left, right)
        primary, match = products[0], products[0] == products[-1]
        row = {
            "left": str(left),
            "right": str(right),
            "result": str(primary),
        }
        if args.engine == "both":
            row["match"] = match
            mismatches += not match
        rows.append(row)
    if args.format == "json":
        doc = {"p": args.p, "engine": args.engine, "rows": rows}
        if args.engine == "both":
            doc["mismatches"] = mismatches
        _report(args, doc)
    else:
        header = ["left", "right", "result"] + (
            ["match"] if args.engine == "both" else []
        )
        lines = ["\t".join(header)]
        for row in rows:
            line = [row["left"], row["right"], row["result"]]
            if args.engine == "both":
                line.append("yes" if row["match"] else "NO")
            lines.append("\t".join(line))
        _emit("\n".join(lines), args.out)
    return EXIT_VERIFY if mismatches else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    try:
        p_values = [int(v) for v in args.p.split(",") if v]
    except ValueError:
        raise ValueError(f"cannot parse p list {args.p!r}")
    if not p_values:
        raise ValueError("empty p list")
    report = verify.run_suites(names, p_values, rwin=args.rwin)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlet-fusion",
        description="Exact fusion calculator for singlet algebra module categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse two labels")
    fuse.add_argument("--p", type=int, required=True)
    fuse.add_argument("--engine", choices=("closed", "oracle", "both"), default="closed")
    fuse.add_argument("--out", default=None)
    fuse.add_argument("left")
    fuse.add_argument("right")
    fuse.set_defaults(func=_cmd_fuse)

    table = sub.add_parser("table", help="full fusion table over a label window")
    table.add_argument("--p", type=int, required=True)
    table.add_argument("--rmin", type=int, default=-1)
    table.add_argument("--rmax", type=int, default=1)
    table.add_argument("--engine", choices=("closed", "oracle", "both"), default="closed")
    table.add_argument("--format", choices=("tsv", "json"), default="tsv")
    table.add_argument("--out", default=None)
    table.set_defaults(func=_cmd_table)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument(
        "--suite",
        choices=tuple(verify.SUITES) + ("all",),
        default="all",
    )
    ver.add_argument("--p", default="2,3", help="comma-separated p values")
    ver.add_argument("--rwin", type=int, default=3)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    ind = sub.add_parser("induce", help="induce a singlet label to the triplet side")
    ind.add_argument("--p", type=int, required=True)
    ind.add_argument("--out", default=None)
    ind.add_argument("label")
    ind.set_defaults(func=_cmd_induce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the exit code instead of calling ``sys.exit``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"singlet-fusion: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
