"""Capture the goldens and the exact counts from the current code.

    python3 perfbench/capture.py

Writes ``goldens.json`` (SHA-256 prefix and byte count of every workload's
stdout, and of every request in the ``large-p`` pool) and ``counts.json``
(the exact counts of one traced session per workload, and per named seed on
``large-p``).  Run it once, on the code the goldens should pin; a capture
refuses outputs that report a failure or an engine mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from singlet_fusion import cli, fusion_oracle  # noqa: E402

import run  # noqa: E402
from workloads import BATCH, GOLDENS_PATH, HELD_OUT_SEED, LARGE_P, WORKLOADS, digest, fuse_argv, generate_pool  # noqa: E402

COUNTS_PATH = HERE / "counts.json"
NAMED_SEEDS = (1, HELD_OUT_SEED)


def _call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    if rc != 0:
        raise SystemExit(f"capture: {' '.join(argv)} exited {rc}")
    return text


def _units(argv, text) -> int:
    if argv[0] == "table":
        rows = text.splitlines()[1:]
        if any(row.endswith("\tNO") for row in rows):
            raise SystemExit("capture: engine mismatch in table")
        return len(rows)
    doc = json.loads(text)
    if doc["total_failures"]:
        raise SystemExit(f"capture: {doc['total_failures']} verify failures")
    return doc["total_checks"]


def capture_goldens() -> None:
    goldens = {}
    for name, argv in BATCH.items():
        text = _call(argv)
        sha, nbytes = digest(text)
        goldens[name] = {"argv": argv, "sha256": sha, "bytes": nbytes, "units": _units(argv, text)}
        print(f"{name}: {goldens[name]['units']} units, {nbytes} bytes", file=sys.stderr)
    cells = generate_pool()
    for cell in cells:
        for entry in cell["entries"]:
            text = _call(fuse_argv(cell["p"], *entry))
            if not json.loads(text)["match"]:
                raise SystemExit(f"capture: engine mismatch at {entry}")
            entry.extend(digest(text))
        # the seed's oracle memo grows without bound; outputs do not depend on it
        getattr(getattr(fusion_oracle, "_column", None), "cache_clear", lambda: None)()
        print(f"large-p cell p={cell['p']} {cell['kinds']} bin {cell['bin']}", file=sys.stderr)
    goldens[LARGE_P] = {"cells": cells}
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, separators=(",", ":"))
        fh.write("\n")


def capture_counts() -> None:
    counts = {}
    for name in WORKLOADS:
        for seed in NAMED_SEEDS if name == LARGE_P else (1,):
            r = run.Run(name, seed, 0, True)
            ops = run.session_ops(r.goldens, name, seed, 0)
            result = r._session(ops, True)
            if r.failed:
                raise SystemExit(f"capture: {name} fails its goldens: {r.failures[:3]}")
            key = f"{name}/seed{seed}" if name == LARGE_P else name
            counts[key] = r._counts(ops, result)
            print(f"{key}: {counts[key]}", file=sys.stderr)
    with open(COUNTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    capture_goldens()
    capture_counts()
