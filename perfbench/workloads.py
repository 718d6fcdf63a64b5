"""Workload definitions and the output gate.

Every operation is one ``cli.main(argv)`` call.  A *session* is one fresh
interpreter that imports the package and runs a list of operations; the
batch workloads run one operation per session, ``large-p`` runs a block of
requests, one from each pool cell, per session.

Goldens live in ``goldens.json`` next to this file and were captured once
from the seed code by ``capture.py``.  The gate compares the SHA-256 of each
operation's stdout with its golden; an operation that differs, raises or
exits non-zero fails every unit it stands for (table rows, verify checks or
one large-p request).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
GOLDENS_PATH = HERE / "goldens.json"

BATCH = {
    # 9 801 rows at p = 6; the r-window makes 99% of closed-form calls repeat
    # an earlier one up to an r-shift, and the oracle memo hits ~98%.
    "table-both": ["table", "--p", "6", "--rmin", "-4", "--rmax", "4", "--engine", "both"],
    # every suite at p = 2..6 on a +-2 window: fusion and catalog (FormalSum)
    # dominate, with exact repeats of closed-form products.
    "verify-all": ["verify", "--suite", "all", "--p", "2,3,4,5,6", "--rwin", "2"],
    # the only float layer, on its own: p = 2..120.
    "verify-bpz": ["verify", "--suite", "bpz", "--p", ",".join(str(p) for p in range(2, 121))],
}
LARGE_P = "large-p"
WORKLOADS = tuple(BATCH) + (LARGE_P,)

# large-p: requests per kind pair in one block, by p.  Small p is weighted
# up so that one block takes a few seconds while p = 200 still shows.
LARGE_P_MIX = {20: 14, 50: 10, 100: 6, 200: 2}
KIND_PAIRS = ("MM", "MP", "PM", "PP")
POOL_SEED = 2007_12735
POOL_DEPTH = 16
R_RANGE = (-4, 4)

# Seed named for checking a later claim on inputs not used while writing it.
HELD_OUT_SEED = 424242


def _s_max(p: int, kind: str) -> int:
    return p if kind == "M" else p - 1


def _column_index(kinds: str) -> int:
    """Which label's ``s`` sets the request's cost: the simple factor's, or
    the right one when both labels have the same kind."""
    return 0 if kinds == "MP" else 1


def _draw_s(rng: random.Random, top: int, b: int, bins: int) -> int:
    """An ``s`` in the central eighth of bin ``b`` of ``bins`` equal bins of
    ``1..top``.  Cost grows steeply with ``s``; narrow draws keep a cell's
    cost, and so a block's time and latency quantiles, nearly the same
    whichever entry a seed picks."""
    lo = 1 + (b * top) // bins
    hi = max(lo, ((b + 1) * top) // bins)
    margin = (hi - lo) * 7 // 16
    return rng.randint(lo + margin, hi - margin)


def generate_pool() -> List[Dict[str, object]]:
    """The fixed request pool, one cell per (p, kind pair, s-bin).

    Both labels' ``s`` are split into as many equal bins as the kind pair
    has requests per block at that p.  The cost-setting label takes bin
    ``b`` in cell ``b``, the other label a bin from a seeded permutation (a
    Latin square), so one block covers both ranges evenly.  ``r`` is uniform
    in ``R_RANGE``.  Every label is valid: ``1 <= s <= p`` for ``M`` and
    ``1 <= s <= p - 1`` for ``P``.
    """
    rng = random.Random(POOL_SEED)
    cells = []
    for p, bins in LARGE_P_MIX.items():
        for kinds in KIND_PAIRS:
            col = _column_index(kinds)
            other = rng.sample(range(bins), bins)
            for b in range(bins):
                entries = []
                for _ in range(POOL_DEPTH):
                    labels = []
                    for i, kind in enumerate(kinds):
                        s = _draw_s(rng, _s_max(p, kind), b if i == col else other[b], bins)
                        labels.append(f"{kind}:{rng.randint(*R_RANGE)},{s}")
                    entries.append(labels)
                cells.append({"p": p, "kinds": kinds, "bin": b, "entries": entries})
    return cells


def fuse_argv(p: int, left: str, right: str) -> List[str]:
    return ["fuse", "--p", str(p), left, right, "--engine", "both"]


def load_goldens() -> Dict[str, object]:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def large_p_block(goldens: Dict[str, object], seed: int, block: int) -> List[Tuple[int, List[str], str, int]]:
    """Block ``block`` of the seeded request stream: one pool entry per cell,
    in seeded order.  Returns ``(cell, argv, golden sha256, golden bytes)``."""
    rng = random.Random(seed * 1_000_003 + block)
    picked = []
    for index, cell in enumerate(goldens[LARGE_P]["cells"]):
        left, right, sha, nbytes = rng.choice(cell["entries"])
        picked.append((index, fuse_argv(cell["p"], left, right), sha, nbytes))
    rng.shuffle(picked)
    return picked


class Op:
    """One ``cli.main`` call with its golden and the units it stands for.

    ``slot`` names the call's place in a session, the same in every session
    of a run: 0 on the batch workloads, the pool cell on ``large-p``."""

    __slots__ = ("argv", "sha256", "nbytes", "units", "slot", "p")

    def __init__(self, argv: List[str], sha256: str, nbytes: int, units: int, slot: int = 0, p: Optional[int] = None):
        self.argv = argv
        self.sha256 = sha256
        self.nbytes = nbytes
        self.units = units
        self.slot = slot
        self.p = p


def session_ops(goldens: Dict[str, object], workload: str, seed: int, index: int) -> List[Op]:
    """Operations of session ``index`` of a run with workload seed ``seed``.

    The batch workloads have fixed inputs, so ``seed`` changes nothing there;
    on ``large-p`` session ``index`` runs block ``index`` of the stream.
    """
    if workload in BATCH:
        g = goldens[workload]
        return [Op(list(g["argv"]), g["sha256"], g["bytes"], g["units"])]
    return [Op(argv, sha, nbytes, 1, cell, int(argv[2])) for cell, argv, sha, nbytes in large_p_block(goldens, seed, index)]


def digest(text: str) -> Tuple[str, int]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:32], len(data)


def judge(op: Op, rc: Optional[int], sha256: Optional[str], nbytes: Optional[int]) -> Tuple[int, Optional[str]]:
    """Units failed by one operation (0 or all of them) and why."""
    if rc is None:
        return op.units, "raised"
    if rc != 0:
        return op.units, f"exit code {rc}"
    if (sha256, nbytes) != (op.sha256, op.nbytes):
        return op.units, f"output differs from golden ({nbytes} bytes, golden {op.nbytes})"
    return 0, None
