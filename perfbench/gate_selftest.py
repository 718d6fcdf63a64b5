"""Show that the output gate catches a one-byte change.

    python3 perfbench/gate_selftest.py

For each workload, runs its first operation once in this process, checks
that the untouched output passes the gate, then flips one byte in a copy of
the captured output (and, separately, drops its last byte) and checks that
the gate fails the copy.  Only copies of output are changed, never the
program.  Exits non-zero if the gate passes a changed copy or fails the
untouched output.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from singlet_fusion import cli  # noqa: E402

from workloads import WORKLOADS, digest, judge, load_goldens, session_ops  # noqa: E402


def _flip(text: str) -> str:
    data = bytearray(text.encode("utf-8"))
    i = len(data) // 2
    data[i] = ord("0") if data[i] != ord("0") else ord("1")
    return data.decode("utf-8")


def main() -> int:
    goldens = load_goldens()
    ok = True
    for name in WORKLOADS:
        op = session_ops(goldens, name, 1, 0)[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        text = buf.getvalue()
        verdicts = {}
        for label, copy in (("original", text), ("one byte flipped", _flip(text)), ("last byte dropped", text[:-1])):
            failed, why = judge(op, rc, *digest(copy))
            verdicts[label] = (failed, why)
        caught = verdicts["original"][0] == 0 and all(v[0] == op.units for k, v in verdicts.items() if k != "original")
        ok &= caught
        print(f"{name}: original passes={verdicts['original'][0] == 0}; "
              + "; ".join(f"{k}: failed {v[0]}/{op.units} units ({v[1]})" for k, v in verdicts.items() if k != "original"))
    print("gate self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
