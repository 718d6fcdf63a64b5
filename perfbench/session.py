"""One benchmark session: a fresh interpreter that runs ``cli.main`` calls.

``run.py`` starts it as ``python3 perfbench/session.py SPEC`` where SPEC is a
JSON object ``{"ops": [argv, ...], "trace": bool, "spans_out": path|null,
"run_id": str}``,
or as ``python3 perfbench/session.py --probe`` to time set-up alone.  The
package is imported first, so the import ends the set-up interval that
``run.py`` starts just before it spawns this process.  The session prints
one JSON line: the set-up end time, and per call the exit code, the time in
``cli.main``, and the SHA-256 and size of what the call wrote to stdout.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from singlet_fusion import cli  # noqa: E402  (set-up ends here)

T_READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import digest  # noqa: E402

# The calibration loop takes CAL_NOMINAL_S at the reference speed; it is
# re-timed whenever CAL_EVERY_S of work has passed since the last timing.
CAL_NOMINAL_S = 0.05
CAL_ROUNDS = 6_000
CAL_EVERY_S = 0.5


def calibrate() -> float:
    """Slowdown of this CPU against the reference speed, from a fixed
    pure-Python loop with the package's instruction mix (tuple keys, dict
    accumulation, sorting) that uses no package code."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(CAL_ROUNDS):
        key = ("M", i % 61, (i * 7) % 13)
        acc[key] = acc.get(key, 0) + 1
        if i % 50 == 0:
            tuple(sorted(acc.items()))
    return (time.perf_counter() - t0) / CAL_NOMINAL_S


def _run(ops):
    """Run the calls, timing the calibration loop between them whenever
    CAL_EVERY_S has passed since the last timing."""
    out = []
    slowdowns = []
    last_cal = time.monotonic()
    for argv in ops:
        if time.monotonic() - last_cal >= CAL_EVERY_S:
            slowdowns.append(calibrate())
            last_cal = time.monotonic()
        buf = io.StringIO()
        error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing call is a failed operation, not a dead run
            rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        text = buf.getvalue()
        sha, nbytes = digest(text)
        rec = {"rc": rc, "s": seconds, "cpu_s": cpu, "sha256": sha, "bytes": nbytes, "error": error}
        if argv[0] == "verify" and rc is not None:
            try:
                rec["checks"] = json.loads(text)["total_checks"]
            except (ValueError, KeyError, TypeError):
                rec["checks"] = None
        out.append(rec)
    return out, slowdowns


def main() -> None:
    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"session: imported {cli.__file__}, not the checkout's package under {SRC}")
    first_slowdown = calibrate()
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"t_ready": T_READY, "setup_slowdown": first_slowdown}))
        return
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops, slowdowns = _run(spec["ops"])
    slowdowns = [first_slowdown] + slowdowns + [calibrate()]
    result = {
        "t_ready": T_READY,
        "setup_slowdown": first_slowdown,
        "slowdowns": slowdowns,
        "slowdown": sum(slowdowns) / len(slowdowns),
        "ops": ops,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"], spec["run_id"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
