"""Benchmark runner: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Closed loop, one client: each session is
a fresh interpreter (``session.py``) started only after the previous one
has ended, so the oracle memo starts cold and every call pays the cold
start a CLI user pays.  Sessions repeat until ``--seconds`` have passed
(at least ``MIN_SESSIONS``), then ``SETUP_PROBES`` extra interpreters time
set-up alone.

The machine's speed drifts by tens of percent over seconds to minutes on
a shared host, so every time is corrected for it: the run is kept on one
CPU, each session times a fixed calibration loop after its import, between
calls and at its end (``session.calibrate``), and its times are divided by
the mean slowdown measured.  Times are thus seconds at the reference
speed; the uncorrected ones are in the details line.

With ``--trace 1`` the run adds two traced sessions on the input of the
first untraced one; they give the per-layer metrics, and their exact counts
must agree with each other.  End-to-end metrics come from untraced sessions
only.

Every call's stdout is checked against ``goldens.json``.  The last stdout
line is the result object; the line before it carries provenance and
details.  Missing package sources, a missing golden or a dead session end
the run with a non-zero exit and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
SRC = ROOT / "src" / "singlet_fusion"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import HELD_OUT_SEED, LARGE_P, WORKLOADS, Op, judge, load_goldens, session_ops  # noqa: E402

MIN_SESSIONS = 3
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
LARGE_P_CURVE = (20, 50, 100, 200)


class SessionError(RuntimeError):
    pass


def _pin_cpu() -> Optional[int]:
    """Keep this process and the sessions it starts on one CPU, so that the
    calibration measures the CPU the sessions run on."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _spawn(arg: str, timeout: float) -> Tuple[float, Dict[str, object]]:
    """Run one session; return its set-up time and its result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(SESSION), arg],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            timeout=max(timeout, 1.0),
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise SessionError(f"session exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SessionError(f"session exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SessionError("session printed no result")
    result = json.loads(lines[-1])
    return result["t_ready"] - t0, result


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(seed: int) -> Dict[str, object]:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": os.getloadavg(),
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.goldens = load_goldens()
        self.t_begin = time.monotonic()
        self.setups: List[float] = []
        self.raw_setups: List[float] = []
        self.slowdowns: List[List[float]] = []
        self.sessions: List[Tuple[List[Op], Dict[str, object]]] = []
        self.traced: List[Tuple[List[Op], Dict[str, object]]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.numpy: Optional[str] = None
        self.run_id = f"{workload}-seed{seed}-{os.getpid()}"

    def _left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_begin)

    def _session(self, ops: List[Op], trace: bool, spans_out: Optional[str] = None) -> Dict[str, object]:
        spec = {"ops": [op.argv for op in ops], "trace": trace, "spans_out": spans_out, "run_id": self.run_id}
        setup, result = _spawn(json.dumps(spec), self._left())
        self.slowdowns.append(result["slowdowns"])
        for rec in result["ops"]:
            rec["raw_s"] = rec["s"]
            rec["s"] /= result["slowdown"]
            rec["cpu_s"] /= result["slowdown"]
        self.numpy = result.get("numpy") or self.numpy
        for op, rec in zip(ops, result["ops"]):
            failed, why = judge(op, rec["rc"], rec["sha256"], rec["bytes"])
            self.attempted += op.units
            self.failed += failed
            if why:
                self.failures.append(f"{' '.join(op.argv)}: {rec.get('error') or why}")
        if not trace:
            self.raw_setups.append(setup)
            self.setups.append(setup / result["setup_slowdown"])
        return result

    def measure(self) -> None:
        index = 0
        while True:
            ops = session_ops(self.goldens, self.workload, self.seed, index)
            started = time.monotonic()
            self.sessions.append((ops, self._session(ops, False)))
            index += 1
            took = time.monotonic() - started
            elapsed = time.monotonic() - self.t_begin
            if index >= MIN_SESSIONS and elapsed >= self.seconds:
                break
            # keep room for the probes and the traced sessions
            reserve = (3 * took if self.trace else 0) + 10
            if index >= MIN_SESSIONS and self._left() - took < reserve:
                break
        for _ in range(SETUP_PROBES):
            setup, result = _spawn("--probe", self._left())
            self.raw_setups.append(setup)
            self.setups.append(setup / result["setup_slowdown"])
        if self.trace:
            OUT_DIR.mkdir(exist_ok=True)
            ops = session_ops(self.goldens, self.workload, self.seed, 0)
            for k in range(2):
                out = OUT_DIR / f"spans-{self.workload}-seed{self.seed}-{k}.json.gz"
                self.traced.append((ops, self._session(ops, True, str(out))))

    # -- metrics ------------------------------------------------------------

    def _slot_ms(self, key: str = "s") -> Dict[int, Tuple[Optional[int], float]]:
        """Per distinct request (slot): its p and its median time in ms over
        the run's sessions, so a transient slowdown of the machine hits
        single samples, not the result."""
        by_slot: Dict[int, Tuple[Optional[int], List[float]]] = {}
        for ops, res in self.sessions:
            for op, rec in zip(ops, res["ops"]):
                by_slot.setdefault(op.slot, (op.p, []))[1].append(rec[key] * 1e3)
        return {slot: (p, statistics.median(v)) for slot, (p, v) in by_slot.items()}

    def end_to_end(self, key: str = "s") -> Dict[str, float]:
        """End-to-end metrics; ``key="raw_s"`` gives them without the
        correction for machine speed."""
        slot_ms = [ms for _, ms in self._slot_ms(key).values()]
        return {
            "setup_s": statistics.median(self.setups if key == "s" else self.raw_setups),
            "wall_s": sum(slot_ms) / 1e3,
            "op_p50_ms": statistics.median(slot_ms),
            "op_p90_ms": _quantile(slot_ms, 90),
            "peak_rss_mb": statistics.median(res["maxrss_mb"] for _, res in self.sessions),
        }

    def _counts(self, ops: List[Op], result: Dict[str, object]) -> Dict[str, int]:
        t = result["trace"]
        checks = [rec.get("checks") for rec in result["ops"]]
        return {
            "verify.checks": sum(c or 0 for c in checks),
            "cli.out_bytes": sum(rec["bytes"] for rec in result["ops"]),
            "fusion_closed.calls": t["closed"]["calls"],
            "catalog.formal_sums": t["formal_sums"],
            "fusion_oracle.ks_calls": t["calls"].get("fusion_oracle.ks_subtract", 0),
            "run.requests": len(ops) if self.workload == LARGE_P else 0,
        }

    def per_layer(self, e2e_wall: float) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, object]]:
        ops, res = self.traced[0]
        t = res["trace"]
        absent: Dict[str, str] = dict(t["absent"])
        counts = [self._counts(o, r) for o, r in self.traced]
        repeat_ok = all(c == counts[0] for c in counts)
        # the tracer's clock is uncorrected: scale its times like the session's
        correction = sum(rec["s"] for rec in res["ops"]) / sum(rec["raw_s"] for rec in res["ops"])
        calls = t["calls"]
        busy = {name: v * correction for name, v in t["busy_s"].items()}
        layer_busy = {layer: v * correction for layer, v in t["layer_busy_s"].items()}
        layer_self = {layer: v * correction for layer, v in t["layer_self_s"].items()}

        def group(names, table):
            return sum(table.get(n, 0) for n in names)

        m: Dict[str, Tuple[float, str]] = {}
        c = counts[0]
        m["cli.busy_s"] = (layer_busy["cli"], "s")
        m["cli.self_s"] = (layer_self["cli"], "s")
        m["cli.out_bytes"] = (c["cli.out_bytes"], "bytes")
        m["verify.checks"] = (c["verify.checks"], "count")
        for suite in ("fusion", "triplet", "bpz", "catalog", "labels"):
            m[f"verify.{suite}.busy_s"] = (busy.get(f"verify.{suite}_suite", 0.0), "s")
        m["catalog.formal_sums"] = (c["catalog.formal_sums"], "count")
        m["catalog.formal_sum_terms"] = (t["formal_sum_terms"], "count")
        m["catalog.self_s"] = (layer_self["catalog"], "s")
        closed = t["closed"]
        m["fusion_closed.calls"] = (closed["calls"], "count")
        m["fusion_closed.busy_s"] = (layer_busy["fusion_closed"], "s")
        m["fusion_closed.self_s"] = (layer_self["fusion_closed"], "s")
        m["fusion_closed.terms_out"] = (closed["terms_out"], "count")
        m["fusion_closed.repeat_frac"] = (closed["repeats"] / closed["calls"] if closed["calls"] else 0.0, "frac")
        m["fusion_closed.shift_repeat_frac"] = (
            closed["shift_repeats"] / closed["calls"] if closed["calls"] else 0.0,
            "frac",
        )
        m["fusion_oracle.calls"] = (group(("fusion_oracle.oracle_fuse_mm", "fusion_oracle.oracle_fuse_p"), calls), "count")
        m["fusion_oracle.busy_s"] = (layer_busy["fusion_oracle"], "s")
        m["fusion_oracle.self_s"] = (layer_self["fusion_oracle"], "s")
        m["fusion_oracle.ks_calls"] = (c["fusion_oracle.ks_calls"], "count")
        ks = t["ks"]
        m["fusion_oracle.ks_cancelled_frac"] = (ks["subtrahend"] / ks["minuend"] if ks["minuend"] else 0.0, "frac")
        memo = t["memo"]
        lookups = (memo["hits"] + memo["misses"]) if memo else 0
        m["fusion_oracle.memo_hit_frac"] = (memo["hits"] / lookups if lookups else 0.0, "frac")
        by_p: Dict[int, List[float]] = {}
        for p, ms in self._slot_ms().values():
            if p is not None:
                by_p.setdefault(p, []).append(ms)
        for p in LARGE_P_CURVE:
            m[f"fusion_oracle.op_ms.p{p}"] = (statistics.median(by_p[p]) if p in by_p else 0.0, "ms")
            if p not in by_p:
                absent.setdefault(f"fusion_oracle.op_ms.p{p}", "no large-p requests in this workload")
        m["triplet.calls"] = (t["layer_calls"]["triplet"], "count")
        m["triplet.busy_s"] = (layer_busy["triplet"], "s")
        m["triplet.self_s"] = (layer_self["triplet"], "s")
        m["bpz.basis_builds"] = (group(("bpz.phi_basis", "bpz.psi_basis"), calls), "count")
        m["bpz.basis.busy_s"] = (group(("bpz.phi_basis", "bpz.psi_basis"), busy), "s")
        m["bpz.connection.busy_s"] = (group(("bpz.connection_numeric", "bpz.connection_closed"), busy), "s")
        m["bpz.residual_evals"] = (group(("bpz.ode_residual", "bpz.hypergeometric_residual"), calls), "count")
        m["bpz.residual.busy_s"] = (group(("bpz.ode_residual", "bpz.hypergeometric_residual"), busy), "s")
        m["bpz.self_s"] = (layer_self["bpz"], "s")
        m["labels.calls"] = (t["layer_calls"]["labels"], "count")
        m["labels.busy_s"] = (layer_busy["labels"], "s")
        m["run.cpu_s"] = (statistics.median(sum(rec["cpu_s"] for rec in r["ops"]) for _, r in self.sessions), "s")
        m["trace.overhead_frac"] = (sum(rec["s"] for rec in res["ops"]) / e2e_wall - 1.0, "frac")
        m["ops_failed_frac"] = (self.failed / self.attempted, "frac")
        detail = {
            "exact_counts": counts,
            "exact_counts_repeat": repeat_ok,
            "absent": absent,
            "spans": t["spans"],
            "memo": memo,
        }
        return m, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cli.py").is_file():
        print(f"perfbench: package sources not found under {SRC.relative_to(ROOT)}", file=sys.stderr)
        return 2
    provenance = _provenance(args.seed)
    provenance["cpu"] = _pin_cpu()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.measure()
    except (SessionError, ValueError, KeyError, OSError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    e2e = run.end_to_end()
    correct = run.failed == 0
    detail: Dict[str, object] = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": dict(provenance, numpy=run.numpy, held_out_seed=HELD_OUT_SEED),
        "end_to_end": e2e,
        "end_to_end_raw": run.end_to_end("raw_s"),
        "slowdowns": run.slowdowns,
        "sessions": len(run.sessions),
        "session_wall_raw_s": [sum(rec["raw_s"] for rec in res["ops"]) for _, res in run.sessions],
        "setup_samples_raw_s": run.raw_setups,
        "op_samples": sum(len(ops) for ops, _ in run.sessions),
        "failures": run.failures[:20],
    }
    if args.trace:
        layer, extra = run.per_layer(e2e["wall_s"])
        detail.update(extra)
        correct = correct and extra["exact_counts_repeat"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
