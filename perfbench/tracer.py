"""Outside-in tracer: wraps the package's public functions from the benchmark.

``Tracer.install()`` replaces each public module-level function of every
layer module wherever a package module binds it (module globals, names
pulled in by ``from ... import``, the package's re-exports and the
``verify.SUITES`` registry), so calls between layers go through the
wrappers.  Each wrapped call records a span (name, parent, start, end) in
memory, and ``write_spans`` writes them out after the run.  Self time is a
call's duration minus the time of the wrapped calls it made; a layer is busy
while any of its calls is on the stack.

Hot callees cost less to time than to record.  ``FormalSum.__init__``,
``fuse_generators`` and ``ks_subtract`` are timed (they count towards busy
and self time) but leave no span; the label constructors ``simple``,
``projective``, ``fock`` and ``normalize`` are not wrapped at all, so their
time is part of their caller's self time.

A name the tracer expects but cannot find is reported under ``absent`` with
a reason, and its metrics read 0; nothing here raises on a renamed or
deleted function.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "singlet_fusion"
LAYERS = ("labels", "catalog", "fusion_closed", "fusion_oracle", "triplet", "bpz", "verify", "cli")

UNWRAPPED = ("catalog.simple", "catalog.projective", "catalog.fock", "catalog.normalize")
CLOSED_FORMS = ("fuse_mm", "fuse_pm", "fuse_pp")
EXPECTED = (
    [f"fusion_closed.{n}" for n in CLOSED_FORMS + ("fuse_generators",)]
    + ["fusion_oracle.oracle_fuse_mm", "fusion_oracle.oracle_fuse_p", "fusion_oracle.ks_subtract"]
    + [f"verify.{s}_suite" for s in ("fusion", "triplet", "bpz", "catalog", "labels")]
    + ["bpz.phi_basis", "bpz.psi_basis", "bpz.connection_numeric", "bpz.connection_closed"]
    + ["bpz.ode_residual", "bpz.hypergeometric_residual", "cli.main"]
)


def _terms_of(x) -> int:
    """Total multiplicity of a formal sum."""
    total = getattr(x, "total", None)
    return total() if callable(total) else sum(m for _, m in x)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.calls = array("q")  # per name
        self.dur_ns = array("q")  # per name
        self.layer_busy_ns = array("q", [0] * len(LAYERS))
        self.layer_self_ns = array("q", [0] * len(LAYERS))
        self.layer_calls = array("q", [0] * len(LAYERS))
        self._depth = [0] * len(LAYERS)
        self._child = [0]  # time of wrapped callees, per active call
        self._open = [-1]  # open span indices
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.absent: Dict[str, str] = {}
        self.modules: Dict[str, types.ModuleType] = {}
        self.closed = {"calls": 0, "repeats": 0, "shift_repeats": 0, "terms_out": 0}
        self._closed_keys: set = set()
        self._closed_shift_keys: set = set()
        self.formal_sums = 0
        self.formal_sum_terms = 0
        self.ks_minuend = 0
        self.ks_subtrahend = 0

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.dur_ns.append(0)
        return self._name_ids[name]

    def _timed(self, name: str, fn: Callable, span: bool, before: Optional[Callable] = None) -> Callable:
        """Time ``fn`` into its layer's busy and self time; with ``span``,
        also record a span.  ``before(args)`` runs untimed ahead of each call
        and may replace the positional arguments."""
        nid = self._name_id(name)
        lid = LAYERS.index(name.split(".", 1)[0])
        calls, dur_ns = self.calls, self.dur_ns
        busy, self_ns, layer_calls, depth, child = (
            self.layer_busy_ns, self.layer_self_ns, self.layer_calls, self._depth, self._child)
        names, parents, starts, ends, open_spans = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._open)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            if span:
                i = len(names)
                names.append(nid)
                parents.append(open_spans[-1])
                ends.append(0)
                open_spans.append(i)
            child.append(0)
            depth[lid] += 1
            t0 = clock()
            if span:
                starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                if span:
                    ends[i] = t0 + d
                    open_spans.pop()
                inner = child.pop()
                child[-1] += d
                self_ns[lid] += d - inner
                depth[lid] -= 1
                if not depth[lid]:
                    busy[lid] += d
                calls[nid] += 1
                dur_ns[nid] += d
                layer_calls[lid] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _ks_subtract(self, fn: Callable) -> Callable:
        def before(args):
            if len(args) >= 2:
                self.ks_minuend += _terms_of(args[0])
                self.ks_subtrahend += _terms_of(args[1])
            return args

        return self._timed("fusion_oracle.ks_subtract", fn, span=False, before=before)

    def _closed_form(self, name: str, fn: Callable) -> Callable:
        inner = self._timed(f"fusion_closed.{name}", fn, span=True)
        keys, shift_keys, closed = self._closed_keys, self._closed_shift_keys, self.closed

        def wrapper(params, a, b, *args, **kwargs):
            key = (name, params.p, a, b)
            shift = (name, params.p, a.kind, a.s, b.kind, b.s)
            closed["calls"] += 1
            if key in keys:
                closed["repeats"] += 1
            else:
                keys.add(key)
            if shift in shift_keys:
                closed["shift_repeats"] += 1
            else:
                shift_keys.add(shift)
            result = inner(params, a, b, *args, **kwargs)
            closed["terms_out"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _formal_sum_init(self, fn: Callable) -> Callable:
        def before(args):
            self.formal_sums += 1
            if len(args) > 1:
                terms = args[1]
                if type(terms) not in (list, tuple, dict) and not hasattr(terms, "items"):
                    terms = list(terms)
                    args = (args[0], terms) + args[2:]
                self.formal_sum_terms += len(terms)
            return args

        return self._timed("catalog.FormalSum.__init__", fn, span=False, before=before)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError as exc:
                self.absent[layer] = f"module not importable: {exc}"
        wrappers: Dict[int, Tuple[Callable, Callable]] = {}  # id(original) -> (original, wrapper)
        for layer, module in self.modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) or name in UNWRAPPED:
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if name == "fusion_oracle.ks_subtract":
                    wrapped = self._ks_subtract(fn)
                elif name == "fusion_closed.fuse_generators":
                    wrapped = self._timed(name, fn, span=False)
                elif layer == "fusion_closed" and attr in CLOSED_FORMS:
                    wrapped = self._closed_form(attr, fn)
                else:
                    wrapped = self._timed(name, fn, span=True)
                wrappers[id(fn)] = (fn, wrapped)
        package = importlib.import_module(PACKAGE)
        bindings = [vars(m) for m in self.modules.values()] + [vars(package)]
        suites = getattr(self.modules.get("verify"), "SUITES", None)
        if isinstance(suites, dict):
            bindings.append(suites)
        else:
            self.absent["verify.SUITES"] = "suite registry not found"
        for namespace in bindings:
            for key, value in list(namespace.items()):
                original, wrapped = wrappers.get(id(value), (None, None))
                if original is value:
                    namespace[key] = wrapped
        formal_sum = getattr(self.modules.get("catalog"), "FormalSum", None)
        init = vars(formal_sum).get("__init__") if isinstance(formal_sum, type) else None
        if isinstance(init, types.FunctionType):
            formal_sum.__init__ = self._formal_sum_init(init)
        else:
            self.absent["catalog.FormalSum.__init__"] = "FormalSum defines no Python __init__"
        for name in EXPECTED:
            if name not in self._name_ids:
                self.absent[name] = "public function not found"

    # -- results ----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        memo = None
        column = getattr(self.modules.get("fusion_oracle"), "_column", None)
        info = getattr(column, "cache_info", None)
        if callable(info):
            ci = info()
            memo = {"hits": ci.hits, "misses": ci.misses}
        else:
            self.absent["fusion_oracle._column"] = "oracle memo not found (no lru_cache to read)"
        return {
            "calls": dict(zip(self.names, self.calls)),
            "busy_s": {n: d * 1e-9 for n, d in zip(self.names, self.dur_ns)},
            "layer_calls": dict(zip(LAYERS, self.layer_calls)),
            "layer_busy_s": {layer: d * 1e-9 for layer, d in zip(LAYERS, self.layer_busy_ns)},
            "layer_self_s": {layer: d * 1e-9 for layer, d in zip(LAYERS, self.layer_self_ns)},
            "closed": dict(self.closed),
            "formal_sums": self.formal_sums,
            "formal_sum_terms": self.formal_sum_terms,
            "ks": {"minuend": self.ks_minuend, "subtrahend": self.ks_subtrahend},
            "memo": memo,
            "spans": len(self.span_name),
            "absent": dict(self.absent),
        }

    def write_spans(self, path: str, run_id: str) -> None:
        """Spans as gzipped JSON: the run id, a name table, and one row per
        span ``[name, parent, start_ns, end_ns]``; parent -1 marks a root,
        which is one ``cli.main`` request."""
        rows = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"run": run_id, "names": self.names, "spans": rows}, fh, separators=(",", ":"))
