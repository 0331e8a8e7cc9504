"""Layer tracer: wraps the public functions of each ``qflag`` module from
outside the package and measures what each layer does.

Three kinds of wrapper:

* span  -- records (name, start, end, parent span, workload id) in memory;
  used at layer boundaries that run at most a few thousand times per case;
* timed -- a call count and an aggregate time, no span; used for the hot
  inner calls (``q_power`` runs about a million times per case, elimination
  inserts tens of thousands);
* count -- a call count only.

Every timed or span call also charges its duration to its caller, so each
layer gets a self time (its own duration minus the time of wrapped calls
inside it).  The self times of all layers add up to the traced
``run_suite`` time.

Names are wrapped where the caller looks them up: ``qflag.report`` and
``qflag.classical`` import functions by name, and ``qflag.coord`` imports
``span_basis`` by name, so those namespaces are patched as well as the
defining module.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter

LAYERS = ("report", "flagproj", "hochschild", "coord", "lin", "qscalar",
          "repn", "cartan", "classical")


class Section:
    """Counters of one traced stretch of work (set-up, or one case)."""

    def __init__(self, workload):
        self.workload = workload
        self.calls = defaultdict(int)       # wrapped name -> calls
        self.seconds = defaultdict(float)   # wrapped name -> inclusive s
        self.self_s = defaultdict(float)    # layer -> self time
        self.busy_s = defaultdict(float)    # layer -> outermost-call time
        self.counts = defaultdict(int)      # named counters
        self.dims = []                      # closure dims, every zero test
        self.zero_test_s = []               # duration of each zero test


class Tracer:
    def __init__(self):
        self.spans = []             # (id, name, workload, start, end, parent)
        self.section = Section("")
        self._stack = []            # open calls: [child_s, span id]
        self._depth = defaultdict(int)
        self._zero_depth = 0

    @contextmanager
    def traced(self, workload):
        """Collect counters for the enclosed work into a fresh Section."""
        prev = self.section
        self.section = sec = Section(workload)
        try:
            yield sec
        finally:
            self.section = prev

    # -- wrappers -------------------------------------------------------------

    def span(self, name, layer, fn, hook=None):
        tracer, stack, depth, spans = self, self._stack, self._depth, \
            self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[layer] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                sec = tracer.section
                sec.calls[name] += 1
                sec.seconds[name] += dur
                sec.self_s[layer] += dur - frame[0]
                if outer:
                    sec.busy_s[layer] += dur
                spans[sid] = (sid, name, sec.workload, t0, t1, parent)
            if hook is not None:
                hook(sec, out, dur)
            return out
        return wrapper

    def timed(self, name, layer, fn, hook=None):
        tracer, stack = self, self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                sec = tracer.section
                sec.calls[name] += 1
                sec.seconds[name] += dur
                sec.self_s[layer] += dur - frame[0]
                sec.busy_s[layer] += dur
            if hook is not None:
                hook(sec, out)
            return out
        return wrapper

    def _closure_build(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._zero_depth:
                tracer.section.counts["closure_builds"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _zero_test(self, fn):
        tracer = self

        def inner(*args, **kwargs):
            tracer._zero_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._zero_depth -= 1

        def hook(sec, cert, dur):
            sec.dims.extend(cert.closure_dims)
            sec.zero_test_s.append(dur)
        return self.span("coord.zero_test", "coord", inner, hook)

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the qflag modules for the duration of the block."""
        from qflag import (_pure, cartan, classical, coord, flagproj,
                           hochschild, qscalar, report, repn)

        saved = []

        def patch(owners, attr, wrapper):
            for owner in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

        def spans(layer, owners, names):
            for attr in names:
                fn = getattr(owners[0], attr)
                patch(owners, attr, self.span(f"{layer}.{attr}", layer, fn))

        def kept(sec, row):
            if row is not None:
                sec.counts["inserts_kept"] += 1

        try:
            patch([report], "run_suite",
                  self.span("report.run_suite", "report", report.run_suite))
            spans("flagproj", [flagproj, report, classical], ["flag_context"])
            spans("flagproj", [flagproj, report],
                  ["verify_idempotent", "verify_selfadjoint", "verify_qtrace",
                   "verify_levi_invariance", "verify_matrix_units"])
            spans("hochschild", [hochschild, classical], ["idempotent_cycle"])
            spans("hochschild", [hochschild],
                  ["twisted_boundary", "normalize", "chain_zero",
                   "eta_value"])
            spans("hochschild", [hochschild, report],
                  ["verify_cycle", "verify_pairing", "verify_cocycle_sample"])
            patch([coord.CoordAlgebra], "tensor_zero_test",
                  self._zero_test(coord.CoordAlgebra.tensor_zero_test))
            patch([coord], "span_basis", self._closure_build(coord.span_basis))
            for cls in (_pure.FieldSpanBasis, _pure.FractionSpanBasis):
                patch([cls], "insert",
                      self.timed("lin.insert", "lin", cls.insert, kept))
            for cls in (qscalar.FixedField, qscalar.SymbolicField):
                patch([cls], "q_power",
                      self.timed("qscalar.q_power", "qscalar", cls.q_power))
            mul = self.timed("qscalar.mul", "qscalar", qscalar.QScalar.__mul__)
            add = self.timed("qscalar.add", "qscalar", qscalar.QScalar.__add__)
            patch([qscalar.QScalar], "__mul__", mul)
            patch([qscalar.QScalar], "__rmul__", mul)
            patch([qscalar.QScalar], "__add__", add)
            patch([qscalar.QScalar], "__radd__", add)
            spans("repn", [repn, flagproj, report, classical], ["hw_module"])
            spans("cartan", [cartan], ["root_system"])
            spans("classical", [report], ["ClassicalKahler"])
            spans("classical", [classical, report],
                  ["classical_context", "verify_norm_lemma", "verify_hkr"])
            kk = classical.ClassicalKahler
            patch([kk], "kahler_matrix",
                  self.span("classical.kahler_matrix", "classical",
                            kk.kahler_matrix))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, wl, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "workload": wl,
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] \
        if len(xs) > 1 else xs[0]


def case_metrics(sec: Section):
    """Per-layer metrics of one traced case."""
    s, c = sec.seconds, sec.calls
    lookups = len(sec.dims)
    builds = sec.counts["closure_builds"]
    inserts = c["lin.insert"]
    kept = sec.counts["inserts_kept"]
    zt_ms = [x * 1e3 for x in sec.zero_test_s] or [0.0]
    out = {
        "flagproj.verify_matrix_units_s": s["flagproj.verify_matrix_units"],
        "flagproj.verify_idempotent_s": s["flagproj.verify_idempotent"],
        "flagproj.verify_qtrace_s": s["flagproj.verify_qtrace"],
        "hochschild.chain_build_s": s["hochschild.idempotent_cycle"]
        + s["hochschild.twisted_boundary"] + s["hochschild.normalize"],
        "hochschild.chain_zero_s": s["hochschild.chain_zero"],
        "hochschild.eta_value_s": s["hochschild.eta_value"],
        "coord.zero_tests": c["coord.zero_test"],
        "coord.zero_test_s": s["coord.zero_test"],
        "coord.zero_test_self_s": sec.self_s["coord"],
        "coord.zero_test_ms.p50": statistics.median(zt_ms),
        "coord.zero_test_ms.p90": _p90(zt_ms),
        "coord.closure_lookups": lookups,
        "coord.closure_builds": builds,
        "coord.closure_reuse": 1 - builds / lookups if lookups else 0.0,
        "coord.cert_dim_sum": sum(sec.dims),
        "coord.cert_dim_max": max(sec.dims, default=0),
        "lin.inserts": inserts,
        "lin.inserts_kept": kept,
        "lin.keep_ratio": kept / inserts if inserts else 0.0,
        "lin.insert_s": s["lin.insert"],
        "qscalar.q_power_calls": c["qscalar.q_power"],
        "qscalar.q_power_s": s["qscalar.q_power"],
        "qscalar.qscalar_mul_calls": c["qscalar.mul"],
        "qscalar.qscalar_add_calls": c["qscalar.add"],
        "classical.kahler_s": sec.busy_s["classical"],
    }
    for layer in LAYERS:
        if layer != "coord":
            out[f"{layer}.self_s"] = sec.self_s[layer]
    return out


def setup_metrics(sec: Section):
    """Per-layer metrics of the traced set-up (context building)."""
    return {
        "flagproj.flag_context_s": sec.seconds["flagproj.flag_context"],
        "repn.hw_module_s": sec.seconds["repn.hw_module"],
        "cartan.root_system_s": sec.seconds["cartan.root_system"],
    }
