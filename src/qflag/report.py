"""Suite orchestration and machine-readable verification reports.

A case is one (family, rank, subset) triple together with a scalar mode:
symbolic, or evaluated at one or more exact rationals strictly between 0
and 1.  ``run_suite`` executes the fixed phase order

    cartan -> repn -> projection -> invariance -> matrixunits -> cycle
           -> pairing -> cocycle -> kahler

recording one entry per check.  Failures never abort the suite; checks
that overflow the dimension cap are downgraded to "skipped" with the
reason recorded.  The kahler phase always runs at q = 1 (it is the
classical-limit block) regardless of the scalar mode.

Report bodies are deterministic for a fixed config and seed; the only
non-reproducible fields are the per-record wall times, which comparison
tools must strip (see docs/report_schema.md).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from qflag import cartan
from qflag.classical import (ClassicalKahler, classical_context, verify_hkr,
                             verify_norm_lemma)
from qflag.coord import DEFAULT_CAP, CapExceeded
from qflag.flagproj import (flag_context, levi_generators,
                            verify_idempotent, verify_levi_invariance,
                            verify_matrix_units, verify_qtrace,
                            verify_selfadjoint)
from qflag.hochschild import (verify_cocycle_sample, verify_cycle,
                              verify_pairing)
from qflag.qscalar import FixedField, SymbolicField
# unused here; perfbench/tracer.py wraps hw_module in this namespace too
from qflag.repn import hw_module  # noqa: F401

PHASES = ("cartan", "repn", "projection", "invariance", "matrixunits",
          "cycle", "pairing", "cocycle", "kahler")


@dataclass(frozen=True)
class CaseConfig:
    """One verification case.  ``q_values = None`` means symbolic."""
    family: str
    rank: int
    subset: tuple = ()
    q_values: tuple | None = None
    cap: int = DEFAULT_CAP
    seed: int = 1
    only: tuple | None = None  # PHASES subset, in PHASES order; None = all

    def __post_init__(self):
        for key in ("rank", "cap", "seed"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.q_values is not None:
            for q in self.q_values:
                if isinstance(q, float):
                    raise ValueError(f"q must be exact, got the float {q!r}")
            qs = tuple(Fraction(q) for q in self.q_values)
            if not qs:
                raise ValueError("evaluated mode needs at least one q value")
            for q in qs:
                if not 0 < q < 1:
                    raise ValueError(
                        f"q must lie strictly between 0 and 1, got {q}")
            if len(set(qs)) != len(qs):
                raise ValueError(f"q values repeat: {', '.join(map(str, qs))}")
            object.__setattr__(self, "q_values", qs)
        subset = tuple(sorted(self.subset))
        if len(set(subset)) != len(subset):
            raise ValueError(f"subset repeats: {', '.join(map(str, subset))}")
        object.__setattr__(self, "subset", subset)
        if self.only is not None:
            for p in self.only:
                if p not in PHASES:
                    raise ValueError(f"unknown phase {p!r}")
            if not self.only:
                raise ValueError("only must name at least one phase")
            if len(set(self.only)) != len(self.only):
                raise ValueError(f"phases repeat: {', '.join(self.only)}")
            object.__setattr__(self, "only", tuple(
                p for p in PHASES if p in self.only))
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def fields(self):
        """[(q tag, scalar field)]: one symbolic field, or one fixed field
        per q value, in order."""
        if self.q_values is None:
            return [("symbolic", SymbolicField())]
        return [(str(q), FixedField(q)) for q in self.q_values]

    def echo(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "subset": list(self.subset),
            "q": ("symbolic" if self.q_values is None
                  else [str(q) for q in self.q_values]),
            "cap": self.cap,
            "seed": self.seed,
            "phases": list(self.only if self.only is not None else PHASES),
        }


@dataclass
class CheckRecord:
    name: str
    q: str
    status: str                    # pass | fail | skipped | measured
    lhs: str = ""
    rhs: str = ""
    cert_sizes: tuple = ()
    seconds: float = 0.0
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "q": self.q,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "cert_sizes": list(self.cert_sizes),
            "seconds": self.seconds,
            "note": self.note,
        }


@dataclass
class Report:
    case: dict
    records: list = dc_field(default_factory=list)

    @property
    def verdict(self):
        return "fail" if any(r.status == "fail" for r in self.records) \
            else "pass"

    def as_dict(self):
        return {
            "case": self.case,
            "records": [r.as_dict() for r in self.records],
            "verdict": self.verdict,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2) + "\n"


def root_label(root):
    """Simple-root coordinates -> compact label, e.g. (1, 2) -> a1+2a2."""
    parts = []
    for i, c in enumerate(root, start=1):
        if c == 0:
            continue
        parts.append(f"a{i}" if c == 1 else f"{c}a{i}")
    return "+".join(parts) if parts else "0"


def _gen_label(gen):
    return f"{gen[0]}{gen[1]}"


def _run(records, name, q, fn):
    """Execute one check, timing it and trapping failures."""
    t0 = time.perf_counter()
    try:
        status, lhs, rhs, sizes, note = fn()
    except CapExceeded as exc:
        status, lhs, rhs, sizes, note = "skipped", "", "", (), \
            f"cap exceeded: {exc}"
    except Exception as exc:                                 # noqa: BLE001
        status, lhs, rhs, sizes, note = "fail", "", "", (), \
            f"{type(exc).__name__}: {exc}"
    rec = CheckRecord(name, q, status, lhs, rhs, tuple(sizes),
                      round(time.perf_counter() - t0, 6), note)
    records.append(rec)
    return rec


def _cert_result(cert, lhs_label="zero"):
    status = "pass" if cert.zero else "fail"
    lhs = lhs_label if cert.zero else f"nonzero (witness {cert.witness})"
    return status, lhs, "zero", tuple(cert.closure_dims), ""


def _multi_cert_result(certs):
    sizes = sorted({d for c in certs for d in c.closure_dims})
    bad = sum(1 for c in certs if not c.zero)
    if bad:
        return "fail", f"{bad} of {len(certs)} nonzero", "all zero", \
            tuple(sizes), ""
    return "pass", f"{len(certs)} differences zero", "all zero", \
        tuple(sizes), ""


def _bool_result(ok, lhs_true, lhs_false, rhs):
    return ("pass" if ok else "fail", lhs_true if ok else lhs_false, rhs,
            (), "")


def run_suite(cfg: CaseConfig) -> Report:
    phases = cfg.only if cfg.only is not None else PHASES
    rep = Report(cfg.echo())
    records = rep.records

    rs = cartan.root_system(cfg.family, cfg.rank)
    par = cartan.parabolic(rs, cfg.subset)

    if "cartan" in phases:
        def chk():
            lhs = (f"positive roots {len(rs.pos_roots)}, levi "
                   f"{len(par.levi_pos)}, nil {len(par.nil_pos)}")
            return "pass", lhs, "", (), ""
        _run(records, "cartan.build", "-", chk)

    for qtag, field in cfg.fields():
        ctx = None
        if "repn" in phases or any(p in phases for p in
                                   ("projection", "invariance", "matrixunits",
                                    "cycle", "pairing", "cocycle")):
            try:
                ctx = flag_context(cfg.family, cfg.rank, cfg.subset, field,
                                   cfg.cap)
            except Exception as exc:                         # noqa: BLE001
                def _reraise(exc=exc):
                    raise exc
                _run(records, "repn.build", qtag, _reraise)
                continue

        if "repn" in phases:
            def chk():
                lhs = f"dim {ctx.m.dim}, highest weight {list(par.rho_S)}"
                return "pass", lhs, "", (), ""
            _run(records, "repn.build", qtag, chk)

        if "projection" in phases:
            _run(records, "projection.idempotent", qtag, lambda: (
                _multi_cert_result(
                    list(verify_idempotent(ctx, cap=cfg.cap).values()))))
            _run(records, "projection.selfadjoint", qtag, lambda: (
                _bool_result(verify_selfadjoint(ctx),
                             "star-symmetric", "star broken", "P* = P")))
            _run(records, "projection.qtrace", qtag, lambda: (
                _cert_result(verify_qtrace(ctx, cap=cfg.cap),
                             "trace matches weight")))

        if "invariance" in phases:
            inv = verify_levi_invariance(ctx)
            for gen in levi_generators(ctx):
                ok = inv[gen]
                _run(records, f"invariance.{_gen_label(gen)}", qtag,
                     lambda ok=ok: _bool_result(
                         ok, "all entries fixed", "entry moved",
                         "counit action"))

        if "matrixunits" in phases:
            idx = None if ctx.dim <= 2 else (0, 1, ctx.dim - 1)

            def law(name):
                return verify_matrix_units(ctx, indices=idx, cap=cfg.cap,
                                           laws=(name,))[name]
            _run(records, "matrixunits.product", qtag, lambda: (
                _multi_cert_result(list(law("product").values()))))
            _run(records, "matrixunits.star", qtag, lambda: (
                _bool_result(law("star"), "star law holds",
                             "star law broken", "syntactic")))
            _run(records, "matrixunits.trace", qtag, lambda: (
                _multi_cert_result(list(law("trace").values()))))

        if "cycle" in phases:
            cyc_parts = {}

            def chk_cycle():
                cert, residual, expected = verify_cycle(ctx, cap=cfg.cap)
                cyc_parts["residual"] = residual
                cyc_parts["expected"] = expected
                return _cert_result(cert, "boundary vanishes")
            _run(records, "cycle.normalized", qtag, chk_cycle)

            def chk_residual():
                if "residual" not in cyc_parts:
                    return "skipped", "", "", (), "cycle check did not run"
                return ("measured", str(cyc_parts["residual"]),
                        str(cyc_parts["expected"]), (), "")
            _run(records, "cycle.unnormalized.residual", qtag, chk_residual)

        if "pairing" in phases:
            for a in range(1, rs.rank + 1):
                def chk(a=a):
                    got, want = verify_pairing(ctx, a)
                    status = "pass" if got == want else "fail"
                    return status, str(got), str(want), (), ""
                _run(records, f"pairing.{a}", qtag, chk)

        if "cocycle" in phases:
            for a in range(1, rs.rank + 1):
                for seed in (cfg.seed, cfg.seed + 1):
                    def chk(a=a, seed=seed):
                        val = verify_cocycle_sample(ctx, a, seed)
                        status = "pass" if not val else "fail"
                        return status, str(val), "0", (), ""
                    _run(records, f"cocycle.{a}.{seed}", qtag, chk)

    if "kahler" in phases:
        kah = {}

        def chk_build():
            kah["kk"] = ClassicalKahler(
                classical_context(cfg.family, cfg.rank, cfg.subset,
                                  cfg.cap))
            roots = kah["kk"].nil_roots
            return "pass", f"{len(roots)} non-levi roots", "", (), ""
        _run(records, "kahler.build", "classical", chk_build)

        kk = kah.get("kk")
        if kk is not None:
            nl = verify_norm_lemma(kk)
            for gamma in kk.nil_roots:
                def chk(gamma=gamma):
                    got, want = nl[gamma]
                    status = "pass" if got == want else "fail"
                    return status, str(got), str(want), (), ""
                _run(records, f"normlemma.{root_label(gamma)}", "classical",
                     chk)
            roots, chat, c = kk.kahler_matrix()
            for i, gamma in enumerate(roots):
                def chk(i=i, gamma=gamma):
                    got = chat[i][i] / c[i]
                    want = Fraction(cartan.form_rw(rs, gamma, kk.ctx.lam))
                    ok = got == want and chat[i][i] > 0
                    return ("pass" if ok else "fail", str(got), str(want),
                            (), "")
                _run(records, f"kahler.diag.{root_label(gamma)}", "classical",
                     chk)

            def chk_off():
                bad = [(i, j) for i in range(len(roots))
                       for j in range(len(roots))
                       if i != j and chat[i][j]]
                return ("pass" if not bad else "fail",
                        "all off-diagonal zero" if not bad
                        else f"nonzero at {bad}", "zero", (), "")
            _run(records, "kahler.offdiag", "classical", chk_off)

            def chk_hkr():
                ok, got, want = verify_hkr(kk)
                return ("pass" if ok else "fail",
                        str([[str(x) for x in row] for row in got]),
                        str([[str(x) for x in row] for row in want]), (), "")
            _run(records, "hkr.match", "classical", chk_hkr)

    return rep


def emit_report(rep: Report, path=None):
    """Write the structured report (if a path is given) and print the
    human-readable summary, which ends with the number of skipped checks
    (with a warning when there are any: a skipped check was not verified)
    and the verdict.  Returns the process exit code: 0 iff the verdict is
    pass, 2 on I/O failure."""
    text = rep.to_json()
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    case = rep.case
    print(f"case {case['family']}{case['rank']} S={case['subset']} "
          f"q={case['q']}")
    for r in rep.records:
        line = f"  {r.status.upper():8s} {r.name} [{r.q}]"
        if r.lhs or r.rhs:
            line += f"  {r.lhs}"
            if r.rhs:
                line += f" | expected {r.rhs}"
        if r.note:
            line += f"  ({r.note})"
        print(line)
    skipped = sum(r.status == "skipped" for r in rep.records)
    print(f"skipped: {skipped}")
    if skipped:
        print(f"warning: {skipped} check(s) skipped, not verified; "
              "see the notes above")
    print(f"verdict: {rep.verdict}")
    return 0 if rep.verdict == "pass" else 1


def comparison_body(report_dict):
    """The determinism-comparison region: the report with timing stripped."""
    out = json.loads(json.dumps(report_dict))
    for rec in out.get("records", []):
        rec.pop("seconds", None)
    return out
