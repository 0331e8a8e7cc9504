"""Suite orchestration and machine-readable verification reports.

A case is one (family, rank, subset) triple together with a scalar mode:
symbolic, or evaluated at one or more exact rationals strictly between 0
and 1.  ``run_suite`` executes the fixed phase order

    cartan -> repn -> projection -> invariance -> matrixunits -> cycle
           -> pairing -> cocycle -> kahler

recording one entry per check.  The checks form one ordered table built
from the config alone, so every check the config names is recorded, in
the same order, whatever fails.  Failures never abort the suite; checks
that overflow the dimension cap are downgraded to "skipped" with the
reason recorded.  A check reads its context through a getter that builds
it once and re-raises a failed build, so a failed build decides every
check that needs it.  The cap is fixed once per context, for its
defining module and every zero-test closure.  The kahler phase always
runs at q = 1 (it is the classical-limit block) regardless of the scalar
mode.

Report bodies are deterministic for a fixed config and seed; the only
non-reproducible fields are the per-record wall times, which comparison
tools must strip (see docs/report_schema.md).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

from qflag import Record, Value, cartan
from qflag.classical import (ClassicalKahler, classical_context, verify_hkr,
                             verify_kahler_shape, verify_norm_lemma)
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


class CaseConfig(Value):
    """One verification case.  ``q_values = None`` means symbolic; ``only``
    is a PHASES subset, stored in PHASES order, or None for all phases."""

    __slots__ = ("family", "rank", "subset", "q_values", "cap", "seed", "only")

    def __init__(self, family, rank, subset=(), q_values=None,
                 cap=DEFAULT_CAP, seed=1, only=None):
        rs = cartan.root_system(family, rank)
        for key, value in (("q_values", q_values), ("subset", subset),
                           ("only", only)):
            if isinstance(value, str):
                raise ValueError(f"{key} must be a tuple, not the string "
                                 f"{value!r}")
        for key, value in (("cap", cap), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if q_values is not None:
            for q in q_values:
                if isinstance(q, float):
                    raise ValueError(f"q must be exact, got the float {q!r}")
            q_values = tuple(Fraction(q) for q in q_values)
            if not q_values:
                raise ValueError("evaluated mode needs at least one q value")
            for q in q_values:
                if not 0 < q < 1:
                    raise ValueError(
                        f"q must lie strictly between 0 and 1, got {q}")
            if len(set(q_values)) != len(q_values):
                raise ValueError(
                    f"q values repeat: {', '.join(map(str, q_values))}")
        subset = cartan.parabolic(rs, subset).S
        if only is not None:
            for p in only:
                if p not in PHASES:
                    raise ValueError(f"unknown phase {p!r}")
            if not only:
                raise ValueError("only must name at least one phase")
            if len(set(only)) != len(only):
                raise ValueError(f"phases repeat: {', '.join(only)}")
            only = tuple(p for p in PHASES if p in only)
        if cap <= 0:
            raise ValueError("cap must be positive")
        super().__init__(rs.letter, rank, subset, q_values, cap, seed, only)

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


class CheckRecord(Record):
    __slots__ = ("name", "q", "status", "lhs", "rhs", "cert_sizes", "seconds",
                 "note")

    def __init__(self, name, q, status, lhs="", rhs="", cert_sizes=(),
                 seconds=0.0, note=""):
        self.name = name
        self.q = q
        self.status = status           # pass | fail | skipped | measured
        self.lhs = lhs
        self.rhs = rhs
        self.cert_sizes = cert_sizes
        self.seconds = seconds
        self.note = note

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


class Report(Record):
    __slots__ = ("case", "records")

    def __init__(self, case, records=None):
        self.case = case
        self.records = [] if records is None else records

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
        import json
        return json.dumps(self.as_dict(), indent=2) + "\n"


def root_label(root):
    """Simple-root coordinates -> compact label, e.g. (1, 2) -> a1+2a2."""
    parts = []
    for i, c in enumerate(root, start=1):
        if c == 0:
            continue
        parts.append(f"a{i}" if c == 1 else f"{c}a{i}")
    return "+".join(parts) if parts else "0"


def _once(fn):
    """A getter that runs fn on its first call and then returns the same
    value, or raises the same exception, without running fn again."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((fn(), None))
            except Exception as exc:                         # noqa: BLE001
                memo.append((None, exc))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value
    return get


def _run(records, q, names, fn):
    """Execute the one call that decides the checks `names`, timing it and
    trapping failures.  fn returns one (status, lhs, rhs, sizes, note) per
    name; if it raises, every name gets the same record, skipped on
    CapExceeded and failed otherwise.  The records share the call's
    seconds."""
    t0 = time.perf_counter()
    try:
        results = list(fn())
    except CapExceeded as exc:
        results = [("skipped", "", "", (), f"cap exceeded: {exc}")] * \
            len(names)
    except Exception as exc:                                 # noqa: BLE001
        results = [("fail", "", "", (), f"{type(exc).__name__}: {exc}")] * \
            len(names)
    seconds = round(time.perf_counter() - t0, 6)
    for name, (status, lhs, rhs, sizes, note) in zip(names, results,
                                                     strict=True):
        records.append(CheckRecord(name, q, status, lhs, rhs, tuple(sizes),
                                   seconds, note))


def _result(ok, lhs, rhs, sizes=()):
    return "pass" if ok else "fail", str(lhs), str(rhs), sizes, ""


def _eq(got, want):
    return _result(got == want, got, want)


def _bool_result(ok, lhs_true, lhs_false, rhs):
    return _result(ok, lhs_true if ok else lhs_false, rhs)


def _cert_result(cert, lhs_label, rhs="zero"):
    return _result(cert.zero, lhs_label if cert.zero
                   else f"nonzero (witness {cert.witness})", rhs,
                   cert.closure_dims)


def _multi_cert_result(certs, covers=1):
    """One record for many zero certificates, each of which certifies
    covers identities (a unitarity sum U[a,d] covers dim^4 product
    identities); a fail counts the non-zero certificates."""
    certs = list(certs)
    sizes = sorted({d for c in certs for d in c.closure_dims})
    bad = sum(1 for c in certs if not c.zero)
    sums = "" if covers == 1 else " unitarity sums"
    return _result(not bad, f"{bad} of {len(certs)}{sums} nonzero" if bad
                   else f"{len(certs) * covers} differences zero", "all zero",
                   sizes)


def _q_checks(cfg, rs, par, ctx):
    """(phase, names, fn) for the per-q checks, in report order; ctx is the
    getter of the q value's FlagContext."""
    yield "repn", ["repn.build"], lambda: [_result(
        True, f"dim {ctx().m.dim}, highest weight {list(par.rho_S)}", "")]
    yield "projection", ["projection.idempotent"], lambda: [_cert_result(
        verify_idempotent(ctx()), f"{ctx().dim ** 2} differences zero",
        "all zero")]
    yield "projection", ["projection.selfadjoint"], lambda: [_bool_result(
        verify_selfadjoint(ctx()), "star-symmetric", "star broken",
        "P* = P")]
    yield "projection", ["projection.qtrace"], lambda: [
        _cert_result(verify_qtrace(ctx()), "trace matches weight")]

    gens = levi_generators(rs, par.S)

    def invariance():
        inv = verify_levi_invariance(ctx())
        return [_bool_result(inv[gen], "all entries fixed", "entry moved",
                             "counit action") for gen in gens]
    yield "invariance", [f"invariance.{g[0]}{g[1]}" for g in gens], \
        invariance

    def law(name):
        return verify_matrix_units(ctx(), laws=(name,))[name]
    yield "matrixunits", ["matrixunits.product"], lambda: [
        _multi_cert_result(law("product").values(), ctx().dim ** 4)]
    yield "matrixunits", ["matrixunits.star"], lambda: [_bool_result(
        law("star"), "star law holds", "star law broken", "syntactic")]
    yield "matrixunits", ["matrixunits.trace"], lambda: [
        _multi_cert_result(law("trace").values())]

    def cycle():
        cert, residual, expected = verify_cycle(ctx())
        return [_cert_result(cert, "boundary vanishes"),
                ("measured", str(residual), str(expected), (), "")]
    yield "cycle", ["cycle.normalized", "cycle.unnormalized.residual"], cycle

    for a in range(1, rs.rank + 1):
        yield "pairing", [f"pairing.{a}"], lambda a=a: [
            _eq(*verify_pairing(ctx(), a))]
    for a in range(1, rs.rank + 1):
        for seed in (cfg.seed, cfg.seed + 1):
            def cocycle(a=a, seed=seed):
                val = verify_cocycle_sample(ctx(), a, seed)
                return [_result(not val, val, 0)]
            yield "cocycle", [f"cocycle.{a}.{seed}"], cocycle


def _kahler_checks(par, kk):
    """(phase, names, fn) for the classical block, in report order; kk is
    the getter of its ClassicalKahler."""
    labels = [root_label(gamma) for gamma in par.nil_pos]
    yield "kahler", ["kahler.build"], lambda: [
        _result(True, f"{len(kk().nil_roots)} non-levi roots", "")]
    yield "kahler", [f"normlemma.{x}" for x in labels], lambda: [
        _eq(*gw) for gw in verify_norm_lemma(kk()).values()]

    def matrix():
        _, diag, expected, offdiag = verify_kahler_shape(kk())
        return [_result(got == want and got > 0, got, want)
                for got, want in zip(diag, expected)] + [_bool_result(
                    not offdiag, "all off-diagonal zero",
                    f"nonzero at {offdiag}", "zero")]
    yield "kahler", [f"kahler.diag.{x}" for x in labels] + \
        ["kahler.offdiag"], matrix

    def hkr():
        ok, got, want = verify_hkr(kk())

        def rows(m):
            return [[str(x) for x in row] for row in m]
        return [_result(ok, rows(got), rows(want))]
    yield "kahler", ["hkr.match"], hkr


def run_suite(cfg: CaseConfig) -> Report:
    """Run the requested checks of the table: cartan, the per-q checks of
    each q value, then the classical block.  A context is built by the
    first check that needs it, within that check's seconds, and is dropped
    once its q value's checks have run."""
    phases = cfg.only if cfg.only is not None else PHASES
    rep = Report(cfg.echo())
    rs = cartan.root_system(cfg.family, cfg.rank)
    par = cartan.parabolic(rs, cfg.subset)

    def run(q, table):
        for phase, names, fn in table:
            if phase in phases:
                _run(rep.records, q, names, fn)
    run("-", [("cartan", ["cartan.build"], lambda: [_result(
        True, f"positive roots {len(rs.pos_roots)}, levi "
        f"{len(par.levi_pos)}, nil {len(par.nil_pos)}", "")])])
    for qtag, field in cfg.fields():
        run(qtag, _q_checks(cfg, rs, par, _once(
            lambda field=field: flag_context(cfg.family, cfg.rank,
                                             cfg.subset, field, cfg.cap))))
    run("classical", _kahler_checks(par, _once(
        lambda: ClassicalKahler(classical_context(cfg.family, cfg.rank,
                                                  cfg.subset, cfg.cap)))))
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
    import json
    out = json.loads(json.dumps(report_dict))
    for rec in out.get("records", []):
        rec.pop("seconds", None)
    return out
