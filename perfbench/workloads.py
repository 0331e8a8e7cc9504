"""Workload definitions, the checkout-local qflag import, and the
correctness gate of the benchmark.

A workload is one ``CaseConfig``.  The run seed becomes ``CaseConfig.seed``;
only the cocycle samples use it, so it changes two record names per simple
root and nothing else.

The gate compares every record of a report against ``golden.json``: the
record list (names and q tags, in order), each status (``pass``, or
``measured`` with ``lhs == rhs``) and each ``lhs``/``rhs`` string.  Those
strings are mathematical values (pairings, residuals, Kähler ratios, check
counts), so a faster engine must reproduce them exactly.  Certificate sizes
are not compared: a stronger zero test may legitimately shrink them.

Regenerate the golden file (only on purpose) with

    python3 perfbench/workloads.py --write-golden
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"

ALL_PHASES = ("cartan", "repn", "projection", "invariance", "matrixunits",
              "cycle", "pairing", "cocycle", "kahler")


@dataclass(frozen=True)
class Workload:
    family: str
    rank: int
    subset: tuple
    q_values: tuple | None          # rationals as strings; None = symbolic
    phases: tuple = ALL_PHASES

    def config(self, seed):
        from qflag.report import CaseConfig
        return CaseConfig(self.family, self.rank, self.subset,
                          q_values=self.q_values, seed=seed,
                          only=self.phases)

    def fields(self):
        from qflag.qscalar import FixedField, SymbolicField
        if self.q_values is None:
            return [SymbolicField()]
        from fractions import Fraction
        return [FixedField(Fraction(q)) for q in self.q_values]

    def build_contexts(self):
        """What a caller builds before any check: one flag context per q."""
        from qflag.flagproj import flag_context
        return [flag_context(self.family, self.rank, self.subset, f)
                for f in self.fields()]


WORKLOADS = {
    # The fixed-q twin of symbolic_munits at the acceptance-gate q values,
    # for manual runs; BENCHMARK.json leaves it out so that a full round of
    # runs (each at least two cases of about 20 s) stays under an hour.
    "fixedq_munits": Workload("B", 2, (1,), ("1/2", "2/3", "3/5")),
    "symbolic_munits": Workload("A", 2, (2,), None),
    "flag_cycle": Workload(
        "A", 2, (), ("1/2",),
        tuple(p for p in ALL_PHASES if p != "matrixunits")),
    # Sub-second case for the benchmark's own tests; not a timed workload.
    "tiny": Workload("A", 1, (), None),
}


class MissingProgram(RuntimeError):
    pass


def load_qflag():
    """Import qflag from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qflag" / "__init__.py").is_file():
        raise MissingProgram(f"no qflag package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qflag
    where = Path(qflag.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingProgram(f"qflag imported from {where}, not from {SRC}")
    return qflag


# -- correctness gate -----------------------------------------------------------


def _template_name(name, seed):
    """cocycle.<a>.<seed + k>  ->  cocycle.<a>.+<k>; other names unchanged."""
    parts = name.split(".")
    if parts[0] == "cocycle":
        parts[-1] = f"+{int(parts[-1]) - seed}"
    return ".".join(parts)


def record_rows(report, seed):
    return [[_template_name(r.name, seed), r.q, r.status, r.lhs, r.rhs]
            for r in report.records]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def gate(report, workload, seed, golden):
    """Return (attempted, failed, problems) for one report.

    A record fails unless it is ``pass``, or ``measured`` with
    ``lhs == rhs``, and matches its golden row.  A ``skipped`` record (cap
    overrun) fails.  A missing or extra record counts as one failure each.
    """
    want = golden[workload]
    got = record_rows(report, seed)
    problems = []
    failed = 0
    for i in range(max(len(want), len(got))):
        if i >= len(got) or i >= len(want):
            failed += 1
            problems.append(f"record {i}: missing or extra")
            continue
        name, q, status, lhs, rhs = got[i]
        ok = status == "pass" or (status == "measured" and lhs == rhs)
        if not ok or got[i] != want[i]:
            failed += 1
            problems.append(f"{name} [{q}]: got {got[i][2:]}, "
                            f"want {want[i][2:]}")
    if report.verdict != "pass":
        problems.append(f"verdict {report.verdict}")
        failed = max(failed, 1)
    return max(len(want), len(got)), failed, problems


def write_golden(seed=1):
    load_qflag()
    from qflag.report import run_suite
    out = {}
    for name, wl in WORKLOADS.items():
        rep = run_suite(wl.config(seed))
        if rep.verdict != "pass":
            raise SystemExit(f"{name}: verdict {rep.verdict}; not writing")
        out[name] = record_rows(rep, seed)
        print(f"{name}: {len(out[name])} records", flush=True)
    GOLDEN.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        raise SystemExit("usage: python3 perfbench/workloads.py "
                         "--write-golden")
    write_golden()
