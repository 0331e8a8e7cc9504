"""Byte-identity of report bodies and module dumps between two checkouts.

    python3 tools/same_bytes.py --parent DIR --change DIR

DIR is a checkout of the repository.  For each, a fresh python3 with the
checkout's src/ first on sys.path computes the sha256 of the
comparison_body of run_suite for every case of SUITES, and of module_dump
for every highest weight of WEIGHTS over every field of FIELDS.  One
line per item gives both digests; under a suite whose digests differ,
one indented line names each top-level field and each record (name and q
tag) that differs, with the record fields that differ.  Exits 1 on any
mismatch, or if a run or an item failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# (family, rank, subset, q values or None for symbolic, cap or None,
#  phases run or None for all); the two matrix-unit-only cases batch
#  hundreds of unitarity sums that share one functional, and the
#  C3 projection and invariance case has dimension 14 and Levi E/F
#  generators
SUITES = [
    ("A", 1, (), None, None, None),
    ("A", 2, (2,), None, None, None),
    ("A", 1, (1,), None, None, None),
    ("A", 3, (2, 3), None, None, None),
    ("A", 2, (), ("1/2",), None, None),
    ("B", 2, (1,), ("1/2",), None, None),
    ("G", 2, (2,), ("1/2",), None, None),
    ("A", 2, (1, 2), ("1/2",), None, None),
    ("C", 2, (1,), ("2/3",), None, None),
    ("A", 2, (2,), ("2/3", "3/5"), None, None),
    ("A", 1, (), None, 2, None),
    ("A", 2, (2,), None, 9, None),
    ("B", 4, (1, 2, 3), ("1/2",), None, ("matrixunits",)),
    ("F", 4, (1, 2, 3), ("1/2",), None, ("matrixunits",)),
    ("C", 3, (1, 2), ("1/2",), None, ("projection", "invariance")),
]

WEIGHTS = [
    ("A", 1, (1,)), ("A", 1, (3,)), ("A", 1, (4,)),
    ("A", 2, (1, 0)), ("A", 2, (0, 1)), ("A", 2, (1, 1)), ("A", 2, (2, 1)),
    ("A", 2, (2, 0)),
    ("B", 2, (1, 1)), ("B", 2, (0, 1)), ("B", 2, (1, 0)),
    ("C", 2, (1, 1)), ("C", 2, (1, 0)),
    ("G", 2, (1, 0)), ("G", 2, (0, 1)), ("G", 2, (1, 1)),
    ("A", 3, (1, 0, 1)), ("A", 3, (0, 1, 1)), ("A", 3, (1, 0, 0)),
    ("B", 3, (0, 0, 1)), ("B", 3, (1, 0, 1)),
    ("C", 3, (0, 1, 0)),
    ("D", 4, (0, 1, 0, 0)), ("D", 4, (1, 0, 0, 1)),
    ("F", 4, (0, 0, 0, 1)),
    ("A", 4, (0, 1, 1, 0)),
]

FIELDS = ("symbolic", "1/2", "2/3", "1")

_CHILD = r"""
import hashlib, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from qflag import cartan
from qflag.qscalar import FixedField, SymbolicField
from qflag.repn import hw_module, module_dump
from qflag.report import CaseConfig, comparison_body, run_suite

def body(kind, args):
    # (the text digested, the comparison body of a suite or None)
    if kind == "suite":
        family, rank, subset, qs, cap, only = args
        cfg = CaseConfig(family, rank, tuple(subset),
                         q_values=None if qs is None else tuple(qs),
                         **({} if cap is None else {"cap": cap}),
                         **({} if only is None else {"only": tuple(only)}))
        out = comparison_body(run_suite(cfg).as_dict())
        return json.dumps(out, indent=2), out
    family, rank, lam, q = args
    field = SymbolicField() if q == "symbolic" else FixedField(Fraction(q))
    return module_dump(hw_module(cartan.root_system(family, rank),
                                 tuple(lam), field)), None

for label, kind, args in json.load(sys.stdin):
    try:
        text, out = body(kind, args)
        digest = hashlib.sha256(text.encode()).hexdigest()
    except Exception as exc:
        traceback.print_exc()
        digest, out = f"error {type(exc).__name__}: {exc}", None
    print(json.dumps([label, digest, out]), flush=True)
"""


def items():
    """[(label, kind, args)] for every suite and module dump compared."""
    out = []
    for family, rank, subset, qs, cap, only in SUITES:
        label = (f"suite {family}{rank} S={{{','.join(map(str, subset))}}} "
                 f"q={'symbolic' if qs is None else ','.join(qs)}"
                 + ("" if cap is None else f" cap={cap}")
                 + ("" if only is None else f" only={','.join(only)}"))
        out.append((label, "suite", [family, rank, subset, qs, cap, only]))
    for family, rank, lam in WEIGHTS:
        for q in FIELDS:
            label = f"module {family}{rank} {''.join(map(str, lam))} q={q}"
            out.append((label, "module", [family, rank, lam, q]))
    return out


def digests(checkout, todo):
    """({label: sha256 or 'error ...'}, {label: comparison body}) from one
    fresh interpreter in the checkout, whose tracebacks go to stderr;
    labels it did not reach are missing, and only suites have a body."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(checkout / "src")], cwd=checkout,
        input=json.dumps(todo), capture_output=True, text=True)
    if proc.returncode or proc.stderr:
        print(f"run in {checkout} exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
    out, bodies = {}, {}
    for line in proc.stdout.splitlines():
        label, digest, body = json.loads(line)
        out[label] = digest
        if body is not None:
            bodies[label] = body
    return out, bodies


def compare(labels, parent, change):
    """([line per label], ok): ok iff every label has the same digest on
    both sides, and neither is missing or an error."""
    lines, ok = [], True
    for label in labels:
        a, b = parent.get(label, "missing"), change.get(label, "missing")
        same = a == b and a != "missing" and not a.startswith("error")
        ok = ok and same
        lines.append(f"{'same' if same else 'DIFFERENT'} {label}: "
                     f"parent {a} change {b}")
    return lines, ok


def differences(parent, change):
    """Indented lines naming what differs between two comparison bodies:
    each top-level field other than the records, then each record, keyed
    by name and q tag, that only one side has or whose fields differ, with
    those fields; and the record order, if only that differs."""
    lines = [f"  {key}" for key in dict.fromkeys([*parent, *change])
             if key != "records" and parent.get(key) != change.get(key)]
    recs = [{(r["name"], r["q"]): r for r in body.get("records", [])}
            for body in (parent, change)]
    for key in dict.fromkeys([*recs[0], *recs[1]]):
        a, b = recs[0].get(key), recs[1].get(key)
        name = f"{key[0]} [{key[1]}]"
        if a is None or b is None:
            lines.append(f"  {name}: only in "
                         + ("change" if a is None else "parent"))
        elif a != b:
            lines.append(f"  {name}: " + ", ".join(
                f for f in dict.fromkeys([*a, *b]) if a.get(f) != b.get(f)))
    if not lines and list(recs[0]) != list(recs[1]):
        lines.append("  record order")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    todo = items()
    parent, parent_bodies = digests(args.parent.resolve(), todo)
    change, change_bodies = digests(args.change.resolve(), todo)
    labels = [label for label, _, _ in todo]
    lines, ok = compare(labels, parent, change)
    for label, line in zip(labels, lines):
        print(line)
        if (line.startswith("DIFFERENT") and label in parent_bodies
                and label in change_bodies):
            for diff in differences(parent_bodies[label],
                                    change_bodies[label]):
                print(diff)
    print("every item the same" if ok else "NOT every item the same")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
