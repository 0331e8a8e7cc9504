"""Command-line driver.

Subcommands:
  roots    -- root-system and parabolic data for a case
  rep      -- the defining highest-weight module for a case, per q value
  verify   -- run the full verification suite, print the summary
  pairing  -- pairing values against the closed formula, per simple root
  kahler   -- the classical-limit block (norm lemma, Gram matrix, origin form)
  report   -- run the full suite and always write the structured report

Common flags: --type, --rank, --subset (comma list, empty means the full
flag case), --q (a rational like 1/2, a comma list, or "symbolic"),
--cap, --seed, --out, --config (a JSON file whose keys mirror the flags;
explicit flags win).

Exit codes: 0 = all checks pass, 1 = at least one failure, 2 = bad
configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from qflag import cartan
from qflag.coord import DEFAULT_CAP
from qflag.report import CaseConfig, emit_report, root_label, run_suite
from qflag.repn import CapExceeded, hw_module


def _parse_subset(text):
    text = (text or "").strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad subset {text!r}: expected a comma list "
                         "of simple-root indices") from None


def _parse_q(text):
    text = (text or "symbolic").strip()
    if text == "symbolic":
        return None
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad q {text!r}: expected rationals like 1/2 "
                         "or the word symbolic") from None


_CONFIG_KEYS = ("type", "rank", "subset", "q", "cap", "seed", "out")


def _config_value(key, value):
    """A config value in the form its flag would give: integers for rank,
    cap and seed (a JSON float or bool is rejected, not truncated), strings
    for type and out, and for subset and q a string, a number, or a comma
    list for a JSON array.  Null, booleans and objects are rejected."""
    if key in ("rank", "cap", "seed"):
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        elif isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"config key {key!r} must be an integer, "
                         f"got {json.dumps(value)}")
    if isinstance(value, str):
        return value
    if key not in ("subset", "q"):
        raise ValueError(f"config key {key!r} must be a string, "
                         f"got {json.dumps(value)}")
    if isinstance(value, list):
        return ",".join(str(x) for x in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"config key {key!r} must be a string, a number or an "
                     f"array, got {json.dumps(value)}")


def _merge_config(args):
    """Fill unset flags from the --config file (flags win).  Only an absent
    flag is unset: an explicit empty --subset or --q still wins."""
    if not args.config:
        return
    with open(args.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object, got "
                         f"{type(data).__name__}")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    for key in _CONFIG_KEYS:
        if key in data and getattr(args, key, None) is None:
            setattr(args, key, _config_value(key, data[key]))


def _case(args) -> CaseConfig:
    if not args.type or args.rank is None:
        raise ValueError("--type and --rank are required")
    return CaseConfig(
        family=args.type,
        rank=args.rank,
        subset=_parse_subset(args.subset),
        q_values=_parse_q(args.q),
        cap=args.cap if args.cap is not None else DEFAULT_CAP,
        seed=args.seed if args.seed is not None else 1,
        only=args.phases,
    )


def _cmd_roots(args):
    cfg = _case(args)
    rs = cartan.root_system(cfg.family, cfg.rank)
    par = cartan.parabolic(rs, cfg.subset)
    print(f"{rs.name}: d = {list(rs.d)}")
    print("cartan rows:", [list(r) for r in rs.cartan])
    print("positive roots:", ", ".join(root_label(r) for r in rs.pos_roots))
    print("levi:", ", ".join(root_label(r) for r in par.levi_pos) or "-")
    print("nil:", ", ".join(root_label(r) for r in par.nil_pos) or "-")
    print("weight of the projection module:", list(par.rho_S))
    return 0


def _cmd_rep(args):
    cfg = _case(args)
    rs = cartan.root_system(cfg.family, cfg.rank)
    par = cartan.parabolic(rs, cfg.subset)
    for qtag, field in cfg.fields():
        m = hw_module(rs, par.rho_S, field, cap=cfg.cap)
        print(f"module of highest weight {list(par.rho_S)} over {rs.name} "
              f"(q = {qtag}): dim {m.dim}")
        for k in range(m.dim):
            print(f"  basis {k}: weight {list(m.weights[k])}, "
                  f"norm {m.norms[k]}")
    return 0


def _cmd_suite(args):
    """verify, pairing, kahler and report: run the subcommand's phases and
    emit the report, to --out or else to the subcommand's default path
    (only report has one, and it says where it wrote)."""
    out = args.out or args.default_out
    code = emit_report(run_suite(_case(args)), out)
    if args.default_out and code != 2:
        print(f"report written to {out}")
    return code


def main(argv=None):
    top = argparse.ArgumentParser(
        prog="qflag",
        description="exact verification of quantum flag projection laws, "
                    "twisted homology pairings, and classical limits")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, phases=None, default_out=None):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--type", help="family letter, e.g. A or B")
        p.add_argument("--rank", type=int, help="rank (1..4)")
        p.add_argument("--subset", help="comma list of marked simple roots; "
                                        "empty for the full flag case")
        p.add_argument("--q", help='rational(s) like 1/2 or "symbolic"')
        p.add_argument("--cap", type=int,
                       help="dimension cap for the defining module and for "
                            "every zero-test closure")
        p.add_argument("--seed", type=int, help="seed for sampled checks")
        p.add_argument("--out", help="path for the structured report")
        p.add_argument("--config", help="JSON file mirroring the flags")
        p.set_defaults(fn=fn, phases=phases, default_out=default_out)
        return p

    add("roots", _cmd_roots, "root-system and parabolic data")
    add("rep", _cmd_rep, "defining module: weights and norms")
    add("verify", _cmd_suite, "run the verification suite")
    add("pairing", _cmd_suite, "pairing values per simple root",
        phases=("pairing",))
    add("kahler", _cmd_suite, "classical-limit block", phases=("kahler",))
    add("report", _cmd_suite, "run the suite and write the report file",
        default_out="qflag_report.json")

    args = top.parse_args(argv)
    try:
        _merge_config(args)
        return args.fn(args)
    except (ValueError, OSError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
