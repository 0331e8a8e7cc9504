"""Alternating parent/change pairs of the benchmark, with a summary.

    python3 tools/ab_pairs.py --parent DIR --change DIR --pairs 10
        [--seconds 50] [--workload NAME] [--seed N]
    python3 tools/ab_pairs.py --parent DIR --change DIR --pairs 30
        --probe NAME

DIR is a checkout of the repository.  Each run removes every __pycache__
under the checkout's src/, then runs `perfbench/run.py --seconds S` there,
with --workload and --seed passed through when given (by default every
workload at run.py's default seed), and reads the {"correct": ...} result
line of each workload.  With --probe, each run is instead one fresh
`perfbench/setup_probe.py NAME` process with PYTHONDONTWRITEBYTECODE=1,
so every probe compiles qflag from source, and its printed seconds are
the workload's setup_s; a probe that prints no number counts as an
incorrect run.  Odd pairs run the parent first, even pairs the change
first, so a drift of the host speed over the runs does not favour either
side.

For each workload and each end-to-end metric of the change's
BENCHMARK.json (only setup_s with --probe) the summary gives the parent
median with its quartiles, the change median, the change's wins out of
the pairs (a tie counts for neither side), and the raw (parent, change)
values of every pair.  Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path

_HEADER = re.compile(r"^(\S+) seed \d+ trace \d+: check_fail_ratio")


def parse_results(stdout):
    """{workload: result dict} from the output of perfbench/run.py: each
    workload's result line follows its 'NAME seed S trace T:' line."""
    out = {}
    name = None
    for line in stdout.splitlines():
        m = _HEADER.match(line)
        if m:
            name = m.group(1)
        elif line.startswith('{"correct"') and name is not None:
            out[name] = json.loads(line)
            name = None
    return out


def bench_command(seconds, workload=None, seed=None):
    """The perfbench/run.py command line of one run, relative to a
    checkout; workload and seed are passed only when given."""
    cmd = [sys.executable, "perfbench/run.py", "--seconds", str(seconds)]
    if workload is not None:
        cmd += ["--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return cmd


def probe_command(workload):
    """The perfbench/setup_probe.py command line of one probe, relative to
    a checkout."""
    return [sys.executable, "perfbench/setup_probe.py", workload]


def parse_probe(workload, stdout):
    """{workload: result} from the output of perfbench/setup_probe.py, in
    the shape of parse_results with the one metric setup_s; {} if the
    probe printed no number."""
    try:
        value = float(stdout.split()[-1])
    except (IndexError, ValueError):
        return {}
    return {workload: {"correct": True,
                       "metrics": {"setup_s": {"value": value, "unit": "s"}}}}


def run_once(checkout, cmd, parse=parse_results, env=None):
    """One run of cmd in the checkout, from cleared bytecode caches, with
    its stdout read by parse."""
    for cache in sorted((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=env)
    return parse(proc.stdout)


def quartiles(xs):
    """(first quartile, median, third quartile) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs, end_to_end):
    """One row per workload and end-to-end metric: (workload, metric,
    parent quartiles, change median, wins, [(parent, change), ...]).
    pairs holds (parent results, change results) per pair, as returned by
    parse_results; end_to_end the BENCHMARK.json entries, whose "better"
    says which direction wins.  A workload missing from either side of a
    pair is left out of that pair."""
    workloads = sorted({w for pair in pairs for runs in pair for w in runs})
    rows = []
    for w in workloads:
        for spec in end_to_end:
            metric = spec["name"]
            vals = [(p[w]["metrics"][metric]["value"],
                     c[w]["metrics"][metric]["value"])
                    for p, c in pairs if w in p and w in c]
            if not vals:
                continue
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * (b - a) < 0 for a, b in vals)
            rows.append((w, metric, quartiles([a for a, _ in vals]),
                         statistics.median(b for _, b in vals), wins, vals))
    return rows


def all_correct(pairs):
    """True iff every run reported every workload, each correct."""
    return all(runs and all(r["correct"] for r in runs.values())
               for pair in pairs for runs in pair)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="seconds per benchmark run (default: 50)")
    one = ap.add_mutually_exclusive_group()
    one.add_argument("--workload", help="one workload (default: all)")
    one.add_argument("--probe", metavar="WORKLOAD",
                     help="time fresh set-up probes of one workload "
                          "instead of benchmark runs")
    ap.add_argument("--seed", type=int,
                    help="the benchmark seed (default: run.py's)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.probe is not None and (args.seconds, args.seed) != (None, None):
        ap.error("--probe takes neither --seconds nor --seed")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = spec["end_to_end"]
    one = args.probe or args.workload
    if one is not None:
        if one not in names:
            ap.error(f"unknown workload {one!r}")
        names = [one]
    if args.probe is None:
        seconds = 50 if args.seconds is None else args.seconds
        cmd = bench_command(seconds, args.workload, args.seed)
        parse, env = parse_results, None
    else:
        cmd = probe_command(args.probe)
        parse = partial(parse_probe, args.probe)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        end_to_end = [e for e in end_to_end if e["name"] == "setup_s"]
    pairs = []
    for n in range(1, args.pairs + 1):
        order = ("parent", "change") if n % 2 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(getattr(args, side).resolve(), cmd, parse,
                                  env)
            missing = [w for w in names if w not in runs[side]]
            print(f"pair {n} {side}: " + ", ".join(
                f"{w} correct {r['correct']}" for w, r in runs[side].items())
                + (f"; no result for {', '.join(missing)}" if missing
                   else ""), file=sys.stderr, flush=True)
            if missing:
                runs[side] = {}
        pairs.append((runs["parent"], runs["change"]))
    for w, metric, (q1, med, q3), cmed, wins, vals in summarize(
            pairs, end_to_end):
        print(f"{w} {metric}: parent {med:.4g} [{q1:.4g}, {q3:.4g}] -> "
              f"change {cmed:.4g}, change better in {wins}/{len(vals)}")
        print("  pairs " + " ".join(f"{a:.4g}/{b:.4g}" for a, b in vals))
    ok = all_correct(pairs)
    print("every run correct" if ok else "NOT every run correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
