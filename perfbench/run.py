"""Layered suite benchmark for qflag.

One client, one thread, closed loop: each ``run_suite`` case starts only
after the previous one has finished.  Each workload runs in its own process,
so set-up time and peak memory are its own.

    python3 perfbench/run.py                  # every workload, one summary
    python3 perfbench/run.py --workload flag_cycle --seed 3 \\
        --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: wall seconds of ``run_suite``
(median over at least two cases, more while they fit in ``--seconds``),
set-up seconds (median over fresh processes that import qflag and build the
workload's flag contexts, spread over the run) and peak resident memory.  ``--trace 1``
runs one case untraced and one traced (see ``tracer.py``) and reports the
per-layer metrics; their difference is the tracing overhead.

Every report passes through the correctness gate in ``workloads.py``; the
run exits 1 if any record fails it, and 2 if this checkout has no qflag
source.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; spans and a full
result file go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer, case_metrics, setup_metrics

perf_counter = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
PROBE = BENCH_DIR / "setup_probe.py"
PROBES_PER_ROUND = 3
# On a shared host, CPU speed drifts by about 20% over tens of seconds; a run
# measures at least this many cases so one slow stretch is averaged out.
MIN_CASES = 2
CHILD_TIMEOUT_S = 170

REPORT_PHASES = ("projection", "invariance", "matrixunits", "cycle",
                 "pairing", "cocycle", "kahler")
KAHLER_RECORDS = ("kahler", "normlemma", "hkr")


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def environment():
    from qflag import __version__, lin
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"qflag": __version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": nproc,
            "kernel": lin.kernel_name()}


class Gate:
    """Running totals of the correctness gate over every report of a run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.golden = wl.load_golden()
        self.attempted = self.failed = 0
        self.problems = []

    def check(self, report):
        attempted, failed, problems = wl.gate(report, self.workload,
                                              self.seed, self.golden)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def probe_setup(workload, samples):
    """Append PROBES_PER_ROUND fresh-process set-up times to samples."""
    for _ in range(PROBES_PER_ROUND):
        out = subprocess.run([sys.executable, str(PROBE), workload],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.split()[-1]))


def timed_cases(workload, cfg, seconds, gate):
    """End-to-end metrics with tracing off."""
    from qflag import report
    setup = []
    probe_setup(workload, [])           # warm the file cache, discarded
    probe_setup(workload, setup)
    deadline = perf_counter() + seconds
    suite = []
    while True:
        gc.collect()                    # start each case from a clean heap
        t0 = perf_counter()
        rep = report.run_suite(cfg)
        dt = perf_counter() - t0
        suite.append(dt)
        gate.check(rep)
        probe_setup(workload, setup)
        if len(suite) >= MIN_CASES and perf_counter() + dt > deadline:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"suite_s": statistics.median(suite),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_kib / 1024}
    return metrics, {"suite_s": suite, "setup_s": setup}


def phase_seconds(rep):
    out = {p: 0.0 for p in REPORT_PHASES}
    for rec in rep.records:
        phase = rec.name.split(".")[0]
        if phase in KAHLER_RECORDS:
            phase = "kahler"
        if phase in out:
            out[phase] += rec.seconds
    return {f"report.phase_s.{p}": s for p, s in out.items()}


def traced_case(workload, cfg, gate, spans_path):
    """Per-layer metrics: one untraced case, then set-up and one case
    traced."""
    from qflag import report
    t0 = perf_counter()
    gate.check(report.run_suite(cfg))
    untraced = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        with tracer.traced(f"{workload}/setup") as setup_sec:
            wl.WORKLOADS[workload].build_contexts()
        with tracer.traced(f"{workload}/case") as case_sec:
            t0 = perf_counter()
            rep = report.run_suite(cfg)
            traced = perf_counter() - t0
    gate.check(rep)
    tracer.write_spans(spans_path)
    metrics = {**setup_metrics(setup_sec), **case_metrics(case_sec),
               **phase_seconds(rep),
               "trace.suite_s": traced,
               "trace.overhead_s": traced - untraced}
    return metrics, {"suite_s": [untraced], "traced_suite_s": traced}


def run_workload(workload, seed, seconds, trace):
    """Run one workload in this process; returns the result dict."""
    wl.load_qflag()
    end_to_end, per_layer, _ = declared_metrics()
    cfg = wl.WORKLOADS[workload].config(seed)
    gate = Gate(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        metrics, samples = traced_case(workload, cfg, gate,
                                       OUT_DIR / f"spans-{stem}.jsonl")
        units = per_layer
    else:
        metrics, samples = timed_cases(workload, cfg, seconds, gate)
        units = end_to_end
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    result = {"correct": gate.failed == 0 and gate.attempted > 0,
              "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "env": environment(), "samples": samples,
              "problems": gate.problems, **result}
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return result, detail


def print_result(result, detail):
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for p in detail["problems"]:
        print(f"GATE FAIL {p}")
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{detail['workload']} seed {detail['seed']} trace "
          f"{detail['trace']}: check_fail_ratio {ratio} "
          f"({result['failed']} of {result['attempted']} records)")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps(result), flush=True)


def run_all(seed, seconds, trace):
    """Every workload, each in a fresh process; prints a summary table."""
    _, _, names = declared_metrics()
    ok = True
    rows = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        rows[name] = (json.loads(lines[-1])
                      if lines and lines[-1].startswith("{") else None)
    print("summary")
    for name, res in rows.items():
        if res is None:
            print(f"  {name}: no result")
            continue
        ratio = res["failed"] / max(res["attempted"], 1)
        print(f"  {name}: correct {res['correct']}, "
              f"check_fail_ratio {ratio}")
        for metric, m in res["metrics"].items():
            print(f"    {metric} {m['value']} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="a workload name, or 'all' (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        wl.load_qflag()
    except wl.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    print_result(result, detail)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
