"""tools/ab_pairs.py: result parsing and the pair summary, on made-up
benchmark output."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [{"name": "suite_s", "better": "lower"},
              {"name": "score", "better": "higher"}]


def result(correct=True, **metrics):
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()}}


def test_parse_results_reads_each_workload_line():
    a, b = result(suite_s=1.0, score=2), result(False, suite_s=3.0, score=1)
    stdout = "\n".join([
        'env {"python": "3"}',
        "wl_a seed 1 trace 0: check_fail_ratio 0.0 (0 of 3 records)",
        "  suite_s 1.0 s",
        json.dumps(a),
        "GATE FAIL something",
        "wl_b seed 1 trace 0: check_fail_ratio 0.33 (1 of 3 records)",
        json.dumps(b),
        "summary",
        "  wl_a: correct True, check_fail_ratio 0.0",
    ])
    assert ab.parse_results(stdout) == {"wl_a": a, "wl_b": b}


def test_summary_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]  # better, tie, worse, better, better
    pairs = [({"w": result(suite_s=p, score=p)},
              {"w": result(suite_s=c, score=c)})
             for p, c in zip(parent, change)]
    rows = ab.summarize(pairs, END_TO_END)
    assert [r[:2] for r in rows] == [("w", "suite_s"), ("w", "score")]
    (_, _, quart, cmed, wins, vals), (_, _, _, _, hwins, _) = rows
    assert quart == (2.0, 3.0, 4.0)
    assert cmed == 3.0
    assert wins == 3
    assert hwins == 1  # the one higher change value, the tie for neither
    assert vals == list(zip(parent, change))


def test_summary_skips_missing_workloads_and_flags_incorrect_runs():
    good = {"w": result(suite_s=1.0, score=1)}
    pairs = [(good, good), ({}, good), (good, {"w": result(False,
                                                           suite_s=1.0,
                                                           score=1)})]
    (row,) = ab.summarize(pairs, END_TO_END[:1])
    assert len(row[5]) == 2
    assert row[2] == (1.0, 1.0, 1.0)
    assert not ab.all_correct(pairs)
    assert ab.all_correct(pairs[:1])


def test_bench_command_passes_workload_and_seed_through():
    base = ab.bench_command(50)
    assert base[1:] == ["perfbench/run.py", "--seconds", "50"]
    assert ab.bench_command(10.0, "symbolic_munits", 3)[1:] == [
        "perfbench/run.py", "--seconds", "10.0",
        "--workload", "symbolic_munits", "--seed", "3"]
    assert ab.bench_command(50, seed=0)[3:] == ["50", "--seed", "0"]
