"""tools/ab_pairs.py: result parsing and the pair summary, on made-up
benchmark output, and the --probe mode end to end on two copies of this
checkout."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_PATH = REPO / "tools" / "ab_pairs.py"
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


def test_parse_probe_reads_the_printed_seconds():
    assert ab.probe_command("w")[1:] == ["perfbench/setup_probe.py", "w"]
    assert ab.parse_probe("w", "0.0294\n") == {
        "w": {"correct": True,
              "metrics": {"setup_s": {"value": 0.0294, "unit": "s"}}}}
    assert ab.parse_probe("w", "") == {}
    assert ab.parse_probe("w", "Traceback ...\nKeyError: 'w'\n") == {}


def test_summary_of_probe_pairs():
    """Probe results go through the same summary, setup_s only."""
    pairs = [(ab.parse_probe("w", f"{p}\n"), ab.parse_probe("w", f"{c}\n"))
             for p, c in [(0.040, 0.030), (0.041, 0.029), (0.039, 0.040)]]
    (row,) = ab.summarize(pairs, [{"name": "setup_s", "better": "lower"}])
    assert row[:2] == ("w", "setup_s")
    assert row[2][1] == 0.040 and row[3] == 0.030 and row[4] == 2
    assert ab.all_correct(pairs)
    assert not ab.all_correct(pairs + [({}, pairs[0][1])])


def _checkout(root):
    """A minimal checkout: the benchmark spec, perfbench/ and src/."""
    root.mkdir()
    shutil.copy(REPO / "BENCHMARK.json", root)
    for sub in ("perfbench", "src"):
        shutil.copytree(REPO / sub, root / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_probe_mode_runs_alternating_probes(tmp_path, capsys):
    """--probe runs one fresh set-up probe per side and pair, writes no
    bytecode cache, and prints the setup_s summary."""
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    (a / "src" / "__pycache__").mkdir()
    code = ab.main(["--parent", str(a), "--change", str(b), "--pairs", "2",
                    "--probe", "symbolic_munits"])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert re.fullmatch(r"symbolic_munits setup_s: parent \S+ \[\S+, \S+\] "
                        r"-> change \S+, change better in [012]/2", lines[0])
    assert re.fullmatch(r"  pairs \S+/\S+ \S+/\S+", lines[1])
    assert lines[2:] == ["every run correct"]
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "pair 1 parent", "pair 1 change", "pair 2 change", "pair 2 parent"]
    assert not list(tmp_path.rglob("__pycache__"))


@pytest.mark.parametrize("argv,message", [
    (["--probe", "nonsense"], "unknown workload 'nonsense'"),
    (["--probe", "flag_cycle", "--seed", "1"], "neither --seconds nor --seed"),
    (["--probe", "flag_cycle", "--seconds", "5"],
     "neither --seconds nor --seed"),
    (["--probe", "flag_cycle", "--workload", "flag_cycle"],
     "not allowed with argument"),
])
def test_probe_mode_rejects_bad_arguments(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        ab.main(["--parent", str(tmp_path), "--change", str(REPO),
                 "--pairs", "1", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
