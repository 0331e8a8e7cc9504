"""Tests of the benchmark itself, on the sub-second A1 symbolic case.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

COUNTS = ("coord.zero_tests", "coord.closure_lookups", "coord.closure_builds",
          "coord.cert_dim_sum", "coord.cert_dim_max", "lin.inserts",
          "lin.inserts_kept", "qscalar.q_power_calls",
          "qscalar.qscalar_mul_calls", "qscalar.qscalar_add_calls")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and
                  lines[-1].startswith("{") else None)


def tiny(trace):
    proc, result = bench("--workload", "tiny", "--seconds", "0",
                         "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, result


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(trace):
    out, result = tiny(trace)
    end_to_end, per_layer, _ = run.declared_metrics()
    want = per_layer if trace else end_to_end
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(wl.load_golden()["tiny"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert f"  {name} " in out
    assert "env {" in out and '"kernel"' in out


def test_traced_counts_repeat_and_self_times_add_up():
    _, a = tiny(1)
    _, b = tiny(1)
    for name in COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    m = {k: v["value"] for k, v in a["metrics"].items()}
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    selfs += m["coord.zero_test_self_s"]
    assert selfs == pytest.approx(m["trace.suite_s"], rel=0.02)
    assert m["coord.closure_lookups"] >= m["coord.closure_builds"] > 0


def test_tampered_verifier_fails_the_run(monkeypatch):
    wl.load_qflag()
    from qflag import report
    real = report.verify_pairing

    def wrong(ctx, a):
        got, want = real(ctx, a)
        return got + got, want
    monkeypatch.setattr(report, "verify_pairing", wrong)
    result, detail = run.run_workload("tiny", 1, 0, 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(p.startswith("pairing.1") for p in detail["problems"])


def test_gate_uses_the_seed():
    wl.load_qflag()
    from qflag.report import run_suite
    golden = wl.load_golden()
    rep = run_suite(wl.WORKLOADS["tiny"].config(7))
    assert wl.gate(rep, "tiny", 7, golden)[1] == 0
    assert wl.gate(rep, "tiny", 8, golden)[1] == 2   # two cocycle names


def test_measured_record_must_match():
    wl.load_qflag()
    from qflag.report import run_suite
    rep = run_suite(wl.WORKLOADS["tiny"].config(1))
    rec = next(r for r in rep.records if r.status == "measured")
    rec.lhs = "s^4"
    attempted, failed, _ = wl.gate(rep, "tiny", 1, wl.load_golden())
    assert (attempted, failed) == (len(rep.records), 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "tiny", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
