"""Suite orchestration, report format, determinism, and the CLI."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qflag
from qflag.cli import main
from qflag.report import (PHASES, CaseConfig, CheckRecord, Report,
                          comparison_body, emit_report, root_label, run_suite)

GOLDEN = Path(__file__).parent / "golden"


# -- configuration validation -------------------------------------------------


def test_q_out_of_range():
    with pytest.raises(ValueError, match="between 0 and 1"):
        CaseConfig("A", 1, q_values=("2",))
    with pytest.raises(ValueError, match="between 0 and 1"):
        CaseConfig("A", 1, q_values=("1",))


def test_evaluated_mode_needs_a_q():
    with pytest.raises(ValueError, match="at least one"):
        CaseConfig("A", 1, q_values=())


def test_unknown_phase_rejected():
    with pytest.raises(ValueError, match="unknown phase"):
        CaseConfig("A", 1, only=("pairing", "nonsense"))


def test_empty_phase_list_rejected():
    """only=() would run no check and still report verdict pass."""
    with pytest.raises(ValueError, match="at least one phase"):
        CaseConfig("A", 1, only=())


def test_repeated_phase_rejected():
    with pytest.raises(ValueError, match="phases repeat: cartan, pairing, "
                                         "pairing"):
        CaseConfig("A", 1, only=("cartan", "pairing", "pairing"))


def test_phases_stored_in_run_order():
    """Two spellings of one phase set echo the same phases, in the order
    run_suite runs them."""
    a = CaseConfig("A", 1, only=("pairing", "cartan"))
    b = CaseConfig("A", 1, only=("cartan", "pairing"))
    assert a.only == b.only == ("cartan", "pairing")
    assert a.echo() == b.echo()
    assert json.dumps(comparison_body(run_suite(a).as_dict())) == \
        json.dumps(comparison_body(run_suite(b).as_dict()))


def test_subset_is_sorted_and_cap_positive():
    assert CaseConfig("B", 2, (2, 1)).subset == (1, 2)
    with pytest.raises(ValueError, match="cap"):
        CaseConfig("A", 1, cap=0)


def test_one_shot_subset_is_not_the_full_flag_case():
    assert CaseConfig("A", 2, subset=iter([2])).subset == (2,)
    assert CaseConfig("A", 2, subset=(i for i in [2])).subset == (2,)


def test_repeated_subset_index_rejected():
    with pytest.raises(ValueError, match="subset repeats: 2, 2"):
        CaseConfig("A", 2, (2, 2))


def test_family_is_upper_cased():
    """A lower-case family letter is the same case, not a second spelling
    echoed in the report."""
    a = CaseConfig("a", 1)
    assert a == CaseConfig("A", 1)
    assert a.echo()["family"] == "A"


@pytest.mark.parametrize("case,message", [
    (("A", 2, ("2",)), "subset indices must be integers, got '2'"),
    (("A", 2, (2.0,)), "subset indices must be integers, got 2.0"),
    (("A", 2, (True,)), "subset indices must be integers, got True"),
    (("A", 2, (5,)), r"subset \(5,\) out of range for A2"),
    (("Z", 1), "unsupported root system Z1"),
    (("A", 7), "rank 7 exceeds the supported cap of 4"),
    ((1, 1), "family must be a string, got 1"),
])
def test_unrunnable_case_rejected(case, message):
    """A case that run_suite cannot run, or would run under another name,
    is rejected when the config is made."""
    with pytest.raises(ValueError, match=message):
        CaseConfig(*case)


@pytest.mark.parametrize("kwargs,message", [
    ({"q_values": (0.1,)}, "q must be exact, got the float 0.1"),
    ({"rank": "2"}, "rank must be an integer, got '2'"),
    ({"rank": True}, "rank must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"cap": 2.5}, "cap must be an integer, got 2.5"),
    ({"cap": False}, "cap must be an integer, got False"),
    ({"q_values": "1/2"}, "q_values must be a tuple, not the string '1/2'"),
    ({"subset": "2"}, "subset must be a tuple, not the string '2'"),
    ({"only": "cycle"}, "only must be a tuple, not the string 'cycle'"),
])
def test_inexact_or_mistyped_values_rejected(kwargs, message):
    """A float q would run at its binary expansion, a rank, cap or seed
    that is not an int (a bool included) would fail later or leak into
    record names, and a bare string for q_values, subset or only would be
    read one character at a time."""
    with pytest.raises(ValueError, match=message):
        CaseConfig(**{"family": "A", "rank": 2, **kwargs})


def test_fields_one_per_q_value():
    assert [tag for tag, _ in CaseConfig("A", 1).fields()] == ["symbolic"]
    fields = CaseConfig("A", 1, q_values=("1/2", "2/3")).fields()
    assert [(tag, f.q0) for tag, f in fields] == [
        ("1/2", Fraction(1, 2)), ("2/3", Fraction(2, 3))]


def test_normalized_configs_are_equal_hashable_values():
    """Spellings that normalize alike are one value: equal, with one hash,
    the same repr, and refused assignment or deletion.  A copy or a pickle
    round trip gives the same value."""
    a = CaseConfig("a", 2, [2], ["1/2"], only=["cycle"])
    b = CaseConfig("A", 2, (2,), (Fraction(1, 2),), only=("cycle",))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != CaseConfig("A", 2, (2,), ("2/3",), only=("cycle",))
    assert a != ("A", 2)
    assert repr(a) == repr(b) == (
        "CaseConfig(family='A', rank=2, subset=(2,), "
        "q_values=(Fraction(1, 2),), cap=6000, seed=1, only=('cycle',))")
    with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
        a.seed = 2
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'cap'"):
        del a.cap
    assert a.seed == 1 and a.cap == 6000
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a


def test_check_record_defaults_and_report_records():
    """A CheckRecord's optional fields default to empty values, and every
    Report gets its own records list."""
    rec = CheckRecord("x", "-", "pass")
    assert (rec.lhs, rec.rhs, rec.cert_sizes, rec.seconds, rec.note) == (
        "", "", (), 0.0, "")
    assert rec == CheckRecord("x", "-", "pass", "", "", (), 0.0, "")
    assert rec != CheckRecord("x", "-", "pass", note="n")
    assert repr(rec) == ("CheckRecord(name='x', q='-', status='pass', "
                         "lhs='', rhs='', cert_sizes=(), seconds=0.0, "
                         "note='')")
    r1, r2 = Report({}), Report({})
    assert r1.records == [] and r1.records is not r2.records
    r1.records.append(rec)
    assert r2.records == [] and r1 != r2
    assert repr(r2) == "Report(case={}, records=[])"


def test_import_loads_no_dataclasses_or_json():
    """Importing qflag.report, as each fresh process does, loads neither
    dataclasses (with inspect behind it) nor json."""
    src = str(Path(qflag.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import qflag.report; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_root_label():
    assert root_label((1,)) == "a1"
    assert root_label((1, 2)) == "a1+2a2"
    assert root_label((0, 1)) == "a2"
    assert root_label((0, 0)) == "0"


# -- suite behaviour ----------------------------------------------------------


@pytest.fixture(scope="module")
def a1_report():
    return run_suite(CaseConfig("A", 1))


def test_a1_suite_passes(a1_report):
    assert a1_report.verdict == "pass"
    statuses = {r.status for r in a1_report.records}
    assert statuses == {"pass", "measured"}


def test_a1_record_names_in_order(a1_report):
    assert [r.name for r in a1_report.records] == [
        "cartan.build", "repn.build",
        "projection.idempotent", "projection.selfadjoint",
        "projection.qtrace",
        "invariance.K1",
        "matrixunits.product", "matrixunits.star", "matrixunits.trace",
        "cycle.normalized", "cycle.unnormalized.residual",
        "pairing.1",
        "cocycle.1.1", "cocycle.1.2",
        "kahler.build", "normlemma.a1", "kahler.diag.a1",
        "kahler.offdiag", "hkr.match",
    ]


def test_certificate_sizes_recorded(a1_report):
    rec = {r.name: r for r in a1_report.records}
    # one zero test of U[0,0]: (dim U+v, dim (U-)^T f) = (2, 1)
    assert rec["projection.idempotent"].cert_sizes == (2, 1)
    assert rec["cycle.normalized"].cert_sizes


def test_measured_record_never_fails_verdict():
    rep = Report({}, [CheckRecord("x", "-", "measured", "a", "b"),
                      CheckRecord("y", "-", "pass")])
    assert rep.verdict == "pass"
    rep.records.append(CheckRecord("z", "-", "fail"))
    assert rep.verdict == "fail"


def test_evaluated_mode_repeats_per_q():
    rep = run_suite(CaseConfig("A", 1, q_values=("1/2", "2/3"),
                               only=("pairing",)))
    assert [(r.name, r.q) for r in rep.records] == [
        ("pairing.1", "1/2"), ("pairing.1", "2/3")]
    assert rep.verdict == "pass"


def test_failed_context_build_does_not_abort_suite(monkeypatch, a1_report):
    """A context build that raises fails every check of its q value, under
    the names a passing suite records, and the later q values and the
    kahler phase still run."""
    def broken(*args):
        raise RuntimeError("no context")
    monkeypatch.setattr("qflag.report.flag_context", broken)
    rep = run_suite(CaseConfig("A", 1, q_values=("1/2", "2/3")))
    per_q = [(r.name, r.q, r.status, r.note) for r in rep.records
             if r.q not in ("-", "classical")]
    names = [r.name for r in a1_report.records if r.q == "symbolic"]
    assert per_q == [(name, q, "fail", "RuntimeError: no context")
                     for q in ("1/2", "2/3") for name in names]
    kahler = [r for r in rep.records if r.q == "classical"]
    assert len(kahler) == 5 and {r.status for r in kahler} == {"pass"}
    assert rep.verdict == "fail"


def test_determinism_byte_identical():
    cfg = CaseConfig("A", 1, q_values=("1/2",), seed=7)
    a = comparison_body(run_suite(cfg).as_dict())
    b = comparison_body(run_suite(cfg).as_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_isolated_phase_reproduces_suite_result(a1_report):
    solo = run_suite(CaseConfig("A", 1, only=("pairing",)))
    solo_rec = [r for r in solo.records if r.name.startswith("pairing")]
    full_rec = [r for r in a1_report.records if r.name.startswith("pairing")]
    assert [(r.name, r.q, r.status, r.lhs, r.rhs) for r in solo_rec] == \
        [(r.name, r.q, r.status, r.lhs, r.rhs) for r in full_rec]


def test_cap_overrun_downgrades_to_skipped():
    # P^2 = P needs closures of the module's dimension 2 only (U[0,0]), and
    # so does the cycle, certified from U[0,0] and the trace law; the
    # product law's U[0,1] needs 3
    rep = run_suite(CaseConfig("A", 1, cap=2,
                               only=("projection", "matrixunits", "cycle")))
    by_name = {r.name: r for r in rep.records}
    assert by_name["projection.idempotent"].status == "pass"
    assert by_name["matrixunits.product"].status == "skipped"
    assert "cap" in by_name["matrixunits.product"].note
    assert by_name["cycle.normalized"].status == "pass"
    # skipped checks do not fail the verdict
    assert rep.verdict == "pass"


def test_cap_bounds_the_module_build():
    """The cap also bounds the defining module: A2 S={} needs dimension 8,
    so a cap of 7 skips repn.build here and every kahler check at q = 1."""
    rep = run_suite(CaseConfig("A", 2, (), q_values=("1/2",), cap=7,
                               only=("repn", "kahler")))
    assert [r.name for r in rep.records] == [
        "repn.build", "kahler.build",
        "normlemma.a2", "normlemma.a1", "normlemma.a1+a2",
        "kahler.diag.a2", "kahler.diag.a1", "kahler.diag.a1+a2",
        "kahler.offdiag", "hkr.match"]
    for rec in rep.records:
        assert rec.status == "skipped"
        assert "dim V((1, 1)) = 8 exceeds the cap 7" in rec.note
    assert rep.verdict == "pass"


def test_every_named_check_is_recorded(capsys):
    """A cap overrun never drops a check from the report: the names are
    those of a run that builds everything, the overrun ones are skipped,
    and the summary counts every one of them."""
    phases = tuple(p for p in PHASES if p != "matrixunits")
    full = run_suite(CaseConfig("A", 2, (), q_values=("1/2",), only=phases))
    rep = run_suite(CaseConfig("A", 2, (), q_values=("1/2",), cap=7,
                               only=phases))
    assert [r.name for r in rep.records] == [r.name for r in full.records]
    assert len(rep.records) == 24
    assert [r.name for r in rep.records if r.status != "skipped"] == [
        "cartan.build"]
    assert emit_report(rep) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:-1] == ["skipped: 23", "warning: 23 check(s) skipped, "
                          "not verified; see the notes above"]
    assert out[-1] == "verdict: pass"
    assert main(["verify", "--type", "C", "--rank", "4", "--q", "1/2",
                 "--cap", "100"]) == 0
    assert "skipped: 60" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("cap,trace_status", [(2, "skipped"), (3, "pass")])
def test_matrix_unit_laws_are_recorded_independently(cap, trace_status):
    # the star law needs no closure; the product law (U[0,1]) and the
    # trace law (its (0,1) entry) each need closures of dimension 3
    rep = run_suite(CaseConfig("A", 1, cap=cap, only=("matrixunits",)))
    by_name = {r.name: r for r in rep.records}
    assert by_name["matrixunits.star"].status == "pass"
    for name in ("matrixunits.product", "matrixunits.trace"):
        rec = by_name[name]
        assert rec.status == trace_status
        assert ("cap" in rec.note) == (trace_status == "skipped")
    assert rep.verdict == "pass"


def test_kahler_phase_runs_once_even_when_evaluated():
    rep = run_suite(CaseConfig("A", 1, q_values=("1/2", "2/3"),
                               only=("kahler",)))
    names = [r.name for r in rep.records]
    assert names.count("hkr.match") == 1
    assert all(r.q == "classical" for r in rep.records)


@pytest.mark.parametrize("family,rank,subset", [("B", 2, (1,)),
                                                ("A", 3, (2, 3))])
def test_symbolic_suite_passes_beyond_a1_a2(family, rank, subset):
    rep = run_suite(CaseConfig(family, rank, subset))
    assert rep.verdict == "pass"
    assert [r.name for r in rep.records if r.status == "skipped"] == []


@pytest.mark.parametrize("family,rank,subset,q_values", [
    ("A", 1, (1,), None),
    ("A", 2, (1, 2), ("1/2",)),
], ids=["A1-S1-symbolic", "A2-S12-q12"])
def test_point_case_passes(family, rank, subset, q_values):
    """S = every simple root: rho_S = 0, the module is trivial and the
    classical block has no roots."""
    rep = run_suite(CaseConfig(family, rank, subset, q_values=q_values))
    assert rep.verdict == "pass"
    assert [r.name for r in rep.records if r.status == "skipped"] == []
    build = [r for r in rep.records if r.name == "kahler.build"]
    assert [(r.status, r.lhs) for r in build] == [
        ("pass", "0 non-levi roots")]


@pytest.mark.parametrize("family,rank,subset,dim", [
    ("B", 4, (1, 2, 3), 16), ("F", 4, (1, 2, 3), 26)])
def test_matrix_units_certified_at_every_index_past_dim_14(family, rank,
                                                          subset, dim):
    """At the default cap every matrix-unit law passes on every index of a
    dimension-16 and a dimension-26 module, with nothing skipped: the dim^6
    product identities through the dim^2 unitarity sums U[a,d]."""
    rep = run_suite(CaseConfig(family, rank, subset, q_values=("1/2",),
                               only=("matrixunits",)))
    by_name = {r.name: r for r in rep.records}
    assert [r.status for r in rep.records] == ["pass"] * 3
    assert by_name["matrixunits.product"].lhs == \
        f"{dim ** 6} differences zero"
    assert by_name["matrixunits.trace"].lhs == f"{dim ** 2} differences zero"


@pytest.mark.parametrize("family,rank,subset,dim", [
    ("B", 3, (1, 3), 21), ("F", 4, (1, 2, 3), 26)])
def test_cycle_certified_past_dim_20(family, rank, subset, dim):
    """The cycle passes at the default cap with nothing skipped on
    dimension-21 and dimension-26 modules, certified by the 1-leg tests of
    U[0,0] and of the trace law, each (dim, 1); the residual is the trace
    weight q^(2rho, rho_S) at q = 1/2, q^16 and q^22."""
    residual = {21: "1/65536", 26: "1/4194304"}[dim]
    rep = run_suite(CaseConfig(family, rank, subset, q_values=("1/2",),
                               only=("cycle",)))
    assert [(r.name, r.status) for r in rep.records] == [
        ("cycle.normalized", "pass"),
        ("cycle.unnormalized.residual", "measured")]
    assert rep.records[0].cert_sizes == (dim, 1, dim, 1)
    assert (rep.records[1].lhs, rep.records[1].rhs) == (residual, residual)


# -- golden regression ---------------------------------------------------------


@pytest.mark.parametrize("name,cfg", [
    ("a1_symbolic", CaseConfig("A", 1)),
    ("a2_s2_q12", CaseConfig("A", 2, (2,), q_values=("1/2",))),
    ("a2_s2_symbolic", CaseConfig("A", 2, (2,))),
    ("g2_s2_q12", CaseConfig("G", 2, (2,), q_values=("1/2",))),
])
def test_golden_report(name, cfg):
    got = comparison_body(run_suite(cfg).as_dict())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got == want


# -- emit_report ----------------------------------------------------------------


def test_emit_writes_file_and_exits_zero(tmp_path, capsys):
    rep = run_suite(CaseConfig("A", 1, only=("pairing",)))
    out = tmp_path / "r.json"
    assert emit_report(rep, str(out)) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "pass"
    assert "verdict: pass" in capsys.readouterr().out


def test_emit_counts_and_warns_on_skipped_checks(capsys):
    rep = run_suite(CaseConfig("A", 1, cap=2,
                               only=("projection", "matrixunits", "cycle")))
    skipped = sum(r.status == "skipped" for r in rep.records)
    assert skipped >= 2
    assert [r.status for r in rep.records
            if r.name == "cycle.normalized"] == ["pass"]
    assert emit_report(rep, None) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"skipped: {skipped}" in lines
    warning = [ln for ln in lines if ln.startswith("warning:")]
    assert len(warning) == 1 and str(skipped) in warning[0]
    assert lines[-1] == "verdict: pass"


def test_emit_states_zero_skipped_without_warning(capsys):
    rep = run_suite(CaseConfig("A", 1, only=("pairing",)))
    assert emit_report(rep, None) == 0
    out = capsys.readouterr().out
    assert "skipped: 0" in out.splitlines()
    assert "warning" not in out


def test_emit_exit_one_on_failure(capsys):
    rep = Report({"family": "A", "rank": 1, "subset": [], "q": "symbolic"},
                 [CheckRecord("x", "-", "fail", note="boom")])
    assert emit_report(rep, None) == 1
    assert "FAIL" in capsys.readouterr().out


def test_emit_exit_two_on_io_error(tmp_path, capsys):
    rep = Report({"family": "A", "rank": 1, "subset": [], "q": "symbolic"},
                 [CheckRecord("x", "-", "pass")])
    bad = tmp_path / "no" / "such" / "dir" / "r.json"
    assert emit_report(rep, str(bad)) == 2


# -- CLI -------------------------------------------------------------------------


def test_cli_roots(capsys):
    assert main(["roots", "--type", "B", "--rank", "2", "--subset", "1"]) == 0
    out = capsys.readouterr().out
    assert "B2" in out and "a1+2a2" in out


def test_cli_rep(capsys):
    assert main(["rep", "--type", "A", "--rank", "1", "--q", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "dim 2" in out


def test_cli_rep_cap_exits_two(capsys):
    assert main(["rep", "--type", "A", "--rank", "2", "--subset", "",
                 "--q", "1/2", "--cap", "7"]) == 2
    captured = capsys.readouterr()
    assert "error: dim V((1, 1)) = 8 exceeds the cap 7" in captured.err
    assert "basis" not in captured.out


def test_cli_rep_prints_one_module_per_q(capsys):
    assert main(["rep", "--type", "A", "--rank", "1", "--q", "1/2,2/3"]) == 0
    out = capsys.readouterr().out
    assert "(q = 1/2)" in out and "(q = 2/3)" in out
    assert "norm 1/2" in out and "norm 2/3" in out


def test_cli_pairing_exit_zero(capsys):
    assert main(["pairing", "--type", "A", "--rank", "2", "--subset", "2",
                 "--q", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "pairing.1" in out and "1/2" in out


def test_cli_bad_q_exits_two(capsys):
    assert main(["verify", "--type", "A", "--rank", "1", "--q", "2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("qs", ["1/2,1/2", "1/2,0.5"])
def test_cli_repeated_q_exits_two(capsys, qs):
    """Equal q values, however spelled, are a configuration error rather
    than a second run of every fixed-q phase."""
    assert main(["pairing", "--type", "A", "--rank", "2", "--subset", "2",
                 "--q", qs]) == 2
    captured = capsys.readouterr()
    assert "q values repeat" in captured.err
    assert "pairing.1" not in captured.out


def test_cli_repeated_subset_exits_two(capsys):
    """A repeated subset index is a configuration error, not a second
    spelling of the same case with a different report body."""
    assert main(["pairing", "--type", "A", "--rank", "2", "--subset", "2,2",
                 "--q", "1/2"]) == 2
    captured = capsys.readouterr()
    assert "subset repeats: 2, 2" in captured.err
    assert "pairing.1" not in captured.out


def test_cli_missing_case_exits_two(capsys):
    assert main(["verify"]) == 2
    assert "required" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(
        {"type": "A", "rank": 1, "q": "symbolic"}))
    assert main(["kahler", "--config", str(cfg)]) == 0
    assert "hkr.match" in capsys.readouterr().out


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 2, "subset": "2",
                               "q": "1/2"}))
    assert main(["pairing", "--config", str(cfg), "--q", "2/3"]) == 0
    out = capsys.readouterr().out
    assert "2/3" in out and "[1/2]" not in out


def test_cli_empty_subset_overrides_config(tmp_path, capsys):
    """An explicit empty --subset is the full flag case, not an unset flag
    that the config file fills in."""
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 2, "subset": [2]}))
    assert main(["roots", "--subset", "", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "levi: -" in out and "levi: a2" not in out


def test_cli_empty_q_overrides_config(tmp_path, capsys):
    """An explicit empty --q is symbolic, not an unset flag that the
    config file fills in."""
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 1, "q": "1/2"}))
    assert main(["rep", "--q", "", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "(q = symbolic)" in out and "(q = 1/2)" not in out


@pytest.mark.parametrize("data,message", [
    ({"out": None}, "config key 'out' must be a string, got null"),
    ({"out": 5}, "config key 'out' must be a string, got 5"),
    ({"type": ["A"]}, "config key 'type' must be a string, got [\"A\"]"),
    ({"q": True}, "config key 'q' must be a string, a number or an array"),
    ({"subset": {"a": 1}}, "config key 'subset' must be a string, a number"),
], ids=["null-out", "number-out", "array-type", "bool-q", "object-subset"])
def test_cli_config_value_of_wrong_json_type(tmp_path, monkeypatch, capsys,
                                             data, message):
    """A config value is never stringified into a file name or a family:
    {"out": null} must not write the report to a file named None."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 1, **data}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json"]


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 1, "frobs": 3}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("data,message", [
    (5, "must hold a JSON object"),
    ([1, 2], "must hold a JSON object"),
    ({"type": "A", "rank": 2.5}, "'rank' must be an integer"),
    ({"type": "A", "rank": True}, "'rank' must be an integer"),
    ({"type": "A", "rank": 1, "cap": 100.0}, "'cap' must be an integer"),
    ({"type": "A", "rank": 1, "seed": False}, "'seed' must be an integer"),
], ids=["number", "array", "float-rank", "bool-rank", "float-cap",
        "bool-seed"])
def test_cli_bad_config_exits_two(tmp_path, capsys, data, message):
    """A configuration error exits 2 with a message, never a traceback or
    a silently truncated value."""
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(data))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "unknown config key" not in err


def test_cli_config_subset_array(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 3, "subset": [3, 1],
                               "q": "1/2"}))
    assert main(["roots", "--config", str(cfg)]) == 0
    assert "weight of the projection module: [0, 1, 0]" in \
        capsys.readouterr().out


def test_cli_config_repeated_subset_exits_two(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 2, "subset": [2, 2],
                               "q": "1/2"}))
    assert main(["pairing", "--config", str(cfg)]) == 2
    assert "subset repeats: 2, 2" in capsys.readouterr().err


def test_cli_config_q_array(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 2, "subset": [2],
                               "q": ["1/2", "2/3"]}))
    assert main(["pairing", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "[1/2]" in out and "[2/3]" in out


def test_cli_report_writes_default_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--type", "A", "--rank", "1",
                 "--q", "1/2"]) == 0
    assert os.path.exists("qflag_report.json")
    data = json.loads(Path("qflag_report.json").read_text())
    assert data["verdict"] == "pass"
    assert any(r["name"] == "cycle.normalized" for r in data["records"])
