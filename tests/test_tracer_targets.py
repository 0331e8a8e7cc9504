"""The benchmark's layer tracer (perfbench/tracer.py) patches qflag names
from outside the package.  A renamed or removed target makes
``Tracer.installed`` fail, so this test runs one small case under it and
checks that every patched name is back in place afterwards."""

import importlib.util
from pathlib import Path

from qflag import (_pure, cartan, classical, coord, flagproj, hochschild,
                   qscalar, report, repn)
from qflag.report import CaseConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

OWNERS = (_pure, cartan, classical, coord, flagproj, hochschild, qscalar,
          report, repn, coord.CoordAlgebra, _pure.FieldSpanBasis,
          _pure.FractionSpanBasis, qscalar.FixedField, qscalar.SymbolicField,
          qscalar.QScalar, classical.ClassicalKahler)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qflag_bench_tracer",
                                                  TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_patches_and_restores_its_targets():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        patched = [name for owner, names in zip(OWNERS, before)
                   for name, value in names.items()
                   if vars(owner).get(name) is not value]
        with tracer.traced("A1/case") as sec:
            rep = report.run_suite(CaseConfig("A", 1,
                                              only=("projection",)))
    assert rep.verdict == "pass"
    for name in ("run_suite", "span_basis", "tensor_zero_test", "insert",
                 "hw_module"):
        assert name in patched, name
    assert sec.calls["report.run_suite"] == 1 and sec.calls["lin.insert"]
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        for name, value in old.items():
            assert new[name] is value, (owner, name)


def test_every_traced_span_sees_the_suite_calls():
    """The benchmark's per-layer metrics read the call counts of the
    wrapped names.  A check that captured a wrapped function before the
    tracer patched it would bypass the wrapper and read zero without
    failing, so the full A1 symbolic suite must call every span the tracer
    installs at least once."""
    tracer = _load_tracer().Tracer()
    installed = []
    span = tracer.span

    def recording_span(name, layer, fn, hook=None):
        installed.append(name)
        return span(name, layer, fn, hook)
    tracer.span = recording_span
    with tracer.installed():
        with tracer.traced("A1/case") as sec:
            rep = report.run_suite(CaseConfig("A", 1))
    assert rep.verdict == "pass"
    for layer in ("report", "flagproj", "hochschild", "classical"):
        assert any(name.startswith(f"{layer}.") for name in installed)
    assert [name for name in installed if not sec.calls[name]] == []
