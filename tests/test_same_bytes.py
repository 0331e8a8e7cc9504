"""tools/same_bytes.py: the item list and the digest comparison, on
made-up digests."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
sb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sb)


def test_items_cover_every_suite_and_field_once():
    labels = [label for label, _, _ in sb.items()]
    assert len(labels) == len(set(labels))
    assert sum(kind == "suite" for _, kind, _ in sb.items()) == 17
    assert "suite A2 S={2} q=symbolic cap=9" in labels
    assert "suite F4 S={1,2,3} q=1/2 only=matrixunits" in labels
    assert "suite C3 S={1,2} q=1/2 only=projection,invariance" in labels
    assert "suite A2 S={2} q=2/3,3/5" in labels
    assert "suite B3 S={1,3} q=1/2 only=cycle" in labels
    assert "suite F4 S={1,2,3} q=1/2 only=cycle" in labels
    assert "module G2 10 q=symbolic" in labels
    assert "module A3 101 q=1/2" in labels
    assert "module A3 101 q=symbolic" in labels  # rank 3, |lam| = 2
    assert sum(kind == "module" for _, kind, _ in sb.items()) == 104


def test_compare_passes_only_equal_digests_on_both_sides():
    labels = ["a", "b"]
    lines, ok = sb.compare(labels, {"a": "11", "b": "22"},
                           {"a": "11", "b": "22"})
    assert ok
    assert lines == ["same a: parent 11 change 11",
                     "same b: parent 22 change 22"]
    lines, ok = sb.compare(labels, {"a": "11", "b": "22"},
                           {"a": "11", "b": "23"})
    assert not ok
    assert lines[1] == "DIFFERENT b: parent 22 change 23"


def test_compare_fails_on_missing_items_and_errors():
    err = "error ValueError: boom"
    _, ok = sb.compare(["a"], {"a": "11"}, {})
    assert not ok
    lines, ok = sb.compare(["a"], {"a": err}, {"a": err})
    assert not ok
    assert lines == [f"DIFFERENT a: parent {err} change {err}"]


def test_differences_name_fields_and_records():
    def rec(name, q="symbolic", **kw):
        return {"name": name, "q": q, "status": "pass", "lhs": "",
                "cert_sizes": [], **kw}

    parent = {"case": {"rank": 1}, "verdict": "pass",
              "records": [rec("a"), rec("b", cert_sizes=[1, 2]), rec("c")]}
    assert sb.differences(parent, parent) == []
    change = {"case": {"rank": 1}, "verdict": "fail",
              "records": [rec("a"), rec("b", cert_sizes=[3], lhs="x"),
                          rec("d", q="1/2")]}
    assert sb.differences(parent, change) == [
        "  verdict",
        "  b [symbolic]: lhs, cert_sizes",
        "  c [symbolic]: only in parent",
        "  d [1/2]: only in change"]
    swapped = dict(parent, records=parent["records"][::-1])
    assert sb.differences(parent, swapped) == ["  record order"]
