"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with -v to get one PASSED/FAILED line per criterion.  Scalar modes:
criterion 1 uses the symbolic field for the rank-one case and the exact
rationals 1/2, 2/3, 3/5 elsewhere; the law criteria (3, 4) run the two
small cases symbolically and the two large ones at exact q = 1/2.
Nothing here is approximate: every comparison is == on exact scalars.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qflag
from qflag import hochschild as hh
from qflag.classical import (ClassicalKahler, classical_context, verify_hkr,
                             verify_kahler_shape, verify_norm_lemma)
from qflag.coord import ZeroCertificate
from qflag.flagproj import (flag_context, levi_generators, verify_idempotent,
                            verify_levi_invariance, verify_matrix_units,
                            verify_qtrace, verify_selfadjoint)
from qflag.qscalar import FixedField, SymbolicField

QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))
CASES = (("A", 1, ()), ("A", 2, (2,)), ("A", 2, ()), ("B", 2, (1,)))
TIME_LIMITS = {("A", 1): 5.0, ("A", 2): 300.0, ("B", 2): 600.0}


def _law_contexts():
    """The configured cases with the gate's scalar-mode policy."""
    return [
        flag_context("A", 1, (), SymbolicField()),
        flag_context("A", 2, (2,), SymbolicField()),
        flag_context("A", 2, (), FixedField(Fraction(1, 2))),
        flag_context("B", 2, (1,), FixedField(Fraction(1, 2))),
    ]


@pytest.fixture(scope="module")
def law_ctxs():
    return _law_contexts()


def test_criterion_1_pairing_formula_per_case_and_root():
    """Computed pairing equals the closed formula for every simple root,
    symbolically for the rank-one case and at q = 1/2, 2/3, 3/5 for the
    rest, inside the stated time limits."""
    for family, rank, subset in CASES:
        t0 = time.perf_counter()
        fields = [SymbolicField()] if (family, rank) == ("A", 1) \
            else [FixedField(q) for q in QS]
        for field in fields:
            ctx = flag_context(family, rank, subset, field)
            for a in range(1, rank + 1):
                got, want = hh.verify_pairing(ctx, a)
                assert got == want, \
                    f"{family}{rank} S={subset} a={a}: {got} != {want}"
        elapsed = time.perf_counter() - t0
        assert elapsed < TIME_LIMITS[(family, rank)], \
            f"{family}{rank}: {elapsed:.1f}s over budget"


def test_criterion_2_pairing_nonzero_off_levi_zero_on_levi():
    """The pairing is nonzero exactly for the simple roots outside the
    marked set, in every configured case."""
    for family, rank, subset in CASES:
        fields = [SymbolicField()] if (family, rank) == ("A", 1) \
            else [FixedField(q) for q in QS]
        for field in fields:
            ctx = flag_context(family, rank, subset, field)
            for a in range(1, rank + 1):
                got, _ = hh.verify_pairing(ctx, a)
                if a in subset:
                    assert not got, f"{family}{rank} a={a}: expected zero"
                else:
                    assert got, f"{family}{rank} a={a}: expected nonzero"


def test_criterion_3_cycle_condition_with_negative_control(law_ctxs):
    """normalize(b_twisted(C(P))) passes the zero test with a recorded
    certificate in every configured case; the identity-twist control
    fails, with a witness and within the default cap, for the rank-one
    case and at scale (A2 S={} and G2 S={2}) at q = 1/2."""
    for ctx in law_ctxs:
        cert, _, _ = hh.verify_cycle(ctx)
        assert isinstance(cert, ZeroCertificate)
        assert cert.zero, f"{ctx.rs.name} S={ctx.S}: boundary not zero"
        assert cert.closure_dims or cert.groups == 0
    half = FixedField(Fraction(1, 2))
    for args in (("A", 1, ()), ("A", 2, ()), ("G", 2, (2,))):
        control = hh.identity_twist_control(flag_context(*args, half))
        assert not control.zero, f"{args}: identity twist gave a cycle"
        assert control.witness is not None


def test_criterion_4_projection_laws_and_levi_invariance(law_ctxs):
    """P^2 = P entrywise, P* = P, Tr_q(P) = q^(2 rho, rho_S), and every
    invariance generator acts by the counit, in every configured case."""
    for ctx in law_ctxs:
        tag = f"{ctx.rs.name} S={ctx.S}"
        assert verify_idempotent(ctx).zero, f"{tag}: P^2 != P"
        assert verify_selfadjoint(ctx), f"{tag}: P* != P"
        assert verify_qtrace(ctx).zero, f"{tag}: quantum trace off"
        inv = verify_levi_invariance(ctx)
        assert set(inv) == set(levi_generators(ctx.rs, ctx.S))
        assert all(inv.values()), f"{tag}: invariance broken"


def test_criterion_5_matrix_unit_laws():
    """All three matrix-unit identities at every index, for the rank-one
    and the rank-two defining module: the product law through its dim^2
    unitarity sums U[a,d], the trace law at all dim^2 pairs."""
    for args in [("A", 1, ()), ("A", 2, (2,))]:
        ctx = flag_context(*args, SymbolicField())
        res = verify_matrix_units(ctx)
        assert len(res["product"]) == len(res["trace"]) == ctx.dim ** 2
        assert all(c.zero for c in res["product"].values())
        assert res["star"]
        assert all(c.zero for c in res["trace"].values())


def test_criterion_6_modular_property_all_64_pairs():
    """h(x y) = h(y theta(x)) for all ordered pairs from the 8 elements
    {matrix coefficients of the rank-one defining module} union {their
    stars}, symbolically."""
    ctx = flag_context("A", 1, (), SymbolicField())
    alg = ctx.alg
    pool = []
    for i in range(2):
        for j in range(2):
            mc = alg.mc(i, j)
            pool.append(mc)
            pool.append(mc.star())
    assert len(pool) == 8
    checked = 0
    for x in pool:
        for y in pool:
            lhs = alg.haar(x * y)
            rhs = alg.haar(y * x.theta())
            assert lhs == rhs, f"pair {checked}: {lhs} != {rhs}"
            checked += 1
    assert checked == 64


def test_criterion_7_classical_kahler_matrix():
    """Off-diagonal zero; diagonal ratios exactly (1), (1, 1), (1, 1, 2),
    (1, 1, 2); every diagonal entry positive."""
    expected = {
        ("A", 1, ()): [1],
        ("A", 2, (2,)): [1, 1],
        ("A", 2, ()): [1, 1, 2],
        ("B", 2, (1,)): [1, 1, 2],
    }
    for (family, rank, subset), want in expected.items():
        kk = ClassicalKahler(classical_context(family, rank, subset))
        ok, diag, _, _ = verify_kahler_shape(kk)
        assert ok, f"{family}{rank} S={subset}: shape broken"
        assert diag == [Fraction(v) for v in want]
        for got, expect in verify_norm_lemma(kk).values():
            assert got == expect
        _, chat, _ = kk.kahler_matrix()
        assert all(chat[i][i] > 0 for i in range(len(want)))


def test_criterion_8_classical_limit_matches_origin_form():
    """The first-order origin evaluation of the q = 1 cycle equals twice
    the Gram matrix, exactly, for the two stated cases."""
    for family, rank, subset in (("A", 1, ()), ("A", 2, (2,))):
        kk = ClassicalKahler(classical_context(family, rank, subset))
        ok, got, want = verify_hkr(kk)
        assert ok, f"{family}{rank}: {got} != {want}"


def _collected(session):
    """The session's items as "<absolute posix path>::<name>" ids, which
    do not depend on the session's rootdir."""
    return {"::".join([Path(item.path).resolve().as_posix(),
                       *item.nodeid.split("::")[1:]])
            for item in session.items}


def test_criterion_9_property_suites_rerun_clean(request):
    """The five randomized property suites (>= 100 instances each) pass
    with zero failures: field axioms, defining relations, boundary
    squares to zero, normalize idempotence, twist double-implementation
    agreement.  A suite this session collected is run, and reported, by
    the session itself; the rest run here in a child pytest."""
    root = Path(__file__).resolve().parent.parent
    collected = _collected(request.session)

    def in_session(node):
        node = f"{root.as_posix()}/{node}"
        return any(c == node or c.startswith((node + "::", node + "["))
                   for c in collected)

    nodes = [node for node in (
        "tests/test_qscalar.py::TestFieldLaws",
        "tests/test_repn.py::test_relations_randomized",
        "tests/test_hochschild.py::test_boundary_squares_to_zero",
        "tests/test_hochschild.py::test_normalize_idempotent",
        "tests/test_coord.py::test_theta_two_implementations_agree",
    ) if not in_session(node)]
    if not nodes:
        return
    # The child must test the qflag this process imported.  An inherited
    # relative PYTHONPATH (such as "src") would not survive the change of
    # working directory, so put the package's parent directory first.
    pkg_parent = str(Path(qflag.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_parent, inherited] if inherited else [pkg_parent]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *nodes],
        cwd=root, env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, \
        f"property suites failed:\n{proc.stdout}\n{proc.stderr}"
    assert "failed" not in proc.stdout
