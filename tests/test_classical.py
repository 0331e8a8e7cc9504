"""Classical-limit checks: root vectors, adjoints, the origin Gram matrix,
and the first-order evaluation of the canonical cycle at q = 1.

Oracle notes.  The expected diagonal values (rho_S, gamma) are computed by
hand with the d-weighted form:
  A1, S = {}:    rho_S = w1, roots {a1}:            (w1, a1) = 1
  A2, S = {2}:   rho_S = w1, roots {a1, a1+a2}:     1, 1
  A2, S = {}:    rho_S = w1+w2, all three roots:    1, 1, 2
  B2, S = {1}:   rho_S = w2, d = (2, 1),
                 roots {a2, a1+a2, a1+2a2}:         1, 1, 2
The sl(3) bracket [E12, E23] = E13 and the sl(2) relation [e, f] = h give
hand values for the composite root vector and the [e, f] diagonal.
"""

from fractions import Fraction
from random import Random

import pytest

from qflag.classical import (ClassicalKahler, _commutator, _leg_derivative,
                             classical_context, hkr_matrix,
                             verify_classical_limit, verify_hkr,
                             verify_kahler_shape, verify_norm_lemma)
from qflag.flagproj import flag_context
from qflag.hochschild import idempotent_cycle
from qflag.qscalar import Rational, SymbolicField, classical_field

F = Fraction


@pytest.fixture(scope="module")
def a1():
    return ClassicalKahler(classical_context("A", 1, ()))


@pytest.fixture(scope="module")
def a2s2():
    return ClassicalKahler(classical_context("A", 2, (2,)))


@pytest.fixture(scope="module")
def a2full():
    return ClassicalKahler(classical_context("A", 2, ()))


@pytest.fixture(scope="module")
def b2s1():
    return ClassicalKahler(classical_context("B", 2, (1,)))


def test_requires_classical_field():
    ctx = flag_context("A", 1, (), SymbolicField())
    with pytest.raises(ValueError, match="q = 1"):
        ClassicalKahler(ctx)


def test_simple_root_vector_matches_module(a1):
    # V(w1) of sl(2): e is the elementary matrix E01 in the weight basis
    assert a1.e[(1,)] == [[F(0), F(1)], [F(0), F(0)]]
    assert a1.f[(1,)] == [[F(0), F(0)], [F(1), F(0)]]


def test_composite_root_vector_is_bracket(a2s2):
    # sl(3) on V(w1): [E12, E23] = E13
    E13 = [[F(0)] * 3 for _ in range(3)]
    E13[0][2] = F(1)
    assert a2s2.e[(1, 1)] == E13


def test_ef_commutator_diagonal_value(a1):
    # [e, f] = h = diag(1, -1) on the defining sl(2) module, so c = 1
    assert a1.c[(1,)] == 1


def test_nil_roots_enumeration(a2s2, b2s1):
    assert a2s2.nil_roots == [(1, 0), (1, 1)]
    assert b2s1.nil_roots == [(0, 1), (1, 1), (1, 2)]


@pytest.mark.parametrize("fix,diag", [
    ("a1", [F(1)]),
    ("a2s2", [F(1), F(1)]),
    ("a2full", [F(1), F(1), F(2)]),
    ("b2s1", [F(1), F(1), F(2)]),
])
def test_kahler_diagonal_goldens(fix, diag, request):
    kk = request.getfixturevalue(fix)
    ok, got, expected, _ = verify_kahler_shape(kk)
    assert ok
    assert got == diag == expected


@pytest.mark.parametrize("fix", ["a1", "a2s2", "a2full", "b2s1"])
def test_kahler_matrix_symmetric_positive(fix, request):
    kk = request.getfixturevalue(fix)
    roots, chat, c = kk.kahler_matrix()
    n = len(roots)
    for i in range(n):
        assert chat[i][i] > 0
        assert c[i] > 0
        for j in range(n):
            assert chat[i][j] == chat[j][i]
            if i != j:
                assert chat[i][j] == 0


@pytest.mark.parametrize("fix", ["a1", "a2s2", "a2full", "b2s1"])
def test_norm_lemma(fix, request):
    kk = request.getfixturevalue(fix)
    res = verify_norm_lemma(kk)
    assert set(res) == set(kk.nil_roots)
    for got, want in res.values():
        assert got == want


def test_norm_lemma_b2_long_root_value(b2s1):
    # c = 2 and (w2, a1+2a2) = 2, so both sides equal 4
    got, want = verify_norm_lemma(b2s1)[(1, 2)]
    assert got == want == F(4)


@pytest.mark.parametrize("fix", ["a1", "a2s2", "a2full", "b2s1"])
def test_hkr_equals_twice_gram(fix, request):
    kk = request.getfixturevalue(fix)
    ok, got, want = verify_hkr(kk)
    assert ok
    assert got == want


def test_hkr_hand_values(a2s2):
    assert hkr_matrix(a2s2) == [[F(2), F(0)], [F(0), F(2)]]


def test_checks_catch_tampering(b2s1):
    # scaling an adjoint breaks the norm lemma and the diagonal values
    kk = ClassicalKahler(classical_context("B", 2, (1,)))
    root = kk.nil_roots[0]
    kk.f[root] = [[2 * x for x in row] for row in kk.f[root]]
    ok, _, _, _ = verify_kahler_shape(kk)
    assert not ok
    got, want = verify_norm_lemma(kk)[root]
    assert got != want
    # the origin evaluation is scale-invariant but not shape-invariant:
    # replacing a root vector by its transpose breaks hkr = 2 chat
    kk = ClassicalKahler(classical_context("B", 2, (1,)))
    kk.e[root] = [list(r) for r in zip(*kk.e[root])]
    ok_hkr, _, _ = verify_hkr(kk)
    assert not ok_hkr
    # the module-scoped fixture stays untouched
    assert verify_kahler_shape(b2s1)[0]


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 1, (1,)),
    ("A", 2, (1, 0)),
    ("A", 2, (1, 1)),
    ("B", 2, (0, 1)),
])
def test_classical_limit_matches_symbolic(family, rank, lam):
    assert verify_classical_limit(family, rank, lam)


def test_all_positive_root_vectors_built(a2full, b2s1):
    for kk in (a2full, b2s1):
        for gamma in kk.ctx.rs.pos_roots:
            assert gamma in kk.e
            assert any(x for row in kk.e[gamma] for x in row)


# -- shared per-leg work against a term-by-term reference -------------------------


def _ref_hkr(kk):
    """hkr_matrix with every counit and leg derivative recomputed for every
    term and entry."""
    def neg(M):
        return [[-x for x in row] for row in M]

    xs = [(kk.f[a], neg(kk.e[a])) for a in kk.nil_roots]
    ys = [(kk.e[b], neg(kk.f[b])) for b in kk.nil_roots]
    out = [[F(0)] * len(xs) for _ in xs]
    for coeff, (a0, a1, a2) in idempotent_cycle(kk.ctx).terms:
        s = coeff * a0.counit()
        for i, X in enumerate(xs):
            for j, Y in enumerate(ys):
                out[i][j] += s * (
                    _leg_derivative(a1, *X) * _leg_derivative(a2, *Y)
                    - _leg_derivative(a1, *Y) * _leg_derivative(a2, *X))
    return out


@pytest.mark.parametrize("fix", ["a1", "a2s2", "b2s1"])
def test_hkr_matches_term_by_term_reference(fix, request):
    kk = request.getfixturevalue(fix)
    got = hkr_matrix(kk)
    assert got == _ref_hkr(kk)
    assert all(type(x) is Rational for row in got for x in row)
    _, chat, _ = kk.kahler_matrix()
    assert all(type(x) is Rational for row in chat for x in row)


def test_commutator_matches_dense_product():
    rng = Random(5)
    zero = classical_field().zero
    for n in (1, 2, 4):
        A, B = ([[Rational(rng.choice([0, 0, rng.randint(-3, 3)]),
                           rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)] for _ in range(2))
        want = [[sum((A[i][k] * B[k][j] - B[i][k] * A[k][j]
                      for k in range(n)), F(0)) for j in range(n)]
                for i in range(n)]
        got = _commutator(A, B, zero)
        assert got == want
        assert all(type(x) is Rational for row in got for x in row)
