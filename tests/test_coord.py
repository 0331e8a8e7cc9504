"""Coordinate-algebra layer: products, star, twist, invariant integral,
exact zero testing.

Oracle values used here were computed by hand:

* A1, V(omega_1), orthogonal basis norms (1, q): the invariant vector of
  V (x) Vbar is x = q e_0(x)ebar_0 + e_1(x)ebar_1, and every phat[i,j] has
  vector leg e_0(x)ebar_0, which projects to q/(1+q^2) x.  Pairing with the
  functional leg (i,j) gives h(phat[0,0]) = q^2/(1+q^2), h(phat[1,1]) =
  q/(1+q^2), off-diagonal 0; the weighted partition law
  q N_0 h(phat[0,0]) + q^-1 N_1 h(phat[1,1]) = q checks out.
* The weighted completeness law sum_k N_k phat[i,k] phat[k,j] = phat[i,j]
  and the weighted partition law sum_i q^(2rho, lam_i) N_i phat[i,i] =
  q^(2rho, rho_S) 1 follow from pairing a dual basis against an orthogonal
  basis; both are exercised as zero tests below.
"""

import gc
import itertools
import re
import weakref
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qflag import cartan
from qflag import flagproj as fp
from qflag.coord import (DEFAULT_CAP, CoordAlgebra, CoordElem,
                         ZeroCertificate, _Radix)
from qflag.qscalar import FixedField, QScalar, SymbolicField, classical_field
from qflag.repn import CapExceeded, hw_module

Q = __import__("fractions").Fraction


def make(family, rank, lam, field=None, cap=DEFAULT_CAP):
    field = field or SymbolicField()
    rs = cartan.root_system(family, rank)
    return CoordAlgebra(hw_module(rs, lam, field), cap)


@pytest.fixture(scope="module")
def a1():
    return make("A", 1, (1,))


@pytest.fixture(scope="module")
def a2():
    return make("A", 2, (1, 0))


def phat(alg, i, j):
    return alg.mc(i, 0) * alg.mc(j, 0, barred=True)


# -- counit ------------------------------------------------------------------


def test_counit_matrix_coefficients(a1):
    alg = a1
    for i in range(2):
        for j in range(2):
            want = alg.field.one if i == j else alg.field.zero
            assert alg.mc(i, j).counit() == want
            assert alg.mc(i, j, barred=True).counit() == want


def test_counit_is_multiplicative(a2):
    alg = a2
    xs = [alg.mc(0, 0), alg.mc(1, 1, barred=True),
          alg.mc(0, 1), alg.unit()]
    for x in xs:
        for y in xs:
            assert (x * y).counit() == x.counit() * y.counit()


def test_counit_of_unit(a1):
    alg = a1
    assert alg.unit().counit() == alg.field.one


# -- ring structure -----------------------------------------------------------


def test_unit_is_neutral(a1):
    alg = a1
    x = alg.mc(0, 1) * alg.mc(1, 1, barred=True)
    assert (alg.unit() * x).canonical() == x.canonical()
    assert (x * alg.unit()).canonical() == x.canonical()


def test_product_associativity_syntactic(a2):
    alg = a2
    x, y, z = alg.mc(0, 1), alg.mc(1, 2, barred=True), alg.mc(2, 0)
    assert ((x * y) * z).canonical() == (x * (y * z)).canonical()


def test_distributivity_and_scaling(a1):
    alg = a1
    F = alg.field
    x, y, z = alg.mc(0, 0), alg.mc(0, 1), alg.mc(1, 1)
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert lhs.canonical() == rhs.canonical()
    assert (F.q_power(2) * x).canonical() == (x * F.q_power(2)).canonical()
    assert (3 * x).canonical() == (x * 3).canonical()


def test_scale_by_zero_is_zero(a1):
    alg = a1
    assert (alg.mc(0, 0) * alg.field.zero).terms == ()


@pytest.mark.parametrize("field", [SymbolicField(), FixedField(Q(1, 2))],
                         ids=["symbolic", "q12"])
def test_inexact_scalar_rejected(field):
    """A float factor, on either side, raises TypeError naming it and the
    field instead of entering the element; a Fraction factor still
    scales exactly."""
    alg = make("A", 1, (1,), field)
    x = phat(alg, 0, 0)
    message = re.escape(f"scalar 0.5 is not exact in {field!r}")
    with pytest.raises(TypeError, match=message):
        x * 0.5
    with pytest.raises(TypeError, match=message):
        0.5 * x
    half = x * Q(1, 2)
    assert alg.is_zero(half + half - x).zero


@pytest.mark.parametrize("field", [SymbolicField(), FixedField(Q(1, 2))],
                         ids=["symbolic", "q12"])
def test_canonical_normalizes_vector_legs(field):
    """canonical moves each vector leg's leading coefficient into the
    functional: the form does not depend on how a scalar is split between
    the legs, terms with proportional vector legs merge into one, and a
    pair that cancels leaves the empty form."""
    alg = make("A", 1, (1,), field)
    w, one, two, c = ((False,), field.one, field.from_fraction(2),
                      field.q_power(1))

    def elem(*terms):
        return CoordElem(alg, terms)

    assert elem((w, {(0,): two * c}, {(1,): one})).canonical() == \
        elem((w, {(0,): c}, {(1,): two})).canonical()
    merged = elem((w, {(0,): c}, {(0,): one, (1,): c}),
                  (w, {(1,): one}, {(0,): two, (1,): two * c})).canonical()
    assert len(merged) == 1
    assert merged == elem(
        (w, {(0,): c, (1,): two}, {(0,): one, (1,): c})).canonical()
    assert elem((w, {(0,): c}, {(1,): two}),
                (w, {(0,): -two * c}, {(1,): one})).canonical() == ()


# -- star --------------------------------------------------------------------


def test_star_swaps_plain_and_conjugated(a1):
    alg = a1
    for i in range(2):
        for j in range(2):
            assert alg.mc(i, j).star().canonical() == \
                alg.mc(i, j, barred=True).canonical()


def test_star_is_involutive_and_antimultiplicative(a2):
    alg = a2
    x = alg.mc(0, 1) * alg.mc(2, 2, barred=True)
    y = alg.mc(1, 0)
    assert x.star().star().canonical() == x.canonical()
    assert (x * y).star().canonical() == (y.star() * x.star()).canonical()
    assert alg.unit().star().canonical() == alg.unit().canonical()


def test_star_fixes_phat_diagonal(a1):
    alg = a1
    for i in range(2):
        p = phat(alg, i, i)
        assert p.star().canonical() == p.canonical()
    p01 = phat(alg, 0, 1)
    p10 = phat(alg, 1, 0)
    assert p01.star().canonical() == p10.canonical()


# -- modular twist ------------------------------------------------------------


def test_theta_scales_by_weight_exponents(a1):
    alg = a1
    F = alg.field
    # weights are +/- omega, (2rho, omega) = 1
    table = {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): -2}
    for (i, j), e in table.items():
        got = alg.mc(i, j).theta()
        want = alg.mc(i, j) * F.q_power(e)
        assert got.canonical() == want.canonical()


def test_theta_is_an_algebra_map(a2):
    alg = a2
    x = alg.mc(0, 1)
    y = alg.mc(1, 2, barred=True)
    assert (x * y).theta().canonical() == (x.theta() * y.theta()).canonical()
    assert alg.unit().theta().canonical() == alg.unit().canonical()


_POOL = None


def _pool():
    global _POOL
    if _POOL is None:
        _POOL = [make("A", 1, (1,)), make("A", 2, (1, 0)),
                 make("B", 2, (0, 1))]
    return _POOL


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_theta_two_implementations_agree(data):
    """Property suite: the weight-formula twist and the group-like
    conjugation twist agree on random products."""
    alg = data.draw(st.sampled_from(_pool()))
    dim = alg.m.dim
    nfac = data.draw(st.integers(1, 3))
    x = alg.unit()
    for _ in range(nfac):
        i = data.draw(st.integers(0, dim - 1))
        j = data.draw(st.integers(0, dim - 1))
        barred = data.draw(st.booleans())
        x = x * alg.mc(i, j, barred)
    e = data.draw(st.integers(-2, 2))
    x = x * alg.field.q_power(e)
    assert x.theta().canonical() == x.theta_via_action().canonical()


# -- regular actions ----------------------------------------------------------


def test_left_action_coproduct_rule(a1):
    """E |> (ab) = (E |> a)(K |> b) + a (E |> b), and the F analogue with
    K^-1 on the left factor: internal consistency of the slotwise coproduct
    expansion against two-step products."""
    alg = a1
    a = alg.mc(0, 1)
    b = alg.mc(1, 0, barred=True)
    ab = a * b
    lhs = ab.act_left(("E", 1))
    rhs = a.act_left(("E", 1)) * b.act_left(("K", 1, 1)) + \
        a * b.act_left(("E", 1))
    assert alg.is_zero(lhs - rhs).zero
    lhs = ab.act_left(("F", 1))
    rhs = a.act_left(("F", 1)) * b + \
        a.act_left(("K", 1, -1)) * b.act_left(("F", 1))
    assert alg.is_zero(lhs - rhs).zero


def test_right_action_coproduct_rule(a1):
    alg = a1
    a = alg.mc(0, 1)
    b = alg.mc(1, 0, barred=True)
    ab = a * b
    lhs = ab.act_right(("E", 1))
    rhs = a.act_right(("E", 1)) * b.act_right(("K", 1, 1)) + \
        a * b.act_right(("E", 1))
    assert alg.is_zero(lhs - rhs).zero


def test_actions_commute(a1):
    """Left and right regular actions commute (they live on different
    legs)."""
    alg = a1
    x = phat(alg, 0, 1)
    one = x.act_left(("E", 1)).act_right(("F", 1))
    two = x.act_right(("F", 1)).act_left(("E", 1))
    assert one.canonical() == two.canonical()


def test_k_action_diagonal(a1):
    alg = a1
    F = alg.field
    a01 = alg.mc(0, 1)
    # vector leg has weight -omega: K acts by q^-1
    got = a01.act_left(("K", 1, 1))
    assert got.canonical() == (a01 * F.q_power(-1)).canonical()
    # functional leg has index 0 (weight +omega): right K acts by q^+1
    got = a01.act_right(("K", 1, 1))
    assert got.canonical() == (a01 * F.q_power(1)).canonical()


# -- invariant integral -------------------------------------------------------


def test_haar_normalization(a1):
    alg = a1
    assert alg.haar(alg.unit()) == alg.field.one


def test_haar_golden_values(a1):
    alg = a1
    F = alg.field
    q2 = F.q_power(2)
    one = F.one
    assert alg.haar(phat(alg, 0, 0)) == q2 / (one + q2)
    assert alg.haar(phat(alg, 1, 1)) == F.q_power(1) / (one + q2)
    assert alg.haar(phat(alg, 0, 1)) == F.zero
    assert alg.haar(phat(alg, 1, 0)) == F.zero
    # single matrix coefficients have nonzero weight: integral vanishes
    assert alg.haar(alg.mc(0, 0)) == F.zero


def test_haar_golden_values_fixed_q():
    alg = make("A", 1, (1,), FixedField(Q(1, 2)))
    q2 = Q(1, 4)
    assert alg.haar(phat(alg, 0, 0)) == q2 / (1 + q2)
    assert alg.haar(phat(alg, 1, 1)) == Q(1, 2) / (1 + q2)


def test_haar_left_and_right_invariance(a1):
    alg = a1
    F = alg.field
    samples = [phat(alg, 0, 0), phat(alg, 0, 1),
               phat(alg, 0, 0) * phat(alg, 1, 1)]
    for x in samples:
        for i in (1,):
            assert alg.haar(x.act_left(("E", i))) == F.zero
            assert alg.haar(x.act_left(("F", i))) == F.zero
            assert alg.haar(x.act_right(("E", i))) == F.zero
            assert alg.haar(x.act_right(("F", i))) == F.zero
            assert alg.haar(x.act_left(("K", i, 1))) == alg.haar(x)
            assert alg.haar(x.act_right(("K", i, -1))) == alg.haar(x)


def test_haar_invariance_rank_two(a2):
    alg = a2
    F = alg.field
    x = phat(alg, 0, 2)
    y = phat(alg, 2, 0)
    for i in (1, 2):
        assert alg.haar((x * y).act_left(("E", i))) == F.zero
        assert alg.haar((x * y).act_right(("F", i))) == F.zero
    assert alg.haar(x * y) != F.zero


def test_haar_modular_property_spot(a1):
    """h(xy) = h(y theta(x)) on a couple of coefficient products."""
    alg = a1
    for i, j in [(0, 1), (1, 0), (0, 0)]:
        x = phat(alg, i, j)
        y = phat(alg, j, i)
        assert alg.haar(x * y) == alg.haar(y * x.theta())
        assert alg.haar(x * y) != alg.field.zero


def _haar_pool(alg, dim, pairs, count=6, seed=7):
    """Seeded products of 1..pairs factor pairs mc(i, j, b) mc(k, l, not b),
    with (k, l) = (i, j) half the time so that many are non-zero."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        x = alg.unit()
        for _ in range(rng.randint(1, pairs)):
            i, j = rng.randrange(dim), rng.randrange(dim)
            k, l = (i, j) if rng.random() < 0.5 else (
                rng.randrange(dim), rng.randrange(dim))
            b = rng.random() < 0.5
            x = x * alg.mc(i, j, b) * alg.mc(k, l, not b)
        out.append(x)
    return out


@pytest.mark.parametrize("family,rank,lam,q,pairs,want", [
    ("A", 1, (1,), None, 3,
     ["0", "(s^4)/(1 + s^4)", "(s^6)/(1 + s^4 + s^8 + s^12)", "0",
      "(s^4)/(1 + s^4 + s^8)", "0"]),
    ("A", 2, (1, 0), None, 2,
     ["0", "0", "(1)/(1 + s^4 + s^8)", "(s^4)/(1 + s^4 + s^8)", "0", "0"]),
    ("A", 2, (1, 1), Q(1, 2), 1,
     ["0", "64/2125", "16/425", "32/425", "8/1785", "0"]),
    ("B", 2, (0, 1), Q(1, 2), 2,
     ["0", "0", "0", "0", "0", "2048/438185"]),
], ids=["A1-symbolic", "A2-S2-symbolic", "A2-full-half", "B2-S1-half"])
def test_haar_pinned_values(family, rank, lam, q, pairs, want):
    """Haar values of a seeded pool (barred and unbarred slots, words of up
    to 2 * pairs letters), pinned from a second decomposition of the
    zero-weight space: the invariants as the joint kernel of the E_i, the
    complement spanned by the E- and F-images landing in weight zero."""
    field = SymbolicField() if q is None else FixedField(q)
    alg = make(family, rank, lam, field)
    dim = alg.m.dim
    got = [str(alg.haar(x)) for x in _haar_pool(alg, dim, pairs)]
    assert got == want


def test_haar_two_invariants(a1):
    """The word (V, Vbar, V, Vbar) of A1 has a two-dimensional space of
    invariants; values pinned as in test_haar_pinned_values."""
    alg = a1
    a, b, c = alg.mc(0, 0), alg.mc(1, 1), alg.mc(0, 1)
    assert str(alg.haar(a * a.star() * b * b.star())) == \
        "(s^4)/(1 + s^4 + s^8)"
    assert str(alg.haar(a * a.star() * c * c.star())) == \
        "(s^10)/(1 + 2*s^4 + 2*s^8 + s^12)"


# -- zero testing -------------------------------------------------------------


def test_zero_element_is_zero(a1):
    alg = a1
    cert = alg.is_zero(alg.zero())
    assert cert.zero and cert.closure_dims == ()
    assert bool(cert)


def test_single_coefficients_are_nonzero(a1):
    alg = a1
    for i in range(2):
        for j in range(2):
            cert = alg.is_zero(alg.mc(i, j))
            assert not cert.zero
            assert cert.witness
    assert not alg.is_zero(alg.unit()).zero
    assert not alg.is_zero(alg.unit() - phat(alg, 0, 0)).zero


def test_weighted_completeness_law(a1):
    """sum_k N_k phat[i,k] phat[k,j] = phat[i,j]: a cross-word identity the
    zero test must prove, not simplify away."""
    alg = a1
    N = alg.m.norms
    for i in range(2):
        for j in range(2):
            lhs = alg.zero()
            for k in range(2):
                lhs = lhs + N[k] * (phat(alg, i, k) * phat(alg, k, j))
            cert = alg.is_zero(lhs - phat(alg, i, j))
            assert cert.zero
            assert cert.closure_dims[0] > 0


def test_weighted_partition_of_unity(a1):
    """sum_i q^(2rho, lam_i) N_i phat[i,i] = q^(2rho, rho) 1: mixes the empty
    word with length-two words."""
    alg = a1
    F = alg.field
    m = alg.m
    rs = alg.rs
    two_rho = cartan.two_rho_root(rs)
    lhs = alg.zero()
    for i in range(m.dim):
        e = cartan.form_rw(rs, two_rho, m.weights[i])
        lhs = lhs + (F.q_power(e) * m.norms[i]) * phat(alg, i, i)
    rho = cartan.rho_fund(rs)
    rhs = alg.unit() * F.q_power(cartan.form_rw(rs, two_rho, rho))
    assert alg.is_zero(lhs - rhs).zero
    # negative control: wrong exponent on one term
    bad = lhs - rhs + (F.q_power(5) - F.q_power(3)) * phat(alg, 0, 0)
    assert not alg.is_zero(bad).zero


def test_completeness_law_rank_two(a2):
    alg = a2
    N = alg.m.norms
    lhs = alg.zero()
    for k in range(3):
        lhs = lhs + N[k] * (phat(alg, 0, k) * phat(alg, k, 2))
    assert alg.is_zero(lhs - phat(alg, 0, 2)).zero


def test_zero_test_fixed_q():
    alg = make("A", 1, (1,), FixedField(Q(1, 2)))
    N = alg.m.norms
    lhs = alg.zero()
    for k in range(2):
        lhs = lhs + N[k] * (phat(alg, 0, k) * phat(alg, k, 0))
    assert alg.is_zero(lhs - phat(alg, 0, 0)).zero
    assert not alg.is_zero(lhs).zero


def test_zero_test_refuses_classical():
    alg = make("A", 1, (1,), classical_field())
    with pytest.raises(ValueError, match="q = 1"):
        alg.is_zero(alg.mc(0, 0))


def test_zero_test_cap():
    alg = make("A", 1, (1,), cap=2)
    y = phat(alg, 0, 0) * phat(alg, 1, 1)
    with pytest.raises(CapExceeded):
        alg.is_zero(y)


def test_zero_test_cap_counts_seeds():
    # the stacked leg e_0 (+) e_0(x)e_0 has two weight components, both
    # highest weight vectors: the raising closure is its two seeds alone
    alg = make("A", 1, (1,), cap=1)
    x = alg.mc(0, 0)
    with pytest.raises(CapExceeded):
        alg.is_zero(x + x * x)
    alg = make("A", 1, (1,), cap=2)
    x = alg.mc(0, 0)
    assert alg.is_zero(x + x * x).closure_dims == (2, 1)


def test_zero_test_determinism(a1):
    alg = a1
    diff = alg.unit() - phat(alg, 0, 0) - phat(alg, 1, 1)
    c1 = alg.is_zero(diff)
    c2 = alg.is_zero(diff)
    assert (c1.zero, c1.closure_dims, c1.groups) == \
        (c2.zero, c2.closure_dims, c2.groups)


def test_tensor_zero_two_legs(a1):
    alg = a1
    F = alg.field
    x = alg.mc(0, 0)
    y = phat(alg, 0, 0)
    z = phat(alg, 1, 1)
    one = F.one
    # bilinearity across legs cancels before any closure is needed
    cert = alg.tensor_zero_test([
        (one, (x, y)), (one, (x, z)), (-one, (x, y + z))])
    assert cert.zero and cert.groups == 0
    # scalar moves across legs
    cert = alg.tensor_zero_test([
        (one, (x * F.q_power(2), y)), (-one, (x, y * F.q_power(2)))])
    assert cert.zero
    # a cross-word zero that the per-leg closures must actually prove
    N = alg.m.norms
    lhs = alg.zero()
    for k in range(2):
        lhs = lhs + N[k] * (phat(alg, 0, k) * phat(alg, k, 0))
    cert = alg.tensor_zero_test([(one, (y, z)), (-one, (z, y))])
    assert not cert.zero  # distinct legs swapped: not the same tensor
    cert = alg.tensor_zero_test([(one, (lhs, z)), (-one, (y, z))])
    assert cert.zero
    # (dim U+v0, dim U+v1, dim (1 (x) U-)^T D, dim (U-)^T G)
    assert len(cert.closure_dims) == 4 and min(cert.closure_dims) > 0
    # and a genuine nonzero
    cert = alg.tensor_zero_test([(one, (x, y)), (one, (x, z))])
    assert not cert.zero
    assert cert.witness


def _completeness_pair(cap=DEFAULT_CAP):
    """A zero 2-leg input and its legs swapped, on a fresh A2 algebra with
    the given cap: P is the completeness law
    sum_k N_k phat[2,k] phat[k,0] - phat[2,0] and z is phat[1,0].  The certificate of P (x) z is (6, 3, 5, 8) and that of
    z (x) P is (3, 6, 8, 5)."""
    alg = make("A", 2, (1, 0), cap=cap)
    N = alg.m.norms
    lhs = alg.zero()
    for k in range(3):
        lhs = lhs + N[k] * (phat(alg, 2, k) * phat(alg, k, 0))
    p = lhs - phat(alg, 2, 0)
    z = phat(alg, 1, 0)
    one = alg.field.one
    return alg, [(one, (p, z))], [(one, (z, p))]


def test_two_leg_cap_covers_both_stages():
    """The cap bounds the 1 (x) F_i^T closure of D (stage 1) and the F_i^T
    closure of its leg-1 contractions (stage 2) alike: a cap of 7 lets both
    raising closures (at most 6) through but not a stage of dimension 8,
    and a cap of 8, the larger stage, passes."""
    alg, pz, zp = _completeness_pair(cap=7)
    with pytest.raises(CapExceeded):
        alg.tensor_zero_test(zp)             # stage 1 has dimension 8
    with pytest.raises(CapExceeded):
        alg.tensor_zero_test(pz)             # stage 2 has dimension 8
    alg, pz, zp = _completeness_pair(cap=8)
    cert = alg.tensor_zero_test(zp)
    assert cert.zero and cert.closure_dims == (3, 6, 8, 5)
    cert = alg.tensor_zero_test(pz)
    assert cert.zero and cert.closure_dims == (6, 3, 5, 8)


def test_tensor_zero_guard_rails(a1):
    alg = a1
    x = alg.mc(0, 0)
    with pytest.raises(NotImplementedError):
        alg.tensor_zero_test([(alg.field.one, (x, x, x))])
    with pytest.raises(ValueError, match="mixed"):
        alg.tensor_zero_test([(alg.field.one, (x,)),
                              (alg.field.one, (x, x))])


def test_mixed_algebra_guard():
    alg1 = make("A", 1, (1,))
    alg2 = make("A", 1, (1,))
    with pytest.raises(ValueError, match="different algebras"):
        alg1.mc(0, 0) * alg2.mc(0, 0)


def test_zero_tests_reject_a_leg_from_another_algebra():
    """Every unitarity and trace sum of B2 S={1} at q = 1/2 is zero in its
    own algebra.  Read on A3 S={2,3}'s module, all 32 used to test
    non-zero; a leg from another algebra now raises ValueError in every
    zero test and in haar."""
    half = FixedField(Q(1, 2))
    b2 = fp.flag_context("B", 2, (1,), half)
    a3 = fp.flag_context("A", 3, (2, 3), half)
    for ad in itertools.product(range(b2.dim), repeat=2):
        for law in (fp._unitarity_law, fp._trace_law):
            terms = law(b2, *ad)
            assert b2.alg.tensor_zero_test(terms).zero
            with pytest.raises(ValueError, match="another algebra"):
                a3.alg.tensor_zero_test(terms)
            with pytest.raises(ValueError, match="another algebra"):
                a3.alg.batch_zero_test([[(half.one, (a3.alg.unit(),))],
                                        terms])
    x, y = b2.alg.mc(0, 0), a3.alg.mc(0, 0)
    with pytest.raises(ValueError, match="another algebra"):
        a3.alg.tensor_zero_test([(half.one, (y, x))])
    with pytest.raises(ValueError, match="another algebra"):
        a3.alg.is_zero(x)
    with pytest.raises(ValueError, match="another algebra"):
        a3.alg.haar(x)


@pytest.mark.parametrize("field", [SymbolicField(), FixedField(Q(1, 2))],
                         ids=["symbolic", "q12"])
def test_zero_tests_reject_a_term_without_legs_or_an_inexact_coeff(field):
    """A term with no leg raises ValueError, and a float coefficient, or a
    symbolic one at fixed q, TypeError naming it and the field, as
    CoordElem's scalar factors do; int and Fraction coefficients still
    scale exactly."""
    alg = make("A", 1, (1,), field)
    x = phat(alg, 0, 0)
    for terms in ([(field.one, ())], [(field.one, (x,)), (field.one, ())]):
        with pytest.raises(ValueError, match="at least one leg"):
            alg.tensor_zero_test(terms)
    bad = [0.5]
    if isinstance(field, FixedField):
        bad.append(SymbolicField().q_power(1))
    for c in bad:
        with pytest.raises(TypeError, match=re.escape(
                f"scalar {c!r} is not exact in {field!r}")):
            alg.tensor_zero_test([(c, (x,))])
    assert alg.tensor_zero_test([(2, (x,)), (Q(-2), (x,))]).zero
    assert not alg.tensor_zero_test([(Q(1, 2), (x,)), (-1, (x,))]).zero


@pytest.mark.parametrize("gen", [
    ("E", 0), ("F", 2), ("K", 2, 1), ("E", True), ("F", 1.0), ("E", "1"),
    ("K", 1, 0.5), ("K", 1, True), ("K", 1, Q(1)), ("K", 1), ("E", 1, 1),
    ("X", 1), ("E",), (), ["E", 1], "E1", None])
def test_actions_reject_a_bad_generator(a1, gen):
    """act_left and act_right take ("E", i), ("F", i) or ("K", i, e), i a
    simple-root index (an int, not a bool) and e an int; anything else
    raises ValueError, on the zero element too, where no term would reach
    the generator action."""
    for x in (phat(a1, 0, 1), a1.zero()):
        for act in (x.act_left, x.act_right):
            with pytest.raises(ValueError,
                               match="generator|simple root index"):
                act(gen)


@pytest.mark.parametrize("i,j", [(0, 2), (2, 0), (-1, 0), (0, -1), (True, 0),
                                 (0, False), (1.0, 0), (0, "1")])
def test_mc_rejects_bad_basis_index(a1, i, j):
    """Basis indices are ints in range(dim), bools excluded.  Radix keys
    used to alias an out-of-range index silently: on A1 mc(0, 2) tested as
    zero."""
    for barred in (False, True):
        with pytest.raises(ValueError, match="out of range"):
            a1.mc(i, j, barred)


# -- offset-table cache --------------------------------------------------------


@pytest.mark.parametrize("subset,field", [
    ((), FixedField(Q(1, 2))),
    ((2,), SymbolicField()),
], ids=["A2-S0-q12", "A2-S2-symbolic"])
def test_action_table_cache_matches_fresh_algebra(subset, field):
    """Every _action_tables[word, gen, dual] entry, on an algebra whose
    tables already hold every other entry, is what a fresh algebra
    computes, so the table cache keeps the word (with its barred flags),
    the generator, the key index and dual apart."""
    from qflag.flagproj import flag_context

    alg = flag_context("A", 2, subset, field).alg
    m = alg.m
    slots = [False, True]
    words = [(s,) for s in slots] + list(itertools.product(slots, repeat=2))
    gens = [(kind, i) for kind in ("E", "F") for i in (1, 2)] + \
        [("K", i, e) for i in (1, 2) for e in (1, -1)]
    calls = [(w, g, i, dual) for w in words
             for i in range(m.dim ** len(w))
             for g in gens for dual in (False, True)]
    for w, g, i, dual in calls:
        alg._action_tables[w, g, dual][i]
    for w, g, i, dual in calls:
        fresh = CoordAlgebra(m)
        assert alg._action_tables[w, g, dual][i] == \
            fresh._action_tables[w, g, dual][i], (w, g, i, dual)


# -- radix keys and offset tables ---------------------------------------------


def test_radix_keys_round_trip_and_are_injective(a2):
    """Every key of a stack whose blocks have leg words of length 0, 2 and
    4, barred slots included (the cycle's shape), decodes to its block and
    leg indices, each index to its leg key, and no two keys collide."""
    alg = a2
    m, mb = False, True
    words = [((), (m, mb)), ((m, mb), (m, mb, mb, m)), ((mb, m, m, mb), ())]
    codec = _Radix(alg, words)
    assert codec.radix == [81, 81] and codec.strides == [3, 243]
    seen = set()
    for b, legs in enumerate(words):
        spaces = [itertools.product(range(3), repeat=len(w)) for w in legs]
        for keys in itertools.product(*spaces):
            r = codec.encode(b, keys)
            blk, ix = codec.digits(r)
            assert blk == b
            assert tuple(alg.space(w).key(i)
                         for w, i in zip(legs, ix)) == keys
            assert codec.weight(r) == tuple(alg.space(w).weight(k)
                                            for w, k in zip(legs, keys))
            seen.add(r)
    assert len(seen) == 9 + 9 * 81 + 81


@pytest.mark.parametrize("family,rank,subset,field", [
    ("A", 2, (), FixedField(Q(1, 2))),
    ("A", 1, (), SymbolicField()),
], ids=["A2-S0-q12", "A1-symbolic"])
def test_offset_tables_match_gen_action(family, rank, subset, field):
    """Every entry (den, ((dk, num), ...)) of an action table, decoded as
    the keys of index i + dk with coefficients num / den, is the space's
    action on the key of index i, for E and F, on vectors and on
    functionals."""
    from qflag.flagproj import flag_context

    alg = flag_context(family, rank, subset, field).alg
    m = alg.m
    slots = [False, True]
    words = [(s,) for s in slots] + list(itertools.product(slots, repeat=2))
    for word in words:
        for gen in [(kind, i) for kind in ("E", "F")
                    for i in range(1, rank + 1)]:
            for dual in (False, True):
                table = alg._action_tables[word, gen, dual]
                space = alg.space(word)
                for i in range(m.dim ** len(word)):
                    den, pairs = table[i]
                    got = tuple((space.key(i + dk),
                                 alg._kernel.ratio(num, den))
                                for dk, num in pairs)
                    key = space.key(i)
                    assert got == tuple(space.action(gen, key, dual))


# -- freeing without the cyclic collector --------------------------------------


@pytest.mark.parametrize("family,rank,subset,q,cap,drop", [
    ("A", 1, (), None, DEFAULT_CAP, ()),
    ("A", 2, (2,), Q(1, 2), DEFAULT_CAP, ()),
    ("A", 2, (), Q(1, 2), DEFAULT_CAP, ("matrixunits",)),
    ("A", 1, (), None, 2, ()),
], ids=["A1-symbolic", "A2-S2-q12", "A2-S0-q12-no-munits", "A1-cap2"])
def test_suites_leave_no_cyclic_garbage(family, rank, subset, q, cap, drop):
    """A suite run, its report dropped, leaves nothing for the cyclic
    collector: no algebra, table, module build or context is kept alive by
    a reference cycle."""
    from qflag.report import PHASES, CaseConfig, run_suite

    cfg = CaseConfig(family, rank, subset, None if q is None else (q,),
                     cap=cap,
                     only=tuple(p for p in PHASES if p not in drop))
    gc.collect()
    gc.disable()
    try:
        rep = run_suite(cfg)
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dropped_context_frees_its_algebra_and_module():
    """After zero tests have filled its spaces and offset tables, and
    lookups its matrix-unit cores, Haar data and powers of q, deleting a
    context frees its algebra, module and field at once, with the cyclic
    collector off."""
    from qflag.flagproj import flag_context, verify_idempotent
    from qflag.hochschild import verify_cycle

    gc.disable()
    try:
        ctx = flag_context("A", 1, (), FixedField(Q(1, 2)))
        assert verify_idempotent(ctx)
        assert verify_cycle(ctx)[0]
        assert ctx.munit(0, 1, 1, 0) is ctx.munit(0, 1, 1, 0)
        assert ctx.field.q_power(3) == Q(1, 8)
        assert ctx.alg.haar(ctx.phat(0, 0)) == Q(1, 5)
        assert ctx.alg._action_tables and ctx.alg._haar_data
        refs = [weakref.ref(ctx.alg), weakref.ref(ctx.m),
                weakref.ref(ctx.field)]
        del ctx
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_zero_certificate_compares_every_field_and_reads_zero():
    """Two certificates are equal only if verdict, closure dimensions,
    group count and witness all agree; bool() is the verdict, whatever the
    other fields say."""
    cert = ZeroCertificate(True, (3, 2), 1)
    assert cert == ZeroCertificate(True, (3, 2), 1, None)
    for other in (ZeroCertificate(False, (3, 2), 1),
                  ZeroCertificate(True, (3, 1), 1),
                  ZeroCertificate(True, (3, 2), 2),
                  ZeroCertificate(True, (3, 2), 1, "s")):
        assert cert != other
    assert cert != (True, (3, 2), 1, None)
    assert bool(cert) and not ZeroCertificate(False, (3, 2), 1, "s")
    assert not ZeroCertificate(False, (), 0)
    assert repr(ZeroCertificate(False, (1,), 1, "q")) == (
        "ZeroCertificate(zero=False, closure_dims=(1,), groups=1, "
        "witness='q')")
