"""Field laws and evaluation semantics for the exact scalar layer.

The q-integer oracle here is independent of the package's power-sum
implementation: it evaluates the defining ratio (q^dn - q^-dn)/(q^d - q^-d)
in plain Fraction arithmetic at concrete q.
"""

import operator
from fractions import Fraction as Q
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflag import Memo
from qflag.qscalar import (FixedField, QScalar, Rational, SymbolicField,
                           classical_field)

SYM = SymbolicField()

coeffs = st.integers(min_value=-4, max_value=4)
polys = st.lists(coeffs, min_size=1, max_size=4)
nonzero_polys = polys.filter(lambda c: any(c))
shifts = st.integers(min_value=-3, max_value=3)


@st.composite
def qscalars(draw):
    return QScalar(draw(shifts), draw(polys), draw(nonzero_polys))


@st.composite
def nonzero_qscalars(draw):
    return QScalar(draw(shifts), draw(nonzero_polys), draw(nonzero_polys))


@st.composite
def q_rationals(draw):
    """Elements that are honest rational functions of q = s^2."""
    num = draw(st.dictionaries(st.integers(-2, 2), coeffs, max_size=3))
    den = draw(st.dictionaries(st.integers(-2, 2), coeffs, min_size=1,
                               max_size=3).filter(lambda d: any(d.values())))
    x = QScalar.laurent({2 * k: v for k, v in num.items()})
    y = QScalar.laurent({2 * k: v for k, v in den.items()})
    return x / y


class TestFieldLaws:
    @settings(max_examples=150)
    @given(qscalars(), qscalars(), qscalars())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=150)
    @given(qscalars(), qscalars())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @settings(max_examples=150)
    @given(qscalars(), qscalars(), qscalars())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=150)
    @given(qscalars(), qscalars())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=150)
    @given(qscalars(), qscalars(), qscalars())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100)
    @given(qscalars())
    def test_identities(self, a):
        assert a + 0 == a
        assert a * 1 == a
        assert a - a == QScalar.from_fraction(0)
        assert not (a - a)

    @settings(max_examples=100)
    @given(nonzero_qscalars())
    def test_mul_inverse(self, a):
        assert a * a.inverse() == QScalar.from_fraction(1)
        assert (1 / a) * a == 1

    @settings(max_examples=100)
    @given(qscalars(), qscalars())
    def test_sub_then_add_roundtrip(self, a, b):
        assert (a + b) - b == a

    @settings(max_examples=60)
    @given(nonzero_qscalars(), st.integers(-4, 4))
    def test_pow_matches_repeated_product(self, a, k):
        expect = QScalar.from_fraction(1)
        base = a if k >= 0 else a.inverse()
        for _ in range(abs(k)):
            expect = expect * base
        assert a ** k == expect


def _poly_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCanonicalForm:
    @settings(max_examples=200)
    @given(shifts, polys, nonzero_polys, st.integers(-6, 6).filter(bool),
           polys.filter(lambda c: c[0] != 0))
    def test_common_factors_cancel_to_one_integer_form(self, shift, num, den,
                                                       k, p):
        x = QScalar(shift, num, den)
        kp = [k * c for c in p]
        y = QScalar(shift, _poly_times(kp, num), _poly_times(kp, den))
        assert y == x
        assert str(y) == str(x)
        for z in (x, y):
            assert all(type(c) is int for c in z.num + z.den)
            assert gcd(*z.num, *z.den) == 1
            assert z.den[0] > 0


class TestUnitProducts:
    """The product shortcut for a unit operand +-s^k against the public
    constructor, which always reduces."""

    @settings(max_examples=300)
    @given(st.one_of(st.just(SYM.zero), qscalars()), st.integers(-6, 6),
           st.sampled_from((1, -1)))
    def test_unit_product_matches_reduced_constructor(self, x, k, sign):
        m = QScalar(k, (sign,), (1,))
        want = QScalar(m.shift + x.shift, [m.num[0] * c for c in x.num],
                       x.den)
        for got in (m * x, x * m):
            assert (got.shift, got.num, got.den) == (
                want.shift, want.num, want.den)
            assert str(got) == str(want)
            assert hash(got) == hash(want)

    @settings(max_examples=100)
    @given(qscalars().filter(bool))
    def test_one_times_x_keeps_x(self, x):
        for got in (SYM.one * x, x * SYM.one):
            assert (got.shift, got.num, got.den) == (x.shift, x.num, x.den)
            assert str(got) == str(x)
            assert hash(got) == hash(x)


class TestEvaluation:
    @settings(max_examples=120)
    @given(q_rationals(), q_rationals())
    def test_evaluate_is_a_homomorphism(self, x, y):
        q0 = Q(2, 3)
        try:
            xv, yv = x.evaluate(q0), y.evaluate(q0)
        except ZeroDivisionError:
            return  # q0 hit a pole of the randomly drawn element
        assert (x + y).evaluate(q0) == xv + yv
        assert (x * y).evaluate(q0) == xv * yv

    def test_half_integer_powers_are_rejected(self):
        s = QScalar.s_power(1)
        with pytest.raises(ValueError):
            s.evaluate(Q(1, 2))
        with pytest.raises(ValueError):
            (1 + s).evaluate(Q(1, 2))
        # but s^2 = q is fine
        assert QScalar.s_power(2).evaluate(Q(1, 2)) == Q(1, 2)

    def test_pole_is_reported_with_the_factor(self):
        one_minus_q = 1 - QScalar.s_power(2)
        x = 1 / one_minus_q
        with pytest.raises(ZeroDivisionError, match="vanishes at q=1"):
            x.evaluate(Q(1))
        assert x.evaluate(Q(1, 2)) == 2

    def test_canonical_strings(self):
        assert str(SYM.q_int(2)) == "(1 + s^4)/(s^2)"
        assert str(QScalar.from_fraction(Q(-3, 2))) == "-3/2"
        assert str(SYM.zero) == "0"
        # shift folded into the numerator when positive
        assert str(QScalar.s_power(3) * 2) == "2*s^3"

    def test_constants_hash_like_fractions(self):
        for x in (0, 1, -1, 7, -7, 2 ** 70, -2 ** 70, Q(5, 3)):
            assert hash(QScalar.from_fraction(x)) == hash(Q(x))
            if Q(x).denominator == 1:
                assert hash(QScalar.from_fraction(x)) == hash(int(x))
        assert QScalar.from_fraction(2) == 2


def _q_int_oracle(n, d, q0):
    qd = q0 ** d
    if n == 0:
        return Q(0)
    sign = 1 if n > 0 else -1
    n = abs(n)
    val = (qd ** n - qd ** -n) / (qd - qd ** -1)
    return sign * val


@pytest.mark.parametrize("q0", [Q(1, 2), Q(2, 3), Q(3, 5)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", range(-4, 7))
def test_q_int_against_defining_ratio(n, d, q0):
    fixed = FixedField(q0)
    assert fixed.q_int(n, d) == _q_int_oracle(n, d, q0)
    assert SYM.q_int(n, d).evaluate(q0) == _q_int_oracle(n, d, q0)


def test_q_int_classical_limit_is_the_integer():
    cl = classical_field()
    for n in range(-5, 8):
        for d in (1, 2, 3):
            assert cl.q_int(n, d) == n


def test_fixed_field_domain():
    with pytest.raises(ValueError):
        FixedField(Q(3, 2))
    with pytest.raises(ValueError):
        FixedField(0)
    for q0 in (0.5, 0.1, "1/2", True):
        with pytest.raises(TypeError, match="int or a Fraction"):
            FixedField(q0)
    half = FixedField(Q(1, 2))
    assert half.q_power(-2) == 4
    assert half.q_power(Q(4, 2)) == half.q_power(2.0) == Q(1, 4)
    for e in (1.5, 2.9, Q(1, 2)):
        with pytest.raises(ValueError, match="fractional powers"):
            half.q_power(e)
    assert classical_field().is_classical


def test_q_power_symbolic_roundtrip():
    for e in (-3, -1, 0, 2, 5):
        assert SYM.q_power(e).evaluate(Q(1, 2)) == Q(1, 2) ** e
    with pytest.raises(ValueError):
        SYM.q_power(Q(1, 3))


# -- Rational, the FixedField scalar, against plain Fraction -----------------------


def _rational_operands(seed):
    """Seeded (value, kind) operands of either sign, zero and large
    numerators among them, each as a Rational, a plain Fraction and an int
    (the int is the numerator alone)."""
    rng = Random(seed)
    out = []
    for _ in range(30):
        n = rng.choice([0, rng.randint(-12, 12), rng.randint(-10**30, 10**30)])
        d = rng.choice([1, rng.randint(1, 12), rng.randint(1, 10**20)])
        out += [Rational(n, d), Q(n, d), n]
    return out


def _same_fraction(got, want):
    """got is want's value, in lowest terms, with the same string, hash,
    order and truth value."""
    assert (got.numerator, got.denominator) == (want.numerator,
                                                 want.denominator)
    assert got == want and not got < want and not want < got
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    assert bool(got) is bool(want)


@pytest.mark.parametrize("seed", [0, 1])
def test_rational_arithmetic_matches_fraction(seed):
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    operands = _rational_operands(seed)
    for a in operands[::3]:
        for b in operands:
            for x, y in ((a, b), (b, a)):
                for op in ops:
                    if op is operator.truediv and not y:
                        with pytest.raises(ZeroDivisionError):
                            op(x, y)
                        continue
                    got, want = op(x, y), op(Q(x), Q(y))
                    _same_fraction(got, want)
                    # Rational with Rational or int stays Rational; a plain
                    # Fraction operand gives Fraction's own result type
                    fast = type(b) is not Q
                    assert type(got) is (Rational if fast else Q)
                    assert (got < y) == (want < y)


@pytest.mark.parametrize("seed", [0, 1])
def test_rational_unary_and_power_match_fraction(seed):
    for a in _rational_operands(seed)[::3]:
        for got, want in ((-a, -Q(a)), (a ** 0, Q(a) ** 0),
                          (a ** 3, Q(a) ** 3)) + (
                ((a ** -2, Q(a) ** -2),) if a else ()):
            _same_fraction(got, want)
            assert type(got) is Rational
        assert bool(a) is bool(a.numerator)
        assert {a: 1}[Q(a)] == 1
        if not a:
            with pytest.raises(ZeroDivisionError):
                a ** -1


def test_fixed_field_elements_are_rational():
    for field in (FixedField(Q(1, 2)), FixedField(Q(2, 3)), classical_field()):
        for x in (field.zero, field.one, field.q0, field.from_fraction(Q(3, 7)),
                  field.from_fraction(5), field.q_power(-3), field.q_power(0),
                  field.q_int(3, 2), field.q_int(-2)):
            assert type(x) is Rational


def test_q_power_memo_is_per_field():
    half, two_thirds = FixedField(Q(1, 2)), FixedField(Q(2, 3))
    for _ in range(2):
        for e in (-2, 0, 3):
            assert half.q_power(e) == Q(1, 2) ** e
            assert two_thirds.q_power(e) == Q(2, 3) ** e
    assert half.q_power(3) is half.q_power(3)
    assert half.q_power(3) != two_thirds.q_power(3)


def test_symbolic_q_power_memo():
    """Repeated calls give equal values from one Memo per field; an
    exponent that is not a half-integer raises on every call and stores
    nothing."""
    sym = SymbolicField()
    for _ in range(2):
        for e in (-3, 0, 2, Q(1, 2), Q(-5, 2)):
            assert sym.q_power(e) == QScalar.s_power(int(2 * e))
    assert sym.q_power(Q(1, 2)) is sym.q_power(Q(1, 2))
    assert sym._powers is not SymbolicField()._powers
    stored = dict(sym._powers)
    for _ in range(2):
        with pytest.raises(ValueError, match="is not in Q"):
            sym.q_power(Q(1, 3))
    assert sym._powers == stored


def test_memo_runs_fn_once_per_key():
    calls = []

    def double(key):
        calls.append(key)
        return 2 * key

    memo = Memo(double)
    assert [memo[k] for k in (1, 2, 1, 2, 3)] == [2, 4, 2, 4, 6]
    assert calls == [1, 2, 3]
    assert memo == {1: 2, 2: 4, 3: 6}


def test_memo_stores_nothing_when_fn_raises():
    half = FixedField(Q(1, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="fractional powers"):
            half.q_power(Q(1, 2))
    assert half._powers == {}
