"""Exact scalars for q-deformed linear algebra.

Two modes share one interface:

* symbolic -- elements of Q(s) with s = q^(1/2), stored as
  s^shift * num(s)/den(s): num and den are tuples of ints (index = degree)
  with nonzero constant terms, coprime in Z[s] (no common factor of
  positive degree, no common integer factor of all coefficients), and
  den(0) > 0; zero is (0, (0,), (1,)).  The form is unique: Z[s] is a
  unique factorization domain with s prime (Gauss's lemma; Knuth, TAOCP
  vol. 2, 4.6.1), so two such forms of one element share the shift and
  agree up to a sign, which den(0) > 0 fixes.  Equality is a tuple
  comparison, the stored form is the printed form, and `_reduce` is the
  one routine that brings s^k * num/den into it.  Products with a unit
  +-s^k (most scalars of the projection laws are signed powers of s) skip
  it: s^k * s^shift * (+-num)/den still has coprime num and den with joint
  content 1 and the same den(0) > 0, so by uniqueness it is already the
  canonical form, and results, strings and hashes are those of the full
  product.
* fixed -- q is a concrete rational in (0, 1]; elements are Rational, a
  fractions.Fraction subclass whose + - * / ** with another Rational or an
  int skip the stdlib's operand dispatch and build the result directly
  (same normalization, so values, strings and hashes are the stdlib's).
  q = 1 is the classical degeneration.

Scalars are real: conjugation is the identity throughout the package.

q-integers use the base q_d = q^d and are computed as the power sum

    [n]_{q_d} = sum_{k=0}^{n-1} q^{d(n-1-2k)},

which is division-free and specializes to the integer n at q = 1, so the
classical mode needs no special cases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd as _igcd
from math import lcm as _ilcm

from qflag import Memo

Q = Fraction

# ---------------------------------------------------------------------------
# polynomial helpers: a polynomial is a tuple of ints, index = degree


def _trim(c):
    i = len(c)
    while i > 0 and not c[i - 1]:
        i -= 1
    return tuple(c[:i])


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _trim(out)


def _pdivmod(a, b):
    """Pseudo-division in Z[s] by nonzero b: (m, quo, rem) with
    m*a = quo*b + rem, deg rem < deg b and m a positive integer.  m grows
    only when a quotient coefficient would not be an integer, so m = 1
    whenever b divides a in Z[s]."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [0] * max(len(r) - db, 0)
    m = 1
    while len(r) > db:
        c, k = r[-1], len(r) - 1 - db
        if c % lb:
            f = abs(lb) // _igcd(c, lb)
            m *= f
            r = [x * f for x in r]
            quo = [x * f for x in quo]
            c *= f
        c //= lb
        quo[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        while r and not r[-1]:
            r.pop()
    return m, tuple(quo), tuple(r)


def _primitive(c):
    g = _igcd(*c)
    return tuple(x // g for x in c) if g > 1 else c


def _pgcd(a, b):
    """gcd of nonzero a and b in Z[s], primitive and up to sign, by the
    primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[2])
    return a


def _reduce(shift, num, den):
    """The canonical (shift, num, den) of s^shift * num/den, for integer
    coefficient sequences num and den with den nonzero."""
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator polynomial")
    if not num:
        return 0, (0,), (1,)
    i = j = 0
    while not num[i]:
        i += 1
    while not den[j]:
        j += 1
    shift, num, den = shift + i - j, num[i:], den[j:]
    if len(num) > 1 and len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:  # primitive, so both quotients lie in Z[s]
            num, den = _pdivmod(num, g)[1], _pdivmod(den, g)[1]
    c = _igcd(*num, *den)
    if den[0] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return shift, num, den


def _peval(c, x):
    v = Q(0)
    for coef in reversed(c):
        v = v * x + coef
    return v


def _pstr(c, var="s"):
    if not c:
        return "0"
    parts = []
    for k, x in enumerate(c):
        if not x:
            continue
        if k == 0:
            parts.append(str(x))
        else:
            mono = var if k == 1 else f"{var}^{k}"
            if x == 1:
                parts.append(mono)
            elif x == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{x}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _shift_poly(c, k):
    return (0,) * k + c


# ---------------------------------------------------------------------------


class QScalar:
    """An element of Q(s), kept in the canonical form described above."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift, num, den):
        """s^shift * num(s)/den(s) for int or Fraction coefficients."""
        num = [Q(x) for x in num]
        den = [Q(x) for x in den]
        L = _ilcm(*(x.denominator for x in num + den))
        self.shift, self.num, self.den = _reduce(
            shift, [x.numerator * (L // x.denominator) for x in num],
            [x.numerator * (L // x.denominator) for x in den])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, r):
        r = Q(r)
        return _new(0, (r.numerator,), (r.denominator,))

    @classmethod
    def s_power(cls, k):
        return _new(k, (1,), (1,))

    @classmethod
    def laurent(cls, coeffs):
        """Sum of c * s^k for k, c in the dict coeffs."""
        if not coeffs:
            return _ZERO
        lo, hi = min(coeffs), max(coeffs)
        return cls(lo, [coeffs.get(k, 0) for k in range(lo, hi + 1)], (1,))

    # -- basic predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.num[0])

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.shift, self.num, self.den) == (
            other.shift, other.num, other.den)

    def __hash__(self):
        if self.shift == 0 and len(self.num) == 1 and len(self.den) == 1:
            n, d = self.num[0], self.den[0]  # hash as Fraction(n, d) does
            return hash(n) if d == 1 else hash(Q(n, d))
        return hash((self.shift, self.num, self.den))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        m = min(self.shift, other.shift)
        a = _pmul(_shift_poly(self.num, self.shift - m), other.den)
        b = _pmul(_shift_poly(other.num, other.shift - m), self.den)
        return _new(*_reduce(m, _padd(a, b), _pmul(self.den, other.den)))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.shift, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return _ZERO
        if other.den == (1,) and other.num in _SIGNS:
            return _unit_times(other, self)
        if self.den == (1,) and self.num in _SIGNS:
            return _unit_times(self, other)
        return _new(*_reduce(self.shift + other.shift,
                             _pmul(self.num, other.num),
                             _pmul(self.den, other.den)))

    __rmul__ = __mul__

    def inverse(self):
        """Swap num and den; they stay coprime, so only the sign moves."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        if den[0] < 0:
            num, den = tuple(-x for x in num), tuple(-x for x in den)
        return _new(-self.shift, num, den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- evaluation ---------------------------------------------------------

    def is_q_rational(self):
        """True iff the value is a rational function of q = s^2."""
        return (self.shift % 2 == 0
                and all(not c for c in self.num[1::2])
                and all(not c for c in self.den[1::2]))

    def evaluate(self, q0):
        """Exact value at q = q0 (a Fraction).  The element must be a
        rational function of q, and the denominator must not vanish."""
        q0 = Q(q0)
        if not self.is_q_rational():
            raise ValueError(
                f"{self} involves odd powers of s = q^(1/2); "
                "it is not a rational function of q")
        dv = _peval(self.den[0::2], q0)
        if not dv:
            raise ZeroDivisionError(
                f"denominator factor {_pstr(self.den)} vanishes at q={q0}")
        nv = _peval(self.num[0::2], q0)
        return q0 ** (self.shift // 2) * nv / dv

    # -- textual form: p(s)/r(s), the stored integer coefficients ------------

    def __str__(self):
        num, den = self.num, self.den
        if len(num) == 1 and len(den) == 1 and self.shift == 0:
            return str(Q(num[0], den[0]))
        if self.shift >= 0:
            num = _shift_poly(num, self.shift)
        else:
            den = _shift_poly(den, -self.shift)
        if den == (1,):
            return _pstr(num)
        return f"({_pstr(num)})/({_pstr(den)})"

    __repr__ = __str__


def _new(shift, num, den):
    """A QScalar from a (shift, num, den) already in canonical form."""
    x = object.__new__(QScalar)
    x.shift, x.num, x.den = shift, num, den
    return x


_ZERO = _new(0, (0,), (1,))
_ONE = _new(0, (1,), (1,))
_SIGNS = ((1,), (-1,))


def _unit_times(u, x):
    """u * x for a unit u = +-s^k and a nonzero x, without _reduce: the
    shift moves and the sign goes to num, so num and den stay coprime with
    den(0) > 0, and the triple is the canonical one (x itself for u = 1;
    scalars are immutable, so x is returned)."""
    if u.shift == 0 and u.num[0] == 1:
        return x
    num = x.num if u.num[0] == 1 else tuple(-c for c in x.num)
    return _new(u.shift + x.shift, num, x.den)


def _coerce(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar.from_fraction(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# fixed-q rationals


def _rat(n, d):
    """The Rational n/d for coprime ints n and d > 0."""
    x = object.__new__(Rational)
    x._numerator, x._denominator = n, d
    return x


def _sum(na, da, nb, db):
    """na/da + nb/db in lowest terms, reduced as Fraction._add reduces."""
    g = _igcd(da, db)
    if g == 1:
        return _rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _igcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _diff(na, da, nb, db):
    return _sum(na, da, -nb, db)


def _prod(na, da, nb, db):
    """(na/da) * (nb/db) in lowest terms, reduced as Fraction._mul
    reduces."""
    g1 = _igcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _igcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _rat(na * nb, db * da)


def _quo(na, da, nb, db):
    if nb < 0:
        na, nb = -na, -nb
    elif not nb:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    return _prod(na, da, db, nb)


def _operators(op, fallback, rfallback):
    """Forward and reflected methods: op on (numerator, denominator) pairs
    when the other operand is a Rational or an int, else Fraction's."""

    def forward(a, b):
        t = type(b)
        if t is Rational:
            return op(a._numerator, a._denominator,
                      b._numerator, b._denominator)
        if t is int:
            return op(a._numerator, a._denominator, b, 1)
        return fallback(a, b)

    def reverse(b, a):
        if type(a) is int:
            return op(a, 1, b._numerator, b._denominator)
        return rfallback(b, a)

    return forward, reverse


class Rational(Fraction):
    """The elements of a FixedField: a Fraction whose + - * / with a
    Rational or an int skip Fraction's operand dispatch and __new__, and
    reduce by gcd exactly as Fraction does, so every value is the same
    lowest-terms pair.  Any other operand takes Fraction's operator, so a
    plain Fraction operand gives a plain Fraction.  __eq__, __hash__,
    ordering and __str__ are Fraction's."""

    __slots__ = ()

    __add__, __radd__ = _operators(_sum, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_diff, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(_prod, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _quo, Fraction.__truediv__, Fraction.__rtruediv__)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __bool__(a):
        return a._numerator != 0

    def __pow__(a, b):
        r = Fraction.__pow__(a, b)
        return _rat(r._numerator, r._denominator) if type(r) is Fraction else r


def _as_rational(r):
    """r (an int or a Fraction) as a Rational."""
    return r if type(r) is Rational else Rational(r)


# ---------------------------------------------------------------------------
# scalar fields


class SymbolicField:
    """Q(s) with s = q^(1/2); elements are QScalar.  Powers of q are a Memo
    per field (_powers), as in FixedField; an exponent that is not a
    half-integer raises and stores nothing."""

    name = "symbolic"
    is_classical = False

    zero = _ZERO
    one = _ONE

    def __init__(self):
        self._powers = Memo(_symbolic_power)

    def from_fraction(self, r):
        return QScalar.from_fraction(r)

    def q_power(self, e):
        """q^e for integer or half-integer e (2e must be an integer)."""
        return self._powers[e]

    def q_int(self, n, d=1):
        """[n] in base q^d, as a Laurent polynomial."""
        if n < 0:
            return -self.q_int(-n, d)
        return QScalar.laurent({2 * d * (n - 1 - 2 * k): 1 for k in range(n)})

    def __repr__(self):
        return "SymbolicField()"


class FixedField:
    """Scalars with q fixed at a rational q0 in (0, 1]; elements are
    Rational.  q0 = 1 is the classical degeneration (all q-integers become
    ordinary integers via the power-sum form).  Powers of q0 are a Memo per
    field (_powers); a fractional exponent raises and stores nothing."""

    zero = Rational(0)
    one = Rational(1)

    def __init__(self, q0):
        if not isinstance(q0, (int, Fraction)) or isinstance(q0, bool):
            raise TypeError(f"q must be an int or a Fraction, got {q0!r}")
        q0 = _as_rational(q0)
        if not (0 < q0 <= 1):
            raise ValueError(f"q must lie in (0, 1], got {q0}")
        self.q0 = q0
        self.is_classical = q0 == 1
        self.name = "classical" if self.is_classical else f"q={q0}"
        self._powers = Memo(partial(_fixed_power, q0))

    def from_fraction(self, r):
        return _as_rational(r)

    def q_power(self, e):
        return self._powers[e]

    def q_int(self, n, d=1):
        if n < 0:
            return -self.q_int(-n, d)
        return sum((self.q0 ** (d * (n - 1 - 2 * k)) for k in range(n)),
                   start=self.zero)

    def __repr__(self):
        return f"FixedField({self.q0})"


def _symbolic_power(e):
    e2 = 2 * Q(e)
    if e2.denominator != 1:
        raise ValueError(f"q^{e} is not in Q(s)")
    return QScalar.s_power(int(e2))


def _fixed_power(q0, e):
    if type(e) is not int and e != int(e):
        raise ValueError(f"q^{e}: fractional powers need symbolic mode")
    return q0 ** int(e)


def classical_field():
    return FixedField(Q(1))
