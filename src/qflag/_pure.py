"""Pure-Python span/elimination kernels.

Two implementations of the same incremental-echelon interface, sharing
their row store and closure images through the base class SpanBasis:

* FieldSpanBasis -- generic over any exact field element supporting
  +, -, *, /, bool (symbolic Laurent fractions use this one);
* FractionSpanBasis -- Fraction vectors re-encoded as integer rows with a
  common denominator, eliminated by cross-multiplication with gcd stripping
  (fraction-free in the style of Bareiss 1968); the scalars it hands back
  (reduce, ratio) are fixed-q field elements, qflag.qscalar.Rational.

A stored row is pivot-normalized (the row's largest key is its pivot), so
one descending elimination pass terminates: eliminating the largest pivot
key only introduces smaller keys.  It follows that insert stores and
returns the same row for vec and for any non-zero multiple of vec.  insert
returns the stored row itself, in the kernel's own scalars, and it stands
for row / row[pivot]: FieldSpanBasis stores field elements with 1 at the
pivot, FractionSpanBasis coprime integers with the common denominator at
the pivot.  ratio(num, den) turns such scalars back into an exact field
element.

Closure images.  Image keys are non-negative ints, and a generator acts on
a key r through the entry tables[r % nb][r // stride % radix] =
(den, ((dk, num), ...)): it sends r to the keys r + dk * stride with
coefficients num / den (qflag.coord packs a block and its leg indices into
r this way).  encode_action builds an entry from [(dk, coeff)] in the
kernel's scalars -- FieldSpanBasis keeps field elements with den 1,
FractionSpanBasis integers -- and the one image(row, tables, nb, stride,
radix) forms a non-zero multiple of that action on a row returned by
insert, under a running lcm of the entry denominators.  Field entries all
have den 1, so a field image is exact and uses field arithmetic alone; an
integer image stays integer, so a closure at fixed q does no Fraction
arithmetic beyond filling its table entries.
"""

from __future__ import annotations

from math import gcd

from qflag.qscalar import Rational


class SpanBasis:
    """The row store and closure images shared by both kernels; each
    subclass supplies reduce, insert, encode_action and ratio for its
    scalars."""

    def __init__(self):
        self._rows = {}  # pivot key -> row returned by insert

    @property
    def dim(self):
        return len(self._rows)

    def rows(self):
        """The stored rows as exact rows row / row[pivot]."""
        ratio = self.ratio
        return [{j: ratio(c, row[k]) for j, c in row.items()}
                for k, row in self._rows.items()]

    @staticmethod
    def image(row, tables, nb, stride, radix):
        """A non-zero multiple of the action on a row returned by insert,
        with zeros dropped: key r goes through the entry
        tables[r % nb][r // stride % radix] (see the module docstring).
        The partial sum is rescaled whenever an entry brings a denominator
        that does not divide the running lcm, and a row entry is scaled
        only when its entry's denominator differs from that lcm; with
        every den 1 (field entries) the image is the exact one."""
        out = {}
        den = 1
        for r, c in row.items():
            d, pairs = tables[r % nb][r // stride % radix]
            if d != den:
                if den % d:
                    m = d // gcd(den, d)
                    den *= m
                    for j in out:
                        out[j] *= m
                c *= den // d
            for dk, n in pairs:
                j = r + dk * stride
                cur = out.get(j)
                x = c * n if cur is None else cur + c * n
                if x:
                    out[j] = x
                else:
                    out.pop(j, None)
        return out


class FieldSpanBasis(SpanBasis):
    """Incremental echelon span of sparse vectors {key: field element};
    a stored row has 1 at its pivot."""

    def reduce(self, vec):
        v = {k: c for k, c in vec.items() if c}
        rows = self._rows
        while v:
            k = max((j for j in v if j in rows), default=None)
            if k is None:
                break
            c = v.pop(k)
            for j, rv in rows[k].items():
                if j == k:
                    continue
                cur = v.get(j)
                nv = -c * rv if cur is None else cur - c * rv
                if nv:
                    v[j] = nv
                else:
                    v.pop(j, None)
        return v

    def insert(self, vec):
        """Add vec to the span; returns the stored reduced row if the span
        grew, else None."""
        r = self.reduce(vec)
        if not r:
            return None
        k = max(r)
        pk = r[k]
        row = {j: c / pk for j, c in r.items()}
        self._rows[k] = row
        return row

    @staticmethod
    def encode_action(pairs):
        """(1, ((dk, coeff), ...)): field elements need no denominator."""
        return 1, tuple(pairs)

    @staticmethod
    def ratio(num, den):
        return num / den


class FractionSpanBasis(SpanBasis):
    """Same interface, Fraction-only, integer-row internals: a stored row
    is {key: int num} with num[pivot] = den > 0."""

    @staticmethod
    def _to_int(vec):
        den = 1
        for f in vec.values():
            d = f.denominator
            den = den // gcd(den, d) * d
        num = {}
        for k, f in vec.items():
            n = f.numerator * (den // f.denominator)
            if n:
                num[k] = n
        return den, num

    def _reduce_int(self, dv, nv):
        rows = self._rows
        while nv:
            k = max((j for j in nv if j in rows), default=None)
            if k is None:
                break
            nr = rows[k]
            dr = nr[k]
            c = nv.pop(k)
            if dr != 1:
                for j in nv:
                    nv[j] *= dr
            for j, rv in nr.items():
                if j == k:
                    continue
                n = nv.get(j, 0) - c * rv
                if n:
                    nv[j] = n
                else:
                    nv.pop(j, None)
            dv *= dr
            g = dv
            for n in nv.values():
                g = gcd(g, n)
                if g == 1:
                    break
            if g > 1:
                dv //= g
                for j in nv:
                    nv[j] //= g
        return dv, nv

    def reduce(self, vec):
        dv, nv = self._reduce_int(*self._to_int(vec))
        return {k: Rational(n, dv) for k, n in nv.items()}

    def insert(self, vec):
        """Add vec to the span; returns the stored integer row, with the
        common denominator at its pivot, if the span grew, else None."""
        dv, nv = self._reduce_int(*self._to_int(vec))
        if not nv:
            return None
        k = max(nv)
        den = nv[k]
        g = abs(den)
        for n in nv.values():
            g = gcd(g, n)
            if g == 1:
                break
        if den < 0:
            g = -g
        if g != 1:
            nv = {j: n // g for j, n in nv.items()}
        self._rows[k] = nv
        return nv

    @staticmethod
    def encode_action(pairs):
        """(den, ((dk, num), ...)) with coeff == num / den for each pair."""
        den = 1
        for _, f in pairs:
            d = f.denominator
            den = den // gcd(den, d) * d
        return den, tuple((k, f.numerator * (den // f.denominator))
                          for k, f in pairs)

    @staticmethod
    def ratio(num, den):
        return Rational(num, den)
