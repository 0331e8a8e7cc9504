"""Pure-Python span/elimination kernels.

Two implementations of the same incremental-echelon interface:

* FieldSpanBasis -- generic over any exact field element supporting
  +, -, *, /, bool (symbolic Laurent fractions use this one);
* FractionSpanBasis -- Fraction vectors re-encoded as integer rows with a
  common denominator, eliminated by cross-multiplication with gcd stripping
  (fraction-free in the style of Bareiss 1968).

A stored row is pivot-normalized (the row's largest key is its pivot), so
one descending elimination pass terminates: eliminating the largest pivot
key only introduces smaller keys.  It follows that insert stores and
returns the same row for vec and for any non-zero multiple of vec.  insert
returns the stored row itself, in the kernel's own scalars, and it stands
for row / row[pivot]: FieldSpanBasis stores field elements with 1 at the
pivot, FractionSpanBasis coprime integers with the common denominator at
the pivot.  ratio(num, den) turns such scalars back into an exact field
element.

Each kernel also builds closure images in its own scalars.  Image keys are
non-negative ints, and a generator acts on a key r through the entry
tables[r % nb][r // stride % radix] = (den, ((dk, num), ...)): it sends r to
the keys r + dk * stride with coefficients num / den (qflag.coord packs a
block and its leg indices into r this way).  encode_action builds an entry
from [(dk, coeff)] -- FieldSpanBasis keeps field elements with den 1,
FractionSpanBasis integers -- and image(row, tables, nb, stride, radix)
forms a non-zero multiple of that action on the row returned by insert.
FractionSpanBasis combines the integer row with the integer entries under
a running lcm of their denominators, so a closure at fixed q does no
Fraction arithmetic beyond filling its table entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class FieldSpanBasis:
    """Incremental echelon span of sparse vectors {key: field element}."""

    def __init__(self):
        self._rows = {}  # pivot key -> row dict, row[pivot] == 1

    @property
    def dim(self):
        return len(self._rows)

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

    def rows(self):
        return [dict(r) for r in self._rows.values()]

    @staticmethod
    def encode_action(pairs):
        """(1, ((dk, coeff), ...)): field elements need no denominator."""
        return 1, tuple(pairs)

    @staticmethod
    def ratio(num, den):
        return num / den

    @staticmethod
    def image(row, tables, nb, stride, radix):
        """The action on row with zeros dropped: key r goes through the
        entry tables[r % nb][r // stride % radix] (see the module
        docstring); row[pivot] == 1, so this is the exact image."""
        out = {}
        for r, c in row.items():
            for dk, f in tables[r % nb][r // stride % radix][1]:
                j = r + dk * stride
                cur = out.get(j)
                nv = c * f if cur is None else cur + c * f
                if nv:
                    out[j] = nv
                else:
                    out.pop(j, None)
        return out


class FractionSpanBasis:
    """Same interface, Fraction-only, integer-row internals."""

    def __init__(self):
        self._rows = {}  # pivot key -> {key: int num}, num[pivot] = den > 0

    @property
    def dim(self):
        return len(self._rows)

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
        return {k: Fraction(n, dv) for k, n in nv.items()}

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

    def rows(self):
        return [{j: Fraction(n, nv[k]) for j, n in nv.items()}
                for k, nv in self._rows.items()]

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
        return Fraction(num, den)

    @staticmethod
    def image(row, tables, nb, stride, radix):
        """An integer multiple of the action on an integer row returned by
        insert, with zeros dropped: key r goes through the entry
        tables[r % nb][r // stride % radix] (see the module docstring).
        The partial sum is rescaled whenever an entry brings a denominator
        that does not divide the running lcm."""
        out = {}
        den = 1
        for r, c in row.items():
            d, pairs = tables[r % nb][r // stride % radix]
            if den % d:
                m = d // gcd(den, d)
                den *= m
                for j in out:
                    out[j] *= m
            c *= den // d
            for dk, n in pairs:
                j = r + dk * stride
                x = out.get(j, 0) + c * n
                if x:
                    out[j] = x
                else:
                    out.pop(j, None)
        return out
