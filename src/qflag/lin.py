"""Exact span/elimination for the package's two scalar kinds.

A field whose elements are Fractions (fixed q: qflag.qscalar.Rational, a
Fraction subclass) gets the integer-row kernel, any other the generic
field kernel; both live in qflag._pure.
"""

from __future__ import annotations

from fractions import Fraction

from qflag._pure import FieldSpanBasis, FractionSpanBasis


def kernel_name() -> str:
    """Name of the elimination kernel, for environment records."""
    return "pure"


def kernel(field):
    """The SpanBasis class suited to the field's element type."""
    if isinstance(field.zero, Fraction):
        return FractionSpanBasis
    return FieldSpanBasis


def span_basis(field):
    """A fresh SpanBasis suited to the field's element type."""
    return kernel(field)()
