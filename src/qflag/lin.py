"""Exact span/elimination for the package's two scalar kinds.

Fixed-q scalars (Fractions) get the integer-row kernel, symbolic scalars
the generic field kernel; both live in qflag._pure.
"""

from __future__ import annotations

from qflag._pure import FieldSpanBasis, FractionSpanBasis


def kernel_name() -> str:
    """Name of the elimination kernel, for environment records."""
    return "pure"


def kernel(field):
    """The SpanBasis class suited to the field's element type."""
    if getattr(field, "fraction_elements", False):
        return FractionSpanBasis
    return FieldSpanBasis


def span_basis(field):
    """A fresh SpanBasis suited to the field's element type."""
    return kernel(field)()

