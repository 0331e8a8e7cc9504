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


class KeyIndexer:
    """Deterministic packing of hashable keys into dense ints, in first-seen
    order (elimination pivots then depend only on insertion order)."""

    def __init__(self):
        self._idx = {}
        self._keys = []

    def index(self, key) -> int:
        i = self._idx.get(key)
        if i is None:
            i = len(self._keys)
            self._idx[key] = i
            self._keys.append(key)
        return i

    def get(self, key):
        """The index of key, or None if it was never indexed."""
        return self._idx.get(key)

    def key(self, i):
        return self._keys[i]

    def __len__(self):
        return len(self._keys)
