"""qflag: exact verification of quantum flag manifold projection identities,
twisted homology cycles, and their classical Kähler limits.

All arithmetic is exact: symbolic Laurent fractions in s = q^(1/2), or plain
rationals once q is fixed.  Nothing here is numerical.
"""

__version__ = "0.1.0"


class Memo(dict):
    """fn(key), computed on the first lookup of key and kept; a fn that
    raises stores nothing.  A per-key cache is a Memo whose fn captures no
    owner of the Memo, so a dropped owner is freed with its caches without
    the cyclic collector."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value
