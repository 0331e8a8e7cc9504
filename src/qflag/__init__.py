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


class Record:
    """A record whose fields are its __slots__: == compares the fields of
    two records of one class in slot order, repr shows them by name, and
    a record, which may change, is unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class Value(Record):
    """An immutable Record, its fields set once by __init__ in slot order.
    It hashes by its fields, and assigning or deleting a field raises
    AttributeError."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes "
                            f"{len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
