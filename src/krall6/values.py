"""The one base of krall6's value classes: equality, hash, repr, immutability
and copying over a declared tuple of fields, written once.

A subclass names its fields in `_fields` (in constructor order) and its slots
in `__slots__` (the fields and any cached values outside equality), and its
constructor sets each slot with `object.__setattr__`.  Two values are equal
when they are of the same class and their fields are equal; the hash is that
of the field tuple; the repr is ``Name(field=value, ...)``; assignment raises
`AttributeError`.  A class whose equality or hash does more than compare the
fields (a polynomial equals its constant scalar; a germ keeps its hash)
defines its own, and still reads its fields back through `_fields`.

`copy.copy`, `copy.deepcopy` and `pickle` rebuild every value through its
constructor, called with the field tuple (`__reduce__`), so the constructor
must accept its fields in `_fields` order.  Caches outside `_fields` are
recomputed there, never copied.
"""


class Value:
    """Immutable value over the fields named in `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")
