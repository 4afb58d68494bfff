"""The one base of krall6's value classes: equality, hash, repr and immutability
over a declared tuple of fields, written once.

A subclass names its fields in `_fields` (in constructor order) and its slots
in `__slots__` (the fields and any cached values outside equality), and its
`__init__` sets each slot with `object.__setattr__`.  Two values are equal
when they are of the same class and their fields are equal; the hash is that
of the field tuple; the repr is ``Name(field=value, ...)``; assignment raises
`AttributeError`.  `MutableValue` keeps the equality and repr but allows
assignment (its subclasses assign their fields as usual), and so has no hash.
`copy.copy` (and pickle, where the fields pickle) rebuilds a value through
its constructor, since assignment is closed.
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


class MutableValue(Value):
    """A `Value` whose fields may be reassigned, and so unhashable."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __hash__ = None
