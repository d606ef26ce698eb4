"""Immutable value records that need no generated code.

The package's validated types subclass ``Record``: a subclass names its
fields in ``__slots__``, and its ``__init__`` checks the arguments and sets
each field once with ``object.__setattr__``.  Types that only carry fields
subclass a ``collections.namedtuple`` type instead, with ``__slots__ = ()``
and their field types listed in their docstring.
"""

from __future__ import annotations


def _restore(cls: type, values: tuple) -> Record:
    """The ``cls`` record holding ``values``, rebuilt without ``__init__``."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(self, name, value)
    return self


class Record:
    """Equality, hash and ``repr`` by field; assignment and deletion raise
    ``AttributeError``; ``copy`` and ``pickle`` rebuild a record from its
    fields without validating them again.

    Equality and hash compare ``_key()``, every field unless a subclass
    leaves some out; records of different classes are never equal.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), self._values())
