"""Bases of the package's checked value types, written out by hand.

A subclass lists its fields in ``__slots__``, in the order of its
constructor's parameters; a name with a leading underscore is a value
derived from the fields, not a field.  Its ``__init__`` checks the values
and stores them once with ``_set``.  Nothing is generated when the class
is defined, so importing the package stays cheap.
"""


class Frozen:
    """An immutable object: assigning or deleting an attribute raises
    ``AttributeError``.  Equality is identity.  A pickle or copy rebuilds
    the object through its constructor, which checks the fields again."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self._fields().values())


class Value(Frozen):
    """A :class:`Frozen` object equal to, and hashing as, any object of its
    class with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))
