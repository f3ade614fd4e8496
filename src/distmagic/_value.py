"""The base of the library's value types.

A value class names its fields in `_fields`, in the order of its
constructor's parameters, keeps them in `__slots__`, and sets them in its
own `__init__` through `_init`.  The base gives what a frozen dataclass
would: equality and a hash by fields between values of one class, a repr
listing the fields in order, no assignment or deletion of attributes, and
pickling and copying that rebuild a value from its fields without running
its `__init__` checks again.  It is written out rather than taken from
`dataclasses`, whose import (with `inspect`, `ast` and `tokenize`) costs
more than the rest of the package.
"""

class Value:
    __slots__ = ()
    _fields = ()

    def _init(self, *values):
        for name, x in zip(self._fields, values):
            object.__setattr__(self, name, x)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _of_fields(cls, *values):
        """The value of cls with the given fields, without `__init__`."""
        value = object.__new__(cls)
        value._init(*values)
        return value

    def __reduce__(self):
        return self._of_fields, self._values()
