"""The base of the library's value types.

A value class declares its fields once, in `_fields` (also its
`__slots__`), with the defaults of the last ones in `_defaults`.  Unless it
checks its arguments in its own `__init__`, which sets them by `_init`,
the base writes its `__init__` at class creation, as `namedtuple` writes a
`__new__`.  The base gives what a frozen dataclass would: equality and a
hash by fields between values of one class, a repr listing the fields in
order, no assignment or deletion of attributes, and pickling and copying
that rebuild a value from its fields without its `__init__` checks.  It is
written out rather than taken from `dataclasses`, whose import (with
`inspect`, `ast` and `tokenize`) costs more than the rest of the package.
"""

class Value:
    __slots__ = ()
    _fields = ()
    _defaults = ()

    def __init_subclass__(cls):
        if "__init__" not in cls.__dict__:
            args = ", ".join(cls._fields)
            scope = {"__name__": cls.__module__}
            exec(f"def __init__(self, {args}):\n    self._init({args})", scope)
            cls.__init__ = init = scope["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__defaults__ = cls._defaults or None

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
