"""Read-only records, the base of every value type in the package.

A record class names its fields, in order, in `__slots__`, and fills them in
an explicit `__init__` with `set_field`.  The base gives it what a frozen
dataclass has: assigning or deleting an attribute raises AttributeError,
equality and the hash go by class and field values, the repr names every
field, and `replace` returns a copy with some fields changed.  (Not a
dataclass: defining seventeen frozen ones took 11-17 ms at import, and
loading `dataclasses` loads `inspect`, about 7 ms more.)
"""

set_field = object.__setattr__  # fills a slot, past Record.__setattr__


class Record:
    __slots__ = ("__weakref__",)
    _fields = ()  # the field names, base class first

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a `__dict__` slot holds cached properties, not a field
        cls._fields += tuple(name for name in vars(cls).get("__slots__", ()) if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle build the copy through __init__
        return type(self), self._values()

    def replace(self, **changes):
        """A copy of this record with the fields named in `changes` set to
        their values, built and checked by `__init__`."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
