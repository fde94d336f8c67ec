"""Base classes of the value records (bidegrees, matrices, groups, reports).

A record names its fields in `_fields` and sets them in its own `__init__`.
It equals only records of its own class with equal fields, and its repr is
`Name(field=value, ...)` in field order. A frozen record also hashes as the
tuple of its fields and refuses every attribute assignment or deletion, so
its `__init__` sets the fields with `object.__setattr__`.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class FrozenRecord(Record):
    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
