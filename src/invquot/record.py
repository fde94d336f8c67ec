"""Base classes of the value records (bidegrees, matrices, groups, reports).

A record names its fields once, in `_fields`; the shared `__init__` binds
them by position, then by keyword, with the TypeErrors of a Python signature,
and stores them with one `__dict__` update. A record equals only records of
its own class with equal fields; its repr is `Name(field=value, ...)` in field
order. A frozen record also hashes as the tuple of its fields and refuses
every attribute assignment or deletion, which the `__dict__` update bypasses.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            missing = ", ".join(repr(key) for key in fields if key not in values)
            raise TypeError(f"{name}() missing required arguments: {missing}")
        self.__dict__.update(values)

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
