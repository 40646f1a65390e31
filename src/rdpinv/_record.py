"""Frozen records: the part of ``dataclasses`` that the value types here use.

``dataclasses`` generates and compiles each record's methods every time a
module is imported, and importing it loads ``inspect`` and ``ast``.  Here
every record shares one set of methods, and its class keeps its fields with
their defaults and one ``attrgetter`` of them.
"""

from operator import attrgetter

_MISSING = object()


class Record:
    """A frozen record.  Its fields are the annotated names of the class and
    of its record bases, base fields first; a class attribute of a field's
    name is that field's default.  Construction binds positional, then
    keyword arguments, and runs ``__post_init__``.  Records are equal when
    they are of one class with equal fields, and hash by their fields."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = {}
        for c in reversed(cls.__mro__):
            own = vars(c)
            for name in own.get("__annotations__", ()):
                fields[name] = own.get(name, _MISSING)
        cls._fields, cls._key = fields, attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Every field's value, in order, or the ``TypeError`` of a bad call."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [repr(f) for f, d in fields.items() if f not in values and d is _MISSING]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values.get(f, d) for f, d in fields.items()]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
