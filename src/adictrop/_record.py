"""Frozen value records, built without `@dataclass`.

`@dataclass(frozen=True)` writes each method's source and runs it through
`exec` in every process, and its module's import loads `inspect`, `ast`,
`dis` and `tokenize`: 10 ms to import and 20 ms for the records of a CLI
process (2-CPU x86-64, Python 3.11).  `record` adds closures, compiling none.

Fields are the annotations of the class and of its record bases, in order;
a class attribute is a field's default.  Records are frozen, equal when of
the same class with equal field tuples, and hash as that tuple.  There is
no `field()` (`__post_init__` writes derived attributes, or normalized
fields, to `self.__dict__`) and no ordering.
"""

from __future__ import annotations

from operator import attrgetter


def _bind(name: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call that passes other than every field by position."""
    if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
        raise TypeError(f"{name}() takes the fields {names}, got {len(args)} "
                        f"positional arguments and the keywords {sorted(kwargs)}")
    values = {**defaults, **dict(zip(names, args)), **kwargs}
    if len(values) < len(names):
        raise TypeError(f"{name}() missing arguments {[a for a in names if a not in values]}")
    return [values[a] for a in names]


def record(cls):
    names = getattr(cls, "__match_args__", ()) + tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {a: getattr(cls, a) for a in names if hasattr(cls, a)}
    n, post = len(names), hasattr(cls, "__post_init__")
    key = attrgetter(*names) if n > 1 else lambda self: tuple(getattr(self, a) for a in names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(type(self).__name__, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post:
            self.__post_init__()

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{a}={v!r}" for a, v in zip(names, key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
