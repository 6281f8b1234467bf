"""The base class of the package's record types.

A record lists its fields as class annotations, in order, with optional
class-level defaults.  Subclassing :class:`Record` gives it an ``__init__``
taking the fields positionally or by keyword (then calling
``__post_init__`` if the class has one, looked up on the instance at every
construction), ``==`` between instances of the same class only, ``hash``
equal to the hash of the tuple of the fields (so a record with a dict
field is unhashable, as its field tuple is), ``repr`` as
``Name(field=value, ...)``, and ``AttributeError`` on assigning or deleting
an attribute: every record is frozen.

The methods are closures made when the class is created.  No source is
generated, so importing the package loads neither ``inspect`` nor ``ast``,
which start-up would pay for in every command-line call.  A class may write
any of ``__init__``, ``__eq__`` and ``__hash__`` itself, with direct
attribute code, and must then keep to the same contract; the record types
built and compared in inner loops do.  Fields are set through ``object.__setattr__``
(:data:`_set`), which keeps the instance's attribute storage compact.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """Base of a record type; see the module docstring."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        names = tuple(own.get("__annotations__", ()))
        cls._fields = names
        if "__init__" not in own:
            cls.__init__ = _make_init(cls, names)
        if "__eq__" not in own:
            cls.__eq__ = _make_eq(names)
        if own.get("__hash__") is None:
            cls.__hash__ = _make_hash(names)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _make_init(cls, names):
    n = len(names)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post:
            self.__post_init__()

    return __init__


def _bind(qualname, names, defaults, args, kwargs) -> tuple:
    """The field values of a call with keywords or defaults, in field order."""
    given = dict(zip(names, args))
    if len(args) > len(names) or given.keys() & kwargs or not kwargs.keys() <= set(names):
        raise TypeError(f"{qualname}() takes the fields {', '.join(names)}, each at most once")
    values = {**defaults, **given, **kwargs}
    missing = [k for k in names if k not in values]
    if missing:
        raise TypeError(f"{qualname}() missing fields: {', '.join(missing)}")
    return tuple(values[k] for k in names)


def _field_values(names):
    """A function from a record to the tuple of its field values."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda self: (get(self),)


def _make_eq(names):
    values = _field_values(names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    return __eq__


def _make_hash(names):
    values = _field_values(names)

    def __hash__(self):
        return hash(values(self))

    return __hash__
