"""The bases of the package's records: ``NamedTuple`` for the tuples and
``Frozen`` for the records that are not tuples."""

from collections import namedtuple

# What typing.NamedTuple refuses in a class body, and the names of the body
# that it does not copy onto the class.
_PROHIBITED = frozenset({"__new__", "__init__", "__slots__", "__getnewargs__",
                         "_fields", "_field_defaults", "_make", "_replace",
                         "_asdict", "_source"})
_SPECIAL = frozenset({"__module__", "__name__", "__annotations__"})


class _NamedTupleMeta(type):
    """Builds each class whose base is ``NamedTuple`` as ``typing.NamedTuple``
    does, less its check of each field's annotation, which compiles every
    string annotation into a ``typing.ForwardRef``. Like typing before
    Python 3.13, it calls no ``__set_name__`` of a value in the body; no
    record's body holds a value that has one."""

    def __new__(mcs, typename, bases, namespace):
        if not bases:
            return super().__new__(mcs, typename, bases, namespace)
        if bases != (NamedTuple,):
            raise TypeError("a NamedTuple record inherits from NamedTuple alone")
        annotations = namespace.get("__annotations__", {})
        defaults = []
        for name in annotations:
            if name in namespace:
                defaults.append(name)
            elif defaults:
                raise TypeError(f"non-default field {name} of {typename} "
                                f"follows default field {defaults[-1]}")
        cls = namedtuple(typename, annotations,
                         defaults=[namespace[name] for name in defaults],
                         module=namespace["__module__"])
        cls.__annotations__ = cls.__new__.__annotations__ = dict(annotations)
        for key, value in namespace.items():
            if key in _PROHIBITED:
                raise AttributeError(f"cannot overwrite NamedTuple attribute {key}")
            if key not in _SPECIAL and key not in cls._fields:
                setattr(cls, key, value)
        return cls


class NamedTuple(metaclass=_NamedTupleMeta):
    """The base of a record that is a tuple: ``class R(NamedTuple)`` with
    annotated fields, defaults and methods gives the class that
    ``typing.NamedTuple`` gives, built by ``collections.namedtuple`` with
    the body's attributes, docstring and ``__annotations__`` copied onto it.
    ``R`` is a subclass of ``tuple`` alone. The annotations stay the
    strings the body wrote, and still document each field's unit and type.
    Typing checks each one and keeps it as a ``ForwardRef``, compiled from
    its string, which costs about as much at import as building the class
    (README, "Start-up")."""


class Frozen:
    """A record whose ``__init__`` sets its fields, named in ``_fields``, in
    its ``__dict__``; any later assignment or deletion raises
    ``AttributeError``. It equals only itself. ``_replace`` copies it
    through the constructor, so the copy rebuilds whatever the constructor
    derives from the fields."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def _replace(self, **changes):
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})
