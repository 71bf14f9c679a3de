"""The base of the records that are not tuples."""


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
