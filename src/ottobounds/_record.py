"""Immutable records: the small base class of the package's value types.

A subclass's ``__init__`` validates its arguments and stores them once, one
item store per field in field order (``d = self.__dict__``, then
``d["beta"] = ...``); that order is the order of ``repr``, equality,
hashing and ``vars()``.  Records behave like frozen dataclasses without
importing ``dataclasses`` at start-up: assignment and deletion raise
``dataclasses.FrozenInstanceError``, imported when raised.
"""


class Record:
    """Frozen value type whose fields are its instance ``__dict__``."""

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"
