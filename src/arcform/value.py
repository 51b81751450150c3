"""The immutable base of the package's value classes."""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

__all__ = ["Value"]


class Value:
    """A value of named fields, compared, hashed and shown by them.

    A subclass lists its fields in `_fields`, in constructor order, and
    its `__init__` stores them with `vars(self).update(...)`; no field
    can be assigned or deleted after that. Two values are equal when
    they are of the same class and their fields are equal, equal values
    hash equal, and the repr shows each field as a keyword argument.
    `climax.Curve` is the one exception: it compares, hashes and reprs
    as the tuple of its rows.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # called as `self._key(self)`: the fields' values as a tuple, or
        # a one-field class's one value; C code, for hashing trees fast
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> dict[str, object]:
        # a copy or a pickle carries what was stored, not what was cached
        cls = type(self)
        return {name: value for name, value in vars(self).items()
                if not isinstance(getattr(cls, name, None), cached_property)}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
