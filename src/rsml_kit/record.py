"""The base of the package's record classes: equality and ``repr`` over
declared fields, with no code generated at import.

A record class names its constructor's fields, in order, in ``_fields``,
keeps them in ``__slots__`` (usually ``__slots__ = _fields = (...)``) and
assigns each one in a hand-written ``__init__``.  ``repr`` shows every
field as ``Name(field=value, ...)``.  Two records are equal when they are
of the same class and their ``_compared`` fields are equal.  ``_compared``
defaults to every field but ``span``: a span locates a node in its source
and never decides equality, so a printed and re-parsed tree equals the
original.  A record never equals a tuple or a record of another class.

A :class:`Record` is unhashable, like any mutable value.  A
:class:`FrozenRecord` hashes by its compared fields, so it may be a set
member or a dict key; it is never changed after construction, which
nothing enforces (a guard would cost every construction).
"""

from __future__ import annotations

from operator import attrgetter


def _no_fields(record: Record) -> tuple[()]:
    return ()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        compared = cls.__dict__.get("_compared")
        if compared is None:
            compared = cls._compared = tuple(name for name in cls._fields if name != "span")
        # The compared values, as one tuple (a bare value for one field).
        cls._key = staticmethod(attrgetter(*compared) if compared else _no_fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))
