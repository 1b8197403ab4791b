"""The base of the package's record classes: a constructor, equality and
``repr`` built from fields declared once.

A record class names its fields, in order, in ``_fields`` and keeps them in
``__slots__`` (usually ``__slots__ = _fields = (...)``).  When the class is
created, :class:`Record` compiles its constructor from that list, as
``dataclasses`` does: ``__init__(self, f1, f2, ...)`` stores each argument
in the same-named field.  A ``span`` field defaults to None; any other
default comes from the class's ``_defaults`` mapping and is shared by every
instance, so it must be immutable.  The function is compiled, not a loop
over ``setattr``, so it runs the bytecode a hand-written one would: the
front end and ``gen`` build a record for nearly everything they make.

A class that defines ``__init__`` itself keeps it.  Those derive state
when they are built: ``AndOrTable`` its columns, ``Specification`` its
lookup tables, ``TraceGraph`` its adjacency, ``ConsistencyVerdict`` and
``Valuation`` a fresh empty container for an omitted one.

``repr`` shows every field as ``Name(field=value, ...)``.  Two records are
equal when they are of the same class and their ``_compared`` fields are
equal.  ``_compared`` defaults to every field but ``span``: a span locates
a node in its source and never decides equality, so a printed and re-parsed
tree equals the original.  A record never equals a tuple or a record of
another class.

A :class:`Record` is unhashable, like any mutable value.  A
:class:`FrozenRecord` hashes by its compared fields, so it may be a set
member or a dict key; it is never changed after construction, which
nothing enforces (a guard would cost every construction).

Nothing here imports ``dataclasses`` or ``inspect``: every command pays
for the modules the CLI loads at start-up.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable


def _no_fields(record: Record) -> tuple[()]:
    return ()


def _storing_init(cls: type[Record]) -> Callable[..., None]:
    """``__init__`` storing each of ``cls._fields`` from the same-named
    parameter, in order; a default out of order is a ``SyntaxError`` here."""
    defaults = {"span": None, **cls._defaults}
    params = ", ".join(
        f"{name}=defaults[{name!r}]" if name in defaults else name for name in cls._fields
    )
    body = "".join(f"\n    self.{name} = {name}" for name in cls._fields)
    namespace: dict[str, Any] = {"defaults": defaults}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls)
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
