"""The base class of every frozen value record of the package.

Records are plain ``__slots__`` classes rather than frozen dataclasses:
importing ``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``) and creating each decorated class would cost a fresh
``knotstat`` process more than most subcommands spend on their maths.

A record keeps the behaviour of the frozen dataclass it replaces.  Its
``__init__`` stores each field once; assignment and deletion raise
``AttributeError``; ``==`` holds between instances of the same class whose
compared fields are equal; ``hash`` is the hash of the tuple of those
fields, exactly as a dataclass computes it, so sets and dicts of records
iterate in the same order; ``repr`` prints every field as
``Name(field=value, ...)``; and ``copy``/``pickle`` round-trip.

A slot whose name starts with ``_`` is not a field but a private memo of
data derived from the fields: it takes no part in ``==``, ``hash``,
``repr``, ``copy`` or ``pickle``, starts unset, and is written once with
``object.__setattr__`` by the code that derives it.
"""

from __future__ import annotations


class Record:
    """Frozen value record: subclasses list their fields in ``__slots__``.

    ``_fields`` is ``__slots__`` without the private memo slots.
    ``_compare`` names the fields that take part in ``==`` and ``hash``;
    it defaults to all of ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields

    def _set(self, *values) -> None:
        """Store ``values`` in the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)
