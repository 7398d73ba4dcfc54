"""Frozen records whose methods are shared rather than generated per class.

``dataclasses.dataclass(frozen=True)`` writes and compiles an ``__init__``,
``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__``
for each class, about 1 ms of import time per class.  A :class:`Record`
subclass is decorated with those switched off, so it stays a dataclass to
the standard library (``fields``, ``replace``, ``asdict``, ``is_dataclass``)
and inherits one copy of each method from :class:`Record`, driven by its
``__dataclass_fields__``.  They behave as the generated methods of a frozen
dataclass: arguments bind by position or keyword, with defaults, and a
``kw_only=True`` class keyword makes every field keyword-only; fields are set
with ``object.__setattr__`` before ``__post_init__`` runs; ``==`` compares
the field tuples of two instances of one class and is ``NotImplemented``
across classes; ``hash`` is the field tuple's; ``repr`` is
``Name(field=value, ...)``; assigning or deleting an attribute raises
:class:`dataclasses.FrozenInstanceError`.  Instances keep a ``__dict__``, so
a ``functools.cached_property`` still works.  A field is an annotation with
a plain default or none; the options of ``dataclasses.field`` are not read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError


class Record:
    """Base of the frozen records: ``class Name(Record)``, or
    ``class Name(Record, kw_only=True)`` for keyword-only fields."""

    def __init_subclass__(cls, kw_only: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False, kw_only=kw_only)
        fields = dataclasses.fields(cls)
        cls._record_names = tuple(f.name for f in fields)
        cls._record_positional = tuple(f.name for f in fields if not f.kw_only)
        cls._record_defaults = {f.name: f.default for f in fields if f.default is not MISSING}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        positional = cls._record_positional
        if len(args) > len(positional):
            raise TypeError(
                f"{cls.__qualname__}.__init__() takes {len(positional)} positional "
                f"argument(s) but {len(args)} were given"
            )
        for name, value in zip(positional, args):
            if name in kwargs:
                raise TypeError(
                    f"{cls.__qualname__}.__init__() got multiple values for argument {name!r}"
                )
            kwargs[name] = value
        defaults = cls._record_defaults
        for name in cls._record_names:
            value = kwargs.pop(name, MISSING)
            if value is MISSING:
                value = defaults.get(name, MISSING)
                if value is MISSING:
                    raise TypeError(
                        f"{cls.__qualname__}.__init__() missing required argument {name!r}"
                    )
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(
                f"{cls.__qualname__}.__init__() got an unexpected keyword argument "
                f"{next(iter(kwargs))!r}"
            )
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation after the fields are set; a subclass overrides it."""

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_names)
        return f"{type(self).__qualname__}({shown})"

    def _record_key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._record_names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record_key() == other._record_key()

    def __hash__(self) -> int:
        return hash(self._record_key())

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
