"""The one rule every input loader applies to JSON values, read off the
dataclass each JSON object fills.

A field's annotation names the JSON values it takes, by exact type, so
``true`` is never an integer and ``"false"`` never a boolean:

* ``bool``, ``int``, ``str``, ``list``, ``dict``: that JSON type;
  ``float``: any finite JSON number;
* a ``str`` enum: the value of one of its members;
* a dataclass: a JSON object, read field by field;
* ``tuple[X, ...]`` and ``frozenset[X]``: a list of ``X``;
  ``tuple[X, Y]``: a list of exactly an ``X`` and a ``Y``;
* ``dict[str, X]``: an object whose values are ``X``.

Null is accepted only where the field's default is null, and never for an
object, which is either given or left out. An absent field
takes its default, a field without one is required, and keys naming no
field are ignored. :func:`at_least` and :func:`one_of` narrow a scalar
field's values through its metadata. Every failure raises the error class
the loader passes in, with the path to the value: ``rate_spec[0]: pair``,
``frs[FR1]: srs[SR1.1]: bindings[0]: min_sl``.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import repeat

_NULL = type(None)
_WORDS = {bool: "a boolean", int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _under(key, problem) -> str:
    """``problem`` (a message or an exception) placed under ``key`` in the path."""
    problem = str(problem)
    return f"{key}{problem}" if problem.startswith("[") else f"{key}: {problem}"


def _wrong(what: str, value) -> ValueError:
    return ValueError(f"expected {what}, got {json.dumps(value)}")


def _float(value: int | float) -> float:
    """A JSON number as a float; Python's JSON reader also admits NaN and
    infinities, which are not JSON numbers, and integers beyond float range."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _wrong("a finite number", value)
    return number


def _name(item, key):
    """An item's name in a path: its string ``id`` if it has one, else its key or index."""
    return item["id"] if type(item) is dict and type(item.get("id")) is str else key


@cache
def _spec(hint) -> tuple[tuple[type, ...], typing.Callable | None, str]:
    """(JSON types, conversion or None, description) of a value annotated
    ``hint``; a conversion raises ValueError on a value it refuses."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (hint,) = (arg for arg in args if arg is not _NULL)  # null follows the field's default
        return _spec(hint)
    if hint is float:
        return (int, float), _float, "a number"
    if hint in _WORDS:
        return (hint,), None, _WORDS[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {member.value: member for member in hint}
        # The enum's own lookup only on a miss: it raises the enum's message.
        return (str,), lambda value: members.get(value) or hint(value), "a string"
    if is_dataclass(hint):
        return (dict,), lambda value: from_json(hint, value, ValueError), "an object"
    if origin in (tuple, frozenset):
        variadic = origin is frozenset or args[-1] is Ellipsis
        items = tuple(map(_spec, args[:1] if variadic else args))

        def convert(value: list):
            if not variadic and len(value) != len(items):
                raise _wrong(f"a list of {len(items)} items", value)
            return origin(_each(enumerate(value), repeat(items[0]) if variadic else items))

        return (list,), convert, "a list"
    if origin is dict:
        spec = _spec(args[1])
        return (dict,), lambda value: dict(zip(value, _each(value.items(), repeat(spec)))), "an object"
    raise TypeError(f"no JSON form for {hint!r}")


def _each(pairs, specs) -> list:
    """The item of each (key, item) pair checked against its spec; a failure
    names the item (see :func:`_name`), built only then."""
    checked = []
    for (key, item), spec in zip(pairs, specs):
        try:
            checked.append(_check(item, spec))
        except ValueError as exc:
            raise ValueError(_under(f"[{_name(item, key)}]", exc)) from None
    return checked


def _check(value, spec: tuple):
    """``value`` checked against and converted by ``spec``; raises ValueError."""
    kinds, convert, what = spec
    if type(value) not in kinds:
        raise _wrong(what, value)
    return value if convert is None or value is None else convert(value)


def read(value, hint, error: type[ValueError], label: str):
    """``value`` as a field annotated ``hint`` holds it; errors name ``label``."""
    try:
        return _check(value, _spec(hint))
    except ValueError as exc:
        raise error(_under(label, exc)) from None


def _fields(cls: type) -> tuple[dict[str, tuple], frozenset[str]]:
    """Per JSON key: (field name, JSON types, conversion, description); and
    the names of required fields."""
    hints = typing.get_type_hints(cls)
    specs, required = {}, set()
    for f in fields(cls):
        kinds, convert, what = _spec(hints[f.name])
        if f.default is None and dict not in kinds:  # an object section is given or left out
            kinds, what = (*kinds, _NULL), f"{what} or null"
        elif f.default is MISSING and f.default_factory is MISSING:
            required.add(f.name)
        specs[f.name] = (f.name, kinds, f.metadata.get("check", convert), what)
    return specs, frozenset(required)


_FIELDS: dict[type, tuple[dict[str, tuple], frozenset[str]]] = {}


def from_json(cls: type, raw, error: type[ValueError], **given):
    """Build dataclass ``cls`` from the JSON object ``raw``; ``given`` fields
    are passed as they are and their keys in ``raw`` ignored."""
    if type(raw) is not dict:
        raise error(str(_wrong("an object", raw)))
    specs, required = _FIELDS.get(cls) or _FIELDS.setdefault(cls, _fields(cls))
    values = given  # a fresh dict on every call
    for key, value in raw.items():
        entry = specs.get(key)
        if entry is None or key in values:
            continue
        name, kinds, convert, what = entry
        try:  # _check, inlined: this loop runs for every field of every evidence line
            if type(value) not in kinds:
                raise _wrong(what, value)
            if convert is not None and value is not None:
                value = convert(value)
        except ValueError as exc:
            raise error(_under(key, exc)) from None
        # Stored under the field's own name string: keyword matching is then
        # by identity, which keeps the parse as fast as spelled-out keywords.
        values[name] = value
    if not values.keys() >= required:
        raise error("missing " + next(name for name in specs if name in required and name not in values))
    return cls(**values)


def at_least(low: int) -> dict:
    """Field metadata admitting only integers from ``low`` up."""

    def check(value: int) -> int:
        if value < low:
            raise _wrong(f"at least {low}", value)
        return value

    return {"check": check}


def one_of(*allowed) -> dict:
    """Field metadata admitting only the values ``allowed``."""

    def check(value):
        if value not in allowed:
            raise _wrong("one of " + ", ".join(map(str, allowed)), value)
        return value

    return {"check": check}
