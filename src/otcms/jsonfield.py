"""The one rule every JSON file is read and written by, derived from the
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
``frs[FR1]: srs[SR1.1]: bindings[0]: min_sl``. A slotted dataclass, read
once per evidence line, gets a reader compiled for it on first use that
applies the same rule and hands any record it refuses to the field-by-field
walk, which words the failure.

:func:`to_json` writes the same forms back under the same keys: an enum as
its value, a frozenset as a sorted list, a tuple as a list, a dataclass as
an object. A field that holds a null, false or enum default is left out,
which :func:`from_json` restores from the absent key; every other field is
written, other defaults included.
"""

from __future__ import annotations

import json
import math
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import repeat
from operator import attrgetter
from pathlib import Path

_NULL = type(None)
_WORDS = {bool: "a boolean", int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _under(key, problem) -> str:
    """``problem`` (a message or an exception) placed under ``key`` in the path."""
    problem = str(problem)
    return f"{key}{problem}" if problem.startswith("[") else f"{key}: {problem}"


#: Characters of a refused value's JSON that an error quotes; the rest is cut to "...".
_QUOTED = 60


def _wrong(what: str, value) -> ValueError:
    text = json.dumps(value)
    return ValueError(f"expected {what}, got {text if len(text) <= _QUOTED else text[:_QUOTED] + '...'}")


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


def _unnulled(hint):
    """``hint`` without its null alternative, if it has one."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not _NULL)
    return hint


@cache
def _spec(hint) -> tuple[tuple[type, ...], typing.Callable | None, str, typing.Callable | None]:
    """(JSON types, read conversion or None, description, write conversion
    or None) of a value annotated ``hint``; a read conversion raises
    ValueError on a value it refuses."""
    hint = _unnulled(hint)  # null follows the field's default
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return (int, float), _float, "a number", None
    if hint in _WORDS:
        return (hint,), None, _WORDS[hint], None
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {member.value: member for member in hint}
        # The enum's own lookup only on a miss: it raises the enum's message.
        return (str,), lambda value: members.get(value) or hint(value), "a string", attrgetter("value")
    if is_dataclass(hint):
        return (dict,), lambda value: from_json(hint, value, ValueError), "an object", to_json
    if origin in (tuple, frozenset):
        variadic = origin is frozenset or args[-1] is Ellipsis
        items = tuple(map(_spec, args[:1] if variadic else args))

        def convert(value: list):
            if not variadic and len(value) != len(items):
                raise _wrong(f"a list of {len(items)} items", value)
            return origin(_each(enumerate(value), repeat(items[0]) if variadic else items))

        writes = [spec[3] for spec in items]

        def write(value) -> list:
            if origin is frozenset:
                value = sorted(value)
            if not variadic:
                return [item if each is None else each(item) for each, item in zip(writes, value)]
            return list(value) if writes[0] is None else list(map(writes[0], value))

        return (list,), convert, "a list", write
    if origin is dict:
        spec = _spec(args[1])
        each = spec[3]

        def write(value: dict) -> dict:
            return dict(value) if each is None else {key: each(item) for key, item in value.items()}

        return (dict,), lambda value: dict(zip(value, _each(value.items(), repeat(spec)))), "an object", write
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
    kinds, convert, what, _ = spec
    if type(value) not in kinds:
        raise _wrong(what, value)
    return value if convert is None or value is None else convert(value)


def unreadable(exc: ValueError | RecursionError) -> str:
    """Why ``json.loads`` refused a text: its message for invalid JSON, or
    the reader's limit that valid JSON exceeded (nesting depth, digits of
    an integer)."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return f"an integer of more than {sys.get_int_max_str_digits()} digits"


def load(path, error: type[ValueError]):
    """The JSON value in the file at ``path``; a text ``json.loads`` refuses
    raises ``error`` naming the path, and the line where it can."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON: {unreadable(exc)}") from None


def read(value, hint, error: type[ValueError], label: str):
    """``value`` as a field annotated ``hint`` holds it; errors name ``label``."""
    try:
        return _check(value, _spec(hint))
    except ValueError as exc:
        raise error(_under(label, exc)) from None


def _fields(cls: type) -> tuple[dict[str, tuple], frozenset[str], tuple[tuple, ...]]:
    """Per JSON key: (field name, JSON types, conversion, description); the
    names of required fields; and per field in order: (name, the default
    left out or MISSING, write conversion or None)."""
    hints = typing.get_type_hints(cls)
    specs, required, writes = {}, set(), []
    for f in fields(cls):
        kinds, convert, what, write = _spec(hints[f.name])
        if f.default is None and dict not in kinds:  # an object section is given or left out
            kinds, what = (*kinds, _NULL), f"{what} or null"
        elif f.default is MISSING and f.default_factory is MISSING:
            required.add(f.name)
        specs[f.name] = (f.name, kinds, f.metadata.get("check", convert), what)
        omit = f.default is None or f.default is False or isinstance(f.default, Enum)
        writes.append((f.name, f.default if omit else MISSING, write))
    return specs, frozenset(required), tuple(writes)


_FIELDS: dict[type, tuple[dict[str, tuple], frozenset[str], tuple[tuple, ...]]] = {}
_READERS: dict[tuple, typing.Callable | None] = {}


def from_json(cls: type, raw, error: type[ValueError], *, strings: dict | None = None, **given):
    """Build dataclass ``cls`` from the JSON object ``raw``; ``given`` fields
    are passed as they are and their keys in ``raw`` ignored.

    A slotted dataclass is read by a reader compiled for it and the names
    of ``given`` on first use (see :func:`_compile`), which makes each
    string value the equal one already in ``strings``: a caller reading
    many records passes one dict to all, so equal values share one object.
    A record that reader refuses, and every record of another class, is
    read by :func:`_walk`, which words the failure.
    """
    if type(raw) is not dict:
        raise error(str(_wrong("an object", raw)))
    key = (cls, *given)
    reader = _READERS.get(key, MISSING)
    if reader is MISSING:
        reader = _READERS[key] = _compile(cls, key[1:])
    if reader is not None:
        made = reader(raw, {} if strings is None else strings, **given)
        if made is not None:
            return made
    return _walk(cls, raw, error, given)


def _walk(cls: type, raw: dict, error: type[ValueError], given: dict):
    """:func:`from_json` by a walk over the keys of ``raw``, checking each
    against its field; raises ``error`` with the path to the first value
    refused. ``given`` is consumed."""
    specs, required, _ = _FIELDS.get(cls) or _FIELDS.setdefault(cls, _fields(cls))
    values = given
    for key, value in raw.items():
        entry = specs.get(key)
        if entry is None or key in values:
            continue
        name, kinds, convert, what = entry
        try:
            if type(value) not in kinds:
                raise _wrong(what, value)
            if convert is not None and value is not None:
                value = convert(value)
        except ValueError as exc:
            raise error(_under(key, exc)) from None
        # Stored under the field's own name string: keyword matching is then by identity.
        values[name] = value
    if not values.keys() >= required:
        raise error("missing " + next(name for name in specs if name in required and name not in values))
    return cls(**values)


def _compile(cls: type, given: tuple[str, ...]) -> typing.Callable | None:
    """``reader(raw, strings, **given)`` for a slotted dataclass ``cls``
    without ``__post_init__``, else None.

    The reader makes the checks and conversions of :func:`_walk` on the
    dict ``raw``, field by field in a function written for ``cls``, and
    returns None for any value they refuse. It sets each slot through its
    descriptor on ``object.__new__(cls)``, so a frozen class stays frozen
    to callers without paying for its ``__init__``, and passes each
    ``str`` field's value through ``strings.setdefault``.
    """
    if "__slots__" not in vars(cls) or hasattr(cls, "__post_init__"):
        return None
    specs = (_FIELDS.get(cls) or _FIELDS.setdefault(cls, _fields(cls)))[0]
    hints = typing.get_type_hints(cls)
    env = {"_new": object.__new__, "_cls": cls, "_M": MISSING}
    body = []
    for f in fields(cls):
        name = f.name
        env[f"_set_{name}"] = vars(cls)[name].__set__
        if name in given:
            body.append(f"_set_{name}(_obj, {name})")
            continue
        _, kinds, convert, _ = specs[name]
        hint = _unnulled(hints[name])
        nullable = _NULL in kinds
        kinds = tuple(kind for kind in kinds if kind is not _NULL)
        env[f"_k_{name}"] = kinds[0] if len(kinds) == 1 else kinds
        steps = [f"if type(_v) {'is not' if len(kinds) == 1 else 'not in'} _k_{name}: return None"]
        if convert is not None:
            env[f"_convert_{name}"] = convert
            if isinstance(hint, type) and issubclass(hint, Enum) and "check" not in f.metadata:
                # The enum's conversion, with its common case, a member's value, inlined.
                env[f"_members_{name}"] = {member.value: member for member in hint}
                steps.append(f"_v = _members_{name}.get(_v) or _convert_{name}(_v)")
            else:
                steps.append(f"_v = _convert_{name}(_v)")
        if hint is str:
            steps.append("_v = _intern(_v, _v)")
        default = f.default_factory if f.default is MISSING else f.default
        env[f"_d_{name}"] = default
        if nullable:  # the default is null: absent and null read alike
            body += [f"_v = _get({name!r})", "if _v is not None:", *(f"    {step}" for step in steps)]
        elif default is MISSING:  # required: the missing marker fails the type test
            body += [f"_v = _get({name!r}, _M)", *steps]
        else:
            call = "()" if f.default is MISSING else ""
            body += [f"_v = _get({name!r}, _M)", f"if _v is _M: _v = _d_{name}{call}", "else:"]
            body += [f"    {step}" for step in steps]
        body.append(f"_set_{name}(_obj, _v)")
    params = ", ".join(["_raw", "_strings", *(["*", *given] if given else [])])
    source = "\n".join([
        f"def read({params}):",
        "    _get = _raw.get",
        "    _intern = _strings.setdefault",
        "    _obj = _new(_cls)",
        "    try:",
        *(f"        {line}" for line in body),
        "    except ValueError:",
        "        return None",
        "    return _obj",
    ])
    exec(source, env)
    return env["read"]


def to_json(obj) -> dict:
    """The JSON object form of dataclass instance ``obj``, the inverse of
    :func:`from_json`: a field holding a null, false or enum default is left
    out."""
    cls = type(obj)
    record = {}
    for name, omitted, write in (_FIELDS.get(cls) or _FIELDS.setdefault(cls, _fields(cls)))[2]:
        value = getattr(obj, name)
        if value is not omitted:
            record[name] = value if write is None else write(value)
    return record


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
