"""The one rule every JSON file is read and written by, derived from the
dataclass or ``typing.NamedTuple`` each JSON object fills.

A field's annotation names the JSON values it takes, by exact type, so
``true`` is never an integer and ``"false"`` never a boolean:

* ``bool``, ``int``, ``str``, ``list``, ``dict``: that JSON type;
  ``float``: any finite JSON number;
* a ``str`` enum: the value of one of its members;
* a dataclass: a JSON object, read field by field;
* ``tuple[X, ...]`` and ``frozenset[X]``: a list of ``X``;
  ``tuple[X, Y]``: a list of exactly an ``X`` and a ``Y``;
* ``dict[str, X]``: an object whose values are ``X``;
* ``Annotated[X, check, ...]``, at any depth: an ``X`` that each ``check``
  (:func:`at_least`, :func:`at_most`, :func:`one_of`) then narrows.

Null is accepted only where the field's default is null, and never for an
object, which is either given or left out. An absent field
takes its default, a field without one is required, and keys naming no
field are ignored. A dataclass that calls :func:`check_ranges` applies
this rule, type included, to each narrowed field on construction. Every
failure raises the error class the loader passes in, with the path to the
value: ``rate_spec[0]: pair``, ``frs[FR1]: srs[SR1.1]: bindings[0]: min_sl``.
:func:`from_json` is the one read that words a failure. For a NamedTuple
read once per evidence line, :func:`reader` compiles on first use a function
applying the same rule that returns None for a record it refuses; the
caller reads only that record again, by :func:`from_json`. A text nesting
lists and objects more than :data:`MAX_DEPTH` deep is refused as nested too
deeply (see :func:`within_depth`).

:func:`to_json` writes the same forms back under the same keys: an enum as
its value, a frozenset as a sorted list, a tuple as a list, a dataclass or
NamedTuple as an object. A field that holds a null, false or enum default
is left out, which :func:`from_json` restores from the absent key; every
other field is written, other defaults included.

:func:`writer` compiles, once per NamedTuple of scalar fields, a function
giving the text ``canonical(to_json(obj))`` without building the dict: its
keys are sorted when it is compiled, and a field holding its omitted default
is left out by the same rule. A value of its field's type is written
directly: a ``str`` by ``json.encoder.encode_basestring``, an ``int`` by
``int.__repr__``, a ``bool`` as ``true`` or ``false``, a member of the
field's enum as its value's text. Any other value is written by
:func:`canonical`, so ``port=True`` writes ``true``, and one it cannot write
raises its TypeError. A class that is no NamedTuple, or a field annotated
other than ``str``, ``int``, ``bool`` or an enum, each alone or with null,
raises TypeError when the writer is compiled. Compiled with slots, fields
never left out, it gives the same text cut around their values.
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
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path

_NULL = type(None)
#: The canonical JSON text of a value: keys sorted, compact separators, non-ASCII text raw.
canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_WORDS = {bool: "a boolean", int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _under(key, problem) -> str:
    """``problem`` (a message or an exception) placed under ``key`` in the path."""
    problem = str(problem)
    return f"{key}{problem}" if problem.startswith("[") else f"{key}: {problem}"


#: Characters of a refused value's text that an error quotes; the rest is cut to "...".
_QUOTED = 60


def quoted(text: str) -> str:
    """``text``, the written form of a refused value, as an error quotes it."""
    return text if len(text) <= _QUOTED else text[:_QUOTED] + "..."


def _wrong(what: str, value) -> ValueError:
    return ValueError(f"expected {what}, got {quoted(json.dumps(value))}")


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
    if origin is typing.Annotated:  # X's spec, each check then applied in turn
        kinds, convert, what, write = _spec(args[0])
        for check in args[1:]:
            convert = check if convert is None else lambda value, first=convert, then=check: then(first(value))
        return kinds, convert, what, write
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
    """Why ``json.loads`` or :func:`within_depth` refused a text: its message
    for invalid JSON, or the reader's limit that valid JSON exceeded (nesting
    depth, digits of an integer)."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return f"an integer of more than {sys.get_int_max_str_digits()} digits"


#: Levels of lists and objects a JSON value may nest, fixed well below
#: Python's recursion limit so that a refused value can be quoted however
#: deep the caller's stack is.
MAX_DEPTH = 512


def within_depth(value):
    """The decoded JSON ``value``; raises RecursionError, as Python's reader
    does past its own limit, if it nests lists and objects more than
    :data:`MAX_DEPTH` deep. It walks one level at a time, never recursing."""
    level = [value]
    for _ in range(MAX_DEPTH + 1):
        level = [held for held in level if type(held) is list or type(held) is dict]
        if not level:
            return value
        level = [item for held in level for item in (held.values() if type(held) is dict else held)]
    raise RecursionError("nested too deeply")


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """The object of ``pairs``; a key given twice, whose last value Python's
    reader would keep without a word, raises KeyError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        raise KeyError(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return obj


def loads(text: str, error: type[ValueError]):
    """The JSON value of the config text ``text``, in which no object may
    repeat a key or nest deeper than :data:`MAX_DEPTH`; a text refused raises
    ``error``, naming the line where it can."""
    try:
        return within_depth(json.loads(text, object_pairs_hook=_unique))
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except KeyError as exc:
        raise error(f"repeated key {exc.args[0]!r}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {unreadable(exc)}") from None


def load(path, error: type[ValueError]):
    """The JSON value in the config file at ``path``, read by :func:`loads`."""
    return loads(Path(path).read_text(encoding="utf-8"), error)


def read(value, hint, error: type[ValueError], label: str):
    """``value`` as a field annotated ``hint`` holds it; errors name ``label``."""
    try:
        return _check(value, _spec(hint))
    except ValueError as exc:
        raise error(_under(label, exc)) from None


@cache
def _fields(cls: type) -> tuple[dict[str, tuple], frozenset[str], tuple[tuple, ...], tuple[tuple, ...]]:
    """Per JSON key: (field name, its spec as :func:`_check` takes it); the
    names of required fields; per field in order: (name, the default left
    out or MISSING, write conversion or None); and (name, spec) per field
    whose annotation holds an ``Annotated`` narrowing at any depth. ``cls``
    is a dataclass or a NamedTuple."""
    hints, plain = typing.get_type_hints(cls, include_extras=True), typing.get_type_hints(cls)
    if is_dataclass(cls):  # a default factory is a default that is never left out
        names = [f.name for f in fields(cls)]
        defaults = {
            f.name: f.default for f in fields(cls) if f.default is not MISSING or f.default_factory is not MISSING
        }
    else:
        names, defaults = cls._fields, cls._field_defaults
    specs, required, writes, narrowings = {}, set(), [], []
    for name in names:
        kinds, convert, what, write = _spec(hints[name])
        default = defaults.get(name, MISSING)
        if default is None and dict not in kinds:  # an object section is given or left out
            kinds, what = (*kinds, _NULL), f"{what} or null"
        elif name not in defaults:
            required.add(name)
        specs[name] = (name, (kinds, convert, what, None))
        if hints[name] != plain[name]:  # the annotation without its narrowings differs
            narrowings.append(specs[name])
        omit = default is None or default is False or isinstance(default, Enum)
        writes.append((name, default if omit else MISSING, write))
    return specs, frozenset(required), tuple(writes), tuple(narrowings)


def from_json(cls: type, raw, error: type[ValueError], **given):
    """Build dataclass or NamedTuple ``cls`` from the JSON object ``raw`` by
    a walk over its keys, checking each against its field; raises ``error``
    with the path to the first value refused. ``given`` fields are passed
    as they are and their keys in ``raw`` ignored.

    This is the one field-by-field read, and the one that words a refusal:
    a caller reading many records of a NamedTuple uses its :func:`reader`
    and reads here only a record that reader refused."""
    if type(raw) is not dict:
        raise error(str(_wrong("an object", raw)))
    specs, required, _, _ = _fields(cls)
    values = given
    for key, value in raw.items():
        entry = specs.get(key)
        if entry is None or key in values:
            continue
        name, spec = entry
        try:
            value = _check(value, spec)
        except ValueError as exc:
            raise error(_under(key, exc)) from None
        # Stored under the field's own name string: keyword matching is then by identity.
        values[name] = value
    if not values.keys() >= required:
        raise error("missing " + next(name for name in specs if name in required and name not in values))
    return cls(**values)


def _require_named_tuple(cls: type) -> None:
    """Raise TypeError unless ``cls`` is a NamedTuple class: only one gets compiled code."""
    if not (issubclass(cls, tuple) and hasattr(cls, "_field_defaults")):
        raise TypeError(f"{cls.__name__}: no compiled JSON form for a class that is no NamedTuple")


@cache
def reader(cls: type, *given: str) -> typing.Callable:
    """``read(raw, strings, **given)``, compiled on first use for the
    NamedTuple ``cls`` and the field names ``given``; any other class raises
    TypeError here.

    The reader makes the checks and conversions of :func:`from_json` on the
    dict ``raw``, field by field in a function written for ``cls``, and
    returns None for any value they refuse: the caller reads that record by
    :func:`from_json`, which words the refusal. Each ``str`` field's value
    passes through ``strings.setdefault``, so records read with one dict
    share equal strings, and the record is built with one
    ``tuple.__new__(cls, values)``, without the class's argument handling.
    """
    _require_named_tuple(cls)
    specs = _fields(cls)[0]
    hints = typing.get_type_hints(cls)
    env = {"_new": tuple.__new__, "_cls": cls, "_M": MISSING}
    body, values = [], []
    for index, name in enumerate(cls._fields):
        if name in given:
            values.append(name)
            continue
        var = f"_{index}"
        values.append(var)
        kinds, convert, _, _ = specs[name][1]
        hint = _unnulled(hints[name])
        nullable = _NULL in kinds
        kinds = tuple(kind for kind in kinds if kind is not _NULL)
        env[f"_k{index}"] = kinds[0] if len(kinds) == 1 else kinds
        steps = [f"if type({var}) {'is not' if len(kinds) == 1 else 'not in'} _k{index}: return None"]
        if convert is not None:
            env[f"_convert{index}"] = convert
            if isinstance(hint, type) and issubclass(hint, Enum) and convert is _spec(hint)[1]:
                # The enum's conversion, with its common case, a member's value, inlined.
                env[f"_members{index}"] = {member.value: member for member in hint}
                steps.append(f"{var} = _members{index}.get({var}) or _convert{index}({var})")
            else:
                steps.append(f"{var} = _convert{index}({var})")
        if hint is str:
            steps.append(f"{var} = _intern({var}, {var})")
        default = cls._field_defaults.get(name, MISSING)
        if nullable:  # the default is null: absent and null read alike
            body += [f"{var} = _get({name!r})", f"if {var} is not None:", *(f"    {step}" for step in steps)]
        elif default is MISSING:  # required: the missing marker fails the type test
            body += [f"{var} = _get({name!r}, _M)", *steps]
        else:
            env[f"_d{index}"] = default
            body += [f"{var} = _get({name!r}, _M)", f"if {var} is _M: {var} = _d{index}", "else:"]
            body += [f"    {step}" for step in steps]
    params = ", ".join(["_raw", "_strings", *(["*", *given] if given else [])])
    source = "\n".join([
        f"def read({params}):",
        "    _get = _raw.get",
        "    _intern = _strings.setdefault",
        "    try:",
        *(f"        {line}" for line in body),
        "    except ValueError:",
        "        return None",
        f"    return _new(_cls, ({', '.join(values)},))",
    ])
    exec(source, env)
    return env["read"]


def to_json(obj) -> dict:
    """The JSON object form of dataclass or NamedTuple instance ``obj``, the
    inverse of :func:`from_json`: a field holding a null, false or enum
    default is left out."""
    cls = type(obj)
    record = {}
    for name, omitted, write in _fields(cls)[2]:
        value = getattr(obj, name)
        if value is not omitted:
            record[name] = value if write is None else write(value)
    return record


@cache
def writer(cls: type, *slots: str) -> typing.Callable:
    """``write(obj)``: the :func:`canonical` text of :func:`to_json` for an
    instance of the NamedTuple ``cls``, from a function written for ``cls``
    (see the module docstring); any other class, or a field annotated other
    than ``str``, ``int``, ``bool`` or an enum, alone or with null, raises
    TypeError here.

    The function reads every field with one unpacking, and writes a member
    of an enum field's own enum from a table of each member's text, made
    here. Given ``slots``, names of fields that are never left out, it
    gives that text cut around each slot's value instead: one piece more
    than ``slots``, in key order, each slot's key and colon ending the
    piece before its value."""
    _require_named_tuple(cls)
    if not set(slots) <= set(cls._fields):
        raise TypeError(f"{cls.__name__}: no field {sorted(set(slots) - set(cls._fields))[0]!r} to cut at")
    hints = typing.get_type_hints(cls)
    writes = _fields(cls)[2]
    env = {"_str": encode_basestring, "_int": int.__repr__, "_canonical": canonical}
    body, cuts = [f"({', '.join(f'_{index}' for index in range(len(writes)))},) = _obj"], 0
    for index, (name, omitted, _) in sorted(enumerate(writes), key=lambda item: item[1][0]):
        hint, var, key = _unnulled(hints[name]), f"_{index}", encode_basestring(name) + ":"
        if name in slots:
            if omitted is not MISSING:
                raise TypeError(f"{cls.__name__}.{name}: a slot must be a field that is never left out")
            opening, cuts = "," if cuts else "{", cuts + 1
            body += [f"_append({key!r})", f'_pieces.append({opening!r} + ",".join(_parts))', "_parts.clear()"]
            continue
        if hint is str or hint is int:
            text = f"_{hint.__name__}({var}) if type({var}) is {hint.__name__} else _canonical({var})"
        elif hint is bool:
            text = f'"false" if {var} is False else "true" if {var} is True else _canonical({var})'
        elif isinstance(hint, type) and issubclass(hint, Enum):
            env[f"_t{index}"], env[f"_e{index}"] = hint, {member: canonical(member.value) for member in hint}
            text = f"_e{index}[{var}] if type({var}) is _t{index} else _canonical({var}.value)"
        else:
            raise TypeError(f"{cls.__name__}.{name}: no compiled JSON form for {hint!r}")
        append = f"_append({key!r} + ({text}))"
        if omitted is MISSING:
            body.append(append)
        else:
            env[f"_o{index}"] = omitted
            body += [f"if {var} is not _o{index}:", f"    {append}"]
    source = "\n".join([
        "def write(_obj):",
        "    _parts, _pieces = [], []" if slots else "    _parts = []",
        "    _append = _parts.append",
        *(f"    {line}" for line in body),
        *(['    _pieces.append("," + ",".join(_parts) + "}" if _parts else "}")', "    return _pieces"] if slots
          else ['    return "{" + ",".join(_parts) + "}"']),
    ])
    exec(source, env)
    return env["write"]


def check_ranges(obj, error: type[ValueError]) -> None:
    """Apply to dataclass ``obj`` a file's rule, type included, for each field
    narrowed by ``Annotated`` at any depth, so a value a file is refused for
    is refused on construction too. Raises ``error`` naming the field and
    the value: ``zone_sl_target[cell]: expected one of 1, 2, 3, 4, got 0``."""
    for name, spec in _fields(type(obj))[3]:
        try:
            _check(getattr(obj, name), spec)
        except ValueError as exc:
            raise error(_under(name, exc)) from None


def at_least(low: int) -> typing.Callable:
    """``Annotated`` metadata of a field admitting only integers from ``low`` up."""

    def check(value: int) -> int:
        if value < low:
            raise _wrong(f"at least {low}", value)
        return value

    return check


def at_most(high: int) -> typing.Callable:
    """``Annotated`` metadata of a field admitting only integers up to ``high``."""

    def check(value: int) -> int:
        if value > high:
            raise _wrong(f"at most {high}", value)
        return value

    return check


def one_of(*allowed) -> typing.Callable:
    """``Annotated`` metadata of a field admitting only the values ``allowed``."""

    def check(value):
        if value not in allowed:
            raise _wrong("one of " + ", ".join(map(str, allowed)), value)
        return value

    return check
