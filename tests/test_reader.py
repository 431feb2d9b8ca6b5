"""The reader ``jsonfield`` compiles for a NamedTuple, against the
field-by-field walk it falls back to, and the evidence parse built on it;
and the writer it compiles, against ``json.dumps`` of ``to_json``."""

import gc
import json
import tracemalloc
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otcms import jsonfield
from otcms.detectors import Severity
from otcms.evidence import EvidenceError, EvidenceEvent, IdScheme, load_evidence, parse_evidence, write_evidence
from otcms.jsonfield import from_json

NAMES = list(EvidenceEvent._fields)
BASE = {"timestamp": 5, "src_id": "10.0.1.10", "dst_id": "10.0.2.20", "protocol": "MQTT"}

# Values each field takes, values of a neighbouring type, and values on the
# edges of the metadata checks, so records are accepted as well as refused.
field_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "MQTT", "Success", "Failure", "success", "IP", "Username", "Phone", "1.04", "true"]),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
records = st.builds(
    lambda base, changes, dropped: {**{k: v for k, v in base.items() if k not in dropped}, **changes},
    st.just(BASE),
    st.dictionaries(st.sampled_from([*NAMES, "unknown", "Port"]), field_values, max_size=6),
    st.sets(st.sampled_from(list(BASE)), max_size=1),
)


def typed(event: EvidenceEvent) -> list:
    """Every field of ``event`` with its exact type: ``True == 1`` must not pass."""
    return [(type(getattr(event, name)), getattr(event, name)) for name in NAMES]


def walked(raw: dict, **given):
    """The walk's event for ``raw``, or its error text."""
    try:
        return typed(jsonfield._walk(EvidenceEvent, raw, EvidenceError, given))
    except EvidenceError as exc:
        return str(exc)


@settings(max_examples=600, deadline=None)
@given(raw=records, given_seq=st.booleans())
def test_compiled_reader_accepts_and_refuses_what_the_walk_does(raw, given_seq):
    given = {"seq": 7} if given_seq else {}
    reader = jsonfield._compile(EvidenceEvent, tuple(given))
    expected = walked(raw, **given)
    made = reader(raw, {}, **given)
    if isinstance(expected, str):
        assert made is None
        with pytest.raises(EvidenceError) as refused:
            from_json(EvidenceEvent, raw, EvidenceError, **given)
        assert str(refused.value) == expected
    else:
        assert made is not None and typed(made) == expected
        assert typed(from_json(EvidenceEvent, raw, EvidenceError, **given)) == expected


def test_only_a_named_tuple_gets_a_reader():
    from otcms.context import ContextSpec

    assert jsonfield._compile(ContextSpec, ()) is None
    assert jsonfield._compile(tuple, ()) is None
    assert jsonfield._compile(EvidenceEvent, ("seq",)) is not None


def test_no_reader_is_compiled_at_import():
    import subprocess
    import sys

    import otcms

    code = "import sys; sys.path.insert(0, sys.argv[1]); import otcms, otcms.jsonfield as j; print(len(j._READERS))"
    src = str(Path(otcms.__file__).parents[1])
    assert subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True).stdout == "0\n"


FULL = {
    **BASE, "id_scheme_src": "IP", "id_scheme_dst": "Username", "protocol_version": "5.0", "port": 8883,
    "tls_present": True, "cert_present": False, "cipher_suite": "TLS_AES_128_GCM_SHA256", "key_bits": 256,
    "cleartext_password": "pw", "auth_result": "Failure", "session_id": "sess-cell", "error_code": "0x1f",
    "fragmented": True, "bytes": 10, "direction_external": None, "mobile_code": True,
}


@pytest.mark.parametrize("record", [BASE, FULL], ids=["required_only", "full"])
def test_parsed_event_is_frozen_and_equal_to_a_constructed_one(record):
    (event,) = parse_evidence([json.dumps(record)])
    built = EvidenceEvent(
        seq=0, **{**record, "id_scheme_src": IdScheme(record.get("id_scheme_src", "Other")),
                  "id_scheme_dst": IdScheme(record.get("id_scheme_dst", "Other"))}
    )
    assert event == built and hash(event) == hash(built)
    assert typed(event) == typed(built)
    with pytest.raises(AttributeError):
        event.port = 1
    with pytest.raises(AttributeError):
        del event.protocol
    assert event.port == record.get("port") and event.protocol == record["protocol"]


def test_equal_strings_share_one_object_within_a_parse():
    lines = [json.dumps({**FULL, "timestamp": t}) for t in range(3)]
    events = parse_evidence(lines)
    for name in ("src_id", "dst_id", "protocol", "session_id", "cipher_suite"):
        assert len({id(getattr(e, name)) for e in events}) == 1, name
    (again,) = parse_evidence(lines[:1])
    assert again.src_id == events[0].src_id and again.src_id is not events[0].src_id  # one memo per parse


def test_streamed_read_peaks_near_what_its_events_retain(tmp_path):
    path = tmp_path / "evidence.jsonl"
    write_evidence(
        [
            EvidenceEvent(
                seq=i, timestamp=1_700_000_000_000 + 37 * i, src_id=f"10.0.{i % 5}.10", dst_id=f"10.0.{i % 7}.20",
                protocol=("OPCUA", "MQTT", "Modbus")[i % 3], id_scheme_src=IdScheme.IP, id_scheme_dst=IdScheme.IP,
                protocol_version="1.04", port=(4840, 8883, 502)[i % 3], tls_present=True, cert_present=True,
                cipher_suite="TLS_AES_128_GCM_SHA256", key_bits=256, session_id=f"sess-{i % 48}",
                bytes=300 + i % 400, direction_external=False,
            )
            for i in range(7000)
        ],
        path,
    )
    assert path.stat().st_size >= 2_000_000
    load_evidence(path)  # the reader is compiled outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = load_evidence(path)
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak - retained < 2**20
    assert retained / len(events) <= 420  # 380 B measured with CPython 3.11


write = jsonfield.writer(EvidenceEvent)

# Strings with characters a JSON writer escapes or must leave raw.
texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\u2028\u2029\x85\x00\x1f\x7f\n\r\t\u00e9\u20ac\U0001f600'), st.characters()),
    max_size=8,
)
# A value of every scalar type, large integers included, for any field.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    texts,
    st.sampled_from(list(IdScheme)),
)

HINTS = typing.get_type_hints(EvidenceEvent)


def accepted(name: str):
    """Values the reader accepts for field ``name``."""
    hint = jsonfield._unnulled(HINTS[name])
    if hint is IdScheme:
        return st.sampled_from([scheme.value for scheme in IdScheme])
    if name == "auth_result":
        return st.sampled_from(["Success", "Failure"])
    return {str: texts, int: st.integers(min_value=1), bool: st.booleans()}[hint]


# Records the reader mostly accepts; most of ``records`` it refuses.
accepted_records = st.fixed_dictionaries(
    {name: accepted(name) for name in BASE},
    optional={name: accepted(name) for name in NAMES if name not in BASE and name != "seq"},
)


def dumped(event: EvidenceEvent) -> str | None:
    """The line ``json.dumps`` writes for ``event``'s record, or None where that raises."""
    try:
        return json.dumps(jsonfield.to_json(event), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    except (AttributeError, TypeError, ValueError):
        return None


def assert_written_alike(event: EvidenceEvent) -> None:
    expected = dumped(event)
    if expected is not None:  # where json.dumps raises, the writer may raise too
        assert write(event) == expected


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(records, accepted_records), seq=st.integers(min_value=0))
def test_writer_writes_read_events_as_json_dumps_does(raw, seq):
    made = jsonfield._compile(EvidenceEvent, ("seq",))(raw, {}, seq=seq)
    if made is not None:
        assert_written_alike(made)


@settings(max_examples=400, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(NAMES), scalars, max_size=8), text=texts)
def test_writer_writes_constructed_events_as_json_dumps_does(changes, text):
    """Events built through the constructor, any field holding a value of any scalar type."""
    (full,) = parse_evidence([json.dumps(FULL)])
    event = full._replace(**{"src_id": text, **changes})
    assert_written_alike(event)


@pytest.mark.parametrize(
    "changes, text",
    [
        ({"port": True, "bytes": 1.5, "key_bits": False}, '"bytes":1.5,'),
        ({"tls_present": 1, "fragmented": None, "seq": -(2**80)}, '"seq":-1208925819614629174706176,'),
        ({"src_id": 'a"\\\u2028\u2029\x85\x00\u00e9', "timestamp": float("nan")}, '"timestamp":NaN'),
        ({"port": [1, 2], "cipher_suite": {"b": 1, "a": "\u00e9"}}, '"cipher_suite":{"a":"\u00e9","b":1},'),
    ],
)
def test_writer_writes_each_value_by_its_own_type(changes, text):
    (full,) = parse_evidence([json.dumps(FULL)])
    event = full._replace(**changes)
    assert text in write(event) and "True" not in write(event)
    assert_written_alike(event)


@pytest.mark.parametrize("field", ["id_scheme_src", "id_scheme_dst"])
@pytest.mark.parametrize("scheme", list(IdScheme), ids=lambda scheme: scheme.name)
def test_writer_writes_every_scheme_member_as_json_dumps_does(field, scheme):
    (full,) = parse_evidence([json.dumps(FULL)])
    event = full._replace(**{field: scheme})
    assert write(event) == dumped(event)
    assert (f'"{field}":"{scheme.value}"' in write(event)) is (scheme is not IdScheme.OTHER)


class Plain(Enum):
    IP = "IP"


@pytest.mark.parametrize("field", ["id_scheme_src", "id_scheme_dst"])
@pytest.mark.parametrize("value", ["IP", "Other", Plain.IP, Severity.VIOLATION], ids=repr)
def test_writer_writes_a_scheme_field_holding_no_scheme_member_as_to_json_does(field, value):
    """A string equal to a member, or another enum's member, is not written from the member table."""
    (full,) = parse_evidence([json.dumps(FULL)])
    event = full._replace(**{field: value})
    if isinstance(value, Enum):
        assert write(event) == dumped(event)
        assert f'"{field}":"{value.value}"' in write(event)
    else:  # a string has no ``value``: both ways of writing refuse it alike
        with pytest.raises(AttributeError):
            jsonfield.to_json(event)
        with pytest.raises(AttributeError):
            write(event)


def test_writer_refuses_a_field_that_is_no_scalar_when_compiled():
    from otcms.context import ContextSpec

    with pytest.raises(TypeError, match="no compiled JSON form"):
        jsonfield.writer(ContextSpec)


class Listed(typing.NamedTuple):
    name: str
    tags: tuple[str, ...] = ()


def test_writer_refuses_a_named_tuple_field_that_is_no_scalar_when_compiled():
    with pytest.raises(TypeError, match="Listed.tags: no compiled JSON form"):
        jsonfield.writer(Listed)


def test_writer_refuses_a_dataclass_of_scalar_fields_when_compiled():
    from otcms.context import RateLimit

    with pytest.raises(TypeError, match="RateLimit: no compiled JSON form for a class that is no NamedTuple"):
        jsonfield.writer(RateLimit)


# Whitespace ``str.strip`` removes from the ends of a line, JSON's own and
# more (form feed, U+2028, U+3000), and a BOM, which it keeps.
ENDS = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x1f\x85\xa0\u2028\u2029\u3000\ufeff", max_size=3)
# Value texts ``json.dumps`` never writes for an event field, placed raw.
RAW_VALUES = st.sampled_from(["NaN", "-Infinity", "9" * 4301, "-0", "1e999", '"\\ud800"', "[" * 40 + "]" * 40])
# Text after a whole value: JSON's own whitespace, another value, or a stray character.
TRAILING = st.sampled_from(["x", "}", " 1", "{}", ",", "\x00", " \t", '"'])


@st.composite
def evidence_lines(draw) -> str:
    """A record's line, often broken: cut short, trailed, given a raw value or a repeated key."""
    raw = draw(st.one_of(records, accepted_records))
    text = json.dumps(raw, ensure_ascii=draw(st.booleans()), allow_nan=True)
    change = draw(st.sampled_from(["none", "raw_value", "repeated_key", "truncated", "trailing"]))
    if change == "raw_value" or change == "repeated_key":
        key = draw(st.sampled_from(NAMES))
        value = draw(RAW_VALUES) if change == "raw_value" else json.dumps(raw.get(key, "repeated"))
        text = text[:-1] + (", " if raw else "") + f"{json.dumps(key)}: {value}}}"
    elif change == "truncated":
        text = text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    elif change == "trailing":
        text += draw(TRAILING)
    return draw(ENDS) + text + draw(ENDS)


def loaded(line: str):
    """``line`` parsed as ``json.loads`` and the field-by-field walk read it:
    no event, the event's typed fields, or the refusal's text."""
    stripped = line.strip()
    if not stripped:
        return []
    try:
        record = json.loads(stripped)
    except (ValueError, RecursionError) as exc:
        return f"line 1: invalid JSON ({jsonfield.unreadable(exc)})"
    if type(record) is not dict:
        return f"line 1: expected an object, got {jsonfield.quoted(json.dumps(record))}"
    try:
        return [typed(jsonfield._walk(EvidenceEvent, record, EvidenceError, {"seq": 0}))]
    except EvidenceError as exc:
        return f"line 1: {exc}"


@settings(max_examples=800, deadline=None)
@given(line=evidence_lines())
@example(line="\ufeff" + json.dumps(BASE))
@example(line="\x0c" + json.dumps(BASE) + "\u2028")
@example(line=json.dumps(BASE) + " x")
@example(line=json.dumps(BASE)[:-1] + ', "port": NaN}')
@example(line=json.dumps(BASE)[:-1] + ', "port": ' + "9" * 4301 + "}")
@example(line=json.dumps(BASE)[:-1] + ', "protocol": "S7"}')
@example(line="[1, 2]")
@example(line='"\\u2028"')
def test_scanned_line_parses_as_json_loads_reads_it(line):
    """The evidence parse, which decodes each line with the JSON scanner
    alone, gives what ``json.loads`` and the walk give: the same event, or
    the same refusal in the same words."""
    try:
        parsed = list(map(typed, parse_evidence([line])))
    except EvidenceError as exc:
        parsed = str(exc)
    assert parsed == loaded(line)


@pytest.mark.parametrize(
    "depth, refusal",
    [
        (jsonfield.MAX_DEPTH - 1, "port: expected an integer or null, got [[["),
        (jsonfield.MAX_DEPTH, "invalid JSON (nested too deeply)"),
    ],
    ids=["at_the_limit", "past_the_limit"],
)
def test_refused_record_past_the_depth_limit_refused_as_nested_too_deeply(depth, refusal):
    """A record nesting ``MAX_DEPTH`` levels (its ``port`` one fewer) is
    refused by its field; one level more, as nested too deeply."""
    line = json.dumps(BASE)[:-1] + ', "port": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(EvidenceError) as refused:
        parse_evidence([line])
    assert str(refused.value).startswith(f"line 1: {refusal}")


def test_config_text_past_the_depth_limit_refused_as_nested_too_deeply():
    limit = jsonfield.MAX_DEPTH
    assert jsonfield.loads("[" * limit + "1" + "]" * limit, ValueError)
    with pytest.raises(ValueError, match="^invalid JSON: nested too deeply$"):
        jsonfield.loads("[" * (limit + 1) + "]" * (limit + 1), ValueError)
