"""The evidence parse, which builds each line's record by the
field-by-field walk of ``from_json``, against ``json.loads`` and that walk,
with the templates it reads repeated lines from; and the evidence writer,
against ``json.dumps`` of ``to_json``, with the templates ``to_jsonl``
writes repeated shapes from, against the text's definition,
``canonical(to_json(event))``."""

import gc
import hashlib
import json
import logging
import re
import sys
import tracemalloc
import typing
from enum import Enum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otcms import evidence, jsonfield
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


def assert_streamed_read_peaks_near_what_its_events_retain(path: Path, sessions: int) -> list[EvidenceEvent]:
    """The events read, whose ids cycle with periods 5, 7, 3 and ``sessions``."""
    write_evidence(
        [
            EvidenceEvent(
                seq=i, timestamp=1_700_000_000_000 + 37 * i, src_id=f"10.0.{i % 5}.10", dst_id=f"10.0.{i % 7}.20",
                protocol=("OPCUA", "MQTT", "Modbus")[i % 3], id_scheme_src=IdScheme.IP, id_scheme_dst=IdScheme.IP,
                protocol_version="1.04", port=(4840, 8883, 502)[i % 3], tls_present=True, cert_present=True,
                cipher_suite="TLS_AES_128_GCM_SHA256", key_bits=256, session_id=f"sess-{i % sessions}",
                bytes=300 + i % 400, direction_external=False,
            )
            for i in range(7000)
        ],
        path,
    )
    assert path.stat().st_size >= 2_000_000
    load_evidence(path)  # first-use caches are filled outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = load_evidence(path)
        gc.collect()  # what the free lists hold is not retained
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak - retained < 2**20
    assert retained / len(events) <= 420  # 380 B measured with CPython 3.11
    return events


def test_streamed_read_peaks_near_what_its_events_retain(tmp_path):
    """Shapes repeat every 1,680 lines: the parse stops cutting before any repeats."""
    assert_streamed_read_peaks_near_what_its_events_retain(tmp_path / "evidence.jsonl", 48)


def test_streamed_read_of_template_hits_peaks_near_what_its_events_retain(tmp_path):
    """Shapes repeat every 105 lines: nearly every event is built from a template."""
    events = assert_streamed_read_peaks_near_what_its_events_retain(tmp_path / "evidence.jsonl", 15)
    assert events[-1].port is events[-106].port  # a hit shares the template's objects


def write(event: EvidenceEvent) -> str:
    """The evidence text of ``event`` by its definition."""
    return jsonfield.canonical(jsonfield.to_json(event))


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
    """Values the parse accepts for field ``name``."""
    hint = jsonfield._unnulled(HINTS[name])
    if hint is IdScheme:
        return st.sampled_from([scheme.value for scheme in IdScheme])
    if name == "auth_result":
        return st.sampled_from(["Success", "Failure"])
    return {str: texts, int: st.integers(min_value=1), bool: st.booleans()}[hint]


# Records the parse mostly accepts; most of ``records`` it refuses.
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


def written(event: EvidenceEvent) -> str:
    """The line ``to_jsonl`` writes for ``event`` alone, without its line feed."""
    return evidence.to_jsonl([event]).removesuffix("\n")


def assert_written_alike(event: EvidenceEvent) -> None:
    expected = dumped(event)
    if expected is not None:  # where json.dumps raises, the writer may raise too
        assert written(event) == expected


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(records, accepted_records), seq=st.integers(min_value=0))
def test_writer_writes_read_events_as_json_dumps_does(raw, seq):
    try:
        made = from_json(EvidenceEvent, raw, EvidenceError, seq=seq)
    except EvidenceError:
        return
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
    assert text in written(event) and "True" not in written(event)
    assert_written_alike(event)


@pytest.mark.parametrize("field", ["id_scheme_src", "id_scheme_dst"])
@pytest.mark.parametrize("scheme", list(IdScheme), ids=lambda scheme: scheme.name)
def test_writer_writes_every_scheme_member_as_json_dumps_does(field, scheme):
    (full,) = parse_evidence([json.dumps(FULL)])
    event = full._replace(**{field: scheme})
    assert written(event) == dumped(event)
    assert (f'"{field}":"{scheme.value}"' in written(event)) is (scheme is not IdScheme.OTHER)


class Plain(Enum):
    IP = "IP"


@pytest.mark.parametrize("field", ["id_scheme_src", "id_scheme_dst"])
@pytest.mark.parametrize("value", ["IP", "Other", Plain.IP, Severity.VIOLATION], ids=repr)
def test_writer_writes_a_scheme_field_holding_no_scheme_member_as_to_json_does(field, value):
    """A string equal to a member, or another enum's member, is not written from the member table."""
    (full,) = parse_evidence([json.dumps(FULL)])
    event = full._replace(**{field: value})
    if isinstance(value, Enum):
        assert written(event) == dumped(event)
        assert f'"{field}":"{value.value}"' in written(event)
    else:  # a string has no ``value``: the writer refuses it as ``to_json`` does
        with pytest.raises(AttributeError):
            jsonfield.to_json(event)
        with pytest.raises(AttributeError):
            written(event)


class Named(str):
    """A ``str`` subclass: equal to its text, but no exact ``str`` to the writer's templates."""


# Values one field of a repeated shape takes from line to line: equal, and
# equal in hash, across types whose written text differs.
COLLIDING = st.sampled_from(
    [(True, 1, 1.0), (False, 0, None, 0.0, -0.0), (IdScheme.IP, "IP", Named("IP")), ("a", Named("a")),
     (IdScheme.OTHER, "Other"), (256, 256.0, True)]
)
SHAPE_NAMES = [name for name in NAMES if name not in ("seq", "timestamp", "bytes")]
# Values of ``seq``, ``timestamp`` and ``bytes``: mostly integers of other
# digit counts, which a template writes, and values it must not write.
RUN_VALUES = st.one_of(
    st.integers(0, 10**12),
    st.integers(0, 99),
    st.integers(max_value=-1),
    st.sampled_from([2**70, 10**4300, True, False, 1.0, 0.5, -0.0, 0.0]),
)


# The smallest integer past Python's digit limit, whose text ``repr`` refuses.
TOO_LONG = 10 ** sys.get_int_max_str_digits()


class Events(list):
    """Events Hypothesis can report: an integer past Python's digit limit,
    whose text ``EvidenceEvent.__repr__`` cannot give, is shown by its size."""

    def __repr__(self) -> str:
        def shown(value):
            return f"<int of {value.bit_length()} bits>" if type(value) is int and abs(value) >= TOO_LONG else value

        return repr([EvidenceEvent._make(map(shown, event)) for event in self])


@st.composite
def repeated_shapes(draw) -> Events:
    """Events of one shape, but for one field taking colliding values of
    other types, and for their ``seq``, ``timestamp`` and ``bytes``."""
    try:
        base = from_json(EvidenceEvent, draw(accepted_records), EvidenceError, seq=0)
    except EvidenceError:
        base = parse_evidence([json.dumps(FULL)])[0]
    field, values = draw(st.sampled_from(SHAPE_NAMES)), draw(COLLIDING)
    return Events(
        base._replace(seq=draw(RUN_VALUES), timestamp=draw(RUN_VALUES), bytes=draw(RUN_VALUES),
                      **{field: draw(st.sampled_from(values))})
        for _ in range(draw(st.integers(2, 8)))
    )


def hashed(events: list[EvidenceEvent]) -> str:
    """The evidence digest of ``events``, each written alone and its line
    encoded before the next is written: the first event refused, in writing
    or in encoding, raises (a lone surrogate naming its place in its line)."""
    sha256 = hashlib.sha256()
    for event in events:
        sha256.update((write(event) + "\n").encode("utf-8"))
    return "sha256:" + sha256.hexdigest()


def outcome(produce):
    """What ``produce()`` gives, or the type and text of what it raises."""
    try:
        return produce()
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


ROOM = evidence._SHAPE_ROOM
PLAIN = {"seq": 0, "timestamp": 1, "src_id": "a", "dst_id": "b", "protocol": "P"}


@settings(max_examples=600, deadline=None)
@given(events=repeated_shapes(), room=st.just(ROOM) | st.integers(0, 600))
@example(events=[EvidenceEvent(**{**PLAIN, "port": port, "bytes": 9}) for port in (1, True, 1.0)], room=ROOM)
@example(events=[EvidenceEvent(**{**PLAIN, "seq": seq, "protocol": "P%d"}) for seq in (5, 10, True)], room=ROOM)
@example(events=[EvidenceEvent(**{**PLAIN, "seq": seq}) for seq in (True, True)], room=ROOM)
@example(events=[EvidenceEvent(**PLAIN, port=[1, 2])] * 2, room=ROOM)
@example(events=[EvidenceEvent(**PLAIN, port=port) for port in (0.0, -0.0)], room=ROOM)
@example(events=[EvidenceEvent(**PLAIN, id_scheme_src=scheme) for scheme in (IdScheme.IP, "IP")], room=ROOM)
@example(events=Events(EvidenceEvent(**{**PLAIN, "src_id": "\ud800", "timestamp": timestamp})
                       for timestamp in (1, 10**4300)), room=ROOM)
# The cut's edges: a run of 19 digits or a negative one is no run, so its
# shape's first write leaves no template and the next one does; a ``%`` and
# run keys inside strings; a first write longer than the room for templates.
@example(events=[EvidenceEvent(**PLAIN, bytes=size) for size in (2**63 - 1, 5, 2**63 - 1, 10**18)], room=ROOM)
@example(events=[EvidenceEvent(**{**PLAIN, "timestamp": timestamp}) for timestamp in (-5, 5, -50)], room=ROOM)
@example(events=[EvidenceEvent(**PLAIN, cipher_suite="100%", error_code="%(x)s %%d", bytes=size) for size in (1, 2)],
         room=ROOM)
@example(events=[EvidenceEvent(**{**PLAIN, "src_id": '"bytes":1', "dst_id": '{"seq":2,"timestamp":3}', "seq": seq})
                 for seq in (7, 8, 9)], room=ROOM)
@example(events=[EvidenceEvent(**{**PLAIN, "seq": seq}) for seq in (1, 2, 3)], room=40)
def test_templated_writer_writes_each_event_as_written_alone(events, room):
    """``to_jsonl`` and ``jsonl_digest``, which write a repeated shape from
    its template, give the lines of each event's text written alone, joined
    and hashed, or raise what writing, and for the digest encoding, raises
    first event by event in stream order: a lone surrogate in an earlier
    line is refused by the digest before a later line's 4,301-digit integer.
    Templates are kept within ``room`` characters, ``_SHAPE_ROOM``."""
    joined = outcome(lambda: "".join(write(event) + "\n" for event in events))
    expected = [joined, outcome(lambda: hashed(events))]
    with mock.patch.object(evidence, "_SHAPE_ROOM", room):
        assert [outcome(lambda: evidence.to_jsonl(events)), outcome(lambda: evidence.jsonl_digest(events))] == expected


@st.composite
def interleaved_shapes(draw) -> Events:
    """Events of up to three repeated shapes, in any order."""
    shapes = draw(st.lists(repeated_shapes(), min_size=1, max_size=3))
    return Events(draw(st.permutations([event for shape in shapes for event in shape])))


@settings(max_examples=400, deadline=None)
@given(events=interleaved_shapes(), room=st.just(ROOM) | st.integers(0, 600))
@example(events=Events(EvidenceEvent(**{**PLAIN, "src_id": "\ud800", "timestamp": timestamp})
                       for timestamp in (1, 10**4300)), room=ROOM)
@example(events=Events(EvidenceEvent(**{**PLAIN, "timestamp": timestamp, "src_id": src_id})
                       for timestamp, src_id in ((1, "a"), (10**4300, "b"), (2, "\ud800"), (3, "b"))), room=ROOM)
@example(events=[EvidenceEvent(**{**PLAIN, "seq": seq, "port": port}) for seq, port in ((1, 1), (2, 2), (3, True), (4, 1))],
         room=ROOM)
def test_grouped_digest_agrees_with_the_bare_digest_and_the_written_text(events, room):
    """``jsonl_digest`` given the stream's ``group_shapes``, ``jsonl_digest``
    grouping the stream itself, and ``evidence_digest`` of ``to_jsonl``'s
    text in UTF-8 agree, refusals included: both digests refuse the first
    line, in stream order, that they cannot write or encode, as hashing
    each event written alone does; the text refuses the first line it
    cannot write, and only then is it encoded, as a whole. A one-shot
    iterator of the events gives the list's text and digest."""
    expected = outcome(lambda: hashed(events))
    with mock.patch.object(evidence, "_SHAPE_ROOM", room):
        digests = [
            outcome(lambda: evidence.jsonl_digest(events, evidence.group_shapes(events))),
            outcome(lambda: evidence.jsonl_digest(events)),
            outcome(lambda: evidence.jsonl_digest(iter(events))),
        ]
        text, text_of_iterator = (outcome(lambda: evidence.to_jsonl(given)) for given in (events, iter(events)))
    assert digests == [expected] * 3
    assert text == text_of_iterator == outcome(lambda: "".join(write(event) + "\n" for event in events))
    if type(text) is str:
        encoded = outcome(lambda: evidence.evidence_digest(text.encode("utf-8")))
        # An encoding refusal names the character's place in the whole text, the digest's its place in its line.
        assert encoded == expected or encoded[0] is expected[0] is UnicodeEncodeError
    else:  # the digests refuse the same line, or an earlier one they cannot encode
        assert expected == text or expected[0] is UnicodeEncodeError


def test_repeated_shape_is_cut_once(monkeypatch):
    """Events of one shape but for their ``seq``, ``timestamp`` and
    ``bytes`` are written in full once, then from the shape's template."""
    recorded = []
    monkeypatch.setattr(evidence, "to_json", lambda event: recorded.append(event) or jsonfield.to_json(event))
    (full,) = parse_evidence([json.dumps(FULL)])
    events = [full._replace(seq=i, timestamp=10**i, bytes=i % 7) for i in range(50)]
    assert evidence.to_jsonl(events) == "".join(write(event) + "\n" for event in events)
    assert recorded == [events[0]]


@pytest.mark.parametrize(
    "first", [{"bytes": 2**63 - 1}, {"timestamp": -5}, {"seq": 10**18}, {"timestamp": True}],
    ids=["19_digits", "negative", "seq_of_19_digits", "boolean"],
)
def test_first_write_without_three_runs_leaves_no_template(monkeypatch, first):
    """A shape's first event whose text the parse's rule would not cut at
    all three runs is written in full and leaves no template; the next
    event of the shape leaves one, which the rest are written from."""
    recorded = []
    monkeypatch.setattr(evidence, "to_json", lambda event: recorded.append(event) or jsonfield.to_json(event))
    events = [EvidenceEvent(**{**PLAIN, **first})] + [EvidenceEvent(**{**PLAIN, "seq": seq}) for seq in (1, 2, 3)]
    assert evidence.to_jsonl(events) == "".join(write(event) + "\n" for event in events)
    assert recorded == events[:2]


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
        return [typed(from_json(EvidenceEvent, record, EvidenceError, seq=0))]
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


# A line whose text outside the digit runs of ``bytes``, ``seq`` and
# ``timestamp`` repeats an earlier line's is read from a template. Lines
# here are built from members: fixed ones, and ones holding a number whose
# text changes from line to line.
RUN_KEYS = ("bytes", "seq", "timestamp")
# Keys a number is written under: each run key; one escaped, which the cut
# cannot see; unknown keys ending in a run key after an escaped quote, which
# it can; and an unknown key differing in case.
NUMBER_KEYS = st.sampled_from(
    ['"bytes"', '"seq"', '"timestamp"', '"\\u0062ytes"', '"a\\"bytes"', '"\\"seq"', '"x\\"timestamp"', '"Bytes"']
)
# Where such a member sits: in the record, or nested in an unknown object or list.
NUMBER_PLACES = st.sampled_from(["{}", '"extra":{{{}}}', '"extra":[{{{}}}]', '"extra":{{"deeper":{{{}}}}}'])
# Members naming a run key inside a string.
STRING_MEMBERS = st.sampled_from(['"note":"\\"bytes\\":5"', '"src_id":"\\"seq\\":1,"', '"\\"timestamp\\":7":"x"'])
# Runs around the 18-digit cap of a cut and the bound of ``bytes``, 2**63 - 1,
# which a longer run, read in full, may pass.
RUNS = st.integers(0, 10**12).map(str) | st.integers(10**17, 10**20).map(str) | st.sampled_from(
    ["0", "9" * 4301, "9" * 18, "1" + "0" * 18, str(2**63 - 1), str(2**63), "9" * 400]
)
# Texts replacing a run in a later line: runs of other lengths, none (the
# text a key of joined pieces would take for the template's), and numbers
# and values that are no run.
CHANGED = RUNS | st.just("") | st.sampled_from(
    ["00", "05", "-0", "-5", "5.0", "0.5", "5e3", "5E3", "1.5e2", "0e0", "5.", "1" * 4301 + ".5", '"5"', "true",
     "null", "[]", "\x00", " 5"]
)


@st.composite
def templated_streams(draw) -> list[str]:
    """Lines of one template: the first two alike but for their digit runs,
    so the second admits the template, and in the rest each run's text
    replaced."""
    record = draw(accepted_records)
    fixed = [f"{json.dumps(key)}:{json.dumps(value)}" for key, value in record.items() if key not in RUN_KEYS]
    fixed += draw(st.lists(STRING_MEMBERS, max_size=2))
    numbers = draw(st.lists(st.tuples(NUMBER_KEYS, NUMBER_PLACES), min_size=1, max_size=4))
    if draw(st.booleans()):
        numbers.append(('"timestamp"', "{}"))
    order = draw(st.permutations(range(len(fixed) + len(numbers))))
    colon = draw(st.sampled_from([":", ": "]))

    def line(texts: list[str]) -> str:
        members = fixed + [place.format(key + colon + text) for (key, place), text in zip(numbers, texts)]
        return "{" + ",".join(members[index] for index in order) + "}"

    runs, changed = (st.lists(texts, min_size=len(numbers), max_size=len(numbers)) for texts in (RUNS, CHANGED))
    return [line(draw(runs)), line(draw(runs))] + [line(draw(changed)) for _ in range(draw(st.integers(1, 3)))]


def read_alone(lines: list[str], strict: bool):
    """``lines`` as each reads alone (see :func:`loaded`), numbered in the
    stream: the typed events, or in strict mode the first refusal; and the
    warnings of lenient mode."""
    events, warnings = [], []
    for line_no, line in enumerate(lines, start=1):
        got = loaded(line)
        if type(got) is str:
            reason = got.removeprefix("line 1: ")
            if strict:
                return f"line {line_no}: {reason}", warnings
            warnings.append(f"skipping malformed evidence line {line_no}: {reason}")
            continue
        events += [[(int, len(events)), *fields[1:]] for fields in got]
    return events, warnings


def read_together(lines: list[str], strict: bool):
    """``lines`` read as one stream, in the form of :func:`read_alone`."""
    warnings = []
    handler = logging.Handler()
    handler.emit = lambda record: warnings.append(record.getMessage())
    log = logging.getLogger("otcms.evidence")
    log.addHandler(handler)
    try:
        return list(map(typed, parse_evidence(lines, strict=strict))), warnings
    except EvidenceError as exc:
        return str(exc), warnings
    finally:
        log.removeHandler(handler)


# Streams whose shape is refused a template on its first line: a run key
# cut twice, nested before and after the top-level one, which is refused
# before any re-read; and runs the one re-read finds feeding no field: a run
# nested in an unknown object, and a ``bytes`` run ending an unknown key
# beside a top-level ``bytes`` that the cut leaves in the shape.
REFUSED_STREAMS = [
    ['{"dst_id":"b","extra":{"timestamp":%d},"protocol":"","src_id":"a","timestamp":%d}' % runs
     for runs in [(1, 1), (2, 3), (5, 4)]],
    ['{"dst_id":"b","protocol":"","src_id":"a","timestamp":%d,"zzz":{"timestamp":%d}}' % runs
     for runs in [(1, 1), (2, 3), (5, 4)]],
    ['{"bytes":%d,"dst_id":"b","protocol":"","src_id":"a","timestamp":1,"zzz":{"bytes":%d}}' % runs
     for runs in [(0, 0), (7, 0), (0, 9)]],
    ['{"dst_id":"b","extra":{"bytes":%d},"protocol":"","src_id":"a","timestamp":1}' % n for n in (6, 0, 8)],
    ['{"bytes": 6,"dst_id":"b","protocol":"","src_id":"a","timestamp":1,"x\\"bytes":%d}' % n for n in (5, 6, 0)],
    ['{"bytes": 0,"dst_id":"b","protocol":"","src_id":"a","timestamp":1,"x\\"bytes":%d}' % n for n in (0, 6, 0)],
]


@settings(max_examples=600, deadline=None)
@given(lines=templated_streams(), strict=st.booleans())
@example(lines=['{"bytes":5,"dst_id":"b","extra":{"bytes":%d},"protocol":"","src_id":"a","timestamp":1}' % n
                for n in (6, 8, 7)], strict=True)
@example(lines=['{"dst_id":"b","extra":{"bytes":%d},"protocol":"","src_id":"a","timestamp":0}' % n for n in (0, 1, 1)],
         strict=True)
@example(lines=['{"bytes":%s,"dst_id":"b","protocol":"","src_id":"a","timestamp":1}' % run for run in ("1", "2", "")],
         strict=True)
@example(lines=['{"timestamp":1,"timestamp":2}', '{"timestamp":3,"timestamp":4}', '{"timestamp":5,"timestamp":6}'],
         strict=True)
@example(lines=['{"bytes":%s,"dst_id":"b","protocol":"","src_id":"a","timestamp":1}' % run
                for run in ("1", "2", str(2**63 - 1), str(2**63), "9" * 18)], strict=False)
@example(lines=['{"dst_id":"b","protocol":"","seq":%s,"src_id":"a","timestamp":2}' % run
                for run in ("1", "1", "9" * 4301, "")], strict=False)
@example(lines=REFUSED_STREAMS[0], strict=True)
@example(lines=REFUSED_STREAMS[1], strict=True)
@example(lines=REFUSED_STREAMS[2], strict=True)
@example(lines=REFUSED_STREAMS[3], strict=True)
@example(lines=REFUSED_STREAMS[4], strict=True)
@example(lines=REFUSED_STREAMS[5], strict=True)
def test_template_hit_parses_as_each_line_read_alone(lines, strict):
    """A stream whose later lines are template hits, or near misses, reads
    as each line read alone: the same events, or the same refusal in the
    same words with the same line number, and the same lenient warnings.
    The cut must take only whole JSON integers, which no result shows: a
    template cut out of a float is refused, or harmless for ``seq``."""
    for line in lines:
        for run in re.finditer(evidence._RUNS, line):
            assert line[run.end():][:1] not in set("0123456789.eE")
    assert read_together(lines, strict) == read_alone(lines, strict)


@pytest.fixture
def admitted(monkeypatch) -> list:
    """Every template an evidence parse admits, () for one it refuses."""
    made = []
    template = evidence._template
    monkeypatch.setattr(evidence, "_template", lambda *args: made.append(template(*args)) or made[-1])
    return made


def test_repeated_protocol_key_read_from_a_template_keeps_its_last_value(admitted):
    """A line giving ``protocol`` twice reads, as ``json.loads`` does, its
    last value, also where later copies are template hits."""
    line = '{"bytes":%d,"dst_id":"10.0.2.20","port":4840,"protocol":"Telnet","protocol":"MQTT","seq":%d,' \
           '"src_id":"10.0.1.10","timestamp":%d}'
    lines = [line % runs for runs in [(9, 0, 5), (310, 17, 99_999), (4, 3, 10**13)]]
    events = parse_evidence(lines)
    assert (list(map(typed, events)), []) == read_alone(lines, True)
    assert [(e.protocol, e.timestamp, e.bytes) for e in events] == [
        ("MQTT", 5, 9), ("MQTT", 99_999, 310), ("MQTT", 10**13, 4)
    ]
    assert len(admitted) == 1 and admitted[0]
    assert events[2].port is events[1].port  # a hit shares the template's objects


def test_repeated_timestamp_key_admits_no_template(admitted):
    """A line giving ``timestamp`` twice reads its last value; its shape is
    refused a template, once."""
    lines = ['{"dst_id":"b","protocol":"MQTT","src_id":"a","timestamp":%d,"timestamp":%d}' % pair
             for pair in [(1, 2), (30, 40), (500, 6)]]
    assert [e.timestamp for e in parse_evidence(lines)] == [2, 40, 6]
    assert admitted == [()]


@pytest.mark.parametrize("lines", REFUSED_STREAMS)
def test_one_reread_refuses_a_run_not_read_into_its_own_field_alone(admitted, lines):
    """Each of these shapes is refused its template when its first line is
    read, and every line reads as it does alone."""
    assert read_together(lines, True) == read_alone(lines, True)
    assert admitted == [()]


@pytest.mark.parametrize("line", [
    '{"bytes":%d,"dst_id":"b","port":502,"protocol":"Modbus","seq":%d,"src_id":"a","timestamp":%d}',
    '{"bytes":%d,"dst_id":"b","port":502,"protocol":"Modbus","src_id":"a","timestamp":%d}',
    '{"dst_id":"b","port":502,"protocol":"Modbus","seq":%d,"src_id":"a","timestamp":%d}',
], ids=["three_runs", "no_seq", "no_bytes"])
def test_admitted_shape_costs_one_read_and_one_reread(monkeypatch, admitted, line):
    """A shape's first line is read in full and its template admitted by one
    re-read of it; every later line of the shape is a hit, read by nobody."""
    lines = [line % tuple(range(7 * i + 1, 7 * i + 1 + line.count("%d"))) for i in range(5)]
    expected = read_alone(lines, True)
    read, reads = jsonfield.from_json, []

    def counted(cls, raw, *args, **given):
        reads.append(raw)
        return read(cls, raw, *args, **given)

    monkeypatch.setattr(evidence, "from_json", counted)
    events = parse_evidence(lines)
    assert (list(map(typed, events)), []) == expected
    assert len(reads) == 2 and len(admitted) == 1 and admitted[0]
    assert events[4].port is events[0].port  # a hit shares the template's objects
