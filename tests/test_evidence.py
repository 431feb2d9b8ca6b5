import hashlib
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detectors import shape_streams

from otcms import evidence
from otcms.context import ContextSpec
from otcms.detectors import detect_session_violations
from otcms.engine import run_evaluation
from otcms.evidence import (
    DEFAULT_SESSION_GAP_MS,
    EvidenceError,
    IdScheme,
    Session,
    assemble_sessions,
    evidence_digest,
    group_shapes,
    load_evidence,
    parse_evidence,
    read_evidence,
    to_jsonl,
    write_evidence,
)
from otcms.simulator import Injection, default_scenario, generate_scenario, list_injections

from otcms.jsonfield import to_json

from conftest import ev


def line(**fields) -> str:
    return json.dumps(fields)


class TestParseEvidence:
    def test_direct_field_mapping(self):
        events = parse_evidence(
            [line(timestamp=10, src_id="a", dst_id="b", protocol="MQTT", tls_present=True, bytes=42)]
        )
        assert len(events) == 1
        e = events[0]
        assert e.protocol == "MQTT"
        assert e.tls_present is True
        assert e.bytes == 42
        assert e.seq == 0
        assert e.cert_present is None  # unobserved stays unknown

    def test_empty_input(self):
        assert parse_evidence([]) == []
        assert parse_evidence(["", "   "]) == []

    def test_missing_timestamp_strict_names_line(self):
        lines = [line(timestamp=i, src_id="a", dst_id="b", protocol="MQTT") for i in range(6)]
        lines.append(line(src_id="a", dst_id="b", protocol="MQTT"))
        with pytest.raises(EvidenceError, match="line 7: missing timestamp"):
            parse_evidence(lines)

    def test_lenient_skips_malformed(self):
        lines = [
            line(timestamp=1, src_id="a", dst_id="b", protocol="MQTT"),
            "not json",
            line(src_id="a", dst_id="b", protocol="MQTT"),
            line(timestamp=2, src_id="a", dst_id="b", protocol="MQTT"),
        ]
        events = parse_evidence(lines, strict=False)
        assert [e.timestamp for e in events] == [1, 2]
        assert [e.seq for e in events] == [0, 1]

    def test_invalid_values_rejected(self):
        with pytest.raises(EvidenceError, match="line 1.*key_bits"):
            parse_evidence([line(timestamp=1, src_id="a", dst_id="b", protocol="X", key_bits=0)])
        with pytest.raises(EvidenceError, match="line 1.*bytes"):
            parse_evidence([line(timestamp=1, src_id="a", dst_id="b", protocol="X", bytes=-1)])
        with pytest.raises(EvidenceError, match="identifier scheme"):
            parse_evidence(
                [line(timestamp=1, src_id="a", dst_id="b", protocol="X", id_scheme_src="Phone")]
            )

    def test_seq_assigned_in_file_order(self):
        lines = [line(timestamp=t, src_id="a", dst_id="b", protocol="X") for t in (5, 3, 9)]
        events = parse_evidence(lines)
        assert [e.seq for e in events] == [0, 1, 2]
        assert [e.timestamp for e in events] == [5, 3, 9]

    def test_round_trip_lossless(self):
        original = [
            ev(seq=0, t=1, protocol="MQTT", tls_present=True, cert_present=False,
               session_id="s1", key_bits=128, bytes=10, fragmented=True, audit_record=True),
            ev(seq=1, t=2, src="alice", scheme_src=IdScheme.USERNAME, cleartext_password="pw",
               auth_result="Failure", direction_external=True, port=80),
        ]
        parsed = parse_evidence(to_jsonl(original).splitlines())
        assert parsed == original

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_breaks_inside_strings_round_trip(self, tmp_path, char, strict):
        # written raw by to_jsonl; only "\n" separates JSON Lines records
        original = [ev(seq=0, src=f"plc{char}a", session_id=f"s{char}"), ev(seq=1, t=1, dst=f"hmi{char}")]
        path = tmp_path / "evidence.jsonl"
        write_evidence(original, path)
        assert load_evidence(path, strict=strict) == original


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_memory_digest_is_that_of_the_written_file(catalog, tmp_path, seed):
    injections = tuple(Injection(attribute_id=attribute_id) for attribute_id, _ in list_injections())
    scenario = default_scenario(seed=seed, injections=injections)
    events, _ = generate_scenario(scenario, catalog)
    path = tmp_path / "evidence.jsonl"
    write_evidence(events, path)
    with open(path, "rb") as file:
        read = read_evidence(file)[1]
    hashed = run_evaluation(catalog, scenario.spec, events).evidence_digest
    assert len(injections) == 28 and len(events) > 100
    assert hashed == evidence_digest(to_jsonl(events).encode("utf-8")) == read


def test_digest_of_no_events_is_that_of_empty_input(catalog, tmp_path):
    empty = "sha256:" + hashlib.sha256(b"").hexdigest()
    assert run_evaluation(catalog, default_scenario().spec, []).evidence_digest == empty
    path = tmp_path / "evidence.jsonl"
    write_evidence([], path)
    with open(path, "rb") as file:
        assert read_evidence(file)[1] == empty


class TestSessions:
    def test_single_session_within_gap(self):
        events = [ev(seq=i, t=t) for i, t in enumerate((0, 100, 200))]
        sessions = assemble_sessions(events, gap_ms=1000)
        assert len(sessions) == 1
        assert sessions[0].events == events
        assert sessions[0].duration_ms == 200

    def test_gap_splits_session(self):
        events = [ev(seq=0, t=0), ev(seq=1, t=5000)]
        sessions = assemble_sessions(events, gap_ms=1000)
        assert len(sessions) == 2

    def test_unordered_pair_grouping(self):
        events = [ev(seq=0, t=0, src="a", dst="b"), ev(seq=1, t=10, src="b", dst="a")]
        sessions = assemble_sessions(events, gap_ms=1000)
        assert len(sessions) == 1
        assert sessions[0].participants == ("a", "b")

    def test_explicit_ids_separate_sessions(self):
        events = [
            ev(seq=0, t=0, session_id="s1"),
            ev(seq=1, t=10, session_id="s2"),
            ev(seq=2, t=20, session_id="s1"),
        ]
        assert len(assemble_sessions(events, gap_ms=1000, explicit_ids=True)) == 2
        assert len(assemble_sessions(events, gap_ms=1000, explicit_ids=False)) == 1

    def test_partition_matches_brute_force(self):
        # oracle: independent grouping by (pair, sid) then linear gap splitting
        rng = random.Random(1234)
        hosts = ["h1", "h2", "h3", "h4"]
        events = []
        t = 0
        for i in range(200):
            t += rng.randint(0, 3000)
            src, dst = rng.sample(hosts, 2)
            events.append(
                ev(seq=i, t=t, src=src, dst=dst, session_id=rng.choice([None, "x", "y"]),
                   bytes=rng.randint(0, 100))
            )
        gap = 1500
        sessions = assemble_sessions(events, gap_ms=gap)

        groups = {}
        for e in events:
            key = (tuple(sorted((e.src_id, e.dst_id))), e.session_id)
            groups.setdefault(key, []).append(e)
        expected_chunks = []
        for key in groups:
            members = sorted(groups[key], key=lambda e: (e.timestamp, e.seq))
            chunk = [members[0]]
            for e in members[1:]:
                if e.timestamp - chunk[-1].timestamp > gap:
                    expected_chunks.append(chunk)
                    chunk = []
                chunk.append(e)
            expected_chunks.append(chunk)

        got = sorted(tuple(e.seq for e in s.events) for s in sessions)
        want = sorted(tuple(e.seq for e in chunk) for chunk in expected_chunks)
        assert got == want
        # partition: every event exactly once
        all_seqs = sorted(seq for s in sessions for seq in (e.seq for e in s.events))
        assert all_seqs == [e.seq for e in events]

    def test_gap_of_exactly_gap_ms_does_not_split(self):
        events = [ev(seq=0, t=0), ev(seq=1, t=1000), ev(seq=2, t=2001), ev(seq=3, t=2001)]
        sessions = assemble_sessions(events, gap_ms=1000)
        assert [[e.seq for e in s.events] for s in sessions] == [[0, 1], [2, 3]]

    def test_sessions_without_explicit_ids_interleave_them(self):
        # one pair alternating two ids: one session each side of the gap, its events in (timestamp, seq) order
        events = [ev(seq=0, t=0, session_id="s1"), ev(seq=2, t=10, session_id="s2"), ev(seq=1, t=10, session_id="s1"),
                  ev(seq=3, t=20, session_id=None), ev(seq=4, t=5000, session_id="s2"), ev(seq=5, t=5000, session_id="s1")]
        sessions = assemble_sessions(events, gap_ms=1000, explicit_ids=False)
        assert [(s.session_key, [e.seq for e in s.events]) for s in sessions] == [
            ("10.0.0.1|10.0.0.2#0", [0, 1, 2, 3]), ("10.0.0.1|10.0.0.2#1", [4, 5])]
        # each id is reused after a 4,990 ms gap: s1 from seq 1 to 5, s2 from seq 2 to 4
        verdict = {v.attribute_id: v for v in detect_session_violations(sessions, ContextSpec(session_max_ms=4000))}[
            "session_id_integrity"]
        assert [(f.message, f.seq_refs) for f in verdict.findings] == [
            ("session id 's1' reused after a 4990 ms gap, over the allowed 4000 ms", (5,)),
            ("session id 's2' reused after a 4990 ms gap, over the allowed 4000 ms", (4,)),
        ]

    def test_determinism(self):
        events = [ev(seq=i, t=i * 100, src="a", dst="b") for i in range(20)]
        first = assemble_sessions(events, gap_ms=250)
        second = assemble_sessions(events, gap_ms=250)
        assert [s.session_key for s in first] == [s.session_key for s in second]
        assert first == second

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            assemble_sessions([], gap_ms=0)


def test_record_omits_absent_fields():
    record = to_json(ev(seq=3, t=7))
    assert "tls_present" not in record
    assert "fragmented" not in record
    assert "session_id" not in record
    assert record["id_scheme_src"] == "IP"


# --------------------------------------------------------------------------
# The parse's shape grouping, and sessions built from shapes
# --------------------------------------------------------------------------

def sessions_event_by_event(events, gap_ms, explicit_ids):
    """Sessions grouped event by event by ``(pair, session_id)``: the
    assembly that grouping by shape must reproduce."""
    groups = {}
    for event in events:
        groups.setdefault((event.pair(), event.session_id if explicit_ids else None), []).append(event)
    sessions = []
    for (pair, sid), members in groups.items():
        members = sorted(members, key=lambda e: (e.timestamp, e.seq))
        chunks = [[members[0]]]
        for previous, event in zip(members, members[1:]):
            if event.timestamp - previous.timestamp > gap_ms:
                chunks.append([])
            chunks[-1].append(event)
        base = f"{pair[0]}|{pair[1]}" + (f"|{sid}" if sid is not None else "")
        sessions += [Session(f"{base}#{index}", pair, chunk) for index, chunk in enumerate(chunks)]
    sessions.sort(key=lambda s: (s.start, s.events[0].seq))
    return sessions


def assert_sessions_from_shapes(events, shapes):
    """``assemble_sessions`` given ``shapes``, and without them, equals the
    event-by-event assembly, with and without explicit session ids."""
    for explicit_ids in (True, False):
        for gap_ms in (1, 700, DEFAULT_SESSION_GAP_MS):
            expected = sessions_event_by_event(events, gap_ms, explicit_ids)
            assert assemble_sessions(events, gap_ms, explicit_ids, shapes=shapes) == expected
            assert assemble_sessions(events, gap_ms, explicit_ids) == expected


def assert_parse_groups(lines, strict=False):
    """The parse's grouping of ``lines`` is ``group_shapes`` of its events:
    the same shapes in the same order, each with the same positions, each
    position the very ``seq`` of its event; the events are those of a parse
    that groups nothing."""
    shapes = {}
    events = parse_evidence(lines, strict=strict, shapes=shapes)
    assert events == parse_evidence(lines, strict=strict)
    assert list(shapes.items()) == list(group_shapes(events).items())
    assert all(events[position].seq is position for positions in shapes.values() for position in positions)
    return events, shapes


#: Lines a lenient read skips, each refused in another way.
MALFORMED = [
    "not json",
    '{"seq":',
    '{"seq":1,"timestamp":2,"src_id":"a","dst_id":"b"}',
    '{"seq":1,"timestamp":-2,"src_id":"a","dst_id":"b","protocol":"MQTT"}',
]


@st.composite
def evidence_texts(draw):
    """The JSON Lines of a ``shape_streams`` stream, whose ``seq``s repeat and
    fall. Some records are written with their keys reversed, some with
    spaces after colons (so no run is cut), and some with a ``"bytes"`` key
    given twice, which refuses their shape's template; malformed lines, some
    a copy of a written line with a timestamp past the digit limit, go in
    between."""
    events = draw(shape_streams())
    lines = []
    for text in to_jsonl(events).split("\n")[:-1]:
        how = draw(st.sampled_from(["written", "written", "reversed", "spaced", "bytes twice"]))
        record = json.loads(text)
        if how == "reversed":
            text = json.dumps(dict(reversed(record.items())), separators=(",", ":"), ensure_ascii=False)
        elif how == "spaced":
            text = json.dumps(record, ensure_ascii=False)
        elif how == "bytes twice":
            text = '{"bytes":%d,' % draw(st.integers(0, 99)) + text[1:]
        lines.append(text)
    for _ in range(draw(st.integers(0, 3))):
        bad = draw(st.sampled_from(MALFORMED) | st.sampled_from(lines).map(
            lambda text: re.sub(r'"timestamp":[0-9]+', '"timestamp":' + "9" * 4301, text)
        ))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return events, lines


@settings(max_examples=200, deadline=None)
@given(
    text=evidence_texts(),
    misses=st.sampled_from([0, 1, 4, evidence._MISSES]),
    room=st.sampled_from([150, evidence._SHAPE_ROOM]),
    coarse=st.sampled_from([1, 700, 10**6]),
)
def test_parse_groups_by_shape_and_sessions_are_built_from_shapes(text, misses, room, coarse):
    """``misses`` and ``room`` move the cut-off and the template table's
    bound into the stream; ``coarse`` makes timestamps of the drawn events
    equal."""
    drawn, lines = text
    with mock.patch.object(evidence, "_MISSES", misses), mock.patch.object(evidence, "_SHAPE_ROOM", room):
        events, shapes = assert_parse_groups(lines)
    assert_sessions_from_shapes(events, shapes)
    drawn = [event._replace(timestamp=event.timestamp // coarse) for event in drawn]
    assert_sessions_from_shapes(drawn, group_shapes(drawn))


def test_parse_groups_past_the_miss_limit():
    # more new shapes than the limit allows, then each shape again, in two key orders
    distinct = evidence._MISSES + 40
    events = [ev(seq=n, t=n, port=n % distinct, session_id=f"s{n % distinct % 7}", bytes=n) for n in range(3 * distinct)]
    lines = to_jsonl(events).split("\n")[:-1]
    lines[1::2] = [json.dumps(dict(reversed(json.loads(text).items())), separators=(",", ":")) for text in lines[1::2]]
    parsed, shapes = assert_parse_groups(lines, strict=True)
    assert len(shapes) == distinct and parsed == events
    assert_sessions_from_shapes(parsed, shapes)
