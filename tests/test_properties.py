"""Property-based checks over the engine's core invariants."""

import json
from dataclasses import fields
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from otcms import detectors
from otcms.context import CommEntry, ContextError, ContextSpec, RateLimit, context_from_dict, context_to_dict
from otcms.detectors import REGISTRY, Status, detect_abnormal_behavior, run_detectors
from otcms.evidence import (
    EvidenceError,
    EvidenceEvent,
    IdScheme,
    assemble_sessions,
    parse_evidence,
    to_jsonl,
)
from otcms.jsonfield import to_json
from otcms.simulator import INJECTIONS, Injection, default_context, default_scenario, generate_scenario

HOSTS = ["h1", "h2", "h3", "p9"]
PROTOCOLS = ["MQTT", "OPCUA", "Telnet", "FTP", "HTTP", "LDAP", "Bluetooth", "ICMP"]
SCHEMES = list(IdScheme)

token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._:-", min_size=1, max_size=12)


@st.composite
def unknown_flag_events(draw, max_size=25):
    """Streams whose security flags are all unknown.

    Anomaly markers and arbitrary protocols are allowed; positive security
    evidence (passwords, auth results, payload markers) is not, since those
    are observations rather than unknowns.
    """
    n = draw(st.integers(min_value=1, max_value=max_size))
    events = []
    t = 0
    for i in range(n):
        t += draw(st.integers(min_value=0, max_value=3_000))
        src, dst = draw(st.sampled_from([(a, b) for a in HOSTS for b in HOSTS if a != b]))
        events.append(
            EvidenceEvent(
                seq=i,
                timestamp=t,
                src_id=src,
                dst_id=dst,
                protocol=draw(st.sampled_from(PROTOCOLS)),
                id_scheme_src=draw(st.sampled_from(SCHEMES)),
                id_scheme_dst=draw(st.sampled_from(SCHEMES)),
                port=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=65535))),
                bytes=draw(st.integers(min_value=0, max_value=4096)),
                fragmented=draw(st.booleans()),
                error_code=draw(st.one_of(st.none(), st.just("0x1f"))),
            )
        )
    return events


@st.composite
def plain_events(draw, max_size=30):
    n = draw(st.integers(min_value=0, max_value=max_size))
    events = []
    t = 0
    for i in range(n):
        t += draw(st.integers(min_value=0, max_value=2_500))
        src, dst = draw(st.sampled_from([(a, b) for a in HOSTS for b in HOSTS if a != b]))
        events.append(
            EvidenceEvent(
                seq=i,
                timestamp=t,
                src_id=src,
                dst_id=dst,
                protocol=draw(st.sampled_from(PROTOCOLS)),
                bytes=draw(st.integers(min_value=0, max_value=512)),
                session_id=draw(st.one_of(st.none(), st.sampled_from(["s1", "s2"]))),
            )
        )
    return events


@st.composite
def rich_events(draw, max_size=12):
    """Events exercising every optional field, for serialization round-trips."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    events = []
    t = 0
    for i in range(n):
        t += draw(st.integers(min_value=0, max_value=10_000))
        events.append(
            EvidenceEvent(
                seq=i,
                timestamp=t,
                src_id=draw(token),
                dst_id=draw(token),
                protocol=draw(token),
                id_scheme_src=draw(st.sampled_from(SCHEMES)),
                id_scheme_dst=draw(st.sampled_from(SCHEMES)),
                protocol_version=draw(st.one_of(st.none(), token)),
                port=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=65535))),
                tls_present=draw(st.one_of(st.none(), st.booleans())),
                cert_present=draw(st.one_of(st.none(), st.booleans())),
                cipher_suite=draw(st.one_of(st.none(), token)),
                key_bits=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4096))),
                cleartext_password=draw(st.one_of(st.none(), token)),
                auth_result=draw(st.sampled_from([None, "Success", "Failure"])),
                session_id=draw(st.one_of(st.none(), token)),
                error_code=draw(st.one_of(st.none(), token)),
                fragmented=draw(st.booleans()),
                bytes=draw(st.integers(min_value=0, max_value=10**9)),
                direction_external=draw(st.one_of(st.none(), st.booleans())),
                access_list_transfer=draw(st.booleans()),
                mobile_code=draw(st.booleans()),
                audit_record=draw(st.booleans()),
                record_timestamp=draw(st.booleans()),
                ids_heartbeat=draw(st.booleans()),
                snapshot_transfer=draw(st.booleans()),
            )
        )
    return events


@settings(max_examples=80, deadline=None)
@given(events=plain_events(), gap=st.integers(min_value=1, max_value=5_000))
def test_sessions_partition_input(events, gap):
    sessions = assemble_sessions(events, gap_ms=gap)
    seqs = sorted(e.seq for s in sessions for e in s.events)
    assert seqs == [e.seq for e in events]
    for session in sessions:
        times = [e.timestamp for e in session.events]
        assert times == sorted(times)
        pair = session.participants
        for e in session.events:
            assert {e.src_id, e.dst_id} == set(pair) or (e.src_id == e.dst_id and e.src_id in pair)


@settings(max_examples=40, deadline=None)
@given(events=plain_events(), gap=st.integers(min_value=1, max_value=5_000))
def test_session_assembly_deterministic(events, gap):
    assert assemble_sessions(events, gap_ms=gap) == assemble_sessions(events, gap_ms=gap)


@settings(max_examples=120, deadline=None)
@given(events=unknown_flag_events())
def test_unknown_flags_never_violate(events):
    # permissive context: nothing configured that could contradict evidence
    ctx = ContextSpec()
    verdicts = run_detectors(events, assemble_sessions(events), ctx)
    violated = [a for a, v in verdicts.items() if v.status is Status.VIOLATED]
    assert violated == []


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.integers(min_value=0, max_value=4_000), min_size=0, max_size=80),
    max_events=st.integers(min_value=1, max_value=15),
    window=st.sampled_from([100, 500, 1000]),
)
def test_rate_windows_match_quadratic_recount(times, max_events, window):
    events = [
        EvidenceEvent(seq=i, timestamp=t, src_id="a", dst_id="b", protocol="MQTT", bytes=1)
        for i, t in enumerate(sorted(times))
    ]
    ctx = ContextSpec(
        rate_spec={("a", "b"): RateLimit(window_ms=window, max_events_per_window=max_events)}
    )
    got = detect_abnormal_behavior(assemble_sessions(events, gap_ms=10**9), ctx)[0].status

    stamps = sorted(times)
    bad = any(
        sum(1 for u in stamps if t <= u < t + window) > max_events
        for t in stamps
    )
    if not events:
        assert got is Status.FULFILLED  # configured pair, nothing observed
    else:
        assert got is (Status.VIOLATED if bad else Status.FULFILLED)


@settings(max_examples=40, deadline=None)
@given(events=rich_events())
def test_jsonl_round_trip(events):
    assert parse_evidence(to_jsonl(events).splitlines()) == events


@settings(max_examples=40, deadline=None)
@given(events=unknown_flag_events(), data=st.data())
def test_appending_events_never_unviolates(events, data):
    """Whatever is violated stays violated when later events arrive."""
    ctx = context_from_dict(
        {
            "expected_protocols": ["MQTT", "OPCUA"],
            "expected_communications": [{"src": "h1", "dst": "h2", "protocol": "MQTT"}],
            "max_failed_attempts": 1,
            "password_policy": {"min_length": 8},
        }
    )
    before = run_detectors(events, assemble_sessions(events), ctx)
    last_t = events[-1].timestamp if events else 0
    extra_count = data.draw(st.integers(min_value=1, max_value=5))
    appended = list(events)
    for k in range(extra_count):
        appended.append(
            EvidenceEvent(
                seq=len(appended),
                timestamp=last_t + 10 + k,
                src_id=data.draw(st.sampled_from(HOSTS)),
                dst_id=data.draw(st.sampled_from(HOSTS)),
                protocol=data.draw(st.sampled_from(PROTOCOLS)),
                cleartext_password=data.draw(st.one_of(st.none(), st.just("pw"))),
                auth_result=data.draw(st.sampled_from([None, "Failure"])),
            )
        )
    after = run_detectors(appended, assemble_sessions(appended), ctx)
    for attribute_id, verdict in before.items():
        if verdict.status is Status.VIOLATED:
            assert after[attribute_id].status is Status.VIOLATED


# Nested keys the context sections read, so generated objects reach past the
# top level; arbitrary keys are mixed in.
SECTION_KEYS = [
    "src", "dst", "protocol", "mandatory", "process_id", "device_id", "pair", "window_ms",
    "max_events_per_window", "max_bytes_per_window", "min_length", "max_lifetime_days",
    "approved_suites", "min_key_bits", "min_protocol_versions", "MQTT", "cell",
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SECTION_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
DEFAULT_CONTEXT = context_to_dict(default_context())
SAMPLE_EVENTS, _ = generate_scenario(
    default_scenario(seed=3, injections=tuple(Injection(attribute_id=a) for a in sorted(INJECTIONS)))
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from([f.name for f in fields(ContextSpec)]), value=json_values)
def test_any_json_in_a_context_section_loads_or_raises_context_error(key, value):
    """A context section holding any JSON value either loads into a context
    the detectors run on, or fails with ContextError (exit 2 on the CLI)."""
    try:
        ctx = context_from_dict({**DEFAULT_CONTEXT, key: value})
    except ContextError:
        return
    run_detectors(SAMPLE_EVENTS, assemble_sessions(SAMPLE_EVENTS), ctx)


SAMPLE_SESSIONS = assemble_sessions(SAMPLE_EVENTS)


def each_detector(events, sessions, ctx) -> list:
    """The verdicts of every detector called on its own, as a traced run calls them."""
    return [
        *detectors.detect_unknown_factors(events, ctx),
        *detectors.detect_abnormal_behavior(sessions, ctx),
        *detectors.detect_security_strength(events, ctx),
        *detectors.detect_cleartext_authenticators(events, ctx),
        *detectors.detect_auth_attempts(events, ctx),
        *detectors.detect_session_violations(sessions, ctx),
        *detectors.detect_integrity_anomalies(events, sessions),
        *detectors.detect_iac_management(events),
        *detectors.detect_pki_best_practice(events, ctx),
        *detectors.detect_wireless_iac(events, ctx),
        *detectors.detect_untrusted_access(events, ctx),
        *detectors.detect_authorization_controls(events, ctx),
        *detectors.detect_segmentation(events, ctx),
        *detectors.detect_least_functionality(events, ctx),
        *detectors.detect_audit_and_monitoring(events),
    ]


@settings(max_examples=100, deadline=None)
@given(dropped=st.sets(st.sampled_from(sorted(DEFAULT_CONTEXT))))
def test_attribute_with_an_unconfigured_need_is_indeterminate(dropped):
    """Every section a need names is set in the default context and empty or
    null when dropped, so a need is unmet exactly when all its alternatives
    are dropped; such an attribute is indeterminate and cites nothing."""
    ctx = context_from_dict({key: value for key, value in DEFAULT_CONTEXT.items() if key not in dropped})
    unmet = {
        attribute_id
        for attribute_id, info in REGISTRY.items()
        if any(set(need.split("|")) <= dropped for need in info.needs)
    }
    by_run = run_detectors(SAMPLE_EVENTS, SAMPLE_SESSIONS, ctx)
    by_call = {verdict.attribute_id: verdict for verdict in each_detector(SAMPLE_EVENTS, SAMPLE_SESSIONS, ctx)}
    assert by_call == by_run
    for attribute_id in unmet:
        assert by_run[attribute_id].status is Status.INDETERMINATE, attribute_id
        assert by_run[attribute_id].findings == (), attribute_id


def test_needs_name_context_sections():
    sections = {f.name for f in fields(ContextSpec)}
    for attribute_id, info in REGISTRY.items():
        assert all(set(need.split("|")) <= sections for need in info.needs), attribute_id


# A record with most evidence fields set, so generated values replace present
# ones as well as add absent ones.
FULL_RECORD = {
    **to_json(SAMPLE_EVENTS[0]),
    "protocol_version": "1.2", "port": 8883, "tls_present": True, "cert_present": False,
    "cipher_suite": "TLS_AES_128_GCM_SHA256", "key_bits": 256, "cleartext_password": "pw",
    "auth_result": "Failure", "session_id": "s", "error_code": "0x1f", "fragmented": True,
    "bytes": 10, "direction_external": False, "mobile_code": True,
}


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(EvidenceEvent._fields), value=json_values)
def test_any_json_in_an_evidence_field_parses_or_raises_evidence_error(key, value):
    """An evidence field holding any JSON value either parses into an event
    the detectors run on, or fails with EvidenceError (exit 2 on the CLI)."""
    try:
        (event,) = parse_evidence([json.dumps({**FULL_RECORD, key: value})])
    except EvidenceError:
        return
    events = [*SAMPLE_EVENTS, event._replace(seq=len(SAMPLE_EVENTS))]
    run_detectors(events, assemble_sessions(events), default_context())


# One pool for identifiers and protocols, "*" included, so whitelist entries
# and queries collide often and a literal "*" shows up on both sides.
WHITELIST_POOL = ["h1", "h2", "MQTT", "*"]
whitelist_entries = st.builds(
    CommEntry,
    src=st.sampled_from(WHITELIST_POOL),
    dst=st.sampled_from(WHITELIST_POOL),
    protocol=st.sampled_from(WHITELIST_POOL),
    mandatory=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(whitelist_entries, max_size=8))
def test_indexed_whitelist_lookups_equal_a_scan(entries):
    """The triple index answers every query as a scan over the entries does."""
    ctx = ContextSpec(expected_communications=tuple(entries))
    for src, dst, protocol in product(WHITELIST_POOL, repeat=3):
        matching = [
            entry for entry in entries
            if entry.src in ("*", src) and entry.dst in ("*", dst) and entry.protocol in ("*", protocol)
        ]
        demanded = any(
            entry.protocol == protocol and entry.src in ("*", src) and entry.dst in ("*", dst)
            for entry in entries
        )
        assert ctx.matches_communication(src, dst, protocol) is bool(matching)
        assert ctx.mandatory_communication(src, dst, protocol) is any(entry.mandatory for entry in matching)
        assert ctx.demands_protocol(src, dst, protocol) is demanded
