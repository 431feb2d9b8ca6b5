"""The reader ``jsonfield`` compiles for a slotted dataclass, against the
field-by-field walk it falls back to, and the evidence parse built on it."""

import gc
import json
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcms import jsonfield
from otcms.evidence import EvidenceError, EvidenceEvent, IdScheme, load_evidence, parse_evidence, write_evidence
from otcms.jsonfield import from_json

NAMES = [f.name for f in fields(EvidenceEvent)]
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


def test_only_a_slotted_class_gets_a_reader():
    from otcms.context import ContextSpec

    assert jsonfield._compile(ContextSpec, ()) is None
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
    with pytest.raises(FrozenInstanceError):
        event.port = 1
    with pytest.raises(FrozenInstanceError):
        del event.protocol


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
    assert retained / len(events) <= 450
