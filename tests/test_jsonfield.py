"""The write rule of ``otcms.jsonfield.to_json``, checked field by field.

A field holding a null, false or enum default is left out, every other
field is written (other defaults included), enums become their values,
tuples lists and frozensets sorted lists, and ``from_json`` reads the
written object back to an equal dataclass.
"""

import json
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum

import pytest

from otcms.engine import run_evaluation
from otcms.evidence import EvidenceEvent, IdScheme
from otcms.jsonfield import from_json, to_json
from otcms.simulator import GroundTruth, Injection, default_scenario, generate_scenario


def defaults(obj) -> dict:
    """Each field of dataclass or NamedTuple ``obj`` by name: its default, or MISSING."""
    if is_dataclass(obj):
        return {f.name: f.default for f in fields(obj)}
    return {name: obj._field_defaults.get(name, MISSING) for name in obj._fields}


def left_out(obj) -> set[str]:
    """The fields of ``obj`` that hold a null, false or enum default."""
    return {
        name
        for name, default in defaults(obj).items()
        if (default is None or default is False or isinstance(default, Enum)) and getattr(obj, name) is default
    }


def assert_written_by_rule(obj, data: dict) -> None:
    """``data`` holds exactly the fields of ``obj`` the rule writes, and so
    does every dataclass nested in it."""
    assert set(data) == set(defaults(obj)) - left_out(obj), type(obj).__name__
    for name, value in data.items():
        held = getattr(obj, name)
        if is_dataclass(held):
            assert_written_by_rule(held, value)
        elif type(held) is tuple:
            for item, item_data in zip(held, value):
                if is_dataclass(item):
                    assert_written_by_rule(item, item_data)


def _event() -> EvidenceEvent:
    return EvidenceEvent(
        seq=4, timestamp=10, src_id="10.0.0.1", dst_id="plc", protocol="MQTT",
        id_scheme_src=IdScheme.IP, tls_present=False, port=8883, audit_record=True,
    )


def _report(catalog):
    sc = default_scenario(seed=2, injections=(Injection(attribute_id="weak_encryption"),))
    events, _ = generate_scenario(sc, catalog)
    return run_evaluation(catalog, sc.spec, events, sl_target=2, generated_at=7)


@pytest.fixture(params=["event", "catalog", "report", "ground_truth"])
def written(request, catalog):
    obj = {
        "event": _event,
        "catalog": lambda: catalog,
        "report": lambda: _report(catalog),
        "ground_truth": lambda: GroundTruth(frozenset({"b", "c", "a"}), frozenset(), frozenset({"SR1.1"})),
    }[request.param]()
    return obj, to_json(obj)


def test_leaves_out_exactly_null_false_and_enum_defaults(written):
    assert_written_by_rule(*written)


def test_reads_back_equal_through_json_text(written):
    obj, data = written
    assert from_json(type(obj), json.loads(json.dumps(data)), ValueError) == obj


def test_event_fields():
    data = to_json(_event())
    # tls_present is false but its default is null; bytes holds its default 0, which is not false.
    assert data == {
        "seq": 4, "timestamp": 10, "src_id": "10.0.0.1", "dst_id": "plc", "protocol": "MQTT",
        "id_scheme_src": "IP", "port": 8883, "tls_present": False, "bytes": 0, "audit_record": True,
    }
    assert type(data["id_scheme_src"]) is str


def test_catalog_writes_other_defaults_and_flags(catalog):
    sr11 = to_json(catalog)["frs"][0]["srs"][0]
    assert sr11["bindings"][0]["min_sl"] == 1 and type(sr11["bindings"][0]["kind"]) is str
    assert "not_monitorable" not in sr11
    assert to_json(catalog.sr("SR3.3"))["not_monitorable"] is True


def test_report_writes_severity_and_nested_lists(catalog):
    data = to_json(_report(catalog))
    assert data["findings"] and all(finding["severity"] in ("info", "violation") for finding in data["findings"])
    assert all(type(pair) is list and type(pair[1]) is str for sr in data["per_sr"] for pair in sr["required"])


def test_frozensets_written_sorted():
    data = to_json(GroundTruth(frozenset({"b", "c", "a"}), frozenset(), frozenset({"SR7.1", "SR1.1"})))
    assert data == {
        "expected_violated": ["a", "b", "c"],
        "expected_fulfilled": [],
        "expected_noncompliant_srs": ["SR1.1", "SR7.1"],
    }
