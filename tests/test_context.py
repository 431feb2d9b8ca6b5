import json

import pytest

from otcms.cli import main
from otcms.context import (
    ContextError,
    ContextSpec,
    CryptoPolicy,
    PasswordPolicy,
    RateLimit,
    classify_entity,
    context_from_dict,
    context_to_dict,
    load_context,
    load_manual_attributes,
)
from otcms.evidence import IdScheme


@pytest.mark.parametrize("loader", ["context", "manual", "scenario"])
def test_invalid_json_names_file_and_line(tmp_path, capsys, loader):
    path = tmp_path / "input.json"
    path.write_text('{\n  "seed": ,\n}\n')
    context = tmp_path / "context.json"
    context.write_text("{}")
    evaluate = ["evaluate", "--evidence", str(tmp_path / "evidence.jsonl")]
    role, argv = {
        "context": ("context", [*evaluate, "--context", str(path)]),
        "manual": ("manual attributes", [*evaluate, "--context", str(context), "--manual", str(path)]),
        "scenario": ("scenario", ["simulate", str(path), "--out-dir", str(tmp_path / "out")]),
    }[loader]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"otcms: error: cannot load {role} {path}: invalid JSON at line 2: Expecting value\n"


class TestLoadContext:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps({"expected_protocols": ["MQTT"]}))
        ctx = load_context(path)
        assert ctx.expected_protocols == {"MQTT"}
        assert ctx.wireless_protocols == {"Bluetooth", "Zigbee"}
        assert ctx.p2p_protocols == {"HTTP"}
        assert ctx.session_max_ms == 3_600_000
        assert ctx.password_policy is None
        assert ctx.rate_spec == {}

    def test_zone_sl_target_zero_rejected(self, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps({"zone_sl_target": {"cell": 0}}))
        with pytest.raises(ContextError, match=r"^zone_sl_target\[cell\]: expected one of 1, 2, 3, 4, got 0$"):
            load_context(path)

    def test_human_list_loaded(self, tmp_path):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps({"human_identifiers": ["alice"]}))
        assert "alice" in load_context(path).human_identifiers

    def test_rate_spec_pair_repeated_in_either_order_rejected(self):
        strict = {"pair": ["a", "b"], "window_ms": 1000, "max_events_per_window": 1}
        loose = {"pair": ["b", "a"], "window_ms": 1000, "max_events_per_window": 999}
        with pytest.raises(ContextError, match=r"^rate_spec\[1\]: pair \['a', 'b'\] is already limited by rate_spec\[0\]$"):
            context_from_dict({"rate_spec": [strict, loose]})

    @pytest.mark.parametrize("build, message", [
        (lambda: RateLimit(window_ms=0), "window_ms: expected at least 1, got 0"),
        (lambda: RateLimit(window_ms=1000, max_events_per_window=-1), "max_events_per_window: expected at least 0, got -1"),
        (lambda: RateLimit(window_ms=1000, max_bytes_per_window=-1), "max_bytes_per_window: expected at least 0, got -1"),
        (lambda: CryptoPolicy(min_key_bits=-5), "min_key_bits: expected at least 0, got -5"),
        (lambda: ContextSpec(p2p_bandwidth_limit_bytes_per_s=-1), "p2p_bandwidth_limit_bytes_per_s: expected at least 0, got -1"),
        (lambda: ContextSpec(max_failed_attempts=-1), "max_failed_attempts: expected at least 0, got -1"),
        (lambda: ContextSpec(session_max_ms=0), "session_max_ms: expected at least 1, got 0"),
        (lambda: ContextSpec(zone_sl_target={"cell": 2, "eng": 0}), "zone_sl_target[eng]: expected one of 1, 2, 3, 4, got 0"),
        (lambda: PasswordPolicy(min_length=0), "min_length: expected at least 1, got 0"),
        # The file's rule, type included: a value of another type is refused as a file's would be.
        (lambda: RateLimit(window_ms=1.5), "window_ms: expected an integer, got 1.5"),
        (lambda: ContextSpec(session_max_ms=None), "session_max_ms: expected an integer, got null"),
    ], ids=["window_ms", "max_events_per_window", "max_bytes_per_window", "min_key_bits", "p2p_bandwidth",
            "max_failed_attempts", "session_max_ms", "zone_sl_target", "min_length", "window_ms_float",
            "session_max_ms_null"])
    def test_ranges_applied_on_construction(self, build, message):
        with pytest.raises(ContextError) as refused:
            build()
        assert str(refused.value) == message

    def test_range_ends_and_nulls_built(self):
        limit = RateLimit(window_ms=1, max_events_per_window=0, max_bytes_per_window=0)
        assert (limit.window_ms, limit.max_events_per_window, limit.max_bytes_per_window) == (1, 0, 0)
        assert RateLimit(window_ms=1).max_events_per_window is None
        assert CryptoPolicy(min_key_bits=0).min_key_bits == 0
        assert ContextSpec(p2p_bandwidth_limit_bytes_per_s=0).p2p_bandwidth_limit_bytes_per_s == 0

    def test_refused_file_keeps_its_path_and_wording(self):
        rate = {"pair": ["a", "b"], "window_ms": 1000, "max_events_per_window": -1}
        with pytest.raises(ContextError) as refused:
            context_from_dict({"rate_spec": [rate]})
        assert str(refused.value) == "rate_spec[0]: max_events_per_window: expected at least 0, got -1"

    def test_bad_prefix_rejected(self):
        with pytest.raises(ContextError, match="prefix"):
            ContextSpec(external_prefixes=("not-a-network",))

    def test_round_trip(self, tmp_path):
        data = {
            "expected_protocols": ["MQTT", "OPCUA"],
            "expected_communications": [
                {"src": "a", "dst": "b", "protocol": "MQTT"},
                {"src": "c", "dst": "d", "protocol": "ICMP", "mandatory": True},
            ],
            "zone_map": {"a": "z1"},
            "zone_sl_target": {"z1": 3},
            "rate_spec": [{"pair": ["a", "b"], "window_ms": 1000, "max_events_per_window": 5}],
            "password_policy": {"min_length": 10},
            "max_failed_attempts": 2,
            "crypto_policy": {"approved_suites": ["X"], "min_key_bits": 256},
        }
        ctx = context_from_dict(data)
        again = context_from_dict(context_to_dict(ctx))
        assert again == ctx


class TestManualAttributes:
    def test_accepts_manual_kind_entry(self, tmp_path, catalog):
        path = tmp_path / "manual.json"
        path.write_text(
            json.dumps({"entries": {"input_validation": {"value": True, "set_by": "auditor"}}})
        )
        manual = load_manual_attributes(path, catalog)
        assert manual.entries["input_validation"].value is True
        assert manual.entries["input_validation"].set_by == "auditor"

    def test_bare_boolean_form(self, tmp_path, catalog):
        path = tmp_path / "manual.json"
        path.write_text(json.dumps({"entries": {"emergency_power": False}}))
        assert load_manual_attributes(path, catalog).entries["emergency_power"].value is False

    def test_refuses_monitored_attribute(self, tmp_path, catalog):
        path = tmp_path / "manual.json"
        path.write_text(json.dumps({"entries": {"data_integrity": True}}))
        with pytest.raises(ContextError, match="manual override refused"):
            load_manual_attributes(path, catalog)

    def test_unknown_attribute_rejected(self, tmp_path, catalog):
        path = tmp_path / "manual.json"
        path.write_text(json.dumps({"entries": {"protocol_type": True}}))
        with pytest.raises(ContextError, match="unknown manual attribute"):
            load_manual_attributes(path, catalog)

    def test_empty_file_empty_assignments(self, tmp_path, catalog):
        path = tmp_path / "manual.json"
        path.write_text("{}")
        assert load_manual_attributes(path, catalog).entries == {}


class TestClassifyEntity:
    def test_username_scheme_implies_human(self):
        ctx = ContextSpec()
        got = classify_entity("alice", IdScheme.USERNAME, ctx)
        assert got.is_human is True

    def test_human_list_wins_over_scheme(self):
        ctx = ContextSpec(human_identifiers=frozenset({"operator7"}))
        assert classify_entity("operator7", IdScheme.IP, ctx).is_human is True

    def test_external_prefix_match(self):
        ctx = ContextSpec(external_prefixes=("198.51.100.0/24",))
        got = classify_entity("198.51.100.7", IdScheme.IP, ctx)
        assert got.is_external is True

    def test_external_prefix_wins_over_zone(self):
        ctx = ContextSpec(external_prefixes=("198.51.100.0/24",), zone_map={"198.51.100.7": "cell"})
        got = classify_entity("198.51.100.7", IdScheme.IP, ctx)
        assert got.zone == "cell"
        assert got.is_external is True

    def test_unzoned_private_address_all_unknown_except_external(self):
        # oracle: direct set-membership checks on each context collection
        ctx = ContextSpec(
            zone_map={"10.0.0.1": "cell"},
            external_prefixes=("203.0.113.0/24",),
            human_identifiers=frozenset({"alice"}),
            trusted_zones=frozenset({"cell"}),
        )
        got = classify_entity("10.0.0.5", IdScheme.IP, ctx)
        assert got.is_human is None
        assert got.zone is None
        assert got.zone_trusted is None
        assert got.is_external is False

    def test_zone_resolution_and_trust(self):
        ctx = ContextSpec(
            zone_map={"h": "cell", "g": "dmz"},
            trusted_zones=frozenset({"cell"}),
        )
        assert classify_entity("h", IdScheme.IP, ctx).zone_trusted is True
        assert classify_entity("g", IdScheme.IP, ctx).zone_trusted is False

    def test_unzoned_global_address_is_external(self):
        ctx = ContextSpec(zone_map={"10.0.0.1": "cell"})
        assert classify_entity("8.8.8.8", IdScheme.IP, ctx).is_external is True

    def test_pure_function(self):
        ctx = ContextSpec(human_identifiers=frozenset({"alice"}))
        first = classify_entity("alice", IdScheme.OTHER, ctx)
        second = classify_entity("alice", IdScheme.OTHER, ctx)
        assert first == second
