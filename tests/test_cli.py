import dataclasses
import hashlib
import json

import pytest

from otcms.cli import main
from otcms.compliance import parse_report
from otcms.evidence import load_evidence, write_evidence
from otcms.simulator import Injection, default_scenario, scenario_to_dict


class JsonText(str):
    """A value written into a JSON object as this text: one ``json.dumps``
    cannot write, such as an integer beyond Python's digit limit."""


def dumps(record: dict) -> str:
    """``record`` as a JSON object, each :class:`JsonText` value written as its text."""
    text = json.dumps({key: value for key, value in record.items() if not isinstance(value, JsonText)})
    raw = "".join(f", {json.dumps(key)}: {value}" for key, value in record.items() if isinstance(value, JsonText))
    return text[:-1] + raw + "}"


TOO_MANY_DIGITS = JsonText("9" * 4301)
NESTED_TOO_DEEPLY = JsonText("[" * 100_000 + "]" * 100_000)


@pytest.fixture
def scenario_dir(tmp_path):
    """Scenario files plus simulated inputs for CLI runs."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(scenario_to_dict(default_scenario(name="clean", seed=6))))
    weak = tmp_path / "weak.json"
    weak.write_text(
        json.dumps(
            scenario_to_dict(
                default_scenario(name="weak", seed=6,
                                 injections=(Injection(attribute_id="weak_encryption"),))
            )
        )
    )
    return tmp_path


def simulate(scenario_path, out_dir):
    code = main(["simulate", str(scenario_path), "--out-dir", str(out_dir), "--emit-context"])
    assert code == 0
    return out_dir / "evidence.jsonl", out_dir / "context.json"


class TestEvaluate:
    def test_baseline_exit_zero_report_written(self, scenario_dir, tmp_path):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        out = tmp_path / "report.json"
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context),
                     "--out", str(out), "--generated-at", "0"])
        assert code == 0
        report = parse_report(out.read_text())
        assert report.noncompliant_sr_ids() == []

    def test_violation_exit_one(self, scenario_dir, tmp_path):
        evidence, context = simulate(scenario_dir / "weak.json", tmp_path / "sim")
        out = tmp_path / "report.json"
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context),
                     "--out", str(out), "--generated-at", "0"])
        assert code == 1
        assert "SR4.3" in parse_report(out.read_text()).noncompliant_sr_ids()

    def test_missing_catalog_exit_two_names_path(self, scenario_dir, tmp_path, capsys):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context),
                     "--catalog", "/nonexistent/cat.json"])
        assert code == 2
        assert "/nonexistent/cat.json" in capsys.readouterr().err

    def test_missing_evidence_exit_two(self, scenario_dir, tmp_path):
        _, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        assert main(["evaluate", "--evidence", "/nope.jsonl", "--context", str(context)]) == 2

    def test_report_on_stdout_diagnostics_on_stderr(self, scenario_dir, tmp_path, capsys):
        evidence, context = simulate(scenario_dir / "weak.json", tmp_path / "sim")
        capsys.readouterr()
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context),
                     "--generated-at", "0"])
        captured = capsys.readouterr()
        assert code == 1
        parse_report(captured.out)  # stdout is pure report body
        assert "non-compliant" in captured.err

    def test_idempotent_byte_identical_bodies(self, scenario_dir, tmp_path):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["evaluate", "--evidence", str(evidence), "--context", str(context),
                  "--out", str(out)])
            data = json.loads(out.read_text())
            del data["generated_at"]
            outs.append(json.dumps(data, sort_keys=True).encode())
        assert outs[0] == outs[1]

    def test_generated_at_env(self, scenario_dir, tmp_path, monkeypatch):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        monkeypatch.setenv("CMS_GENERATED_AT", "777")
        out = tmp_path / "r.json"
        main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(out)])
        assert json.loads(out.read_text())["generated_at"] == 777

    def test_catalog_env_fallback(self, scenario_dir, tmp_path, monkeypatch, capsys):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        monkeypatch.setenv("CMS_CATALOG", "/missing/env-cat.json")
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context)])
        assert code == 2
        assert "env-cat.json" in capsys.readouterr().err

    def test_text_format(self, scenario_dir, tmp_path, capsys):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        capsys.readouterr()
        main(["evaluate", "--evidence", str(evidence), "--context", str(context),
              "--format", "text", "--generated-at", "0"])
        assert "IEC 62443-3-3 compliance report" in capsys.readouterr().out

    def test_lenient_mode_skips_bad_lines(self, scenario_dir, tmp_path):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        mangled = tmp_path / "mangled.jsonl"
        mangled.write_text("garbage\n" + evidence.read_text())
        assert main(["evaluate", "--evidence", str(mangled), "--context", str(context)]) == 2
        assert main(["evaluate", "--evidence", str(mangled), "--context", str(context),
                     "--lenient", "--out", str(tmp_path / "l.json")]) == 0

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_breaks_inside_strings_evaluated(self, scenario_dir, tmp_path, char, lenient):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        events = load_evidence(evidence)
        intruder = dataclasses.replace(events[0], seq=len(events), src_id=f"plc{char}a", protocol="Telnet")
        write_evidence([*events, intruder], evidence)
        out = tmp_path / "report.json"
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context),
                     "--out", str(out), "--generated-at", "0", *(["--lenient"] if lenient else [])])
        assert code == 1  # the intruder's record is read whole, not split or skipped
        assert any(f"plc{char}a" in f.message for f in parse_report(out.read_text(encoding="utf-8")).findings)

    def test_generated_at_env_not_integer_exit_two(self, scenario_dir, tmp_path, monkeypatch, capsys):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        monkeypatch.setenv("CMS_GENERATED_AT", "abc")
        capsys.readouterr()
        assert main(["evaluate", "--evidence", str(evidence), "--context", str(context)]) == 2
        assert "otcms: error: CMS_GENERATED_AT" in capsys.readouterr().err

    @pytest.mark.parametrize("gap", ["0", "-5"])
    def test_session_gap_not_positive_exit_two(self, scenario_dir, tmp_path, capsys, gap):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        capsys.readouterr()
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--session-gap-ms", gap])
        assert code == 2
        assert "otcms: error: --session-gap-ms" in capsys.readouterr().err


MALFORMED_CONTEXT = {
    "max_failed_attempts_string": {"max_failed_attempts": "3"},
    "max_failed_attempts_bool": {"max_failed_attempts": True},
    "p2p_bandwidth_string": {"p2p_bandwidth_limit_bytes_per_s": "5"},
    "password_policy_number": {"password_policy": 5},
    "crypto_policy_list": {"crypto_policy": [1]},
    "rate_spec_number_entry": {"rate_spec": [5]},
    "process_without_device": {"known_software_processes": [{"process_id": "proc-1"}]},
    "zone_sl_target_null": {"zone_sl_target": {"cell": None}},
    "zone_map_list": {"zone_map": ["a"]},
    "min_protocol_versions_list": {"crypto_policy": {"min_protocol_versions": [1]}},
    "mandatory_string": {
        "expected_communications": [{"src": "a", "dst": "b", "protocol": "MQTT", "mandatory": "false"}]
    },
    "dst_null": {"expected_communications": [{"src": "a", "dst": None, "protocol": "MQTT"}]},
    "process_pair_with_null": {"known_software_processes": [[1, None]]},
    "password_policy_null": {"password_policy": None},
    "max_failed_attempts_too_many_digits": {"max_failed_attempts": TOO_MANY_DIGITS},
    "zone_map_nested_too_deeply": {"zone_map": NESTED_TOO_DEEPLY},
    "rate_spec_pair_repeated_reversed": {
        "rate_spec": [
            {"pair": ["10.0.1.10", "10.0.1.20"], "window_ms": 1000, "max_events_per_window": 1},
            {"pair": ["10.0.1.20", "10.0.1.10"], "window_ms": 1000, "max_events_per_window": 999},
        ]
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONTEXT))
def test_malformed_context_exit_two(scenario_dir, tmp_path, capsys, case):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    context.write_text(dumps({**json.loads(context.read_text()), **MALFORMED_CONTEXT[case]}))
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context)]) == 2
    assert "otcms: error: cannot load context" in capsys.readouterr().err


MALFORMED_SCENARIO = {
    "injection_without_attribute_id": lambda sc: sc["injections"].append({"at_ms": 5}),
    "profile_without_protocol": lambda sc: sc["traffic_profile"][0].pop("protocol"),
    "rate_beyond_float_range": lambda sc: sc["traffic_profile"][0].update(rate_per_s=10**400),
    "rate_infinite": lambda sc: sc["traffic_profile"][0].update(rate_per_s=float("inf")),
    "rate_zero": lambda sc: sc["traffic_profile"][0].update(rate_per_s=0),
    "rate_negative": lambda sc: sc["traffic_profile"][0].update(rate_per_s=-1),
    "flavor_typo": lambda sc: sc["traffic_profile"][0].update(flavor="proces"),
    "injection_before_start": lambda sc: sc["injections"].append({"attribute_id": "unknown_protocol", "at_ms": -5000}),
    "port_string": lambda sc: sc["traffic_profile"][0].update(port="502"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIO))
def test_malformed_scenario_exit_two(tmp_path, capsys, case):
    sc = scenario_to_dict(default_scenario(name="bad", seed=1))
    MALFORMED_SCENARIO[case](sc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "otcms: error:" in capsys.readouterr().err


MALFORMED_EVIDENCE = {
    "protocol_version": 5,
    "cleartext_password": 12,
    "audit_record": "false",
    "port": True,
    "fragmented": "false",
    "tls_present": "no",
    "src_id": 7,
    "timestamp": True,
    # JSON Python's reader cannot hold: the line is malformed, but no field is named.
    "key_bits": TOO_MANY_DIGITS,
    "error_code": NESTED_TOO_DEEPLY,
}


def _break_second_line(evidence, field) -> None:
    first, second = evidence.read_text().splitlines()[:2]
    evidence.write_text(f"{first}\n{dumps({**json.loads(second), field: MALFORMED_EVIDENCE[field]})}\n")


@pytest.mark.parametrize("field", sorted(MALFORMED_EVIDENCE))
def test_malformed_evidence_exit_two_names_line_and_field(scenario_dir, tmp_path, capsys, field):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    _break_second_line(evidence, field)
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context)]) == 2
    named = "invalid JSON (" if isinstance(MALFORMED_EVIDENCE[field], JsonText) else f"{field}:"
    assert f"otcms: error: {evidence}: line 2: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x" * 2_000_000, JsonText("[" * 500 + "]" * 500)], ids=["2MB_string", "500_deep_list"])
def test_refused_value_quoted_short(scenario_dir, tmp_path, capsys, value):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    first, second = evidence.read_text().splitlines()[:2]
    evidence.write_text(f"{first}\n{dumps({**json.loads(second), 'port': value})}\n")
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context)]) == 2
    err = capsys.readouterr().err
    assert f"otcms: error: {evidence}: line 2: port: expected an integer or null, got " in err
    assert err.rstrip().endswith("...") and len(err) < len(str(evidence)) + 200


@pytest.mark.parametrize("field", sorted(MALFORMED_EVIDENCE))
def test_malformed_evidence_line_skipped_when_lenient(scenario_dir, tmp_path, caplog, field):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    _break_second_line(evidence, field)
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--lenient"]) == 0
    assert "skipping malformed evidence line 2:" in caplog.text


@pytest.mark.parametrize("lenient", [False, True])
def test_invalid_utf8_exit_two_names_line(scenario_dir, tmp_path, capsys, lenient):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    first, second, *rest = evidence.read_bytes().split(b"\n")
    evidence.write_bytes(b"\n".join([first, second.replace(b'"protocol":"', b'"protocol":"\xff'), *rest]))
    capsys.readouterr()
    code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), *(["--lenient"] * lenient)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"otcms: error: {evidence}: line 2: not UTF-8" in err and "position" not in err


# Each case: the evidence file's text, from its lines.
EVIDENCE_LAYOUTS = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank_lines": lambda lines: "\n\n".join(lines) + "\n \n\n",
    "no_trailing_newline": lambda lines: "\n".join(lines),
    "u2028_in_string": lambda lines: "\n".join([lines[0].replace('"protocol":"', '"protocol":"\u2028'), *lines[1:]]),
}


@pytest.mark.parametrize("layout", sorted(EVIDENCE_LAYOUTS))
def test_report_digest_is_sha256_of_evidence_bytes(scenario_dir, tmp_path, layout):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    evidence.write_bytes(EVIDENCE_LAYOUTS[layout](evidence.read_text(encoding="utf-8").splitlines()).encode())
    out = tmp_path / "report.json"
    code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(out)])
    assert code in (0, 1)
    digest = "sha256:" + hashlib.sha256(evidence.read_bytes()).hexdigest()
    assert parse_report(out.read_text(encoding="utf-8")).evidence_digest == digest


def _sr11(catalog: dict) -> dict:
    return catalog["frs"][0]["srs"][0]


# Each case: how to break the bundled catalog, and what the error must name.
MALFORMED_CATALOG = {
    "not_monitorable_string": (lambda c: _sr11(c).update(not_monitorable="false"), "srs[SR1.1]: not_monitorable:"),
    "fr_number": (lambda c: c.update(frs=[5]), "frs[0]: expected an object"),
    "bindings_number": (lambda c: _sr11(c).update(bindings=5), "srs[SR1.1]: bindings: expected a list"),
    "min_sl_bool": (lambda c: _sr11(c)["bindings"][0].update(min_sl=True), "srs[SR1.1]: bindings[0]: min_sl:"),
    "min_sl_out_of_range": (
        lambda c: _sr11(c)["bindings"][0].update(min_sl=7), "SR1.1: unknown_communication: min_sl 7 outside 1..4"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CATALOG))
def test_malformed_catalog_evaluate_exit_two(scenario_dir, tmp_path, capsys, case):
    from otcms.catalog import default_catalog_path

    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    data = json.loads(default_catalog_path().read_text())
    mutate, named = MALFORMED_CATALOG[case]
    mutate(data)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--catalog", str(catalog)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("otcms: error: cannot") and named in err


def test_min_sl_out_of_range_still_loads_for_validate(tmp_path, capsys):
    from otcms.catalog import default_catalog_path

    data = json.loads(default_catalog_path().read_text())
    MALFORMED_CATALOG["min_sl_out_of_range"][0](data)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(data))
    assert main(["catalog", "validate", "--catalog", str(catalog)]) == 1
    assert "SR1.1: min_sl_range:" in capsys.readouterr().out


def test_manual_entry_mistyped_exit_two(scenario_dir, tmp_path, capsys):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    manual = tmp_path / "manual.json"
    manual.write_text(json.dumps({"entries": {"input_validation": {"value": True, "set_by": 5}}}))
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--manual", str(manual)]) == 2
    assert "otcms: error: cannot load manual attributes" in capsys.readouterr().err


class TestSimulate:
    def test_writes_two_files(self, scenario_dir, tmp_path):
        out_dir = tmp_path / "two"
        code = main(["simulate", str(scenario_dir / "baseline.json"), "--out-dir", str(out_dir)])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["evidence.jsonl", "ground_truth.json"]

    def test_seed_override_changes_bytes(self, scenario_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(scenario_dir / "baseline.json"), "--out-dir", str(a)])
        main(["simulate", str(scenario_dir / "baseline.json"), "--out-dir", str(b), "--seed", "123"])
        evidence_a = (a / "evidence.jsonl").read_bytes()
        evidence_b = (b / "evidence.jsonl").read_bytes()
        assert evidence_a != evidence_b
        # schema still valid
        from otcms.evidence import load_evidence

        assert load_evidence(b / "evidence.jsonl")

    def test_unknown_injection_exit_two(self, tmp_path, capsys):
        sc = scenario_to_dict(default_scenario(name="bad", seed=1))
        sc["injections"] = [{"attribute_id": "nonsense"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(sc))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "nonsense" in capsys.readouterr().err


class TestCatalog:
    def test_validate_default_exit_zero(self, capsys):
        assert main(["catalog", "validate"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_validate_corrupted_exit_one(self, tmp_path, capsys):
        from otcms.catalog import default_catalog_path

        data = json.loads(default_catalog_path().read_text())
        data["frs"][0]["srs"][0]["bindings"].append(
            {"attribute_id": "frobnicate", "kind": "traffic"}
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["catalog", "validate", "--catalog", str(bad)]) == 1
        assert "frobnicate" in capsys.readouterr().out

    def test_list_shows_all_frs(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 8):
            assert f"FR{i}" in out
