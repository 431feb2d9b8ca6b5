import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import otcms
from otcms.cli import main
from otcms.compliance import parse_report
from otcms.evidence import load_evidence, write_evidence
from otcms.simulator import Injection, default_scenario, load_scenario, save_scenario_outputs, scenario_to_dict


class JsonText(str):
    """A value written into a JSON object as this text: one ``json.dumps``
    cannot write, such as an integer beyond Python's digit limit."""


class Repeated(tuple):
    """Values written under one key of a JSON object, the key repeated for each."""


def dumps(value) -> str:
    """``value`` as ``json.dumps`` writes it, but each :class:`JsonText` in it
    written as its text and each :class:`Repeated` as a key given repeatedly."""
    if isinstance(value, JsonText):
        return value
    if isinstance(value, dict):
        members = (
            (key, item) for key, items in value.items() for item in (items if isinstance(items, Repeated) else (items,))
        )
        return "{" + ", ".join(f"{json.dumps(key)}: {dumps(item)}" for key, item in members) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


TOO_MANY_DIGITS = JsonText("9" * 4301)
LONE_SURROGATE = {"src_id": "\ud800x", "protocol": "Telnet"}
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
        intruder = events[0]._replace(seq=len(events), src_id=f"plc{char}a", protocol="Telnet")
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

    def test_generated_at_env_long_value_quoted_short(self, scenario_dir, tmp_path, monkeypatch, capsys):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        monkeypatch.setenv("CMS_GENERATED_AT", "9" * 5000)
        capsys.readouterr()
        assert main(["evaluate", "--evidence", str(evidence), "--context", str(context)]) == 2
        quoted = "'" + "9" * 59 + "..."
        assert capsys.readouterr().err == f"otcms: error: CMS_GENERATED_AT must be an integer (epoch ms), got {quoted}\n"

    @pytest.mark.parametrize("gap", ["0", "-5"])
    def test_session_gap_not_positive_exit_two(self, scenario_dir, tmp_path, capsys, gap):
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        capsys.readouterr()
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--session-gap-ms", gap])
        assert code == 2
        assert "otcms: error: --session-gap-ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("out", "line_2"),
        [("missing/report.json", None), (".", None), ("-", LONE_SURROGATE), ("r.json", LONE_SURROGATE)],
        ids=["missing_dir", "is_dir", "lone_surrogate_stdout", "lone_surrogate_out"],
    )
    def test_unwritable_out_exit_two(self, scenario_dir, tmp_path, capsys, out, line_2):
        """Also a report that UTF-8 cannot encode: JSON admits a lone surrogate
        escape, and an evidence id carries it into a finding's message."""
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        if line_2 is not None:
            first, second, *rest = evidence.read_text().split("\n")
            evidence.write_text("\n".join([first, json.dumps({**json.loads(second), **line_2}), *rest]))
        target = out if out == "-" else tmp_path / out
        capsys.readouterr()
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"otcms: error: cannot write report {target}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        if line_2 is not None:
            assert "lone surrogate \\ud800" in captured.err
            assert not (tmp_path / "r.json").exists()

    def test_unwritable_out_process_exit_two(self, scenario_dir, tmp_path):
        """The status a shell sees, where an uncaught exception would exit 1;
        also for a stdout that cannot be written, where the system has one."""
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        argv = ["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(tmp_path)]
        env = {**os.environ, "PYTHONPATH": str(Path(otcms.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "otcms.cli", *argv], capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        if Path("/dev/full").exists():
            with open("/dev/full", "wb") as full:
                argv[-1] = "-"
                run = subprocess.run([sys.executable, "-m", "otcms.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env)
            assert run.returncode == 2
            assert run.stderr.decode().startswith("otcms: error: cannot write report -: ")
            assert run.stderr.count(b"\n") == 1

    def test_stdout_report_utf8_under_ascii_locale_process(self, scenario_dir, tmp_path):
        """stdout carries the report's UTF-8 bytes whatever the locale, the bytes ``--out`` writes."""
        evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
        first, second, *rest = evidence.read_text().split("\n")
        line_2 = {**json.loads(second), "src_id": "caf\u00e9", "protocol": "Telnet"}
        evidence.write_text("\n".join([first, json.dumps(line_2), *rest]))
        argv = ["evaluate", "--evidence", str(evidence), "--context", str(context), "--generated-at", "0"]
        env = {**os.environ, "PYTHONPATH": str(Path(otcms.__file__).parents[1]), "PYTHONIOENCODING": "ascii"}
        run = subprocess.run([sys.executable, "-m", "otcms.cli", *argv], capture_output=True, env=env)
        assert run.returncode == 1
        assert b"Traceback" not in run.stderr
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 1
        assert run.stdout == (tmp_path / "report.json").read_bytes()
        assert "caf\u00e9".encode() in run.stdout


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
    # A key given twice: Python's reader alone would keep the last value.
    "max_failed_attempts_repeated": {"max_failed_attempts": Repeated((1, 999))},
    "zone_map_identifier_repeated": {"zone_map": {"10.0.1.10": Repeated(("cell", "control"))}},
    "min_key_bits_repeated": {"crypto_policy": {"min_key_bits": Repeated((128, 64))}},
    "password_min_length_zero": {"password_policy": {"min_length": 0}},
    "max_failed_attempts_negative": {"max_failed_attempts": -1},
    "session_max_ms_zero": {"session_max_ms": 0},
    "rate_spec_pair_of_three": {"rate_spec": [{"pair": ["a", "b", "c"], "window_ms": 1000}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONTEXT))
def test_malformed_context_exit_two(scenario_dir, tmp_path, capsys, case):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    context.write_text(dumps({**json.loads(context.read_text()), **MALFORMED_CONTEXT[case]}))
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context)]) == 2
    assert "otcms: error: cannot load context" in capsys.readouterr().err


# Per context threshold: how a value is set, its lowest admitted value, and its range as a refusal words it.
NEGATIVE_THRESHOLD = {
    "rate_spec[0]: max_events_per_window": (
        lambda ctx, value: ctx["rate_spec"][0].update(max_events_per_window=value), 0, "at least 0"),
    "rate_spec[0]: max_bytes_per_window": (
        lambda ctx, value: ctx["rate_spec"][0].update(max_bytes_per_window=value), 0, "at least 0"),
    "crypto_policy: min_key_bits": (lambda ctx, value: ctx["crypto_policy"].update(min_key_bits=value), 0, "at least 0"),
    "p2p_bandwidth_limit_bytes_per_s": (
        lambda ctx, value: ctx.update(p2p_bandwidth_limit_bytes_per_s=value), 0, "at least 0"),
    "max_failed_attempts": (lambda ctx, value: ctx.update(max_failed_attempts=value), 0, "at least 0"),
    "session_max_ms": (lambda ctx, value: ctx.update(session_max_ms=value), 1, "at least 1"),
    "password_policy: min_length": (lambda ctx, value: ctx["password_policy"].update(min_length=value), 1, "at least 1"),
    "zone_sl_target[cell]": (lambda ctx, value: ctx["zone_sl_target"].update(cell=value), 1, "one of 1, 2, 3, 4"),
}


@pytest.mark.parametrize("value", [-1, 0], ids=["-1", "0"])
@pytest.mark.parametrize("path", sorted(NEGATIVE_THRESHOLD))
def test_negative_context_threshold_exit_two_naming_it(scenario_dir, tmp_path, capsys, path, value):
    """``value`` is tried as an offset from the threshold's lowest admitted value."""
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    data = json.loads(context.read_text())
    update, low, expected = NEGATIVE_THRESHOLD[path]
    update(data, low + value)
    context.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    if value < 0:
        assert code == 2
        assert err == f"otcms: error: cannot load context {context}: {path}: expected {expected}, got {low + value}\n"
    else:
        assert code in (0, 1) and "error" not in err


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_collector_paused_for_the_command_and_left_as_found(scenario_dir, tmp_path, monkeypatch, collecting):
    import otcms.cli

    runs = []
    for name in ("baseline", "weak"):
        evidence, context = simulate(scenario_dir / f"{name}.json", tmp_path / name)
        runs.append(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(tmp_path / "r")])
    runs.append(["evaluate", "--evidence", str(tmp_path / "none.jsonl"), "--context", str(context)])
    seen = []
    evaluate = otcms.cli.run_evaluation

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        if len(seen) > 2:
            raise RuntimeError("failed inside the command")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(otcms.cli, "run_evaluation", watched)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert [main(argv) for argv in runs] == [0, 1, 2]
        assert gc.isenabled() is collecting
        with pytest.raises(RuntimeError):
            main(runs[0])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]


def test_collector_pause_holds_no_garbage_growing_with_the_stream(tmp_path):
    """What one evaluate leaves for the collector is the same few hundred
    objects at 100 events, at 10,000, and at 100 after 1,000 lines skipped."""
    scenario = tmp_path / "long.json"
    scenario.write_text(json.dumps(scenario_to_dict(default_scenario(name="long", seed=1, duration_ms=4_500_000))))
    evidence, context = simulate(scenario, tmp_path / "sim")
    events = load_evidence(evidence)
    assert len(events) >= 10_000
    found = []
    for count, bad_lines in ((100, 0), (10_000, 0), (100, 1_000)):
        write_evidence(events[:count], evidence)
        evidence.write_text("garbage\n" * bad_lines + evidence.read_text())
        gc.collect()
        main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(tmp_path / "r.json"),
              "--lenient"])
        found.append(gc.collect())
    assert len(set(found)) == 1 and found[0] < 1_000


MALFORMED_SCENARIO = {
    "injection_without_attribute_id": lambda sc: sc["injections"].append({"at_ms": 5}),
    "profile_without_protocol": lambda sc: sc["traffic_profile"][0].pop("protocol"),
    "rate_beyond_float_range": lambda sc: sc["traffic_profile"][0].update(rate_per_s=10**400),
    # Events counted as a float: a count past float range, from the rate or from the duration.
    "rate_uncountable": lambda sc: sc["traffic_profile"][0].update(rate_per_s=1e308),
    "duration_beyond_float_range": lambda sc: sc.update(duration_ms=10**400),
    "rate_infinite": lambda sc: sc["traffic_profile"][0].update(rate_per_s=float("inf")),
    "rate_zero": lambda sc: sc["traffic_profile"][0].update(rate_per_s=0),
    "rate_negative": lambda sc: sc["traffic_profile"][0].update(rate_per_s=-1),
    "flavor_typo": lambda sc: sc["traffic_profile"][0].update(flavor="proces"),
    "injection_before_start": lambda sc: sc["injections"].append({"attribute_id": "unknown_protocol", "at_ms": -5000}),
    "port_string": lambda sc: sc["traffic_profile"][0].update(port="502"),
    "duration_repeated": lambda sc: sc.update(duration_ms=Repeated((20_000, 5))),
    "profile_protocol_repeated": lambda sc: sc["traffic_profile"][0].update(protocol=Repeated(("OPCUA", "MQTT"))),
    "context_session_max_repeated": lambda sc: sc["context"].update(session_max_ms=Repeated((600_000, 1))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIO))
def test_malformed_scenario_exit_two(tmp_path, capsys, case):
    sc = scenario_to_dict(default_scenario(name="bad", seed=1))
    MALFORMED_SCENARIO[case](sc)
    path = tmp_path / "bad.json"
    path.write_text(dumps(sc))
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
    "bytes": 2**63,
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


def _at_stack_depth(frames: int, call):
    """``call()``, made ``frames`` Python frames deeper than the caller."""
    return call() if frames == 0 else _at_stack_depth(frames - 1, call)


def _frames_left() -> int:
    """Python frames the recursion limit leaves above the caller's."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return sys.getrecursionlimit() - depth


@pytest.mark.parametrize("frames", [0, 100], ids=["direct", "deeper_stack"])
@pytest.mark.parametrize("file", ["evidence", "context"])
def test_value_nested_near_the_recursion_limit_exit_two_nested_too_deeply(scenario_dir, tmp_path, capsys, frames, file):
    """Depths just below the frames Python's recursion limit leaves, where
    quoting a refused value once raised RecursionError (exit 1), are refused
    in the decoder's words, however deep the stack ``main`` runs from."""
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    record = {"timestamp": 5, "src_id": "a", "dst_id": "b", "protocol": "MQTT"}
    sections = json.loads(context.read_text())
    argv = ["evaluate", "--evidence", str(evidence), "--context", str(context)]
    room = _frames_left() - frames
    for depth in range(room - 50, room + 10):
        nested = JsonText("[" * depth + "]" * depth)
        if file == "evidence":
            evidence.write_text(dumps({**record, "port": nested}) + "\n")
            expected = f"otcms: error: {evidence}: line 1: invalid JSON (nested too deeply)\n"
        else:
            context.write_text(dumps({**sections, "zone_map": {"10.0.1.10": nested}}))
            expected = f"otcms: error: cannot load context {context}: invalid JSON: nested too deeply\n"
        capsys.readouterr()
        assert _at_stack_depth(frames, lambda: main(argv)) == 2, depth
        assert capsys.readouterr().err == expected, depth


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


def test_library_use_gives_the_cli_report(scenario_dir, tmp_path):
    """README "Library use" on a file not in canonical form, whose own hash
    differs from that of the events' re-serialisation."""
    from otcms import default_catalog_path, load_catalog, load_context, render_report, run_evaluation
    from otcms.evidence import read_evidence

    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    evidence.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in evidence.read_text().splitlines()))
    out = tmp_path / "report.json"
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(out),
                 "--generated-at", "0"]) == 0

    catalog = load_catalog(default_catalog_path())
    ctx = load_context(context)
    with open(evidence, "rb") as file:
        events, digest = read_evidence(file)
    report = run_evaluation(catalog, ctx, events, sl_target=2, digest=digest)
    assert render_report(report, "structured") == out.read_text(encoding="utf-8")
    assert run_evaluation(catalog, ctx, load_evidence(evidence)).evidence_digest != digest


@pytest.mark.parametrize("option", ["--context", "--manual"])
def test_repeated_key_names_file_and_key(scenario_dir, tmp_path, capsys, option):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    argv = ["evaluate", "--evidence", str(evidence), "--context", str(context)]
    if option == "--context":
        path, what, key = context, "context", "max_failed_attempts"
        path.write_text(dumps({**json.loads(context.read_text()), **MALFORMED_CONTEXT["max_failed_attempts_repeated"]}))
    else:
        path, what, key = tmp_path / "manual.json", "manual attributes", "input_validation"
        path.write_text(dumps({"entries": {key: Repeated((True, False))}}))
        argv += ["--manual", str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"otcms: error: cannot load {what} {path}: repeated key {key!r}\n" in capsys.readouterr().err


def _sr11(catalog: dict) -> dict:
    return catalog["frs"][0]["srs"][0]


# Each case: how to break the bundled catalog, and what the error must name.
MALFORMED_CATALOG = {
    "not_monitorable_string": (lambda c: _sr11(c).update(not_monitorable="false"), "srs[SR1.1]: not_monitorable:"),
    "fr_number": (lambda c: c.update(frs=[5]), "frs[0]: expected an object"),
    "bindings_number": (lambda c: _sr11(c).update(bindings=5), "srs[SR1.1]: bindings: expected a list"),
    "min_sl_bool": (lambda c: _sr11(c)["bindings"][0].update(min_sl=True), "srs[SR1.1]: bindings[0]: min_sl:"),
    "min_sl_out_of_range": (
        lambda c: _sr11(c)["bindings"][0].update(min_sl=7),
        "frs[FR1]: srs[SR1.1]: bindings[0]: min_sl: expected one of 1, 2, 3, 4, got 7",
    ),
    "version_repeated": (lambda c: c.update(version=Repeated(("1", "2"))), "repeated key 'version'"),
    "binding_kind_repeated": (
        lambda c: _sr11(c)["bindings"][0].update(kind=Repeated(("logical", "manual"))), "repeated key 'kind'"
    ),
    "nested_too_deeply": (lambda c: c.update(source_note=NESTED_TOO_DEEPLY), "invalid JSON: nested too deeply"),
}


def _catalog_file(tmp_path, breaks):
    """The bundled catalog, changed by ``breaks``, written to a file."""
    from otcms.catalog import default_catalog_path

    data = json.loads(default_catalog_path().read_text())
    breaks(data)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(dumps(data))
    return catalog


def _malformed_catalog(tmp_path, case):
    return _catalog_file(tmp_path, MALFORMED_CATALOG[case][0])


@pytest.mark.parametrize("case", sorted(MALFORMED_CATALOG))
def test_malformed_catalog_evaluate_exit_two(scenario_dir, tmp_path, capsys, case):
    evidence, context = simulate(scenario_dir / "baseline.json", tmp_path / "sim")
    catalog = _malformed_catalog(tmp_path, case)
    capsys.readouterr()
    assert main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--catalog", str(catalog)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("otcms: error: cannot") and MALFORMED_CATALOG[case][1] in err


@pytest.mark.parametrize("case", sorted(MALFORMED_CATALOG))
def test_malformed_catalog_validate_exit_one(tmp_path, capsys, case):
    catalog = _malformed_catalog(tmp_path, case)
    assert main(["catalog", "validate", "--catalog", str(catalog)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"otcms: error: cannot load catalog {catalog}: ") and MALFORMED_CATALOG[case][1] in err


def _bind(sr_id: str, attribute_id: str, kind: str):
    """A change to a catalog: bind ``attribute_id`` as ``kind`` to ``sr_id``."""

    def breaks(catalog: dict) -> None:
        sr = next(sr for fr in catalog["frs"] for sr in fr["srs"] if sr["id"] == sr_id)
        sr["bindings"].append({"attribute_id": attribute_id, "kind": kind})

    return breaks


# Catalogs that load: the bundled one, and ones the registry cross-check rejects.
LOADABLE_CATALOG = {
    "bundled": lambda c: None,
    "dangling_traffic": _bind("SR1.1", "frobnicate", "traffic"),
    "logical_data_integrity": _bind("SR1.1", "data_integrity", "logical"),
    # A manual verdict would replace the detector's for every SR binding data_integrity.
    "manual_data_integrity": _bind("SR7.8", "data_integrity", "manual"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CATALOG) + sorted(LOADABLE_CATALOG))
def test_evaluate_refuses_what_validate_rejects(scenario_dir, tmp_path, case):
    evidence, context = simulate(scenario_dir / "weak.json", tmp_path / "sim")
    breaks = MALFORMED_CATALOG[case][0] if case in MALFORMED_CATALOG else LOADABLE_CATALOG[case]
    catalog = _catalog_file(tmp_path, breaks)
    rejected = case != "bundled"
    assert main(["catalog", "validate", "--catalog", str(catalog)]) == (1 if rejected else 0)
    evaluate = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--catalog", str(catalog)])
    assert (evaluate == 2) is rejected


@pytest.mark.parametrize("case", sorted(LOADABLE_CATALOG))
def test_library_evaluation_refuses_what_validate_rejects(tmp_path, case):
    from otcms import CatalogError, generate_scenario, load_catalog, run_evaluation

    catalog = load_catalog(_catalog_file(tmp_path, LOADABLE_CATALOG[case]))
    scenario = default_scenario(seed=1, injections=(Injection(attribute_id="data_integrity"),))
    events, _ = generate_scenario(scenario, catalog)
    if case == "bundled":
        report = run_evaluation(catalog, scenario.spec, events)
        assert report.noncompliant_sr_ids() == ["SR3.1", "SR3.4", "SR4.1"]
        return
    with pytest.raises(CatalogError, match=r"^SR\d\.\d+: (data_integrity|frobnicate): "):
        run_evaluation(catalog, scenario.spec, events)


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

    def test_out_dir_naming_a_file_exit_two(self, scenario_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        capsys.readouterr()
        assert main(["simulate", str(scenario_dir / "baseline.json"), "--out-dir", str(afile)]) == 2
        assert capsys.readouterr().err.startswith(f"otcms: error: cannot write simulator outputs to {afile}: ")

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
        """Also an issue listing UTF-8 cannot encode: refused, and the catalog still invalid."""
        from otcms.catalog import default_catalog_path

        for attribute_id in ("frobnicate", "x\ud800"):
            data = json.loads(default_catalog_path().read_text())
            data["frs"][0]["srs"][0]["bindings"].append(
                {"attribute_id": attribute_id, "kind": "traffic"}
            )
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            capsys.readouterr()
            assert main(["catalog", "validate", "--catalog", str(bad)]) == 1
            captured = capsys.readouterr()
            if attribute_id == "frobnicate":
                assert "frobnicate" in captured.out
            else:
                assert captured.err == (
                    "otcms: error: cannot write catalog validate: "
                    "it holds the lone surrogate \\ud800, which UTF-8 cannot encode\n"
                )
                assert captured.out == ""

    def test_list_lone_surrogate_exit_two(self, tmp_path, capsys):
        from otcms.catalog import default_catalog_path

        data = json.loads(default_catalog_path().read_text())
        data["frs"][0]["title"] = "\ud800"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["catalog", "list", "--catalog", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "otcms: error: cannot write catalog list: it holds the lone surrogate \\ud800, which UTF-8 cannot encode\n"
        )
        assert captured.out == ""

    def test_list_shows_all_frs(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 8):
            assert f"FR{i}" in out


# The exit-code contract over mutated input files: whatever the bundled
# example's evidence, context or scenario is mutated into, no exception
# escapes; exit 2 prints one ``otcms: error:`` line, nothing on stdout, and
# leaves no report; exit 0 or 1 leaves a report whose verdict is the code's.
EXAMPLE = Path(otcms.__file__).with_name("data") / "scenario-example.json"
#: A JSON number given as an object member's value.
NUMBER = re.compile(rb"(?<=:)\s*-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
#: Over-long integers and huge floats a number is replaced by: past float
#: range, at and past Python's digit limit, and floats at or past the largest.
OVERSIZED = [b"9" * 400, b"-" + b"9" * 400, b"9" * 4300, b"9" * 4301, b"1e308", b"-1e308", b"1.7976931348623157e308",
             b"1e309"]


@cache
def example_inputs() -> dict[str, bytes]:
    """The bundled example scenario, and the evidence and context
    ``otcms simulate --emit-context`` writes from it."""
    with tempfile.TemporaryDirectory() as out:
        save_scenario_outputs(load_scenario(EXAMPLE), out, emit_context=True)
        written = {role: (Path(out) / name).read_bytes() for role, name in
                   (("evidence", "evidence.jsonl"), ("context", "context.json"))}
    return {**written, "scenario": EXAMPLE.read_bytes()}


@st.composite
def mutated_inputs(draw) -> dict[str, bytes]:
    """One of the example's files with one to three mutations: a flipped,
    deleted or repeated byte, a truncation, or a number replaced by an
    over-long integer or a huge float."""
    role = draw(st.sampled_from(["evidence", "context", "scenario"]))
    data = example_inputs()[role]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "delete", "repeat", "truncate", "number"]))
        numbers = [match.span() for match in NUMBER.finditer(data)]
        if kind == "number" and numbers:
            start, end = draw(st.sampled_from(numbers))
            data = data[:start] + draw(st.sampled_from(OVERSIZED)) + data[end:]
        elif data and kind != "number":
            at = draw(st.integers(0, len(data) - 1))
            head, byte, tail = data[:at], data[at:at + 1], data[at + 1:]
            if kind == "flip":
                data = head + bytes([byte[0] ^ 1 << draw(st.integers(0, 7))]) + tail
            elif kind == "delete":
                data = head + tail
            elif kind == "repeat":
                data = head + byte * 2 + tail
            else:
                data = head
    return {role: data}


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refused_alone(err: str) -> bool:
    """True when ``err`` is exactly one ``otcms: error:`` line."""
    return err.startswith("otcms: error: ") and err.endswith("\n") and "\n" not in err[:-1]


def _evaluate_keeps_the_contract(evidence: Path, context: Path, report: Path) -> None:
    code, out, err = _run(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(report),
                           "--generated-at", "0"])
    assert out == ""
    if code == 2:
        assert _refused_alone(err), err
        assert not report.exists()
    else:
        assert code in (0, 1) and "otcms: error:" not in err, err
        assert bool(parse_report(report.read_text(encoding="utf-8")).noncompliant_sr_ids()) is (code == 1)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=mutated_inputs())
# A rate whose events over the duration pass float range, and a duration past it.
@example(files={"scenario": EXAMPLE.read_bytes().replace(b'"rate_per_s": 1.0', b'"rate_per_s": 1e308', 1)})
@example(files={"scenario": EXAMPLE.read_bytes().replace(b'"duration_ms": 20000', b'"duration_ms": 1' + b"0" * 400, 1)})
# Two events whose byte total in one rate window is past Python's digit limit.
@example(files={
    "evidence": b"".join(
        b'{"bytes":' + b"9" * 4300 + b',"dst_id":"b","protocol":"MQTT","src_id":"a","timestamp":%d}\n' % t for t in (0, 1)
    ),
    "context": b'{"rate_spec":[{"pair":["a","b"],"window_ms":1000,"max_bytes_per_window":10}]}',
})
def test_exit_code_contract_holds_for_mutated_inputs(files):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for role, data in {**example_inputs(), **files}.items():
            (work / role).write_bytes(data)
        if "scenario" not in files:
            _evaluate_keeps_the_contract(work / "evidence", work / "context", work / "report.json")
            return
        out = work / "out"
        code, stdout, err = _run(["simulate", str(work / "scenario"), "--out-dir", str(out), "--emit-context"])
        assert stdout == ""
        if code == 2:
            assert _refused_alone(err), err
            assert not out.exists() or not any(out.iterdir())
            return
        assert code == 0, err
        _evaluate_keeps_the_contract(out / "evidence.jsonl", out / "context.json", work / "report.json")
