import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from otcms import simulator
from otcms.compliance import build_report
from otcms.detectors import REGISTRY, Status
from otcms.engine import evaluate_verdicts
from otcms.evidence import parse_evidence, to_jsonl
from otcms.simulator import (
    INJECTIONS,
    Injection,
    Scenario,
    ScenarioError,
    default_context,
    default_profile,
    default_scenario,
    generate_scenario,
    ground_truth_for,
    list_injections,
    load_scenario,
    save_scenario_outputs,
    scenario_from_dict,
    scenario_to_dict,
)


class TestBaseline:
    def test_clean_ground_truth_and_determinism(self, catalog):
        sc_a = default_scenario(seed=42)
        sc_b = default_scenario(seed=42)
        events_a, truth_a = generate_scenario(sc_a, catalog)
        events_b, _ = generate_scenario(sc_b, catalog)
        assert truth_a.expected_violated == frozenset()
        assert truth_a.expected_noncompliant_srs == frozenset()
        assert to_jsonl(events_a) == to_jsonl(events_b)

    def test_different_seed_different_bytes(self, catalog):
        events_a, _ = generate_scenario(default_scenario(seed=1), catalog)
        events_b, _ = generate_scenario(default_scenario(seed=2), catalog)
        assert to_jsonl(events_a) != to_jsonl(events_b)

    def test_baseline_within_expectations(self, catalog):
        sc = default_scenario(seed=8)
        events, _ = generate_scenario(sc, catalog)
        verdicts = evaluate_verdicts(catalog, sc.spec, events)
        violated = {a for a, v in verdicts.items() if v.status is Status.VIOLATED}
        assert violated == set()

    def test_seq_and_timestamps_ordered(self, catalog):
        events, _ = generate_scenario(default_scenario(seed=5), catalog)
        assert [e.seq for e in events] == list(range(len(events)))
        assert all(a.timestamp <= b.timestamp for a, b in zip(events, events[1:]))


class TestInjections:
    def test_least_functionality_targets_sr77(self, catalog):
        sc = default_scenario(injections=(Injection(attribute_id="least_functionality"),))
        _, truth = generate_scenario(sc, catalog)
        assert "SR7.7" in truth.expected_noncompliant_srs

    def test_off_list_protocol_stream_targets_sr77(self, catalog):
        sc = default_scenario(injections=(Injection(attribute_id="unknown_protocol"),))
        events, truth = generate_scenario(sc, catalog)
        assert any(e.protocol not in sc.spec.expected_protocols for e in events)
        assert "SR7.7" in truth.expected_noncompliant_srs

    def test_login_run_is_limit_plus_two(self, catalog):
        sc = default_scenario(injections=(Injection(attribute_id="login_attempt_limit"),))
        events, _ = generate_scenario(sc, catalog)
        # run-length recount over the directed pair's auth outcomes
        longest = current = 0
        for e in events:
            if e.auth_result == "Failure":
                current += 1
                longest = max(longest, current)
            elif e.auth_result == "Success":
                current = 0
        assert longest == sc.spec.max_failed_attempts + 2

    @pytest.mark.parametrize("seed", range(3))
    def test_wireless_injection_labels_the_observation_it_causes(self, catalog, seed):
        # the unlisted Bluetooth device also makes wireless traffic observed
        sc = default_scenario(seed=seed, injections=(Injection(attribute_id="wireless_iac"),))
        events, truth = generate_scenario(sc, catalog)
        verdicts = evaluate_verdicts(catalog, sc.spec, events)
        fulfilled = {a for a, v in verdicts.items() if v.status is Status.FULFILLED}
        assert "is_wireless_observed" in truth.expected_fulfilled
        assert truth.expected_fulfilled <= fulfilled

    def test_unknown_injection_rejected(self):
        with pytest.raises(ScenarioError, match="unknown injection"):
            default_scenario(injections=(Injection(attribute_id="frobnicate"),))

    def test_at_ms_beyond_duration_rejected(self):
        with pytest.raises(ScenarioError, match="beyond scenario duration"):
            default_scenario(injections=(Injection(attribute_id="weak_encryption", at_ms=99_999),))

    def test_at_ms_before_start_rejected(self):
        with pytest.raises(ScenarioError, match=r"injections\[1\]: at_ms: expected at least 0, got -5000"):
            default_scenario(injections=(Injection("weak_encryption"), Injection("weak_encryption", at_ms=-5000)))

    def test_record_naming_no_event_field_refused(self, monkeypatch, catalog):
        def build(sc, t0):
            return [simulator._record(t0, simulator.PLC1, simulator.HMI1, "Telnet", colour="red")]

        monkeypatch.setitem(INJECTIONS, "unknown_protocol", replace(INJECTIONS["unknown_protocol"], build=build))
        with pytest.raises(TypeError, match="^no event field 'colour'$"):
            generate_scenario(default_scenario(injections=(Injection("unknown_protocol"),)), catalog)

    def test_combined_injections_union(self, catalog):
        sc = default_scenario(
            injections=(
                Injection(attribute_id="weak_encryption"),
                Injection(attribute_id="data_integrity"),
            )
        )
        events, truth = generate_scenario(sc, catalog)
        assert truth.expected_violated == {"weak_encryption", "data_integrity"}
        verdicts = evaluate_verdicts(catalog, sc.spec, events)
        violated = {a for a, v in verdicts.items() if v.status is Status.VIOLATED}
        assert violated == truth.expected_violated

    def test_ground_truth_sr_mapping_follows_catalog(self, catalog):
        truth = ground_truth_for(frozenset({"session_termination"}), frozenset(), 2, catalog)
        assert truth.expected_noncompliant_srs == {"SR2.5", "SR2.6"}

    def test_sl_dependent_ground_truth(self, catalog):
        low = ground_truth_for(frozenset({"non_control_independence"}), frozenset(), 2, catalog)
        high = ground_truth_for(frozenset({"non_control_independence"}), frozenset(), 3, catalog)
        assert low.expected_noncompliant_srs == frozenset()
        assert high.expected_noncompliant_srs == {"SR5.1"}


class TestListInjections:
    def test_includes_pki_best_practice(self):
        assert "pki_best_practice" in dict(list_injections())

    def test_all_ids_in_detector_registry(self):
        for attribute_id, _ in list_injections():
            assert attribute_id in REGISTRY

    def test_at_least_fifteen_violation_injections(self):
        violating = [a for a, spec in INJECTIONS.items() if spec.violates]
        assert len(violating) >= 15

    def test_every_violation_capable_attribute_injectable(self):
        capable = {a for a, info in REGISTRY.items() if info.violation_capable}
        injectable = {a for a, spec in INJECTIONS.items() if a in spec.violates}
        assert capable == injectable

    def test_positive_injections_labeled_fulfilled(self):
        for attribute_id, spec in INJECTIONS.items():
            if not spec.violates:
                assert attribute_id in spec.fulfills


class TestScenarioFiles:
    def test_round_trip(self):
        sc = default_scenario(name="rt", seed=9,
                              injections=(Injection(attribute_id="p2p_restriction", at_ms=500),))
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again == sc

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text("[1,2,3]")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_save_outputs(self, tmp_path, catalog):
        sc = default_scenario(name="out", seed=4,
                              injections=(Injection(attribute_id="wireless_iac"),))
        written = save_scenario_outputs(sc, tmp_path / "out", catalog=catalog)
        assert [p.name for p in written] == ["evidence.jsonl", "ground_truth.json"]
        truth = json.loads((tmp_path / "out" / "ground_truth.json").read_text())
        assert truth["expected_violated"] == ["unknown_communication", "wireless_iac"]
        events = parse_evidence((tmp_path / "out" / "evidence.jsonl").read_text().splitlines())
        assert events

    def test_emit_context_writes_third_file(self, tmp_path, catalog):
        written = save_scenario_outputs(default_scenario(), tmp_path / "o", catalog, emit_context=True)
        assert [p.name for p in written] == ["evidence.jsonl", "ground_truth.json", "context.json"]

    def test_rejects_bad_duration(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", seed=0, spec=default_context(), duration_ms=0)

    @pytest.mark.parametrize("rate", [0, -1.0, float("nan")])
    def test_rejects_rate_not_positive(self, rate):
        first, second = default_profile()[:2]
        profile = (first, replace(second, rate_per_s=rate))
        with pytest.raises(ScenarioError, match=r"traffic_profile\[1\]: rate_per_s: expected a positive number"):
            Scenario(name="x", seed=0, spec=default_context(), traffic_profile=profile)


def test_parse_of_simulator_output_is_lossless(catalog):
    sc = default_scenario(seed=31, injections=(Injection(attribute_id="password_policy"),))
    events, _ = generate_scenario(sc, catalog)
    assert parse_evidence(to_jsonl(events).splitlines()) == events


LONG_MIXES = {
    "none": (),
    "violation": ("weak_encryption",),
    "positive": ("iac_management",),
    "all": tuple(sorted(INJECTIONS)),
}


@pytest.mark.parametrize("mix", sorted(LONG_MIXES))
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("duration_ms", [700_000, 3_600_000, 7_200_000])
def test_oracle_holds_beyond_session_max(catalog, duration_ms, seed, mix):
    """Baseline sessions rotate, so verdicts equal ground truth however far
    the scenario runs past the context's session_max_ms."""
    names = LONG_MIXES[mix]
    injections = tuple(
        Injection(attribute_id=name, at_ms=duration_ms * (i + 1) // (len(names) + 1)) for i, name in enumerate(names)
    )
    sc = default_scenario(seed=seed, injections=injections, duration_ms=duration_ms)
    assert duration_ms > sc.spec.session_max_ms
    events, truth = generate_scenario(sc, catalog)
    verdicts = evaluate_verdicts(catalog, sc.spec, events)
    violated = {a for a, v in verdicts.items() if v.status is Status.VIOLATED}
    assert violated == truth.expected_violated
    # a positive injection's label yields to a violation of the same attribute
    fulfilled = {a for a, v in verdicts.items() if v.status is Status.FULFILLED}
    assert truth.expected_fulfilled - truth.expected_violated <= fulfilled
    report = build_report(catalog, verdicts, sc.sl_target, "sha256:oracle")
    assert set(report.noncompliant_sr_ids()) == truth.expected_noncompliant_srs


EXAMPLE = Path(simulator.__file__).with_name("data") / "scenario-example.json"


class TestDefaultPlant:
    """The default plant is the bundled example scenario, defined nowhere else."""

    def test_default_scenario_is_the_example(self):
        assert default_scenario(name="plant-baseline", seed=42) == load_scenario(EXAMPLE)
        assert default_context() == load_scenario(EXAMPLE).spec
        assert default_profile() == load_scenario(EXAMPLE).traffic_profile

    def test_each_call_builds_a_new_context(self):
        first = default_context()
        first.zone_map["10.0.1.10"] = "control"
        first.rate_spec.clear()
        first.crypto_policy.min_protocol_versions["MQTT"] = "9"
        again = default_context()
        assert again.zone_map["10.0.1.10"] == "cell"
        assert again.rate_spec and again.crypto_policy.min_protocol_versions["MQTT"] == "3.1"
        assert default_scenario().spec == again

    def test_arguments_validated_as_before(self):
        with pytest.raises(ScenarioError, match="sl_target must be 1..4"):
            default_scenario(sl_target=7)
        with pytest.raises(ScenarioError, match="duration_ms must be positive"):
            default_scenario(duration_ms=0)

    def test_import_reads_no_scenario_file(self):
        code = (
            "import sys; opened = []\n"
            "sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == 'open' else None)\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import otcms, otcms.simulator as s\n"
            "print(any(p.endswith('scenario-example.json') for p in opened))\n"
            "s.default_context()\n"
            "print(any(p.endswith('scenario-example.json') for p in opened))\n"
        )
        src = str(Path(simulator.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
        assert run.stdout == "False\nTrue\n"

    def test_injection_identifiers_are_in_the_example_context(self):
        """Only the deliberately unknown identifiers are missing from the
        plant, so the constants and the file cannot drift apart."""

        def strings(value):
            if isinstance(value, dict):
                return set(value).union(*map(strings, value.values()))
            if isinstance(value, list):
                return set().union(*map(strings, value))
            return {value} if isinstance(value, str) else set()

        known = strings(json.loads(EXAMPLE.read_text(encoding="utf-8"))["context"])
        sc = default_scenario()
        used = {r[side] for spec in INJECTIONS.values() for r in spec.build(sc, 0) for side in ("src_id", "dst_id")}
        assert used - known == {simulator.ROGUE_PROC, simulator.BT_DEV}
