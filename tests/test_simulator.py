import json
import subprocess
import sys
import typing
from dataclasses import replace
from pathlib import Path

import pytest

from otcms import simulator
from otcms.compliance import build_report
from otcms.detectors import REGISTRY, Status
from otcms.engine import evaluate_verdicts
from otcms.evidence import EvidenceEvent, jsonl_digest, parse_evidence, to_jsonl
from otcms.simulator import (
    INJECTIONS,
    Injection,
    Scenario,
    ScenarioError,
    TrafficPattern,
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
        with pytest.raises(ScenarioError, match=r"^at_ms: expected at least 0, got -5000$"):
            default_scenario(injections=(Injection("weak_encryption"), Injection("weak_encryption", at_ms=-5000)))

    def test_record_naming_no_event_field_refused(self, monkeypatch, catalog):
        def build(sc, t0):
            return [simulator._record(t0, simulator.PLC1, simulator.HMI1, "Telnet", colour="red")]

        monkeypatch.setitem(INJECTIONS, "unknown_protocol", replace(INJECTIONS["unknown_protocol"], build=build))
        with pytest.raises(TypeError, match="^no event field 'colour'$"):
            generate_scenario(default_scenario(injections=(Injection("unknown_protocol"),)), catalog)

    def test_least_unknown_field_over_all_records_named(self, monkeypatch, catalog):
        # the earlier record names the greater field, so the least is not the first met
        def build(sc, t0):
            return [simulator._record(t0, simulator.PLC1, simulator.HMI1, "Telnet", zebra=1),
                    simulator._record(t0 + 1, simulator.PLC1, simulator.HMI1, "Telnet", colour="red")]

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


def _at_rate(rate: float) -> tuple:
    """The default plant's first traffic pattern alone, at ``rate`` events per second."""
    return (replace(default_profile()[0], rate_per_s=rate),)


# The scenario twin of the context's range tables (``test_context.py``,
# ``test_cli.py``): each field built in a program, then given in a file.
@pytest.mark.parametrize("build, message", [
    (lambda: default_scenario(duration_ms=0), "duration_ms: expected at least 1, got 0"),
    (lambda: default_scenario(duration_ms=2**63), "duration_ms: expected at most 9223372036854775807, got 9223372036854775808"),
    (lambda: default_scenario(sl_target=0), "sl_target: expected one of 1, 2, 3, 4, got 0"),
    (lambda: Injection("weak_encryption", at_ms=-1), "at_ms: expected at least 0, got -1"),
    # The file's rule, type included.
    (lambda: default_scenario(sl_target=2.0), "sl_target: expected an integer, got 2.0"),
    (lambda: Injection("weak_encryption", at_ms=True), "at_ms: expected an integer or null, got true"),
    # Events are counted as a float: a rate whose events over the duration pass float range.
    (lambda: Scenario(name="x", seed=0, spec=default_context(), traffic_profile=_at_rate(1e308)),
     "traffic_profile[0]: rate_per_s: expected a positive number whose events over duration_ms 20000 can be counted, "
     "got 1e+308"),
    (lambda: Scenario(name="x", seed=0, spec=default_context(), duration_ms=2**63 - 1, traffic_profile=_at_rate(1e300)),
     "traffic_profile[0]: rate_per_s: expected a positive number whose events over duration_ms 9223372036854775807 "
     "can be counted, got 1e+300"),
    # A pattern its scenario's loader would refuse is refused on construction too.
    (lambda: TrafficPattern(simulator.PLC1, simulator.HMI1, "OPCUA", flavor="bogus"),
     'flavor: expected one of data, process, auth, got "bogus"'),
], ids=["duration_ms", "duration_ms_past_int64", "sl_target", "at_ms", "sl_target_float", "at_ms_bool",
        "rate_uncountable", "rate_uncountable_over_int64_ms", "flavor"])
def test_scenario_ranges_applied_on_construction(build, message):
    with pytest.raises(ScenarioError) as refused:
        build()
    assert str(refused.value) == message


# Per scenario field: how a value is set, its lowest admitted value, and its range as a refusal words it.
SCENARIO_THRESHOLD = {
    "duration_ms": (lambda sc, value: sc.update(duration_ms=value), 1, "at least 1"),
    "sl_target": (lambda sc, value: sc.update(sl_target=value), 1, "one of 1, 2, 3, 4"),
    "injections[1]: at_ms": (lambda sc, value: sc["injections"][1].update(at_ms=value), 0, "at least 0"),
}


@pytest.mark.parametrize("offset", [-1, 0])
@pytest.mark.parametrize("path", sorted(SCENARIO_THRESHOLD))
def test_scenario_threshold_refused_from_a_file_naming_it(path, offset):
    data = scenario_to_dict(default_scenario(injections=(Injection("weak_encryption"), Injection("weak_encryption", 0))))
    update, low, expected = SCENARIO_THRESHOLD[path]
    update(data, low + offset)
    if offset == 0:
        assert scenario_from_dict(data)
        return
    with pytest.raises(ScenarioError) as refused:
        scenario_from_dict(data)
    assert str(refused.value) == f"{path}: expected {expected}, got {low + offset}"


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
        with pytest.raises(ScenarioError, match=r"^sl_target: expected one of 1, 2, 3, 4, got 7$"):
            default_scenario(sl_target=7)
        with pytest.raises(ScenarioError, match=r"^duration_ms: expected at least 1, got 0$"):
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


# The equivalence pin: the first ten hex digits of each stream's ``jsonl_digest`` over seeds 0-3 at
# 20 s, then at 700 s, per mix of injections placed as in ``_mix``, so a rewrite of the generator
# must give the same bytes.
PINNED_DIGESTS = """
baseline                 e64b4e5fb2 e5a6493430 05e3920cb1 6f862e265d 7d0a38d283 3f2e306a36 4222a7a9e4 332b409a8d
abnormal_behavior        bdc66b0e51 1893ff9936 3e7ad95b52 6ced09f4b2 38c65dcfc6 82ce95fc02 4787366b98 86c0487cce
audit_log_exists         44dac1a4b8 408a470956 165107a551 a13e4fee71 e11d8db611 2ddb00d297 0f46726e17 0ca63253db
audit_timestamped        648501563f 310f4b6c16 a9aeb8a12a ddf8bfc803 5591863fbe fb4096796a 90075a706f 8829b78415
authenticator_obscured   6647760234 a1f8920fd1 11601f42dd 6d81f2484c bbe72ae035 d475f70c20 e00404696b 8a345ba872
authorization_enforced   5b6c7b15b7 dab9906e81 a80a49368e ca57cda837 8214c1ff57 3ca53cf52c c4b24b61f7 02913b1a90
boundary_default_deny    90e8176d84 2b316f6888 92af2962d0 be14ffdf0e b132b66d80 b91ff1e429 64359e0962 babf52b65d
continuous_monitoring    62dd29f468 d5cb7d2383 53acfcd01e 58f8def811 f9a5c3173c 56a1faef20 2bd9427006 086f61ea2f
data_integrity           29735b04a0 db8b5b325c 18177c65a1 31a28feed4 9d7ec7a51e 824feb5fe0 06dad8357d 31793d7c60
data_partitioning        e4eaaa32e8 f5c53edae4 5e4eb0cc7d 1d817c914f 4321f786d7 c1975b173c 888e96c78a 53be25cb4f
iac_management           84b26a6455 96c29bd977 fcfd942d03 cff190ed61 bb10c67dab 04e5409308 e54b76a916 56903ceb40
insecure_protocol        ded7e41747 3152b7fd4b 0d67f793e0 4e9e77f750 da1144596a 84403fa025 948c6406a1 8eb8509753
least_functionality      167d300a66 031591aad7 ea08d22485 0066d86b73 9c7017ff7d b91a6a8391 701e2411d9 fb138c5e58
logical_segmentation     8f853de34d 5d938c0bef 5f5905fd71 07c401deac fe823ca852 2e85c6bd6b a482c0938f 010b7c6528
login_attempt_limit      a7db0f5c8c 7fe9637dc2 5269871e54 6161f0f133 8d47c1cfcd cbf979b2ac 76f1549ebb 4b032a6e6e
mobile_code_control      9a07829431 ae2b68e355 76079ba038 c5f74ee627 f4838f42b7 205b79b898 7112f7aab0 b3e641afb4
non_control_independence cd3621945d 295520a990 faf4a0ea71 724982b8db 7a7bb28798 9ca59c2846 ba5ee878e5 565bd195b8
p2p_restriction          bc421e3414 87f997fed2 7f04aeffcf f5dd771ce2 e7b9033a51 0fb0b06abc 1d84d113d8 afa7f60ed9
password_policy          9cb0780b49 7732b94c52 902c3b230b 3fff2177e7 317de22365 675ddc61f3 f09996edc7 b368da4417
pki_best_practice        1ee285c3a5 6c14a94427 a3eefddba6 e6b8c50b45 b0d4a1e706 015dcbe365 22cfe54ee6 1a78e5dd93
pki_present              0331a6dc7f 9bd3eb1b11 e36d25f063 a8e96ed66b 15cdaa4eff 9165a13575 7c383b5470 ab4a084ec2
session_id_integrity     78c3dd1a9f 90754d7fa9 7389c34ad0 4bee67b2d4 980b9fc7eb 94ae58f0a1 aa3d0f816b 9767aba90d
session_termination      a604b90c4b 11f85686a2 fea4a95247 a8eee06add 9a6ea350f2 adade6727d b49cdfb1cb f95f60503e
unknown_communication    13ca276fef 1a8ceaee9a b1a08d6c04 db92ebd387 049701efb1 5d1df1eb60 361dd9de34 3b9395de40
unknown_protocol         ab2cc8ada3 3e1c631769 8421773b04 d7a05500cd 0a0a053f03 5425aefddd dc834e2041 9a54a48af2
unknown_software_process fab6f0cc22 8882ea7929 a88b7bfef0 efbb3b4343 cef0b49f62 498b3e5eb9 5f4e3dc543 c03732e0fa
untrusted_access_control ad6608925f 345e96120d 1c15b17e03 bd50e47e1f 19fe69378f 113147115c fad92a396f 9e3d2641cd
weak_encryption          1c2cf9a271 e4bea3b06e 334e1bb501 a135a75c13 87e9593792 d78e9da390 8ed3bcc6e7 6a85fda2de
wireless_iac             958a2753c9 b78fdab682 f6ffec7cc3 f1c2376f22 29cfc38d39 86120b61d8 0cc7a984d5 68867d3b30
all                      16dd20f6ba 2c4f6a0e95 b671da36a4 bcc1f02254 422e6113fd cd6ae776b8 51309a1712 d78fdbd93e
"""
#: The two mixes pinned at 2 h, seed 0, in full.
PINNED_LONG_DIGESTS = {
    "baseline": "sha256:b538f89a77b96ce5dbceb2577a49b13168043270f8c85e0583d6087a3e99796e",
    "all": "sha256:58caac819e462e01bd32da072c8b899c763b67bc6eb2f7437025482cd1f96eaf",
}
MIXES = {"baseline": (), **{name: (name,) for name in sorted(INJECTIONS)}, "all": tuple(sorted(INJECTIONS))}


def _mix(seed: int, duration_ms: int, mix: str) -> list:
    """The events of the default plant with ``mix``'s injections spread evenly over the window."""
    names = MIXES[mix]
    injections = tuple(Injection(name, at_ms=duration_ms * (i + 1) // (len(names) + 1)) for i, name in enumerate(names))
    return generate_scenario(default_scenario(seed=seed, injections=injections, duration_ms=duration_ms))[0]


def _assert_annotated_types(events: list) -> None:
    """Every event is an EvidenceEvent whose fields hold their annotated types exactly."""
    kinds = [typing.get_args(hint) or (hint,) for hint in typing.get_type_hints(EvidenceEvent).values()]
    for event in events:
        assert type(event) is EvidenceEvent
        for name, value, allowed in zip(EvidenceEvent._fields, event, kinds):
            assert type(value) in allowed, (event.seq, name, value)


@pytest.mark.parametrize("mix", list(MIXES))
def test_generated_streams_match_their_pinned_digests(mix):
    pinned = dict(line.split(maxsplit=1) for line in PINNED_DIGESTS.strip().splitlines())[mix].split()
    got = []
    for duration_ms in (20_000, 700_000):
        for seed in range(4):
            events = _mix(seed, duration_ms, mix)
            _assert_annotated_types(events)
            got.append(jsonl_digest(events)[len("sha256:"):][:10])
    assert got == pinned


@pytest.mark.parametrize("mix", sorted(PINNED_LONG_DIGESTS))
def test_two_hour_streams_match_their_pinned_digests(mix):
    events = _mix(0, 7_200_000, mix)
    _assert_annotated_types(events)
    assert jsonl_digest(events) == PINNED_LONG_DIGESTS[mix]
