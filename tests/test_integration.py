"""Whole-pipeline scenarios beyond single-injection oracle checks."""

import gc
import json
import random

import pytest

from otcms import engine, simulator
from otcms.cli import main
from otcms.compliance import ComplianceStatus, parse_report
from otcms.detectors import Status
from otcms.engine import evaluate_verdicts, run_evaluation
from otcms.evidence import collector_paused, parse_evidence, to_jsonl
from otcms.simulator import (
    INJECTIONS,
    Injection,
    default_scenario,
    generate_scenario,
    scenario_to_dict,
)


def test_oracle_holds_at_every_sl_target(catalog):
    for attribute_id in sorted(INJECTIONS):
        for sl_target in (1, 2, 3, 4):
            scenario = default_scenario(
                name=attribute_id, seed=5, sl_target=sl_target,
                injections=(Injection(attribute_id=attribute_id),),
            )
            events, truth = generate_scenario(scenario, catalog)
            verdicts = evaluate_verdicts(catalog, scenario.spec, events)
            violated = {a for a, v in verdicts.items() if v.status is Status.VIOLATED}
            assert violated == truth.expected_violated, (attribute_id, sl_target)
            report = run_evaluation(catalog, scenario.spec, events, sl_target=sl_target)
            assert set(report.noncompliant_sr_ids()) == truth.expected_noncompliant_srs, (
                attribute_id, sl_target)


def test_random_injection_combinations_compose_by_union(catalog):
    rng = random.Random(314)
    injectables = sorted(INJECTIONS)
    for trial in range(50):
        chosen = rng.sample(injectables, rng.randint(2, 4))
        scenario = default_scenario(
            name="combo",
            seed=trial,
            injections=tuple(Injection(attribute_id=a) for a in chosen),
        )
        events, truth = generate_scenario(scenario, catalog)
        verdicts = evaluate_verdicts(catalog, scenario.spec, events)
        violated = {a for a, v in verdicts.items() if v.status is Status.VIOLATED}
        assert violated == truth.expected_violated, (trial, chosen)
        report = run_evaluation(catalog, scenario.spec, events, sl_target=scenario.sl_target)
        assert set(report.noncompliant_sr_ids()) == truth.expected_noncompliant_srs, (trial, chosen)


def _positive_injections():
    return tuple(
        Injection(attribute_id=a) for a, spec in sorted(INJECTIONS.items()) if not spec.violates
    )


def full_manual_file(catalog, tmp_path, overrides=None):
    entries = {
        attribute_id: {"value": True, "set_by": "commissioning", "date": "2025-05-01"}
        for attribute_id in sorted(catalog.manual_attribute_ids())
    }
    for attribute_id, value in (overrides or {}).items():
        entries[attribute_id]["value"] = value
    path = tmp_path / "manual.json"
    path.write_text(json.dumps({"entries": entries}))
    return path


def test_fully_instrumented_plant_is_green_at_every_sl(catalog, tmp_path):
    """Baseline traffic + positive evidence for every existence-type check +
    every manual attribute asserted leaves no open obligation at any SL."""
    from otcms.context import load_manual_attributes

    scenario = default_scenario(seed=77, injections=_positive_injections())
    events, _ = generate_scenario(scenario, catalog)
    manual = load_manual_attributes(full_manual_file(catalog, tmp_path), catalog)
    for sl_target in (1, 2, 3, 4):
        report = run_evaluation(catalog, scenario.spec, events, manual=manual, sl_target=sl_target)
        for sr_status in report.per_sr:
            assert sr_status.status in (
                ComplianceStatus.COMPLIANT, ComplianceStatus.NOT_APPLICABLE
            ), (sl_target, sr_status.sr_id, sr_status.status)


def test_single_false_manual_assertion_flags_its_sr(catalog, tmp_path):
    scenario = default_scenario(seed=78, injections=_positive_injections())
    events, _ = generate_scenario(scenario, catalog)
    from otcms.context import load_manual_attributes

    manual_path = full_manual_file(catalog, tmp_path, overrides={"emergency_power": False})
    manual = load_manual_attributes(manual_path, catalog)
    report = run_evaluation(catalog, scenario.spec, events, manual=manual, sl_target=2)
    assert report.noncompliant_sr_ids() == ["SR7.5"]


def test_manual_file_through_cli(catalog, tmp_path):
    scenario = default_scenario(name="manual-e2e", seed=79, injections=_positive_injections())
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
    sim = tmp_path / "sim"
    assert main(["simulate", str(scenario_path), "--out-dir", str(sim), "--emit-context"]) == 0

    manual_path = full_manual_file(catalog, tmp_path, overrides={"system_backup": False})
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--evidence", str(sim / "evidence.jsonl"), "--context", str(sim / "context.json"),
        "--manual", str(manual_path), "--out", str(out), "--generated-at", "0",
    ])
    assert code == 1
    report = parse_report(out.read_text())
    assert report.noncompliant_sr_ids() == ["SR7.3"]
    # everything else is settled: no open obligations besides the failed one
    statuses = {s.sr_id: s.status for s in report.per_sr}
    assert statuses["SR1.12"] is ComplianceStatus.COMPLIANT
    assert all(s is not ComplianceStatus.INDETERMINATE for s in statuses.values())


def library_calls(catalog, duration_ms: int = 60_000, count: int | None = None) -> dict:
    """Per library entry point that builds one object per event: the module
    and name of a callee it calls while it runs, and a call of it over
    ``count`` events (all) of the default plant's ``duration_ms``."""
    scenario = default_scenario(name="gc", seed=1, duration_ms=duration_ms)
    events = generate_scenario(scenario, catalog)[0][:count]
    lines = to_jsonl(events).splitlines()
    return {
        "generate_scenario": (simulator, "_baseline_rows", lambda: generate_scenario(scenario, catalog)),
        "run_evaluation": (engine, "evaluate_verdicts", lambda: run_evaluation(catalog, scenario.spec, events)),
        # Once per call: the JSON scanner (``from_json`` runs once per line read in full).
        "parse_evidence": (json, "JSONDecoder", lambda: parse_evidence(lines)),
    }


LIBRARY_CALLS = ["generate_scenario", "run_evaluation", "parse_evidence"]


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", LIBRARY_CALLS)
def test_library_call_pauses_the_collector_and_leaves_it_as_found(catalog, monkeypatch, name, collecting):
    module, callee, call = library_calls(catalog)[name]
    seen = []
    original = getattr(module, callee)

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        if len(seen) > 1:
            raise RuntimeError("failed inside the call")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, callee, watched)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        call()
        assert gc.isenabled() is collecting
        with pytest.raises(RuntimeError):
            call()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_nested_pause_leaves_the_collector_as_the_outer_one_found_it(collecting):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            with pytest.raises(RuntimeError), collector_paused():
                raise RuntimeError("failed inside the inner pause")
            assert not gc.isenabled()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("name", LIBRARY_CALLS)
def test_library_pause_holds_no_garbage_growing_with_the_stream(catalog, name):
    """What one call leaves for the collector is the same few objects over
    about 100 events and over 10,000."""
    found = []
    for duration_ms, count in ((45_000, 100), (4_500_000, 10_000)):
        call = library_calls(catalog, duration_ms, count)[name][2]
        gc.collect()
        call()
        found.append(gc.collect())
    assert len(set(found)) == 1 and found[0] < 1_000
