import itertools
import json
import random

import pytest

from otcms.catalog import AttributeKind, required_attributes
from otcms.compliance import (
    ComplianceStatus,
    build_report,
    evaluate_sr,
    parse_report,
    render_report,
    report_body,
)
from otcms.detectors import REGISTRY, AttributeVerdict, Finding, Severity, Status
from otcms.engine import manual_verdicts, run_evaluation
from otcms.simulator import default_scenario, generate_scenario

from conftest import ev


def verdict(attribute_id, status, kind=None, findings=()):
    if kind is None:
        kind = REGISTRY[attribute_id].kind if attribute_id in REGISTRY else AttributeKind.MANUAL
    if status is Status.VIOLATED and not findings:
        findings = (Finding(detector="test", message="forced", severity=Severity.VIOLATION, seq_refs=(0,)),)
    return AttributeVerdict(attribute_id=attribute_id, kind=kind, status=status, findings=tuple(findings))


def all_fulfilled(catalog):
    verdicts = {a: verdict(a, Status.FULFILLED) for a in REGISTRY}
    verdicts.update({a: verdict(a, Status.FULFILLED) for a in catalog.manual_attribute_ids()})
    return verdicts


class TestEvaluateSr:
    def test_pki_fulfilled_makes_sr18_compliant(self, catalog):
        verdicts = {
            "pki_present": verdict("pki_present", Status.FULFILLED),
            "pki_best_practice": verdict("pki_best_practice", Status.FULFILLED),
        }
        got = evaluate_sr(catalog.sr("SR1.8"), verdicts, 2, catalog)
        assert got.status is ComplianceStatus.COMPLIANT
        assert got.achieved_sl == 4

    def test_sr33_not_applicable_regardless(self, catalog):
        got = evaluate_sr(catalog.sr("SR3.3"), {}, 4, catalog)
        assert got.status is ComplianceStatus.NOT_APPLICABLE

    def test_multifactor_indeterminate_at_sl3(self, catalog):
        verdicts = all_fulfilled(catalog)
        verdicts["multifactor_auth"] = verdict("multifactor_auth", Status.INDETERMINATE)
        got = evaluate_sr(catalog.sr("SR1.1"), verdicts, 3, catalog)
        assert got.status is ComplianceStatus.INDETERMINATE
        assert got.achieved_sl == 2

    def test_precedence_matches_lattice_enumeration(self, catalog):
        # oracle: enumerate every status combination over the SR's bindings
        # and apply the precedence rule independently
        sr = catalog.sr("SR1.1")
        bindings = required_attributes(catalog, sr.id, 4)
        for combo in itertools.product(list(Status), repeat=len(bindings)):
            verdicts = {b.attribute_id: verdict(b.attribute_id, s) for b, s in zip(bindings, combo)}
            got = evaluate_sr(sr, verdicts, 4, catalog)
            statuses = set(combo)
            if Status.VIOLATED in statuses:
                expect = ComplianceStatus.NON_COMPLIANT
            elif Status.INDETERMINATE in statuses:
                expect = ComplianceStatus.INDETERMINATE
            elif statuses == {Status.NOT_APPLICABLE}:
                expect = ComplianceStatus.NOT_APPLICABLE
            else:
                expect = ComplianceStatus.COMPLIANT
            assert got.status is expect, f"{combo} -> {got.status}"

    def test_missing_verdicts_count_indeterminate(self, catalog):
        got = evaluate_sr(catalog.sr("SR7.7"), {}, 1, catalog)
        assert got.status is ComplianceStatus.INDETERMINATE

    def test_achieved_sl_below_any_violated_binding(self, catalog):
        rng = random.Random(5)
        statuses = list(Status)
        for sr in catalog.iter_srs():
            bindings = required_attributes(catalog, sr.id, 4)
            for _ in range(5):
                verdicts = {b.attribute_id: verdict(b.attribute_id, rng.choice(statuses)) for b in bindings}
                got = evaluate_sr(sr, verdicts, 4, catalog)
                for binding in bindings:
                    if verdicts[binding.attribute_id].status in (Status.VIOLATED, Status.INDETERMINATE):
                        assert got.achieved_sl < binding.min_sl

    def test_empty_required_set_is_not_applicable(self, catalog):
        # SR2.12 binds only from SL 3 upward
        got = evaluate_sr(catalog.sr("SR2.12"), {}, 2, catalog)
        assert got.status is ComplianceStatus.NOT_APPLICABLE
        got = evaluate_sr(catalog.sr("SR2.12"), {}, 3, catalog)
        assert got.status is ComplianceStatus.INDETERMINATE


class TestBuildReport:
    def test_baseline_scenario_zero_noncompliant(self, catalog):
        sc = default_scenario(seed=11)
        events, truth = generate_scenario(sc, catalog)
        report = run_evaluation(catalog, sc.spec, events, sl_target=2)
        assert truth.expected_violated == frozenset()
        assert report.noncompliant_sr_ids() == []

    def test_empty_evidence_no_noncompliant(self, catalog):
        report = run_evaluation(catalog, default_scenario().spec, [], sl_target=2)
        assert report.noncompliant_sr_ids() == []
        for sr_status in report.per_sr:
            assert sr_status.status in (ComplianceStatus.INDETERMINATE, ComplianceStatus.NOT_APPLICABLE)

    def test_single_weak_encryption_event_flips_exactly_bound_srs(self, catalog):
        sc = default_scenario(seed=3)
        events, _ = generate_scenario(sc, catalog)
        clean = run_evaluation(catalog, sc.spec, events, sl_target=2)
        weak = ev(seq=len(events), t=10**7, src="10.0.1.20", dst="10.0.2.10",
                  protocol="MQTT", port=8883, tls_present=True, cert_present=True,
                  key_bits=64, session_id="inj")
        dirty = run_evaluation(catalog, sc.spec, events + [weak], sl_target=2)

        flipped = set(dirty.noncompliant_sr_ids()) - set(clean.noncompliant_sr_ids())
        bound = {
            sr.id
            for sr in catalog.iter_srs()
            if any(b.attribute_id == "weak_encryption" for b in required_attributes(catalog, sr.id, 2))
        }
        assert flipped == bound
        assert clean.noncompliant_sr_ids() == []

    def test_fr_rollup_is_worst_status(self, catalog):
        sc = default_scenario(seed=3)
        events, _ = generate_scenario(sc, catalog)
        report = run_evaluation(catalog, sc.spec, events, sl_target=2)
        order = {
            ComplianceStatus.NON_COMPLIANT: 3,
            ComplianceStatus.INDETERMINATE: 2,
            ComplianceStatus.COMPLIANT: 1,
            ComplianceStatus.NOT_APPLICABLE: 0,
        }
        for fr in catalog.frs:
            statuses = [s.status for s in report.per_sr if s.sr_id in {sr.id for sr in fr.srs}]
            assert report.per_fr[fr.id] is max(statuses, key=order.get)

    def test_summary_counts(self, catalog):
        report = run_evaluation(catalog, default_scenario().spec, [], sl_target=2)
        assert report.summary["srs_total"] == 51
        assert sum(v for k, v in report.summary.items() if k != "srs_total") == 51

    def test_stable_sr_ordering(self, catalog):
        report = run_evaluation(catalog, default_scenario().spec, [], sl_target=2)
        assert [s.sr_id for s in report.per_sr] == [sr.id for sr in catalog.iter_srs()]

    def test_rollup_independent_of_evaluation_order(self, catalog):
        # precedence is total: shuffling verdict insertion cannot change rollups
        rng = random.Random(17)
        verdicts = all_fulfilled(catalog)
        verdicts["data_integrity"] = verdict("data_integrity", Status.VIOLATED)
        items = list(verdicts.items())
        rng.shuffle(items)
        a = build_report(catalog, dict(items), 2, "sha256:x")
        b = build_report(catalog, verdicts, 2, "sha256:x")
        assert a.per_fr == b.per_fr
        assert [s.status for s in a.per_sr] == [s.status for s in b.per_sr]


class TestManualMerge:
    def test_unset_manual_attributes_indeterminate(self, catalog):
        verdicts = manual_verdicts(catalog, None)
        assert set(verdicts) == catalog.manual_attribute_ids()
        assert all(v.status is Status.INDETERMINATE for v in verdicts.values())

    def test_manual_false_violates_with_finding(self, catalog):
        from otcms.context import ManualAttributeFile, ManualEntry

        manual = ManualAttributeFile(entries={"emergency_power": ManualEntry(value=False, set_by="ed")})
        verdicts = manual_verdicts(catalog, manual)
        assert verdicts["emergency_power"].status is Status.VIOLATED
        assert verdicts["emergency_power"].findings

    def test_manual_true_fulfills(self, catalog):
        from otcms.context import ManualAttributeFile, ManualEntry

        manual = ManualAttributeFile(entries={"input_validation": ManualEntry(value=True, set_by="qa")})
        verdicts = manual_verdicts(catalog, manual)
        assert verdicts["input_validation"].status is Status.FULFILLED


class TestRendering:
    def _report(self, catalog):
        sc = default_scenario(seed=2)
        events, _ = generate_scenario(sc, catalog)
        return run_evaluation(catalog, sc.spec, events, sl_target=2, generated_at=1234)

    def test_structured_round_trip(self, catalog):
        report = self._report(catalog)
        assert parse_report(render_report(report, "structured")) == report

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda data: data.update(per_sr=5), "per_sr: expected a list, got 5"),
            (lambda data: data["findings"][0].pop("severity"), r"findings\[0\]: missing severity"),
        ],
        ids=["per_sr_number", "finding_without_severity"],
    )
    def test_parse_malformed_report_names_field(self, catalog, damage, named):
        from otcms.simulator import Injection

        sc = default_scenario(seed=2, injections=(Injection(attribute_id="weak_encryption"),))
        events, _ = generate_scenario(sc, catalog)
        data = json.loads(render_report(run_evaluation(catalog, sc.spec, events, sl_target=2)))
        damage(data)
        with pytest.raises(ValueError, match=named):
            parse_report(json.dumps(data))

    @pytest.mark.parametrize(
        "damage, refusal",
        [
            (lambda text: "[" * 100_000 + "]" * 100_000, "^invalid JSON: nested too deeply$"),
            (lambda text: text.replace('"sl_target":', '"sl_target":3,"sl_target":', 1), "^repeated key 'sl_target'$"),
        ],
        ids=["nested_too_deeply", "repeated_key"],
    )
    def test_parse_unreadable_report_raises_value_error(self, catalog, damage, refusal):
        text = render_report(self._report(catalog), "structured")
        assert '"sl_target":' in text
        with pytest.raises(ValueError, match=refusal):
            parse_report(damage(text))

    def test_render_deterministic(self, catalog):
        report = self._report(catalog)
        assert render_report(report, "structured") == render_report(report, "structured")
        assert render_report(report, "human") == render_report(report, "human")

    def test_body_excludes_generated_at(self, catalog):
        sc = default_scenario(seed=2)
        events, _ = generate_scenario(sc, catalog)
        early = run_evaluation(catalog, sc.spec, events, generated_at=1)
        late = run_evaluation(catalog, sc.spec, events, generated_at=999)
        assert report_body(early) == report_body(late)
        assert render_report(early) != render_report(late)

    def test_human_output_names_noncompliant_sr(self, catalog):
        from otcms.simulator import Injection

        sc = default_scenario(seed=2, injections=(Injection(attribute_id="weak_encryption"),))
        events, _ = generate_scenario(sc, catalog)
        report = run_evaluation(catalog, sc.spec, events, sl_target=2)
        text = render_report(report, "human")
        assert "SR4.3" in text.split("violations:")[1]
        assert report.catalog_version in text
        assert report.evidence_digest in text

    def test_human_output_lists_every_sr_once_under_its_fr(self, catalog):
        filed, fr_id = [], None
        table = render_report(self._report(catalog), "human").split("achieved SL\n", 1)[1].split("\n\n", 1)[0]
        for line in table.splitlines():
            if line.startswith("["):
                fr_id = line.split()[1]
            else:
                filed.append((fr_id, line.split()[0]))
        assert filed == [(fr.id, sr.id) for fr in catalog.frs for sr in fr.srs]
        assert len(filed) == 51

    def test_unknown_format_rejected(self, catalog):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(self._report(catalog), "yaml")


def test_compliant_at_higher_sl_implies_compliant_at_lower(catalog):
    rng = random.Random(23)
    statuses = [Status.FULFILLED, Status.VIOLATED, Status.INDETERMINATE, Status.NOT_APPLICABLE]
    attribute_ids = set(REGISTRY) | {a for a in (b.attribute_id for sr in catalog.iter_srs()
                                                 for b in sr.bindings)}
    attribute_ids |= catalog.manual_attribute_ids()
    for _ in range(40):
        verdicts = {a: verdict(a, rng.choice(statuses)) for a in attribute_ids}
        for sr in catalog.iter_srs():
            results = {sl: evaluate_sr(sr, verdicts, sl, catalog).status for sl in (1, 2, 3, 4)}
            for low, high in itertools.combinations((1, 2, 3, 4), 2):
                if results[high] is ComplianceStatus.COMPLIANT:
                    assert results[low] in (ComplianceStatus.COMPLIANT, ComplianceStatus.NOT_APPLICABLE)
