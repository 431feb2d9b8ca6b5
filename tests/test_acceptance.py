"""Acceptance criteria for the compliance monitoring engine.

Each test covers one exit criterion and prints a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Criteria are pinned
to their stated tolerances: detector and oracle checks are exact, the
oracle-equivalence sweep carries a 60-second runtime budget.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from otcms.catalog import (
    default_catalog_path,
    load_catalog,
    parse_catalog,
    required_attributes,
    serialize_catalog,
    validate_catalog,
)
from otcms.cli import main
from otcms.compliance import (
    ComplianceStatus,
    build_report,
    evaluate_sr,
    parse_report,
    render_report,
    report_body,
)
from otcms.context import ContextSpec, CryptoPolicy, RateLimit
from otcms.detectors import (
    REGISTRY,
    AttributeVerdict,
    Finding,
    Severity,
    Status,
    detect_abnormal_behavior,
    detect_auth_attempts,
    detect_iac_management,
    detect_security_strength,
    detect_session_violations,
    registry_kinds,
    run_detectors,
)
from otcms.engine import evaluate_verdicts, run_evaluation
from otcms.evidence import EvidenceEvent, assemble_sessions, parse_evidence, to_jsonl
from otcms.simulator import (
    INJECTIONS,
    Injection,
    default_scenario,
    generate_scenario,
    scenario_to_dict,
)

from conftest import ev


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {name}")
        raise
    print(f"PASS  criterion {number:2d}: {name}")


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(default_catalog_path())


def run_pipeline(catalog, scenario, events):
    verdicts = evaluate_verdicts(catalog, scenario.spec, events)
    report = build_report(catalog, verdicts, scenario.sl_target, "sha256:acceptance")
    return verdicts, report


def test_criterion_1_oracle_equivalence(catalog):
    """Zero false positives on baselines, zero misses on injections,
    exact verdict/ground-truth match for every injectable over 100 seeds."""
    with criterion(1, "oracle equivalence over >=15 injectables x 100 seeds, < 60 s"):
        assert len(INJECTIONS) >= 15
        started = time.perf_counter()
        for attribute_id in sorted(INJECTIONS):
            for seed in range(100):
                scenario = default_scenario(
                    name=attribute_id, seed=seed,
                    injections=(Injection(attribute_id=attribute_id),),
                )
                events, truth = generate_scenario(scenario, catalog)
                verdicts, report = run_pipeline(catalog, scenario, events)
                violated = {a for a, v in verdicts.items() if v.status is Status.VIOLATED}
                fulfilled = {a for a, v in verdicts.items() if v.status is Status.FULFILLED}
                assert violated == truth.expected_violated, (attribute_id, seed)
                assert set(report.noncompliant_sr_ids()) == truth.expected_noncompliant_srs, (
                    attribute_id, seed)
                assert truth.expected_fulfilled <= fulfilled, (attribute_id, seed)
        for seed in range(100):
            scenario = default_scenario(seed=seed)
            events, truth = generate_scenario(scenario, catalog)
            verdicts, report = run_pipeline(catalog, scenario, events)
            assert truth.expected_violated == frozenset()
            assert {a for a, v in verdicts.items() if v.status is Status.VIOLATED} == set()
            assert report.noncompliant_sr_ids() == []
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_directory_run_rule(catalog):
    """A run of exactly 7 consecutive directory packets fulfills the
    management attribute; any interleaving capping runs at 6 leaves it
    indeterminate. Exact, no tolerance."""
    with criterion(2, "7-packet directory-run rule, runs <=6 stay indeterminate"):
        run7 = [ev(seq=i, t=i, protocol="LDAP") for i in range(7)]
        assert detect_iac_management(run7)[0].status is Status.FULFILLED

        rng = random.Random(2024)
        for trial in range(200):
            events = []
            run = 0
            for i in range(40):
                if run < 6 and rng.random() < 0.6:
                    events.append(ev(seq=i, t=i, protocol="LDAP"))
                    run += 1
                else:
                    events.append(ev(seq=i, t=i, protocol="MQTT"))
                    run = 0
            assert detect_iac_management(events)[0].status is Status.INDETERMINATE

        # via the full pipeline: positive injection produces the run
        scenario = default_scenario(seed=0, injections=(Injection(attribute_id="iac_management"),))
        events, _ = generate_scenario(scenario, catalog)
        verdicts = evaluate_verdicts(catalog, scenario.spec, events)
        assert verdicts["iac_management"].status is Status.FULFILLED


def test_criterion_3_certificate_tls_rule(catalog):
    """Certificates with TLS make SR1.8 compliant; a certificate without TLS
    anywhere makes it non-compliant; no certificates make it not applicable."""
    with criterion(3, "certificate/TLS combination drives SR1.8 exactly"):
        ctx = ContextSpec()
        base = [ev(seq=i, t=i, protocol="MQTT", cert_present=True, tls_present=True) for i in range(3)]

        def sr18(events):
            report = run_evaluation(catalog, ctx, events, sl_target=2)
            return next(s.status for s in report.per_sr if s.sr_id == "SR1.8")

        assert sr18(base) is ComplianceStatus.COMPLIANT
        bad = base + [ev(seq=3, t=3, protocol="MQTT", cert_present=True, tls_present=False)]
        assert sr18(bad) is ComplianceStatus.NON_COMPLIANT
        plain = [ev(seq=i, t=i, protocol="MQTT", tls_present=True) for i in range(3)]
        assert sr18(plain) is ComplianceStatus.NOT_APPLICABLE


def test_criterion_4_threshold_boundaries():
    """Threshold detectors behave exactly at threshold and threshold+-1;
    windowed-rate verdicts equal an O(n^2) recount on 1,000-event streams."""
    with criterion(4, "threshold boundaries exact; rate windows match O(n^2) recount"):
        # consecutive failed logins: limit 3
        ctx = ContextSpec(max_failed_attempts=3)
        for failures, expected in ((2, Status.FULFILLED), (3, Status.FULFILLED), (4, Status.VIOLATED)):
            events = [ev(seq=i, t=i, auth_result="Failure") for i in range(failures)]
            assert detect_auth_attempts(events, ctx)[0].status is expected, failures

        # session duration: max 1000 ms
        ctx = ContextSpec(session_max_ms=1000)
        for duration, expected in ((999, Status.FULFILLED), (1000, Status.FULFILLED), (1001, Status.VIOLATED)):
            events = [ev(seq=0, t=0), ev(seq=1, t=duration)]
            sessions = assemble_sessions(events, gap_ms=10_000)
            assert detect_session_violations(sessions, ctx)[0].status is expected, duration

        # rate window: max 10 events / 1000 ms
        ctx = ContextSpec(rate_spec={("a", "b"): RateLimit(1000, max_events_per_window=10)})
        for count, expected in ((9, Status.FULFILLED), (10, Status.FULFILLED), (11, Status.VIOLATED)):
            events = [ev(seq=i, t=i, src="a", dst="b") for i in range(count)]
            sessions = assemble_sessions(events)
            assert detect_abnormal_behavior(sessions, ctx)[0].status is expected, count

        # key bits: minimum 128
        ctx = ContextSpec(crypto_policy=CryptoPolicy(min_key_bits=128))
        for bits, expected in ((127, Status.VIOLATED), (128, Status.FULFILLED), (129, Status.FULFILLED)):
            got = detect_security_strength([ev(key_bits=bits)], ctx)[0]
            assert got.status is expected, bits

        # protocol version: minimum MQTT 3.1
        ctx = ContextSpec(crypto_policy=CryptoPolicy(min_protocol_versions={"MQTT": "3.1"}))
        for version, expected in (("3.0", Status.VIOLATED), ("3.1", Status.FULFILLED), ("3.2", Status.FULFILLED)):
            got = detect_security_strength([ev(protocol="MQTT", protocol_version=version)], ctx)[0]
            assert got.status is expected, version

        # 1,000-event random streams against the quadratic recount
        rng = random.Random(404)
        for trial in range(2):
            window = 1000
            max_events = rng.randint(20, 60)
            max_bytes = rng.randint(2_000, 20_000)
            events = [
                ev(seq=i, t=rng.randint(0, 30_000), src="a", dst="b", bytes=rng.randint(0, 100))
                for i in range(1000)
            ]
            ctx = ContextSpec(
                rate_spec={("a", "b"): RateLimit(window, max_events_per_window=max_events,
                                                 max_bytes_per_window=max_bytes)}
            )
            sessions = assemble_sessions(events, gap_ms=10**9)
            got = detect_abnormal_behavior(sessions, ctx)[0].status

            stamps = sorted((e.timestamp, e.bytes) for e in events)
            bad = False
            for i in range(len(stamps)):
                count = total = 0
                start = stamps[i][0]
                for t, b in stamps:
                    if start <= t < start + window:
                        count += 1
                        total += b
                if count > max_events or total > max_bytes:
                    bad = True
                    break
            assert got is (Status.VIOLATED if bad else Status.FULFILLED)


def test_criterion_5_unknown_safety():
    """1,000 random streams whose security flags are all unknown produce
    zero violated verdicts across the entire detector suite."""
    with criterion(5, "all-unknown flags: zero violated over 1,000 random streams"):
        rng = random.Random(1905)
        hosts = ["h1", "h2", "h3", "h4"]
        protocols = ["MQTT", "OPCUA", "Telnet", "FTP", "HTTP", "LDAP", "Bluetooth", "ICMP"]
        ctx = ContextSpec()
        for trial in range(1000):
            events = []
            t = 0
            for i in range(rng.randint(1, 15)):
                t += rng.randint(0, 2000)
                src, dst = rng.sample(hosts, 2)
                events.append(
                    EvidenceEvent(
                        seq=i, timestamp=t, src_id=src, dst_id=dst,
                        protocol=rng.choice(protocols),
                        port=rng.choice([None, 80, 8883, 31337]),
                        bytes=rng.randint(0, 2048),
                        fragmented=rng.random() < 0.2,
                        error_code=rng.choice([None, None, "0x2a"]),
                    )
                )
            verdicts = run_detectors(events, assemble_sessions(events), ctx)
            violated = [a for a, v in verdicts.items() if v.status is Status.VIOLATED]
            assert violated == [], (trial, violated)


def test_criterion_6_monotonicity(catalog):
    """Appending an injection never flips an attribute from violated to
    fulfilled nor an SR from non-compliant to compliant (200 random pairs)."""
    with criterion(6, "appending injections never un-violates (200 pairs)"):
        rng = random.Random(66)
        injectables = sorted(INJECTIONS)
        for trial in range(200):
            first = rng.choice(injectables)
            second = rng.choice(injectables)
            scenario = default_scenario(
                name="mono", seed=trial, injections=(Injection(attribute_id=first),)
            )
            events, _ = generate_scenario(scenario, catalog)
            verdicts_before, report_before = run_pipeline(catalog, scenario, events)

            t0 = events[-1].timestamp + 1_000
            extra_records = INJECTIONS[second].build(scenario, t0)
            extra_records.sort(key=lambda r: r["timestamp"])
            appended = list(events)
            for record in extra_records:
                appended.append(EvidenceEvent(seq=len(appended), **record))

            verdicts_after, report_after = run_pipeline(catalog, scenario, appended)
            for attribute_id, before in verdicts_before.items():
                if before.status is Status.VIOLATED:
                    assert verdicts_after[attribute_id].status is Status.VIOLATED, (
                        trial, first, second, attribute_id)
            before_bad = set(report_before.noncompliant_sr_ids())
            after_bad = set(report_after.noncompliant_sr_ids())
            assert before_bad <= after_bad, (trial, first, second)


def test_criterion_7_sl_monotonicity(catalog):
    """Required attribute sets grow with the SL target, and compliance at a
    higher target implies compliance at any lower one, over the full catalog."""
    with criterion(7, "SL monotonicity of required sets and compliance"):
        for sr in catalog.iter_srs():
            previous: set[str] = set()
            for sl in (1, 2, 3, 4):
                current = {b.attribute_id for b in required_attributes(catalog, sr.id, sl)}
                assert previous <= current, sr.id
                previous = current

        rng = random.Random(7777)
        attribute_ids = set(REGISTRY) | catalog.manual_attribute_ids()
        statuses = list(Status)
        for trial in range(60):
            verdicts = {}
            for attribute_id in attribute_ids:
                status = rng.choice(statuses)
                findings = (
                    (Finding(detector="t", message="m", severity=Severity.VIOLATION, seq_refs=(0,)),)
                    if status is Status.VIOLATED else ()
                )
                kind = registry_kinds().get(attribute_id)
                if kind is None:
                    from otcms.catalog import AttributeKind

                    kind = AttributeKind.MANUAL
                verdicts[attribute_id] = AttributeVerdict(
                    attribute_id=attribute_id, kind=kind, status=status, findings=findings
                )
            for sr in catalog.iter_srs():
                by_sl = {sl: evaluate_sr(sr, verdicts, sl, catalog).status for sl in (1, 2, 3, 4)}
                for low in (1, 2, 3):
                    for high in range(low + 1, 5):
                        if by_sl[high] is ComplianceStatus.COMPLIANT:
                            assert by_sl[low] in (
                                ComplianceStatus.COMPLIANT, ComplianceStatus.NOT_APPLICABLE
                            ), (sr.id, low, high)


def test_criterion_8_determinism(catalog, tmp_path):
    """Evaluating identical inputs twice yields byte-identical report bodies;
    generating a scenario with a fixed seed yields byte-identical streams."""
    with criterion(8, "byte-identical report bodies and streams"):
        scenario = default_scenario(seed=88, injections=(Injection(attribute_id="data_integrity"),))
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_to_dict(scenario)))
        sim_dir = tmp_path / "sim"
        assert main(["simulate", str(scenario_path), "--out-dir", str(sim_dir), "--emit-context"]) == 0

        reports = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = main([
                "evaluate", "--evidence", str(sim_dir / "evidence.jsonl"),
                "--context", str(sim_dir / "context.json"), "--out", str(out),
            ])
            assert code == 1  # data_integrity injection present
            reports.append(parse_report(out.read_text()))
        assert report_body(reports[0]) == report_body(reports[1])

        events_a, _ = generate_scenario(scenario, catalog)
        events_b, _ = generate_scenario(scenario, catalog)
        assert to_jsonl(events_a).encode() == to_jsonl(events_b).encode()


def test_criterion_9_catalog_integrity(catalog):
    """Shipped catalog validates cleanly, covers all seven requirement
    families, FR1 carries SR1.1..SR1.13, and SR3.3 reports not applicable."""
    with criterion(9, "shipped catalog integrity and SR3.3 handling"):
        assert validate_catalog(catalog, registry_kinds()) == []
        assert [fr.id for fr in catalog.frs] == [f"FR{i}" for i in range(1, 8)]
        assert [sr.id for sr in catalog.frs[0].srs] == [f"SR1.{i}" for i in range(1, 14)]

        report = run_evaluation(catalog, default_scenario().spec,
                                [ev(seq=0, t=0, tls_present=True, cert_present=True)], sl_target=4)
        sr33 = next(s for s in report.per_sr if s.sr_id == "SR3.3")
        assert sr33.status is ComplianceStatus.NOT_APPLICABLE


def test_criterion_10_round_trips(catalog):
    """Catalog, report and evidence survive their serialization cycles."""
    with criterion(10, "catalog/report/evidence round-trips lossless"):
        assert parse_catalog(serialize_catalog(catalog)) == catalog

        scenario = default_scenario(
            seed=10,
            injections=(
                Injection(attribute_id="password_policy"),
                Injection(attribute_id="wireless_iac"),
                Injection(attribute_id="audit_timestamped"),
            ),
        )
        events, _ = generate_scenario(scenario, catalog)
        report = run_evaluation(catalog, scenario.spec, events, sl_target=3, generated_at=42)
        assert parse_report(render_report(report, "structured")) == report

        assert parse_evidence(to_jsonl(events).splitlines()) == events
