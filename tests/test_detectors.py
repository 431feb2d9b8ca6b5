import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcms import cli, detectors, engine, evidence
from otcms.compliance import parse_report
from otcms.context import (
    CommEntry,
    ContextSpec,
    CryptoPolicy,
    PasswordPolicy,
    RateLimit,
    classify_entity,
    context_from_dict,
)
from otcms.detectors import (
    REGISTRY,
    Severity,
    Status,
    detect_abnormal_behavior,
    detect_audit_and_monitoring,
    detect_auth_attempts,
    detect_authorization_controls,
    detect_cleartext_authenticators,
    detect_iac_management,
    detect_integrity_anomalies,
    detect_least_functionality,
    detect_pki_best_practice,
    detect_security_strength,
    detect_segmentation,
    detect_session_violations,
    detect_unknown_factors,
    detect_untrusted_access,
    detect_wireless_iac,
    group_shapes,
    run_detectors,
)
from otcms.evidence import EvidenceEvent, IdScheme, assemble_sessions
from otcms.engine import run_evaluation
from otcms.simulator import INJECTIONS, Injection, default_scenario, generate_scenario, save_scenario_outputs

from conftest import ev


def by_id(verdicts):
    return {v.attribute_id: v for v in verdicts}


def comm(src, dst, protocol, mandatory=False):
    return CommEntry(src=src, dst=dst, protocol=protocol, mandatory=mandatory)


class TestUnknownFactors:
    def test_off_list_protocol_violated_citing_event(self):
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT", "OPCUA"}))
        events = [ev(seq=0, protocol="MQTT"), ev(seq=1, protocol="Telnet")]
        got = by_id(detect_unknown_factors(events, ctx))
        assert got["unknown_protocol"].status is Status.VIOLATED
        assert got["unknown_protocol"].findings[0].seq_refs == (1,)

    def test_all_expected_all_fulfilled(self):
        ctx = ContextSpec(
            expected_protocols=frozenset({"MQTT"}),
            expected_communications=(comm("a", "b", "MQTT"), comm("p1", "b", "MQTT")),
            known_software_processes=frozenset({("p1", "b")}),
        )
        events = [
            ev(seq=0, src="a", dst="b"),
            ev(seq=1, src="p1", dst="b", scheme_src=IdScheme.PROCESS_ID),
        ]
        got = by_id(detect_unknown_factors(events, ctx))
        assert all(got[a].status is Status.FULFILLED for a in
                   ("unknown_protocol", "unknown_communication", "unknown_software_process"))

    def test_absent_sections_indeterminate(self):
        got = by_id(detect_unknown_factors([ev()], ContextSpec()))
        assert all(v.status is Status.INDETERMINATE for v in got.values())

    def test_wildcard_matching(self):
        ctx = ContextSpec(expected_communications=(comm("*", "b", "MQTT"),))
        got = by_id(detect_unknown_factors([ev(src="anything", dst="b")], ctx))
        assert got["unknown_communication"].status is Status.FULFILLED

    def test_random_streams_match_membership_oracle(self):
        rng = random.Random(99)
        protocols = ["MQTT", "OPCUA", "Telnet", "FTP", "HTTP"]
        hosts = ["a", "b", "c", "p1", "p2"]
        for trial in range(20):
            expected_protocols = frozenset(rng.sample(protocols, 3))
            pairs = [(rng.choice(hosts), rng.choice(hosts), rng.choice(protocols)) for _ in range(4)]
            known = frozenset((rng.choice(hosts), rng.choice(hosts)) for _ in range(3))
            ctx = ContextSpec(
                expected_protocols=expected_protocols,
                expected_communications=tuple(comm(*p) for p in pairs),
                known_software_processes=known,
            )
            events = []
            for i in range(50):
                scheme = rng.choice([IdScheme.IP, IdScheme.PROCESS_ID])
                events.append(
                    ev(seq=i, t=i, src=rng.choice(hosts), dst=rng.choice(hosts),
                       protocol=rng.choice(protocols), scheme_src=scheme)
                )
            got = by_id(detect_unknown_factors(events, ctx))

            # brute-force membership scan, independent of the detector path
            proto_bad = any(e.protocol not in expected_protocols for e in events)
            comm_bad = any(
                not any(
                    (s in ("*", e.src_id)) and (d in ("*", e.dst_id)) and (p in ("*", e.protocol))
                    for s, d, p in pairs
                )
                for e in events
            )
            proc_bad = any(
                e.id_scheme_src is IdScheme.PROCESS_ID and (e.src_id, e.dst_id) not in known
                for e in events
            )
            assert (got["unknown_protocol"].status is Status.VIOLATED) == proto_bad
            assert (got["unknown_communication"].status is Status.VIOLATED) == comm_bad
            assert (got["unknown_software_process"].status is Status.VIOLATED) == proc_bad


class TestAbnormalBehavior:
    def _ctx(self, max_events=10, window=1000, max_bytes=None):
        return ContextSpec(
            rate_spec={("a", "b"): RateLimit(window_ms=window, max_events_per_window=max_events,
                                             max_bytes_per_window=max_bytes)}
        )

    def test_burst_violates(self):
        events = [ev(seq=i, t=i * 25, bytes=1, src="a", dst="b") for i in range(20)]  # 20 in 500ms
        sessions = assemble_sessions(events)
        got = by_id(detect_abnormal_behavior(sessions, self._ctx(max_events=10)))
        assert got["abnormal_behavior"].status is Status.VIOLATED

    def test_empty_rate_spec_indeterminate(self):
        got = by_id(detect_abnormal_behavior([], ContextSpec()))
        assert got["abnormal_behavior"].status is Status.INDETERMINATE

    def test_boundary_at_threshold(self):
        # exactly max events inside a window is allowed; one more violates
        events = [ev(seq=i, t=i, src="a", dst="b") for i in range(10)]
        sessions = assemble_sessions(events)
        assert by_id(detect_abnormal_behavior(sessions, self._ctx(max_events=10)))[
            "abnormal_behavior"].status is Status.FULFILLED
        events.append(ev(seq=10, t=10, src="a", dst="b"))
        sessions = assemble_sessions(events)
        assert by_id(detect_abnormal_behavior(sessions, self._ctx(max_events=10)))[
            "abnormal_behavior"].status is Status.VIOLATED

    def test_anchor_at_equal_timestamps_follows_bytes_then_seq(self):
        # three events at t=0 over the byte limit: the anchor is the least (timestamp, bytes, seq)
        events = [ev(seq=0, t=0, bytes=90, src="a", dst="b"), ev(seq=1, t=0, bytes=30, src="b", dst="a"),
                  ev(seq=2, t=0, bytes=30, src="a", dst="b"), ev(seq=3, t=5000, bytes=1, src="a", dst="b")]
        verdict = by_id(detect_abnormal_behavior(assemble_sessions(events), self._ctx(max_events=None, max_bytes=100)))[
            "abnormal_behavior"]
        assert [(f.message, f.seq_refs) for f in verdict.findings] == [("a<->b: 150 bytes in 1000 ms exceeds 100", (1,))]

    def test_matches_quadratic_recount(self):
        rng = random.Random(4)
        for trial in range(15):
            events = [
                ev(seq=i, t=rng.randint(0, 5000), bytes=rng.randint(0, 300), src="a", dst="b")
                for i in range(rng.randint(0, 120))
            ]
            max_events = rng.randint(1, 20)
            max_bytes = rng.choice([None, rng.randint(100, 2000)])
            window = rng.choice([100, 500, 1000])
            ctx = self._ctx(max_events=max_events, window=window, max_bytes=max_bytes)
            sessions = assemble_sessions(events, gap_ms=10_000_000)
            verdict = by_id(detect_abnormal_behavior(sessions, ctx))["abnormal_behavior"]
            got = verdict.status

            # anchors in the detector's order; the first violating one is the
            # first of its timestamp, whose recount the detector's window equals
            times = sorted((e.timestamp, e.bytes, e.seq) for e in events)
            bad = False
            first = None
            for i in range(len(times)):
                count = 0
                total = 0
                for j in range(len(times)):
                    if times[i][0] <= times[j][0] < times[i][0] + window:
                        count += 1
                        total += times[j][1]
                if count > max_events or (max_bytes is not None and total > max_bytes):
                    bad = True
                    if first is None:
                        excess = (
                            f"{count} events in {window} ms exceeds {max_events}" if count > max_events
                            else f"{total} bytes in {window} ms exceeds {max_bytes}"
                        )
                        first = (f"a<->b: {excess}", (times[i][2],))
            assert got is (Status.VIOLATED if bad else Status.FULFILLED)
            assert [(f.message, f.seq_refs) for f in verdict.findings] == ([first] if bad else [])


class TestSecurityStrength:
    def _ctx(self, **kw):
        return ContextSpec(
            crypto_policy=CryptoPolicy(
                approved_suites=frozenset({"GOOD"}),
                min_key_bits=128,
                min_protocol_versions={"MQTT": "3.1"},
            ),
            password_policy=PasswordPolicy(min_length=8),
            expected_communications=(comm("a", "b", "SFTP"), comm("a", "b", "*")),
            **kw,
        )

    def test_short_key_violates(self):
        got = by_id(detect_security_strength([ev(key_bits=64)], self._ctx()))
        assert got["weak_encryption"].status is Status.VIOLATED

    def test_key_boundary(self):
        ctx = self._ctx()
        assert by_id(detect_security_strength([ev(key_bits=128)], ctx))["weak_encryption"].status is Status.FULFILLED
        assert by_id(detect_security_strength([ev(key_bits=127)], ctx))["weak_encryption"].status is Status.VIOLATED

    def test_version_below_minimum(self):
        ctx = self._ctx()
        assert by_id(detect_security_strength([ev(protocol="MQTT", protocol_version="3.0")], ctx))[
            "weak_encryption"].status is Status.VIOLATED
        assert by_id(detect_security_strength([ev(protocol="MQTT", protocol_version="3.1")], ctx))[
            "weak_encryption"].status is Status.FULFILLED

    def test_unapproved_suite(self):
        got = by_id(detect_security_strength([ev(cipher_suite="EXPORT_RC4")], self._ctx()))
        assert got["weak_encryption"].status is Status.VIOLATED

    def test_incomparable_version_strings_never_violate(self):
        got = by_id(detect_security_strength([ev(protocol="MQTT", protocol_version="v5beta")], self._ctx()))
        assert got["weak_encryption"].status is Status.FULFILLED

    def test_non_decimal_digit_in_version_is_incomparable(self):
        # "²" is a digit to str.isdigit but not a number to int()
        got = by_id(detect_security_strength([ev(protocol="MQTT", protocol_version="3.²")], self._ctx()))
        assert got["weak_encryption"].status is Status.FULFILLED

    def test_ftp_where_sftp_expected(self):
        got = by_id(detect_security_strength([ev(src="a", dst="b", protocol="FTP")], self._ctx()))
        assert got["insecure_protocol"].status is Status.VIOLATED

    def test_wildcard_entry_does_not_demand_secure_variant(self):
        ctx = ContextSpec(
            expected_communications=(comm("a", "b", "*"),),
            crypto_policy=CryptoPolicy(),
            password_policy=PasswordPolicy(),
        )
        got = by_id(detect_security_strength([ev(src="a", dst="b", protocol="FTP")], ctx))
        assert got["insecure_protocol"].status is Status.FULFILLED

    def test_password_below_minimum_with_inference_finding(self):
        events = [
            ev(seq=0, cleartext_password="abcdef", tls_present=True),
            ev(seq=1, cleartext_password="abcdefghijkl", tls_present=True),
        ]
        got = by_id(detect_security_strength(events, self._ctx()))["password_policy"]
        assert got.status is Status.VIOLATED
        assert any(f.severity is Severity.VIOLATION for f in got.findings)
        assert any(f.severity is Severity.INFO and "unequal" in f.message for f in got.findings)

    def test_unequal_lengths_alone_only_informational(self):
        events = [
            ev(seq=0, cleartext_password="abcdefgh", tls_present=True),
            ev(seq=1, cleartext_password="abcdefghijkl", tls_present=True),
        ]
        got = by_id(detect_security_strength(events, self._ctx()))["password_policy"]
        assert got.status is Status.FULFILLED
        assert any(f.severity is Severity.INFO for f in got.findings)

    def test_missing_policies_indeterminate(self):
        got = by_id(detect_security_strength([ev()], ContextSpec()))
        assert got["weak_encryption"].status is Status.INDETERMINATE
        assert got["password_policy"].status is Status.INDETERMINATE
        assert got["insecure_protocol"].status is Status.INDETERMINATE


class TestCleartextAuthenticators:
    def test_cleartext_without_tls_violates(self):
        got = detect_cleartext_authenticators([ev(cleartext_password="pw", tls_present=False)], ContextSpec())
        assert got[0].status is Status.VIOLATED

    def test_cleartext_with_unknown_tls_violates(self):
        # a password readable off the wire is positive evidence by itself
        got = detect_cleartext_authenticators([ev(cleartext_password="pw")], ContextSpec())
        assert got[0].status is Status.VIOLATED

    def test_obscured_auth_fulfilled(self):
        got = detect_cleartext_authenticators([ev(auth_result="Success", tls_present=True)], ContextSpec())
        assert got[0].status is Status.FULFILLED

    def test_no_auth_evidence_indeterminate(self):
        got = detect_cleartext_authenticators([ev()], ContextSpec())
        assert got[0].status is Status.INDETERMINATE


class TestAuthAttempts:
    def _ctx(self, limit=3):
        return ContextSpec(max_failed_attempts=limit)

    def test_run_of_five_violates(self):
        events = [ev(seq=i, t=i, auth_result="Failure") for i in range(5)]
        got = detect_auth_attempts(events, self._ctx())
        assert got[0].status is Status.VIOLATED

    def test_boundary_not_exceeded(self):
        events = [ev(seq=i, t=i, auth_result="Failure") for i in range(3)]
        events.append(ev(seq=3, t=3, auth_result="Success"))
        got = detect_auth_attempts(events, self._ctx())
        assert got[0].status is Status.FULFILLED

    def test_unconfigured_indeterminate(self):
        got = detect_auth_attempts([ev(auth_result="Failure")], ContextSpec())
        assert got[0].status is Status.INDETERMINATE

    def test_matches_run_length_oracle(self):
        rng = random.Random(7)
        for trial in range(30):
            limit = rng.randint(0, 4)
            outcomes = [rng.choice(["Failure", "Success", None]) for _ in range(40)]
            events = [ev(seq=i, t=i, auth_result=o) for i, o in enumerate(outcomes)]
            got = detect_auth_attempts(events, self._ctx(limit))[0].status

            longest = current = 0
            for o in outcomes:
                if o == "Failure":
                    current += 1
                    longest = max(longest, current)
                elif o == "Success":
                    current = 0
            assert got is (Status.VIOLATED if longest > limit else Status.FULFILLED)


class TestSessionViolations:
    def _ctx(self, max_ms=3_600_000):
        return ContextSpec(session_max_ms=max_ms)

    def test_overlong_session_violates(self):
        events = [ev(seq=i, t=i * 3_600_000) for i in range(3)]  # 0 .. 7,200,000
        sessions = assemble_sessions(events, gap_ms=4_000_000)
        got = by_id(detect_session_violations(sessions, self._ctx()))
        assert got["session_termination"].status is Status.VIOLATED

    def test_duration_boundary(self):
        ctx = self._ctx(max_ms=1000)
        events = [ev(seq=0, t=0), ev(seq=1, t=1000)]
        sessions = assemble_sessions(events, gap_ms=10_000)
        assert by_id(detect_session_violations(sessions, ctx))["session_termination"].status is Status.FULFILLED
        events = [ev(seq=0, t=0), ev(seq=1, t=1001)]
        sessions = assemble_sessions(events, gap_ms=10_000)
        assert by_id(detect_session_violations(sessions, ctx))["session_termination"].status is Status.VIOLATED

    def test_shared_id_across_pairs_violates(self):
        events = [
            ev(seq=0, t=0, src="a", dst="b", session_id="S1"),
            ev(seq=1, t=10, src="c", dst="d", session_id="S1"),
        ]
        sessions = assemble_sessions(events)
        got = by_id(detect_session_violations(sessions, self._ctx()))
        assert got["session_id_integrity"].status is Status.VIOLATED

    def test_short_unique_sessions_fulfilled(self):
        events = [
            ev(seq=0, t=0, src="a", dst="b", session_id="S1"),
            ev(seq=1, t=10, src="c", dst="d", session_id="S2"),
        ]
        sessions = assemble_sessions(events)
        got = by_id(detect_session_violations(sessions, self._ctx()))
        assert got["session_termination"].status is Status.FULFILLED
        assert got["session_id_integrity"].status is Status.FULFILLED

    def test_revived_id_after_gap_violates(self):
        ctx = self._ctx(max_ms=1000)
        events = [
            ev(seq=0, t=0, session_id="S1"),
            ev(seq=1, t=5000, session_id="S1"),
        ]
        sessions = assemble_sessions(events, gap_ms=100)
        got = by_id(detect_session_violations(sessions, ctx))
        assert got["session_id_integrity"].status is Status.VIOLATED

    def test_shared_id_cites_first_uses_in_timestamp_pair_seq_order(self):
        # both first uses at t=100: the pair breaks the tie, so the later seq is cited first
        events = [
            ev(seq=0, t=100, src="c", dst="b", session_id="S1"),
            ev(seq=1, t=100, src="a", dst="b", session_id="S1"),
            ev(seq=2, t=50, src="e", dst="f", session_id="S2"),
            ev(seq=3, t=50, src="e", dst="f", session_id="S2"),
        ]
        finding, = by_id(detect_session_violations(assemble_sessions(events), self._ctx()))["session_id_integrity"].findings
        assert finding.message == "session id 'S1' used by disjoint participant pairs [('a', 'b'), ('b', 'c')]"
        assert finding.seq_refs == (1, 0)

    @pytest.mark.parametrize("later", [1000, 1001])
    def test_reuse_gap_of_the_limit_allowed_and_one_more_refused(self, later):
        # seq 2 and 3 share the later timestamp; the finding cites the lesser seq of the two
        events = [ev(seq=1, t=0, session_id="S1"), ev(seq=3, t=later, session_id="S1"),
                  ev(seq=2, t=later, session_id="S1")]
        verdict = by_id(detect_session_violations(assemble_sessions(events, gap_ms=100), self._ctx(max_ms=1000)))[
            "session_id_integrity"]
        if later == 1000:
            assert verdict.status is Status.FULFILLED
            return
        assert [(f.message, f.seq_refs) for f in verdict.findings] == [
            ("session id 'S1' reused after a 1001 ms gap, over the allowed 1000 ms", (2,))]

    def test_no_sessions_indeterminate(self):
        got = by_id(detect_session_violations([], self._ctx()))
        assert got["session_termination"].status is Status.INDETERMINATE
        assert got["session_id_integrity"].status is Status.INDETERMINATE

    def test_matches_exhaustive_id_pair_cross_check(self):
        rng = random.Random(21)
        for trial in range(25):
            max_ms = 500
            events = []
            for i in range(30):
                events.append(
                    ev(seq=i, t=rng.randint(0, 3000),
                       src=rng.choice(["a", "c"]), dst=rng.choice(["b", "d"]),
                       session_id=rng.choice([None, "S1", "S2"]))
                )
            sessions = assemble_sessions(events, gap_ms=10_000)
            got = by_id(detect_session_violations(sessions, self._ctx(max_ms=max_ms)))[
                "session_id_integrity"].status

            bad = False
            seen: dict[str, list] = {}
            for e in events:
                if e.session_id:
                    seen.setdefault(e.session_id, []).append(e)
            for sid, use in seen.items():
                pairs = {tuple(sorted((e.src_id, e.dst_id))) for e in use}
                if len(pairs) > 1:
                    bad = True
                times = sorted(e.timestamp for e in use)
                if any(b - a > max_ms for a, b in zip(times, times[1:])):
                    bad = True
            expect = Status.VIOLATED if bad else (Status.FULFILLED if seen else Status.INDETERMINATE)
            assert got is expect


class TestIntegrityAnomalies:
    def _run(self, events):
        sessions = assemble_sessions(events)
        return detect_integrity_anomalies(events, sessions)[0]

    def test_certified_traffic_fulfilled(self):
        assert self._run([ev(cert_present=True, tls_present=True)]).status is Status.FULFILLED

    def test_fragmented_unprotected_violates(self):
        got = self._run([ev(fragmented=True, tls_present=False)])
        assert got.status is Status.VIOLATED

    def test_error_code_unprotected_violates(self):
        got = self._run([ev(error_code="0x42", tls_present=False)])
        assert got.status is Status.VIOLATED

    def test_all_unknown_indeterminate(self):
        assert self._run([ev(), ev(seq=1, t=1)]).status is Status.INDETERMINATE

    def test_anomaly_with_unknown_flags_never_violates(self):
        assert self._run([ev(fragmented=True)]).status is Status.INDETERMINATE

    def test_anomaly_on_protected_conduit_not_fulfilled(self):
        got = self._run([ev(error_code="e", tls_present=True)])
        assert got.status is Status.INDETERMINATE

    def test_ipsec_counts_as_protection(self):
        assert self._run([ev(protocol="IPSec")]).status is Status.FULFILLED
        got = self._run([ev(protocol="IPSec", fragmented=True, tls_present=False)])
        assert got.status is Status.INDETERMINATE  # anomaly, but channel protected


class TestIacManagement:
    def test_seven_consecutive_ldap_fulfills(self):
        events = [ev(seq=i, t=i, protocol="LDAP") for i in range(7)]
        assert detect_iac_management(events)[0].status is Status.FULFILLED

    def test_empty_stream_indeterminate(self):
        assert detect_iac_management([])[0].status is Status.INDETERMINATE

    def test_interleaved_short_runs_indeterminate(self):
        protocols = ["LDAP"] * 3 + ["MQTT"] + ["LDAP"] * 5 + ["MQTT"]
        events = [ev(seq=i, t=i, protocol=p) for i, p in enumerate(protocols)]
        assert detect_iac_management(events)[0].status is Status.INDETERMINATE

    def test_other_pairs_do_not_break_runs(self):
        events = []
        for i in range(14):
            if i % 2 == 0:
                events.append(ev(seq=i, t=i, src="a", dst="b", protocol="LDAP"))
            else:
                events.append(ev(seq=i, t=i, src="c", dst="d", protocol="MQTT"))
        assert detect_iac_management(events)[0].status is Status.FULFILLED

    def test_matches_maximal_run_oracle(self):
        rng = random.Random(13)
        for trial in range(40):
            run_len = rng.randint(2, 7)
            events = []
            for i in range(60):
                src, dst = rng.choice([("a", "b"), ("c", "d")])
                events.append(ev(seq=i, t=i, src=src, dst=dst,
                                 protocol=rng.choice(["LDAP", "Kerberos", "MQTT", "HTTP"])))
            got = detect_iac_management(events, run_len=run_len)[0].status

            best = 0
            current: dict[tuple, int] = {}
            for e in events:
                pair = tuple(sorted((e.src_id, e.dst_id)))
                if e.protocol in ("LDAP", "Kerberos", "EAP"):
                    current[pair] = current.get(pair, 0) + 1
                    best = max(best, current[pair])
                else:
                    current[pair] = 0
            assert got is (Status.FULFILLED if best >= run_len else Status.INDETERMINATE)


class TestPki:
    def test_certified_tls_traffic_both_fulfilled(self):
        got = by_id(detect_pki_best_practice([ev(protocol="MQTT", cert_present=True, tls_present=True)], ContextSpec()))
        assert got["pki_present"].status is Status.FULFILLED
        assert got["pki_best_practice"].status is Status.FULFILLED

    def test_cert_without_tls_violates_best_practice(self):
        # per-event predicate scan forces this outcome
        got = by_id(detect_pki_best_practice(
            [ev(protocol="ModbusTCP", cert_present=True, tls_present=False)], ContextSpec()))
        assert got["pki_present"].status is Status.FULFILLED
        assert got["pki_best_practice"].status is Status.VIOLATED

    def test_no_certificates_not_applicable(self):
        got = by_id(detect_pki_best_practice([ev(), ev(seq=1, tls_present=True)], ContextSpec()))
        assert got["pki_present"].status is Status.NOT_APPLICABLE
        assert got["pki_best_practice"].status is Status.NOT_APPLICABLE

    def test_cert_on_non_x509_protocol(self):
        got = by_id(detect_pki_best_practice(
            [ev(protocol="Obscure", cert_present=True, tls_present=True)], ContextSpec()))
        assert got["pki_present"].status is Status.INDETERMINATE
        assert got["pki_best_practice"].status is Status.FULFILLED

    def test_unknown_tls_on_cert_event_indeterminate(self):
        got = by_id(detect_pki_best_practice([ev(protocol="MQTT", cert_present=True)], ContextSpec()))
        assert got["pki_best_practice"].status is Status.INDETERMINATE

    def test_snapshot_transfer_reported_as_info_only(self):
        got = by_id(detect_pki_best_practice([ev(snapshot_transfer=True)], ContextSpec()))
        assert got["pki_present"].status is Status.NOT_APPLICABLE
        info = [f for f in got["pki_present"].findings if "snapshot" in f.message]
        assert info and info[0].severity is Severity.INFO


class TestWireless:
    def test_unlisted_wireless_violates(self):
        ctx = ContextSpec(expected_communications=(comm("x", "y", "Bluetooth"),))
        got = by_id(detect_wireless_iac([ev(src="rogue", dst="y", protocol="Bluetooth")], ctx))
        assert got["wireless_iac"].status is Status.VIOLATED
        assert got["is_wireless_observed"].status is Status.FULFILLED

    def test_no_wireless_not_applicable(self):
        got = by_id(detect_wireless_iac([ev()], ContextSpec()))
        assert got["is_wireless_observed"].status is Status.NOT_APPLICABLE
        assert got["wireless_iac"].status is Status.NOT_APPLICABLE

    def test_expected_zigbee_fulfilled(self):
        ctx = ContextSpec(expected_communications=(comm("x", "y", "Zigbee"),))
        got = by_id(detect_wireless_iac([ev(src="x", dst="y", protocol="Zigbee")], ctx))
        assert got["wireless_iac"].status is Status.FULFILLED


class TestUntrustedAccess:
    def _ctx(self):
        return ContextSpec(
            external_prefixes=("198.51.100.0/24",),
            zone_map={"10.0.0.2": "cell"},
            iac_capable_protocols=frozenset({"MQTT"}),
        )

    def test_external_http_violates(self):
        got = detect_untrusted_access([ev(src="198.51.100.7", protocol="HTTP")], self._ctx())
        assert got[0].status is Status.VIOLATED

    def test_external_over_iac_capable_fulfilled(self):
        got = detect_untrusted_access([ev(src="198.51.100.7", protocol="MQTT", tls_present=True)], self._ctx())
        assert got[0].status is Status.FULFILLED

    def test_internal_only_not_applicable(self):
        got = detect_untrusted_access([ev(src="10.0.0.2", dst="10.0.0.9", protocol="HTTP")], self._ctx())
        assert got[0].status is Status.NOT_APPLICABLE

    def test_unconfigured_indeterminate(self):
        got = detect_untrusted_access([ev()], ContextSpec())
        assert got[0].status is Status.INDETERMINATE

    def test_lower_sl_zone_source_is_untrusted(self):
        ctx = ContextSpec(
            zone_map={"low": "office", "high": "cell"},
            zone_sl_target={"office": 1, "cell": 3},
            iac_capable_protocols=frozenset({"MQTT"}),
        )
        got = detect_untrusted_access([ev(src="low", dst="high", protocol="HTTP")], ctx)
        assert got[0].status is Status.VIOLATED


class TestAuthorizationControls:
    def test_ipsec_evidence_fulfills(self):
        got = by_id(detect_authorization_controls([ev(protocol="IPSec")], ContextSpec()))
        assert got["authorization_enforced"].status is Status.FULFILLED

    def test_access_list_marker_fulfills(self):
        got = by_id(detect_authorization_controls([ev(access_list_transfer=True)], ContextSpec()))
        assert got["authorization_enforced"].status is Status.FULFILLED

    def test_uncertified_mobile_code_violates(self):
        ctx = ContextSpec(mobile_device_identifiers=frozenset({"tab1"}))
        got = by_id(detect_authorization_controls(
            [ev(src="tab1", mobile_code=True, cert_present=False)], ctx))
        assert got["mobile_code_control"].status is Status.VIOLATED

    def test_certified_mobile_code_fulfilled(self):
        ctx = ContextSpec(mobile_device_identifiers=frozenset({"tab1"}))
        got = by_id(detect_authorization_controls(
            [ev(src="tab1", mobile_code=True, cert_present=True)], ctx))
        assert got["mobile_code_control"].status is Status.FULFILLED

    def test_no_evidence_degrades(self):
        got = by_id(detect_authorization_controls([ev()], ContextSpec()))
        assert got["authorization_enforced"].status is Status.INDETERMINATE
        assert got["mobile_code_control"].status is Status.NOT_APPLICABLE


class TestSegmentation:
    def _ctx(self, **overrides):
        data = {
            "zone_map": {"a": "cell", "b": "cell", "c": "ctrl", "alice": "eng", "bob": "eng"},
            "zone_sl_target": {"cell": 2, "ctrl": 2, "eng": 3},
            "control_zones": ["ctrl"],
            "human_identifiers": ["alice", "bob"],
            "expected_communications": [{"src": "a", "dst": "c", "protocol": "MQTT"}],
        }
        data.update(overrides)
        return context_from_dict(data)

    def test_p2p_between_humans_in_sl3_zone_violates(self):
        got = by_id(detect_segmentation([ev(src="alice", dst="bob", protocol="HTTP",
                                            scheme_src=IdScheme.USERNAME, scheme_dst=IdScheme.USERNAME)],
                                        self._ctx()))
        assert got["p2p_restriction"].status is Status.VIOLATED

    def test_unsanctioned_cross_zone_violates_boundary(self):
        got = by_id(detect_segmentation([ev(src="b", dst="c", protocol="MQTT")], self._ctx()))
        assert got["boundary_default_deny"].status is Status.VIOLATED
        assert got["logical_segmentation"].status is Status.VIOLATED

    def test_single_zone_traffic(self):
        got = by_id(detect_segmentation([ev(src="a", dst="b", protocol="MQTT")], self._ctx()))
        assert got["logical_segmentation"].status is Status.FULFILLED
        assert got["boundary_default_deny"].status is Status.NOT_APPLICABLE
        assert got["data_partitioning"].status is Status.FULFILLED
        assert got["p2p_restriction"].status is Status.FULFILLED

    def test_sanctioned_conduit_fulfills(self):
        got = by_id(detect_segmentation([ev(src="a", dst="c", protocol="MQTT")], self._ctx()))
        assert got["logical_segmentation"].status is Status.FULFILLED
        assert got["boundary_default_deny"].status is Status.FULFILLED

    def test_mandatory_management_conduit_infers_dependence(self):
        ctx = self._ctx(expected_communications=[
            {"src": "c", "dst": "a", "protocol": "ICMP", "mandatory": True}])
        got = by_id(detect_segmentation([ev(src="c", dst="a", protocol="ICMP")], ctx))
        assert got["non_control_independence"].status is Status.VIOLATED

    def test_file_transfer_across_zones_violates_partitioning(self):
        ctx = self._ctx(expected_communications=[{"src": "a", "dst": "c", "protocol": "SFTP"}])
        got = by_id(detect_segmentation([ev(src="a", dst="c", protocol="SFTP")], ctx))
        assert got["data_partitioning"].status is Status.VIOLATED
        assert got["logical_segmentation"].status is Status.FULFILLED

    def test_no_zone_map_indeterminate(self):
        got = by_id(detect_segmentation([ev()], ContextSpec()))
        assert all(v.status is Status.INDETERMINATE for v in got.values())

    def test_p2p_bandwidth_restriction(self):
        ctx = self._ctx(
            zone_sl_target={"cell": 2, "ctrl": 2, "eng": 2},
            p2p_bandwidth_limit_bytes_per_s=1000,
        )
        burst = [
            ev(seq=i, t=i * 10, src="alice", dst="bob", protocol="HTTP", bytes=300,
               scheme_src=IdScheme.USERNAME, scheme_dst=IdScheme.USERNAME)
            for i in range(5)
        ]
        got = by_id(detect_segmentation(burst, ctx))
        assert got["p2p_restriction"].status is Status.VIOLATED
        (finding,) = got["p2p_restriction"].findings
        assert finding.message == "alice<->bob: 1500 bytes in 1000 ms exceeds 1000 (person-to-person bandwidth restriction)"
        assert finding.seq_refs == (0,)

    def test_p2p_low_sl_without_limit_indeterminate(self):
        ctx = self._ctx(zone_sl_target={"cell": 2, "ctrl": 2, "eng": 2})
        got = by_id(detect_segmentation([ev(src="alice", dst="bob", protocol="HTTP",
                                            scheme_src=IdScheme.USERNAME, scheme_dst=IdScheme.USERNAME)], ctx))
        assert got["p2p_restriction"].status is Status.INDETERMINATE


class TestClassificationPerCall:
    """The zone/identity detectors classify each distinct (identifier, scheme)
    once per call, however many events carry it."""

    def test_one_classification_per_identifier_and_scheme(self, monkeypatch):
        calls = []
        classify_entity = detectors.classify_entity

        def counting(identifier, scheme, ctx):
            calls.append((identifier, scheme))
            return classify_entity(identifier, scheme, ctx)

        monkeypatch.setattr(detectors, "classify_entity", counting)
        ctx = ContextSpec(
            external_prefixes=("198.51.100.0/24",),
            zone_map={"alice": "eng", "bob": "eng", "10.0.0.2": "cell"},
            zone_sl_target={"eng": 3, "cell": 2},
            human_identifiers=frozenset({"alice", "bob"}),
        )
        ids = ["alice", "bob", "10.0.0.2", "198.51.100.7", "8.8.8.8"]
        rng = random.Random(5)
        events = [
            ev(seq=i, src=rng.choice(ids), dst=rng.choice(ids), protocol="HTTP",
               scheme_src=rng.choice((IdScheme.IP, IdScheme.USERNAME)),
               scheme_dst=rng.choice((IdScheme.IP, IdScheme.USERNAME)))
            for i in range(500)
        ]
        # Person-to-person traffic below SL 3 and no bandwidth limit: no offender.
        quiet_ctx = ContextSpec(zone_map={"alice": "eng", "bob": "eng"}, zone_sl_target={"eng": 2})
        quiet = [
            ev(seq=i, src="alice", dst="bob", protocol="HTTP", scheme_src=IdScheme.USERNAME, scheme_dst=IdScheme.USERNAME)
            for i in range(3)
        ]
        for ctx, events in ((ctx, events), (quiet_ctx, quiet)):
            for detect in (detect_untrusted_access, detect_segmentation):
                calls.clear()
                detect(events, ctx)
                assert calls
                assert len(calls) == len(set(calls)), detect.__name__

    def test_scheme_keeps_classifications_apart(self):
        # "alice" and "bob" are human only under the Username scheme.
        ctx = ContextSpec(zone_map={"alice": "eng", "bob": "eng"}, zone_sl_target={"eng": 3})
        events = [
            ev(seq=seq, src="alice", dst="bob", protocol="HTTP", scheme_src=scheme, scheme_dst=scheme)
            for seq, scheme in enumerate((IdScheme.USERNAME, IdScheme.IP, IdScheme.USERNAME))
        ]
        got = by_id(detect_segmentation(events, ctx))["p2p_restriction"]
        assert got.status is Status.VIOLATED
        assert [f.seq_refs for f in got.findings] == [(0,), (2,)]


class TestLeastFunctionality:
    def test_off_list_protocol_violates(self):
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT", "OPCUA"}))
        got = detect_least_functionality([ev(protocol="Telnet")], ctx)
        assert got[0].status is Status.VIOLATED

    def test_within_expectation_fulfilled(self):
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT"}), expected_ports=frozenset({8883}))
        got = detect_least_functionality([ev(protocol="MQTT", port=8883)], ctx)
        assert got[0].status is Status.FULFILLED

    def test_unexpected_port_violates(self):
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT"}), expected_ports=frozenset({8883}))
        got = detect_least_functionality([ev(protocol="MQTT", port=31337)], ctx)
        assert got[0].status is Status.VIOLATED

    def test_matches_membership_oracle(self):
        rng = random.Random(3)
        protocols = ["MQTT", "OPCUA", "FTP", "HTTP"]
        for trial in range(25):
            expected = frozenset(rng.sample(protocols, 2))
            ports = frozenset(rng.sample([1, 2, 3, 4, 5], 3))
            ctx = ContextSpec(expected_protocols=expected, expected_ports=ports)
            events = [
                ev(seq=i, t=i, protocol=rng.choice(protocols), port=rng.choice([None, 1, 2, 3, 4, 5]))
                for i in range(40)
            ]
            got = detect_least_functionality(events, ctx)[0].status
            bad = any(
                e.protocol not in expected or (e.port is not None and e.port not in ports)
                for e in events
            )
            assert got is (Status.VIOLATED if bad else Status.FULFILLED)


class TestAuditMonitoring:
    def test_timestamped_audit_fulfills_both(self):
        got = by_id(detect_audit_and_monitoring([ev(audit_record=True, record_timestamp=True)]))
        assert got["audit_log_exists"].status is Status.FULFILLED
        assert got["audit_timestamped"].status is Status.FULFILLED

    def test_audit_without_timestamp_violates(self):
        got = by_id(detect_audit_and_monitoring([ev(audit_record=True)]))
        assert got["audit_timestamped"].status is Status.VIOLATED

    def test_no_audit_evidence_indeterminate(self):
        got = by_id(detect_audit_and_monitoring([ev()]))
        assert got["audit_log_exists"].status is Status.INDETERMINATE
        assert got["audit_timestamped"].status is Status.INDETERMINATE
        assert got["continuous_monitoring"].status is Status.INDETERMINATE

    def test_heartbeat_fulfills_monitoring(self):
        got = by_id(detect_audit_and_monitoring([ev(ids_heartbeat=True)]))
        assert got["continuous_monitoring"].status is Status.FULFILLED


class TestNeeds:
    def test_zero_limit_and_default_policies_are_configured(self):
        ctx = context_from_dict({"max_failed_attempts": 0, "crypto_policy": {}, "password_policy": {}})
        bad = [ev(auth_result="Failure", key_bits=64, cleartext_password="short")]
        good = [ev(auth_result="Success", key_bits=256, cleartext_password="long enough")]
        for events, status in ((bad, Status.VIOLATED), (good, Status.FULFILLED)):
            got = by_id([*detect_auth_attempts(events, ctx), *detect_security_strength(events, ctx)])
            for attribute_id in ("login_attempt_limit", "weak_encryption", "password_policy"):
                assert got[attribute_id].status is status, attribute_id


class TestSuite:
    def test_exhaustive_verdicts(self):
        events = [ev(seq=i, t=i * 10) for i in range(5)]
        sessions = assemble_sessions(events)
        verdicts = run_detectors(events, sessions, ContextSpec())
        assert set(verdicts) == set(REGISTRY)
        for attribute_id, verdict in verdicts.items():
            assert verdict.attribute_id == attribute_id
            assert verdict.kind is REGISTRY[attribute_id].kind
            assert verdict.status in Status

    def test_violated_always_carries_event_refs(self):
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT"}))
        events = [ev(seq=0, protocol="Telnet")]
        verdicts = run_detectors(events, assemble_sessions(events), ctx)
        for verdict in verdicts.values():
            if verdict.status is Status.VIOLATED:
                assert verdict.findings
                assert any(f.seq_refs for f in verdict.findings)

    @pytest.mark.parametrize(
        "mix",
        [(), *[(attribute_id,) for attribute_id in sorted(INJECTIONS)], tuple(sorted(INJECTIONS))],
        ids=["baseline", *sorted(INJECTIONS), "all"],
    )
    def test_registry_labels_every_finding(self, catalog, mix):
        scenario = default_scenario(injections=tuple(Injection(attribute_id=a) for a in mix))
        events, _ = generate_scenario(scenario, catalog)
        verdicts = run_detectors(events, assemble_sessions(events), scenario.spec)
        for attribute_id, verdict in verdicts.items():
            info = REGISTRY[attribute_id]
            assert all(f.detector == info.detector for f in verdict.findings)
            assert info.violation_capable or verdict.status is not Status.VIOLATED

    def test_detectors_pure(self):
        events = [ev(seq=i, t=i, protocol="Telnet") for i in range(4)]
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT"}))
        sessions = assemble_sessions(events)
        assert run_detectors(events, sessions, ctx) == run_detectors(events, sessions, ctx)


# --------------------------------------------------------------------------
# Conduit grouping against a per-event reference
# --------------------------------------------------------------------------

IDS = ["10.0.0.1", "10.0.0.2", "10.0.1.5", "198.51.100.7", "8.8.8.8", "alice", "bob", "proc1", "plc"]
PROTOCOLS = ["MQTT", "OPCUA", "FTP", "SFTP", "HTTP", "HTTPS", "Telnet", "SSH", "ICMP", "SNMP", "Bluetooth", "Zigbee"]
PORTS = [None, 21, 22, 80, 8883]
ZONES = ["ctrl", "cell", "dmz"]
# the schemes detectors tell apart, and one they do not
SCHEMES = [IdScheme.IP, IdScheme.USERNAME, IdScheme.PROCESS_ID, IdScheme.OTHER]

#: Attributes whose offenders depend only on the conduit an event travels.
CONDUIT_ATTRIBUTES = (
    "unknown_protocol",
    "unknown_communication",
    "unknown_software_process",
    "insecure_protocol",
    "is_wireless_observed",
    "wireless_iac",
    "untrusted_access_control",
    "logical_segmentation",
    "non_control_independence",
    "boundary_default_deny",
    "p2p_restriction",
    "data_partitioning",
    "least_functionality",
)


def reference_findings(events, ctx):
    """Every conduit-answered attribute's findings as ``(message, seq_refs)``,
    judged event by event in one plain pass; an attribute whose needed
    context is unconfigured has none."""
    found = {attribute_id: [] for attribute_id in CONDUIT_ATTRIBUTES}

    def add(attribute_id, message, *seqs):
        found[attribute_id].append((message, seqs))

    def zone_sl(*classes):
        return max((ctx.zone_sl_target[c.zone] for c in classes if c.zone in ctx.zone_sl_target), default=0)

    low_sl = {}
    for e in events:
        listed = ctx.matches_communication(e.src_id, e.dst_id, e.protocol)
        if e.protocol not in ctx.expected_protocols:
            add("unknown_protocol", f"protocol {e.protocol!r} not in the expected protocol set", e.seq)
            add("least_functionality", f"unexpected protocol {e.protocol!r} in use", e.seq)
        elif e.port is not None and ctx.expected_ports and e.port not in ctx.expected_ports:
            add("least_functionality", f"unexpected port {e.port} for {e.protocol}", e.seq)
        if not listed:
            add("unknown_communication", f"communication ({e.src_id} -> {e.dst_id}, {e.protocol}) not whitelisted", e.seq)
        for scheme, device, peer in ((e.id_scheme_src, e.src_id, e.dst_id), (e.id_scheme_dst, e.dst_id, e.src_id)):
            if scheme is IdScheme.PROCESS_ID and (device, peer) not in ctx.known_software_processes:
                add("unknown_software_process", f"software process {device!r} unknown for device {peer!r}", e.seq)
        counterpart = detectors.SECURE_COUNTERPARTS.get(e.protocol)
        if counterpart and ctx.demands_protocol(e.src_id, e.dst_id, counterpart):
            add("insecure_protocol", f"{e.protocol} used on a conduit expecting {counterpart} ({e.src_id} -> {e.dst_id})",
                e.seq)
        if e.protocol in ctx.wireless_protocols:
            if not found["is_wireless_observed"]:
                add("is_wireless_observed", f"wireless protocol {e.protocol} observed", e.seq)
            if not listed:
                add("wireless_iac",
                    f"wireless communication ({e.src_id} -> {e.dst_id}, {e.protocol}) not in the expected list", e.seq)

        src = classify_entity(e.src_id, e.id_scheme_src, ctx)
        dst = classify_entity(e.dst_id, e.id_scheme_dst, ctx)
        lower_sl = (
            None not in (src.zone, dst.zone)
            and None not in (ctx.zone_sl_target.get(src.zone), ctx.zone_sl_target.get(dst.zone))
            and ctx.zone_sl_target[src.zone] < ctx.zone_sl_target[dst.zone]
        )
        untrusted = src.is_external is True or (src.zone is not None and (lower_sl or src.zone_trusted is False))
        if untrusted and e.protocol not in ctx.iac_capable_protocols:
            add("untrusted_access_control",
                f"untrusted origin {e.src_id} over {e.protocol}, which offers no identification/authentication", e.seq)

        src_zone, dst_zone = ctx.zone_map.get(e.src_id), ctx.zone_map.get(e.dst_id)
        if src_zone is not None and dst_zone is not None and src_zone != dst_zone:
            if not listed:
                message = (f"cross-zone traffic {e.src_id} ({src_zone}) -> {e.dst_id} ({dst_zone}) over "
                           f"{e.protocol} outside the configured conduits")
                add("logical_segmentation", message, e.seq)
                add("boundary_default_deny", message + "; boundary whitelisting not enforced", e.seq)
            if (e.protocol in ctx.management_protocols and src_zone in ctx.control_zones
                    and dst_zone not in ctx.control_zones and ctx.mandatory_communication(e.src_id, e.dst_id, e.protocol)):
                add("non_control_independence",
                    f"process-mandatory {e.protocol} from control zone {src_zone} to {dst_zone} "
                    "infers dependence of the non-control network", e.seq)
            if e.protocol in detectors.FILE_TRANSFER_PROTOCOLS:
                add("data_partitioning", f"file transfer over {e.protocol} crosses zone boundary {src_zone} -> {dst_zone}",
                    e.seq)

        if e.protocol in ctx.p2p_protocols and src.is_human is True and dst.is_human is True:
            if zone_sl(src, dst) >= 3:
                add("p2p_restriction", f"person-to-person {e.protocol} between {e.src_id} and {e.dst_id} "
                    f"in a zone with SL target {zone_sl(src, dst)} (forbidden at SL 3+)", e.seq)
            else:
                low_sl.setdefault(e.pair(), []).append((e.timestamp, e.bytes, e.seq))

    limit = ctx.p2p_bandwidth_limit_bytes_per_s
    if limit is not None:
        window = RateLimit(window_ms=1000, max_bytes_per_window=limit)
        for pair in sorted(low_sl):
            finding = detectors._window_violations(sorted(low_sl[pair]), window, "p2p_restriction", pair)
            if finding is not None:
                add("p2p_restriction", finding.message + " (person-to-person bandwidth restriction)", *finding.seq_refs)

    for attribute_id in CONDUIT_ATTRIBUTES:
        if not all(detectors._configured(ctx, need) for need in REGISTRY[attribute_id].needs):
            found[attribute_id] = []
    return found


@st.composite
def conduit_streams(draw):
    """Streams over up to a dozen conduits, each carrying several events,
    with repeated and non-monotone ``seq``s. The conduits draw on a few values
    per field, and some copy another with one field changed, so a grouping
    key that missed that field would merge them."""

    def few(values):
        return st.sampled_from(draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True)))

    ids, schemes = few(IDS), few(SCHEMES)
    conduits = draw(st.lists(st.tuples(ids, ids, few(PROTOCOLS), schemes, schemes, few(PORTS)), min_size=1, max_size=6))
    pools = (IDS, IDS, PROTOCOLS, SCHEMES, SCHEMES, PORTS)
    for _ in range(draw(st.integers(0, 6))):
        variant = list(draw(st.sampled_from(conduits)))
        field = draw(st.integers(0, len(pools) - 1))
        variant[field] = draw(st.sampled_from(pools[field]))
        conduits.append(tuple(variant))
    stream = draw(st.lists(st.sampled_from(conduits), min_size=1, max_size=60))
    return [
        EvidenceEvent(
            seq=draw(st.integers(0, 15)), timestamp=draw(st.integers(0, 4000)), src_id=src, dst_id=dst,
            protocol=protocol, id_scheme_src=scheme_src, id_scheme_dst=scheme_dst, port=port,
            bytes=draw(st.integers(0, 3000)),
        )
        for src, dst, protocol, scheme_src, scheme_dst, port in stream
    ]


def _entries_for(e):
    """Whitelist entries that match, or demand the secured variant on, ``e``'s conduit."""
    protocol = st.sampled_from([e.protocol, "*", detectors.SECURE_COUNTERPARTS.get(e.protocol, e.protocol)])
    return st.builds(CommEntry, st.sampled_from([e.src_id, "*"]), st.sampled_from([e.dst_id, "*"]), protocol, st.booleans())


@st.composite
def sparse_contexts(draw, events):
    """Random contexts over the stream's identifiers, some sections dropped;
    the whitelist mixes random entries with entries for observed conduits."""
    observed = st.sampled_from(events)
    ids, protocols = st.sampled_from(IDS), st.sampled_from(PROTOCOLS) | observed.map(lambda e: e.protocol)
    pairs = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)) | observed.map(lambda e: (e.src_id, e.dst_id))
    zones = st.sampled_from(ZONES)
    random_entry = st.builds(
        CommEntry, st.sampled_from([*IDS, "*"]), st.sampled_from([*IDS, "*"]), st.sampled_from([*PROTOCOLS, "*"]),
        st.booleans(),
    )
    # an empty section is a dropped one, which leaves it at its default
    sections = {
        "expected_protocols": st.frozensets(protocols, min_size=1),
        "expected_communications": st.lists(
            random_entry | observed.flatmap(_entries_for), min_size=1, max_size=8
        ).map(tuple),
        "expected_ports": st.frozensets(st.sampled_from([p for p in PORTS if p is not None]), min_size=1),
        "known_software_processes": st.frozensets(pairs | pairs.map(lambda pair: pair[::-1]), min_size=1, max_size=6),
        "human_identifiers": st.frozensets(ids, min_size=1, max_size=3),
        "zone_map": st.lists(st.sampled_from([None, *ZONES]), min_size=len(IDS), max_size=len(IDS))
        .map(lambda picked: {identifier: zone for identifier, zone in zip(IDS, picked) if zone}),
        "zone_sl_target": st.dictionaries(zones, st.integers(1, 4), min_size=1),
        "trusted_zones": st.frozensets(zones, min_size=1),
        "control_zones": st.frozensets(zones, min_size=1),
        "external_prefixes": st.sampled_from([("198.51.100.0/24",), ("10.0.1.0/24", "198.51.100.0/25")]),
        "p2p_bandwidth_limit_bytes_per_s": st.integers(0, 4000),
    }
    dropped = draw(st.sets(st.sampled_from(sorted(sections))))
    return ContextSpec(**{name: draw(strategy) for name, strategy in sections.items() if name not in dropped})


class TestConduitGrouping:
    """Conduit questions are asked once per shape, which refines the conduit,
    but the findings equal a per-event judgement's: the same messages citing
    the same events in stream order."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_findings_match_per_event_reference(self, data):
        events = data.draw(conduit_streams())
        ctx = data.draw(sparse_contexts(events))
        expected = reference_findings(events, ctx)
        grouped = run_detectors(events, assemble_sessions(events), ctx)
        alone = by_id([
            *detect_unknown_factors(events, ctx), *detect_security_strength(events, ctx),
            *detect_wireless_iac(events, ctx), *detect_untrusted_access(events, ctx),
            *detect_segmentation(events, ctx), *detect_least_functionality(events, ctx),
        ])
        for attribute_id in CONDUIT_ATTRIBUTES:
            got = [(f.message, f.seq_refs) for f in grouped[attribute_id].findings]
            assert got == expected[attribute_id], attribute_id
            assert alone[attribute_id] == grouped[attribute_id], attribute_id

    def test_rare_paths_match_per_event_reference(self):
        # conduits the random contexts seldom reach: mandatory management traffic
        # out of a control zone, and person-to-person traffic at SL 3 and below
        ctx = ContextSpec(
            expected_communications=(comm("10.0.0.1", "10.0.0.2", "ICMP", mandatory=True),),
            zone_map={"10.0.0.1": "ctrl", "10.0.0.2": "cell", "alice": "dmz", "bob": "dmz", "carol": "cell"},
            zone_sl_target={"dmz": 3, "cell": 2},
            control_zones=frozenset({"ctrl"}),
            p2p_bandwidth_limit_bytes_per_s=1000,
        )
        human = {"scheme_src": IdScheme.USERNAME, "scheme_dst": IdScheme.USERNAME, "protocol": "HTTP"}
        shapes = [
            {"src": "10.0.0.1", "dst": "10.0.0.2", "protocol": "ICMP"},
            {"src": "alice", "dst": "bob", **human},
            {"src": "carol", "dst": "carol", **human},
            {"src": "10.0.0.2", "dst": "10.0.0.1", "protocol": "FTP"},
        ]
        rng = random.Random(7)
        events = [
            ev(seq=rng.randrange(20), t=rng.randrange(3000), bytes=rng.randrange(800), **rng.choice(shapes))
            for _ in range(80)
        ]
        expected = reference_findings(events, ctx)
        for attribute_id in ("non_control_independence", "p2p_restriction", "logical_segmentation", "data_partitioning"):
            assert expected[attribute_id], attribute_id
        assert any("bandwidth" in message for message, _ in expected["p2p_restriction"])
        grouped = run_detectors(events, assemble_sessions(events), ctx)
        for attribute_id in CONDUIT_ATTRIBUTES:
            assert [(f.message, f.seq_refs) for f in grouped[attribute_id].findings] == expected[attribute_id], attribute_id

    @pytest.mark.parametrize("variant", [
        {"src": "bob"}, {"dst": "bob"}, {"protocol": "Telnet"}, {"port": 21},
        {"scheme_src": IdScheme.PROCESS_ID}, {"scheme_dst": IdScheme.PROCESS_ID},
    ], ids=["src_id", "dst_id", "protocol", "port", "id_scheme_src", "id_scheme_dst"])
    def test_conduits_one_field_apart_judged_apart(self, variant):
        # a grouping key without that field would judge the variant by the base's first event
        ctx = ContextSpec(
            expected_protocols=frozenset({"MQTT"}),
            expected_ports=frozenset({8883}),
            expected_communications=(comm("proc1", "plc", "MQTT"),),
            known_software_processes=frozenset({("proc9", "plc")}),
        )
        base = {"src": "proc1", "dst": "plc", "protocol": "MQTT", "port": 8883}
        events = [ev(seq=seq, **{**base, **(variant if seq % 2 else {})}) for seq in range(4)]
        expected = reference_findings(events, ctx)
        assert any(expected.values())
        grouped = run_detectors(events, assemble_sessions(events), ctx)
        for attribute_id in CONDUIT_ATTRIBUTES:
            assert [(f.message, f.seq_refs) for f in grouped[attribute_id].findings] == expected[attribute_id], attribute_id

    def test_decreasing_seqs_cited_in_stream_order(self):
        # two interleaved conduits whose seqs fall: a merge by seq would give 2, 3, 4, 5
        ctx = ContextSpec(expected_protocols=frozenset({"MQTT"}))
        events = [ev(seq=seq, src=src, protocol="Telnet") for seq, src in zip((5, 4, 3, 2), ("a", "b", "a", "b"))]
        assert len(group_shapes(events)) == 2
        got = by_id(detect_unknown_factors(events, ctx))["unknown_protocol"]
        assert [f.seq_refs for f in got.findings] == [(5,), (4,), (3,), (2,)]

    def test_run_detectors_groups_once(self, monkeypatch, catalog, tmp_path):
        """``otcms evaluate`` takes the grouping its parse built and never calls
        ``group_shapes``; ``run_evaluation`` calls it once, for sessions and
        detectors alike."""
        scenario = default_scenario(injections=tuple(Injection(attribute_id=a) for a in sorted(INJECTIONS)))
        save_scenario_outputs(scenario, tmp_path, catalog=catalog, emit_context=True)

        def refused(events):
            raise AssertionError("the stream was grouped again")

        for module in (evidence, detectors, engine):
            monkeypatch.setattr(module, "group_shapes", refused)
        argv = ["evaluate", "--evidence", str(tmp_path / "evidence.jsonl"), "--context", str(tmp_path / "context.json"),
                "--out", str(tmp_path / "report.json"), "--generated-at", "0"]
        assert cli.main(argv) == 1
        assert parse_report((tmp_path / "report.json").read_text(encoding="utf-8")).noncompliant_sr_ids()

        calls = []

        def counting(events):
            calls.append(len(events))
            return group_shapes(events)

        for module in (evidence, detectors, engine):
            monkeypatch.setattr(module, "group_shapes", counting)
        events, _ = generate_scenario(scenario, catalog)
        run_evaluation(catalog, scenario.spec, events)
        assert calls == [len(events)]


# --------------------------------------------------------------------------
# Shape grouping against every event as its own shape
# --------------------------------------------------------------------------

#: A few values for each shape field outside the conduit.
SHAPE_VALUES = {
    "protocol_version": [None, "1.0", "1.3", "x"],
    "tls_present": [None, True, False],
    "cert_present": [None, True, False],
    "cipher_suite": [None, "GOOD", "WEAK"],
    "key_bits": [None, 64, 256],
    "cleartext_password": [None, "pw", "longpassword"],
    "auth_result": [None, "Success", "Failure"],
    "session_id": [None, "s1"],
    "error_code": [None, "E1"],
    "fragmented": [False, True],
    "direction_external": [None, True],
    "access_list_transfer": [False, True],
    "mobile_code": [False, True],
    "audit_record": [False, True],
    "record_timestamp": [False, True],
    "ids_heartbeat": [False, True],
    "snapshot_transfer": [False, True],
}
DIRECTORY_PROTOCOLS = sorted(detectors.IAC_MANAGEMENT_PROTOCOLS)


@st.composite
def shape_streams(draw):
    """:func:`conduit_streams` whose events also take one of a few sets of the
    other shape fields, some set copying another with one field changed, and
    some conduits moved to a directory protocol."""
    directory = draw(st.sets(st.sampled_from(IDS), max_size=3))
    protocol = st.sampled_from(DIRECTORY_PROTOCOLS)
    events = [
        e._replace(protocol=draw(protocol)) if e.src_id in directory else e for e in draw(conduit_streams())
    ]
    fields = st.fixed_dictionaries({name: st.sampled_from(values) for name, values in SHAPE_VALUES.items()})
    sets = draw(st.lists(fields, min_size=1, max_size=2))
    for name in draw(st.lists(st.sampled_from(sorted(SHAPE_VALUES)), max_size=6)):
        copied = draw(st.sampled_from(sets))
        sets.append({**copied, name: draw(st.sampled_from([v for v in SHAPE_VALUES[name] if v != copied[name]]))})
    return [e._replace(**draw(st.sampled_from(sets))) for e in events]


@st.composite
def full_contexts(draw, events):
    """:func:`sparse_contexts` plus the sections shape questions and rate
    windows read, each possibly left unconfigured."""
    ctx = draw(sparse_contexts(events))
    pair = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)).map(lambda pair: tuple(sorted(pair)))
    limit = st.builds(
        RateLimit, st.sampled_from([1, 100, 1000]), st.none() | st.integers(0, 8), st.none() | st.integers(0, 9000)
    )
    versions = st.dictionaries(st.sampled_from(PROTOCOLS + DIRECTORY_PROTOCOLS), st.sampled_from(["1.2", "x"]))
    return dataclasses.replace(
        ctx,
        crypto_policy=draw(st.none() | st.builds(
            CryptoPolicy, st.frozensets(st.sampled_from(["GOOD", "WEAK"])), st.sampled_from([0, 128]), versions
        )),
        password_policy=draw(st.none() | st.builds(PasswordPolicy, st.integers(1, 12))),
        max_failed_attempts=draw(st.none() | st.integers(0, 2)),
        mobile_device_identifiers=draw(st.frozensets(st.sampled_from(IDS))),
        rate_spec=draw(st.dictionaries(pair, limit, max_size=3)),
        session_max_ms=draw(st.sampled_from([500, 3_600_000])),
    )


def per_event_verdicts(events, ctx):
    """Every detector, given a grouping in which each event is its own shape."""
    alone = {position: [position] for position in range(len(events))}
    sessions = assemble_sessions(events)
    return by_id([
        *detect_unknown_factors(events, ctx, alone),
        *detect_abnormal_behavior(sessions, ctx),
        *detect_security_strength(events, ctx, alone),
        *detect_cleartext_authenticators(events, ctx, alone),
        *detect_auth_attempts(events, ctx, alone),
        *detect_session_violations(sessions, ctx),
        *detect_integrity_anomalies(events, sessions, alone),
        *detect_iac_management(events, shapes=alone),
        *detect_pki_best_practice(events, ctx, alone),
        *detect_wireless_iac(events, ctx, alone),
        *detect_untrusted_access(events, ctx, alone),
        *detect_authorization_controls(events, ctx, alone),
        *detect_segmentation(events, ctx, alone),
        *detect_least_functionality(events, ctx, alone),
        *detect_audit_and_monitoring(events, alone),
    ])


#: Per shape field: the event fields a base event starts from, and the
#: variant value that makes some verdict differ when judged as the base.
ONE_FIELD_APART = {
    "src_id": ({}, "bob"),
    "dst_id": ({}, "bob"),
    "protocol": ({}, "Telnet"),
    "id_scheme_src": ({}, IdScheme.PROCESS_ID),
    "id_scheme_dst": ({}, IdScheme.PROCESS_ID),
    "protocol_version": ({"protocol_version": "1.3"}, "1.0"),
    "port": ({}, 21),
    "tls_present": ({"tls_present": True, "cert_present": True}, False),
    "cert_present": ({"mobile_code": True, "cert_present": True}, None),
    "cipher_suite": ({"cipher_suite": "GOOD"}, "WEAK"),
    "key_bits": ({"key_bits": 256}, 64),
    "cleartext_password": ({"tls_present": True}, "pw"),
    "auth_result": ({}, "Failure"),
    "session_id": ({}, "s1"),
    "error_code": ({"tls_present": False}, "E1"),
    "fragmented": ({"tls_present": False}, True),
    "direction_external": ({}, True),
    "access_list_transfer": ({}, True),
    "mobile_code": ({}, True),
    "audit_record": ({}, True),
    "record_timestamp": ({"audit_record": True, "record_timestamp": True}, False),
    "ids_heartbeat": ({}, True),
    "snapshot_transfer": ({}, True),
}
#: Shape fields no detector reads: only the grouping tells them apart.
UNREAD_FIELDS = {"direction_external"}


class TestShapeGrouping:
    """Every question about one event is asked once per shape, yet all 29
    verdicts equal those of the same detectors judging each event alone."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_verdicts_match_every_event_its_own_shape(self, data):
        events = data.draw(shape_streams())
        ctx = data.draw(full_contexts(events))
        grouped = run_detectors(events, assemble_sessions(events), ctx)
        assert grouped == per_event_verdicts(events, ctx)

    def test_shape_fields_are_all_but_seq_timestamp_and_bytes(self):
        shape_fields = set(EvidenceEvent._fields) - {"seq", "timestamp", "bytes"}
        assert set(ONE_FIELD_APART) == shape_fields
        assert len(group_shapes([ev(seq=0, t=5, bytes=10), ev(seq=7, t=0, bytes=0)])) == 1

    @pytest.mark.parametrize("field", sorted(ONE_FIELD_APART))
    def test_events_one_field_apart_judged_apart(self, field):
        base_fields, variant = ONE_FIELD_APART[field]
        ctx = ContextSpec(
            expected_protocols=frozenset({"MQTT"}),
            expected_ports=frozenset({8883}),
            expected_communications=(comm("proc1", "plc", "MQTT"),),
            known_software_processes=frozenset({("proc9", "plc")}),
            mobile_device_identifiers=frozenset({"proc1"}),
            crypto_policy=CryptoPolicy(frozenset({"GOOD"}), 128, {"MQTT": "1.2"}),
            password_policy=PasswordPolicy(min_length=8),
            max_failed_attempts=0,
        )
        base = ev(src="proc1", dst="plc", port=8883, **base_fields)
        events = [
            (base._replace(**{field: variant}) if seq % 2 else base)._replace(seq=seq, timestamp=seq)
            for seq in range(4)
        ]
        assert len(group_shapes(events)) == 2
        expected = per_event_verdicts(events, ctx)
        assert run_detectors(events, assemble_sessions(events), ctx) == expected
        # judged as the base, as a key without the field would judge it, the variant reads otherwise
        as_base = [base._replace(seq=seq, timestamp=seq) for seq in range(4)]
        assert (per_event_verdicts(as_base, ctx) != expected) == (field not in UNREAD_FIELDS)


# --------------------------------------------------------------------------
# Rate windows against a per-anchor recount
# --------------------------------------------------------------------------

def recounted_window(items, limit):
    """(message tail, seq) of the first anchor whose window, counted item by
    item from the anchor on, exceeds a limit; None without one."""
    for left, (timestamp, _, seq) in enumerate(items):
        inside = [size for t, size, _ in items[left:] if t < timestamp + limit.window_ms]
        if limit.max_events_per_window is not None and len(inside) > limit.max_events_per_window:
            return f"{len(inside)} events in {limit.window_ms} ms exceeds {limit.max_events_per_window}", seq
        if limit.max_bytes_per_window is not None and sum(inside) > limit.max_bytes_per_window:
            return f"{sum(inside)} bytes in {limit.window_ms} ms exceeds {limit.max_bytes_per_window}", seq
    return None


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_window_violations_match_per_anchor_recount(data):
    # few timestamps repeat; byte counts include zeros and, as only a library
    # caller can build them, negative counts
    sizes = st.sampled_from([0, 0, 1, 50, 400]) | st.integers(-500, 500)
    if data.draw(st.booleans()):
        sizes = st.sampled_from([0, 0, 1, 50, 400]) | st.integers(0, 500)
    raw = data.draw(st.lists(st.tuples(st.integers(0, 40), sizes), max_size=30))
    items = sorted((t, size, seq) for seq, (t, size) in enumerate(raw))
    limit = RateLimit(
        window_ms=data.draw(st.sampled_from([1, 3, 10, 100])),
        max_events_per_window=data.draw(st.none() | st.integers(0, len(items) + 2)),
        max_bytes_per_window=data.draw(st.none() | st.integers(0, 1200) | st.just(10**6)),
    )
    got = detectors._window_violations(items, limit, "abnormal_behavior", ("a", "b"), " (x)")
    expected = recounted_window(items, limit)
    if expected is None:
        assert got is None
    else:
        tail, seq = expected
        assert (got.message, got.seq_refs) == (f"a<->b: {tail} (x)", (seq,))
