"""Traffic- and logical-attribute evaluators.

Each detector is a pure function of immutable evidence (events/sessions)
and context knowledge, emitting one verdict per attribute it owns:

* fulfilled      - evidence shows the property holds
* violated       - evidence contradicts it (always with concrete findings)
* indeterminate  - nothing observable either way, or context unconfigured
* not_applicable - the property's subject does not exist in this system

Two ground rules shape every verdict. Unknown tri-state flags never, on
their own, produce a violation: passive monitoring that fails to see a
property must not invent one. And existence-type checks (management
systems, audit logs, monitoring infrastructure) degrade to indeterminate
rather than violated when nothing is observed, because absence of traffic
does not prove absence of the mechanism.

:data:`REGISTRY` labels every finding with its attribute's detector, and its
observation-only attributes (``violation_capable=False``) share one verdict:
fulfilled with an INFO finding citing the first observing event, else
indeterminate or not applicable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterable

from otcms.catalog import AttributeKind
from otcms.context import ContextSpec, RateLimit, classify_entity
from otcms.evidence import EvidenceEvent, IdScheme, Session

#: Length of the protocol run taken as evidence of a directory-backed
#: account/identifier/authenticator management system. Matches the packet
#: count of a typical directory account operation; other operations differ,
#: so it stays configurable.
IAC_RUN_LEN = 7

IAC_MANAGEMENT_PROTOCOLS = frozenset({"LDAP", "Kerberos", "EAP"})
FILE_TRANSFER_PROTOCOLS = frozenset({"FTP", "SFTP", "FTPS", "TFTP"})
AUTHORIZATION_PROTOCOLS = frozenset({"IPSec"})
#: Protocols that protect integrity/confidentiality by themselves,
#: independent of a TLS layer or certificates.
PROTECTED_PROTOCOLS = frozenset({"IPSec"})

#: Plain protocols whose observation where the secured variant is expected
#: marks the conduit as running over an insecure protocol.
SECURE_COUNTERPARTS = {
    "FTP": "SFTP",
    "HTTP": "HTTPS",
    "Telnet": "SSH",
    "SNMP": "SNMPv3",
    "MQTT": "MQTTS",
    "CoAP": "CoAPS",
}


class Status(str, Enum):
    FULFILLED = "fulfilled"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"
    NOT_APPLICABLE = "not_applicable"


class Severity(str, Enum):
    INFO = "info"
    VIOLATION = "violation"


@dataclass(frozen=True)
class Finding:
    """One concrete observation backing a verdict."""

    detector: str
    message: str
    severity: Severity
    seq_refs: tuple[int, ...] = ()


@dataclass(frozen=True)
class AttributeVerdict:
    """Status of one monitorable attribute after an evaluation run."""

    attribute_id: str
    kind: AttributeKind
    status: Status
    findings: tuple[Finding, ...] = ()

    def __post_init__(self) -> None:
        if self.status is Status.VIOLATED and not self.findings:
            raise ValueError(f"{self.attribute_id}: violated verdict without findings")


@dataclass(frozen=True)
class AttributeInfo:
    kind: AttributeKind
    detector: str
    description: str
    violation_capable: bool = True


#: attribute_id -> producing detector and kind; the catalog is validated
#: against this map.
REGISTRY: dict[str, AttributeInfo] = {
    "unknown_protocol": AttributeInfo(
        AttributeKind.LOGICAL, "detect_unknown_factors", "protocol observed outside the expected protocol set"
    ),
    "unknown_communication": AttributeInfo(
        AttributeKind.LOGICAL, "detect_unknown_factors", "communication triple outside the expected whitelist"
    ),
    "unknown_software_process": AttributeInfo(
        AttributeKind.LOGICAL, "detect_unknown_factors", "software process identifier outside the known process list"
    ),
    "abnormal_behavior": AttributeInfo(
        AttributeKind.LOGICAL, "detect_abnormal_behavior", "communication amount/timing beyond the per-pair rate windows"
    ),
    "weak_encryption": AttributeInfo(
        AttributeKind.LOGICAL, "detect_security_strength", "cipher suite, key size or protocol version below policy"
    ),
    "insecure_protocol": AttributeInfo(
        AttributeKind.LOGICAL, "detect_security_strength", "plain protocol observed where the secured variant is expected"
    ),
    "password_policy": AttributeInfo(
        AttributeKind.LOGICAL, "detect_security_strength", "observed passwords below the minimum-length policy"
    ),
    "authenticator_obscured": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_cleartext_authenticators", "authenticators never observable in cleartext"
    ),
    "login_attempt_limit": AttributeInfo(
        AttributeKind.LOGICAL, "detect_auth_attempts", "consecutive failed login attempts within the allowed maximum"
    ),
    "session_termination": AttributeInfo(
        AttributeKind.LOGICAL, "detect_session_violations", "sessions terminated within the allowed maximum duration"
    ),
    "session_id_integrity": AttributeInfo(
        AttributeKind.LOGICAL, "detect_session_violations", "session identifiers neither shared across pairs nor revived"
    ),
    "data_integrity": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_integrity_anomalies", "conduits integrity-protected, no error/fragmentation anomalies"
    ),
    "iac_management": AttributeInfo(
        AttributeKind.LOGICAL,
        "detect_iac_management",
        "directory-protocol run evidencing an account/identifier/authenticator management system",
        violation_capable=False,
    ),
    "pki_present": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_pki_best_practice", "certificates observed on x509-capable protocols",
        violation_capable=False,
    ),
    "pki_best_practice": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_pki_best_practice", "certificate exchanges protected by TLS/DTLS"
    ),
    "is_wireless_observed": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_wireless_iac", "wireless protocol traffic observed", violation_capable=False
    ),
    "wireless_iac": AttributeInfo(
        AttributeKind.LOGICAL, "detect_wireless_iac", "wireless communications restricted to the expected list"
    ),
    "untrusted_access_control": AttributeInfo(
        AttributeKind.LOGICAL, "detect_untrusted_access", "untrusted-origin connections only over IAC-capable protocols"
    ),
    "authorization_enforced": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_authorization_controls", "authorization mechanism evidence (IPSec, access-list transfer)",
        violation_capable=False,
    ),
    "mobile_code_control": AttributeInfo(
        AttributeKind.LOGICAL, "detect_authorization_controls", "mobile code from mobile devices carries integrity certification"
    ),
    "logical_segmentation": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "cross-zone traffic confined to configured conduits"
    ),
    "non_control_independence": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "non-control networks not process-dependent on the control zone"
    ),
    "boundary_default_deny": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "zone-boundary crossings whitelisted (deny by default)"
    ),
    "p2p_restriction": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "person-to-person protocols restricted/forbidden per zone SL target"
    ),
    "data_partitioning": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "file transfer does not cross zone boundaries"
    ),
    "least_functionality": AttributeInfo(
        AttributeKind.LOGICAL, "detect_least_functionality", "only expected protocols and ports in use"
    ),
    "audit_log_exists": AttributeInfo(
        AttributeKind.LOGICAL, "detect_audit_and_monitoring", "audit record transfer observed", violation_capable=False
    ),
    "audit_timestamped": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_audit_and_monitoring", "observed audit records carry timestamps"
    ),
    "continuous_monitoring": AttributeInfo(
        AttributeKind.LOGICAL, "detect_audit_and_monitoring", "monitoring infrastructure heartbeat observed",
        violation_capable=False,
    ),
}


def registry_kinds() -> dict[str, AttributeKind]:
    return {attribute_id: info.kind for attribute_id, info in REGISTRY.items()}


def _verdict(attribute_id: str, status: Status, findings: list[Finding] | None = None) -> AttributeVerdict:
    return AttributeVerdict(
        attribute_id=attribute_id,
        kind=REGISTRY[attribute_id].kind,
        status=status,
        findings=tuple(findings or ()),
    )


def _violation(attribute_id: str, message: str, *seqs: int) -> Finding:
    """A finding against ``attribute_id``, labelled with its registry detector."""
    return Finding(REGISTRY[attribute_id].detector, message, Severity.VIOLATION, seqs)


def _info(attribute_id: str, message: str, *seqs: int) -> Finding:
    return Finding(REGISTRY[attribute_id].detector, message, Severity.INFO, seqs)


def _judge(attribute_id: str, offenders: list[Finding], evidenced: bool = True) -> AttributeVerdict:
    """Violated with offenders; otherwise fulfilled when ``evidenced``, else
    indeterminate. ``evidenced`` matters only without offenders, so callers
    guard a costly evidence scan with ``not offenders and ...``."""
    if offenders:
        return _verdict(attribute_id, Status.VIOLATED, offenders)
    return _verdict(attribute_id, Status.FULFILLED if evidenced else Status.INDETERMINATE)


def _observed(
    attribute_id: str, seen: Iterable[tuple[int, str]], absent: Status = Status.INDETERMINATE, extras: Iterable[Finding] = ()
) -> AttributeVerdict:
    """Verdict of an observation-only attribute (``violation_capable=False``):
    fulfilled with one INFO finding citing the first ``(seq, message)`` in
    ``seen``, else ``absent``; ``extras`` follow either way. Only the first
    item is drawn, so a generator stops at it."""
    for seq, message in seen:
        return _verdict(attribute_id, Status.FULFILLED, [_info(attribute_id, message, seq), *extras])
    return _verdict(attribute_id, absent, list(extras))


# --------------------------------------------------------------------------
# Unknown factors: protocols, communications, software processes
# --------------------------------------------------------------------------

def detect_unknown_factors(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Whitelist checks for protocols, communication triples and process ids."""
    verdicts: list[AttributeVerdict] = []

    if not ctx.expected_protocols:
        verdicts.append(_verdict("unknown_protocol", Status.INDETERMINATE))
    else:
        offenders = [
            _violation("unknown_protocol", f"protocol {e.protocol!r} not in the expected protocol set", e.seq)
            for e in events
            if e.protocol not in ctx.expected_protocols
        ]
        verdicts.append(_judge("unknown_protocol", offenders))

    if not ctx.expected_communications:
        verdicts.append(_verdict("unknown_communication", Status.INDETERMINATE))
    else:
        offenders = [
            _violation(
                "unknown_communication",
                f"communication ({e.src_id} -> {e.dst_id}, {e.protocol}) not whitelisted",
                e.seq,
            )
            for e in events
            if not ctx.matches_communication(e.src_id, e.dst_id, e.protocol)
        ]
        verdicts.append(_judge("unknown_communication", offenders))

    if not ctx.known_software_processes:
        verdicts.append(_verdict("unknown_software_process", Status.INDETERMINATE))
    else:
        offenders = []
        message = "software process {!r} unknown for device {!r}"
        for e in events:
            if e.id_scheme_src is IdScheme.PROCESS_ID and (e.src_id, e.dst_id) not in ctx.known_software_processes:
                offenders.append(_violation("unknown_software_process", message.format(e.src_id, e.dst_id), e.seq))
            if e.id_scheme_dst is IdScheme.PROCESS_ID and (e.dst_id, e.src_id) not in ctx.known_software_processes:
                offenders.append(_violation("unknown_software_process", message.format(e.dst_id, e.src_id), e.seq))
        verdicts.append(_judge("unknown_software_process", offenders))

    return verdicts


# --------------------------------------------------------------------------
# Amount/timing of communications
# --------------------------------------------------------------------------

def _window_violations(
    items: list[tuple[int, int, int]], limit, attribute_id: str, pair: tuple[str, str]
) -> Finding | None:
    """Slide a half-open window [t, t+window_ms) anchored at each event.

    ``items`` are (timestamp, bytes, seq) sorted by timestamp. Returns the
    first violating window, if any.
    """
    window_ms = limit.window_ms
    right = 0
    total_bytes = 0
    for left in range(len(items)):
        if right < left:
            right = left
            total_bytes = 0
        while right < len(items) and items[right][0] < items[left][0] + window_ms:
            total_bytes += items[right][1]
            right += 1
        count = right - left
        if limit.max_events_per_window is not None and count > limit.max_events_per_window:
            return _violation(
                attribute_id,
                f"{pair[0]}<->{pair[1]}: {count} events in {window_ms} ms exceeds "
                f"{limit.max_events_per_window}",
                items[left][2],
            )
        if limit.max_bytes_per_window is not None and total_bytes > limit.max_bytes_per_window:
            return _violation(
                attribute_id,
                f"{pair[0]}<->{pair[1]}: {total_bytes} bytes in {window_ms} ms exceeds "
                f"{limit.max_bytes_per_window}",
                items[left][2],
            )
        total_bytes -= items[left][1]
    return None


def detect_abnormal_behavior(sessions: list[Session], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Per-pair sliding-window event/byte rate check against the process knowledge."""
    if not ctx.rate_spec:
        return [_verdict("abnormal_behavior", Status.INDETERMINATE)]

    per_pair: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for session in sessions:
        if session.participants in ctx.rate_spec:
            per_pair.setdefault(session.participants, []).extend(
                (e.timestamp, e.bytes, e.seq) for e in session.events
            )

    offenders: list[Finding] = []
    for pair in sorted(ctx.rate_spec):
        items = sorted(per_pair.get(pair, ()))
        finding = _window_violations(items, ctx.rate_spec[pair], "abnormal_behavior", pair)
        if finding is not None:
            offenders.append(finding)
    return [_judge("abnormal_behavior", offenders)]


# --------------------------------------------------------------------------
# Security strength: encryption, protocol choice, passwords
# --------------------------------------------------------------------------

def _version_tuple(version: str) -> tuple:
    parts = []
    for token in version.replace("-", ".").split("."):
        parts.append(int(token) if token.isdecimal() else token)
    return tuple(parts)


def _version_below(version: str, minimum: str) -> bool:
    try:
        return _version_tuple(version) < _version_tuple(minimum)
    except TypeError:
        return False  # incomparable version strings never violate


def detect_security_strength(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    verdicts: list[AttributeVerdict] = []

    if ctx.crypto_policy is None:
        verdicts.append(_verdict("weak_encryption", Status.INDETERMINATE))
    else:
        policy = ctx.crypto_policy
        below = cache(_version_below)
        offenders = []
        for e in events:
            if e.cipher_suite is not None and policy.approved_suites and e.cipher_suite not in policy.approved_suites:
                offenders.append(_violation("weak_encryption", f"cipher suite {e.cipher_suite!r} not approved", e.seq))
            if e.key_bits is not None and e.key_bits < policy.min_key_bits:
                offenders.append(
                    _violation("weak_encryption", f"key size {e.key_bits} below minimum {policy.min_key_bits}", e.seq)
                )
            if e.protocol_version is not None:
                minimum = policy.min_protocol_versions.get(e.protocol)
                if minimum is not None and below(e.protocol_version, minimum):
                    offenders.append(
                        _violation(
                            "weak_encryption",
                            f"{e.protocol} version {e.protocol_version} below minimum {minimum}",
                            e.seq,
                        )
                    )
        verdicts.append(_judge("weak_encryption", offenders))

    if not ctx.expected_communications:
        verdicts.append(_verdict("insecure_protocol", Status.INDETERMINATE))
    else:
        offenders = []
        for e in events:
            counterpart = SECURE_COUNTERPARTS.get(e.protocol)
            if counterpart and ctx.demands_protocol(e.src_id, e.dst_id, counterpart):
                offenders.append(
                    _violation(
                        "insecure_protocol",
                        f"{e.protocol} used on a conduit expecting {counterpart} "
                        f"({e.src_id} -> {e.dst_id})",
                        e.seq,
                    )
                )
        verdicts.append(_judge("insecure_protocol", offenders))

    if ctx.password_policy is None:
        verdicts.append(_verdict("password_policy", Status.INDETERMINATE))
    else:
        min_length = ctx.password_policy.min_length
        observed = [(e.seq, e.cleartext_password) for e in events if e.cleartext_password]
        offenders = [
            _violation("password_policy", f"password of length {len(pw)} below minimum {min_length}", seq)
            for seq, pw in observed
            if len(pw) < min_length
        ]
        extras: list[Finding] = []
        lengths = {len(pw) for _, pw in observed}
        if len(lengths) > 1:
            # Unequal lengths alone are consistent with a minimum-length
            # policy; reported as an inference-grade observation only.
            extras.append(
                _info(
                    "password_policy",
                    f"observed passwords of unequal lengths {sorted(lengths)}; "
                    "no uniform password policy enforcement inferable",
                    *[seq for seq, _ in observed],
                )
            )
        if offenders:
            verdicts.append(_verdict("password_policy", Status.VIOLATED, offenders + extras))
        else:
            verdicts.append(_verdict("password_policy", Status.FULFILLED, extras))

    return verdicts


# --------------------------------------------------------------------------
# Authenticator feedback (cleartext authenticators)
# --------------------------------------------------------------------------

def detect_cleartext_authenticators(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """No actual authenticator may be monitorable by itself on the wire."""
    offenders = [
        _violation(
            "authenticator_obscured", f"cleartext password observable ({e.src_id} -> {e.dst_id}, {e.protocol})", e.seq
        )
        for e in events
        if e.cleartext_password and e.tls_present is not True
    ]
    evidenced = not offenders and any(e.auth_result is not None or e.cleartext_password for e in events)
    return [_judge("authenticator_obscured", offenders, evidenced)]


# --------------------------------------------------------------------------
# Unsuccessful login attempts
# --------------------------------------------------------------------------

def detect_auth_attempts(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Count consecutive failed logins per directed (src, dst); runs reset on success."""
    if ctx.max_failed_attempts is None:
        return [_verdict("login_attempt_limit", Status.INDETERMINATE)]
    limit = ctx.max_failed_attempts

    runs: dict[tuple[str, str], int] = {}
    offenders: list[Finding] = []
    flagged: set[tuple[str, str]] = set()
    for e in events:
        if e.auth_result is None:
            continue
        key = (e.src_id, e.dst_id)
        if e.auth_result == "Failure":
            runs[key] = runs.get(key, 0) + 1
            if runs[key] > limit and key not in flagged:
                flagged.add(key)
                offenders.append(
                    _violation(
                        "login_attempt_limit",
                        f"{key[0]} -> {key[1]}: {runs[key]} consecutive failed login attempts "
                        f"exceed the allowed {limit}",
                        e.seq,
                    )
                )
        else:
            runs[key] = 0
    return [_judge("login_attempt_limit", offenders)]


# --------------------------------------------------------------------------
# Session duration and session-id integrity
# --------------------------------------------------------------------------

def detect_session_violations(sessions: list[Session], ctx: ContextSpec) -> list[AttributeVerdict]:
    verdicts: list[AttributeVerdict] = []

    offenders = [
        _violation(
            "session_termination",
            f"session {s.session_key} lasted {s.duration_ms} ms, over the allowed {ctx.session_max_ms} ms; "
            "not terminated correctly",
            s.events[0].seq,
            s.events[-1].seq,
        )
        for s in sessions
        if s.duration_ms > ctx.session_max_ms
    ]
    verdicts.append(_judge("session_termination", offenders, bool(sessions)))

    occurrences: dict[str, list[tuple[int, tuple[str, str], int]]] = {}
    for session in sessions:
        for e in session.events:
            if e.session_id is not None:
                occurrences.setdefault(e.session_id, []).append((e.timestamp, session.participants, e.seq))

    id_offenders: list[Finding] = []
    for sid in sorted(occurrences):
        uses = sorted(occurrences[sid])
        pairs = {pair for _, pair, _ in uses}
        if len(pairs) > 1:
            id_offenders.append(
                _violation(
                    "session_id_integrity",
                    f"session id {sid!r} used by disjoint participant pairs {sorted(pairs)}",
                    *[seq for _, _, seq in uses[:2]],
                )
            )
            continue
        for (t_prev, _, _), (t_next, _, seq_next) in zip(uses, uses[1:]):
            if t_next - t_prev > ctx.session_max_ms:
                id_offenders.append(
                    _violation(
                        "session_id_integrity",
                        f"session id {sid!r} reused after a {t_next - t_prev} ms gap, "
                        f"over the allowed {ctx.session_max_ms} ms",
                        seq_next,
                    )
                )
                break
    verdicts.append(_judge("session_id_integrity", id_offenders, bool(occurrences)))
    return verdicts


# --------------------------------------------------------------------------
# Communication integrity anomalies
# --------------------------------------------------------------------------

def _protected(e: EvidenceEvent) -> bool:
    return e.tls_present is True or e.cert_present is True or e.protocol in PROTECTED_PROTOCOLS


def detect_integrity_anomalies(events: list[EvidenceEvent], sessions: list[Session]) -> list[AttributeVerdict]:
    """Error codes and fragmentation on unprotected conduits break integrity.

    An anomaly violates only when the carrying event explicitly lacks
    protection (tls false, no certificate, no inherently protected
    protocol); unknown flags never violate.
    """
    offenders = []
    anomalies = 0
    for e in events:
        if e.error_code is not None or e.fragmented:
            anomalies += 1
            if e.tls_present is False and not (e.cert_present is True or e.protocol in PROTECTED_PROTOCOLS):
                marker = f"error code {e.error_code!r}" if e.error_code is not None else "fragmented traffic"
                offenders.append(
                    _violation("data_integrity", f"{marker} on unprotected conduit {e.src_id} -> {e.dst_id}", e.seq)
                )
    # offenders imply anomalies, so the protection scan runs only without them
    evidenced = anomalies == 0 and bool(events) and all(_protected(e) for e in events)
    return [_judge("data_integrity", offenders, evidenced)]


# --------------------------------------------------------------------------
# IAC management systems (directory protocol runs)
# --------------------------------------------------------------------------

def detect_iac_management(events: list[EvidenceEvent], run_len: int = IAC_RUN_LEN) -> list[AttributeVerdict]:
    """Directory-protocol run counting.

    A run of ``run_len`` consecutive events (by stream order within one
    participant pair) over a directory protocol is taken as evidence of an
    account/identifier/authenticator management system. Absence of such a
    run is indeterminate, never a violation: these requirements demand the
    existence of a mechanism, which passive monitoring cannot disprove.
    """
    current: dict[tuple[str, str], int] = {}
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for e in events:
        pair = e.pair()
        if e.protocol in IAC_MANAGEMENT_PROTOCOLS:
            count = current.get(pair, 0) + 1
            current[pair] = count
            if count >= best.get(pair, (0, 0))[0]:
                best[pair] = (count, e.seq)
        else:
            current[pair] = 0
    hits = [
        (seq, f"{a}<->{b}: run of {run} directory-protocol packets indicates an IAC management system")
        for (a, b), (run, seq) in best.items()
        if run >= run_len
    ]
    return [_observed("iac_management", sorted(hits))]


# --------------------------------------------------------------------------
# Public key infrastructure
# --------------------------------------------------------------------------

def detect_pki_best_practice(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Certificate presence and the TLS/DTLS best-practice combination.

    No certificate anywhere means no PKI is operated and both verdicts are
    not applicable. Once certificates appear, every certificate-bearing
    event must also run over TLS/DTLS to count as best practice.
    """
    # snapshot transfers evidence hardware security (supporting info only;
    # the compliance call itself stays with the manual attribute)
    extras = [
        _info("pki_present", "hardware-security snapshot transfer observed", e.seq)
        for e in events
        if e.snapshot_transfer
    ]
    cert_events = [e for e in events if e.cert_present is True]
    present = _observed(
        "pki_present",
        ((e.seq, f"certificate observed on {e.protocol}") for e in cert_events if e.protocol in ctx.x509_capable_protocols),
        Status.INDETERMINATE if cert_events else Status.NOT_APPLICABLE,
        extras,
    )
    if not cert_events:
        return [present, _verdict("pki_best_practice", Status.NOT_APPLICABLE)]

    offenders = [
        _violation(
            "pki_best_practice", f"certificate exchanged without TLS/DTLS ({e.src_id} -> {e.dst_id}, {e.protocol})", e.seq
        )
        for e in cert_events
        if e.tls_present is False
    ]
    evidenced = not offenders and all(e.tls_present is True for e in cert_events)
    return [present, _judge("pki_best_practice", offenders, evidenced)]


# --------------------------------------------------------------------------
# Wireless identification and authorization
# --------------------------------------------------------------------------

def detect_wireless_iac(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    wireless = [e for e in events if e.protocol in ctx.wireless_protocols]
    observed = _observed(
        "is_wireless_observed", ((e.seq, f"wireless protocol {e.protocol} observed") for e in wireless), Status.NOT_APPLICABLE
    )
    if not wireless:
        return [observed, _verdict("wireless_iac", Status.NOT_APPLICABLE)]
    if not ctx.expected_communications:
        return [observed, _verdict("wireless_iac", Status.INDETERMINATE)]
    offenders = [
        _violation(
            "wireless_iac",
            f"wireless communication ({e.src_id} -> {e.dst_id}, {e.protocol}) not in the expected list",
            e.seq,
        )
        for e in wireless
        if not ctx.matches_communication(e.src_id, e.dst_id, e.protocol)
    ]
    return [observed, _judge("wireless_iac", offenders)]


# --------------------------------------------------------------------------
# Access via untrusted networks
# --------------------------------------------------------------------------

def _classifier(ctx: ContextSpec):
    """``classify_entity`` under ``ctx``, once per distinct (identifier, scheme)."""
    return cache(lambda identifier, scheme: classify_entity(identifier, scheme, ctx))


def _untrusted_origin(e: EvidenceEvent, ctx: ContextSpec, classify) -> bool:
    """Untrusted: external address, or a source zone of lower SL target than
    the destination zone, or a zone outside the configured trusted set."""
    src = classify(e.src_id, e.id_scheme_src)
    if src.is_external is True:
        return True
    if src.zone is None:
        return False
    dst = classify(e.dst_id, e.id_scheme_dst)
    if dst.zone is not None:
        src_sl = ctx.zone_sl_target.get(src.zone)
        dst_sl = ctx.zone_sl_target.get(dst.zone)
        if src_sl is not None and dst_sl is not None and src_sl < dst_sl:
            return True
    return src.zone_trusted is False


def detect_untrusted_access(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Untrusted-origin connections must use protocols capable of IAC."""
    if not ctx.external_prefixes and not ctx.zone_map:
        return [_verdict("untrusted_access_control", Status.INDETERMINATE)]
    classify = _classifier(ctx)
    untrusted = [e for e in events if _untrusted_origin(e, ctx, classify)]
    if not untrusted:
        return [_verdict("untrusted_access_control", Status.NOT_APPLICABLE)]
    offenders = [
        _violation(
            "untrusted_access_control",
            f"untrusted origin {e.src_id} over {e.protocol}, which offers no identification/authentication",
            e.seq,
        )
        for e in untrusted
        if e.protocol not in ctx.iac_capable_protocols
    ]
    return [_judge("untrusted_access_control", offenders)]


# --------------------------------------------------------------------------
# Authorization and mobile code
# --------------------------------------------------------------------------

def detect_authorization_controls(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    evidence = "authorization mechanism evidence: {}"
    mechanisms = (
        (e.seq, evidence.format("IPSec traffic" if e.protocol in AUTHORIZATION_PROTOCOLS else "access-list transfer"))
        for e in events
        if e.protocol in AUTHORIZATION_PROTOCOLS or e.access_list_transfer
    )
    verdicts = [_observed("authorization_enforced", mechanisms)]

    mobile_events = [
        e for e in events if e.mobile_code and e.src_id in ctx.mobile_device_identifiers
    ]
    if not mobile_events:
        verdicts.append(_verdict("mobile_code_control", Status.NOT_APPLICABLE))
    else:
        offenders = [
            _violation(
                "mobile_code_control",
                f"mobile code from device {e.src_id!r} without integrity certification",
                e.seq,
            )
            for e in mobile_events
            if e.cert_present is not True
        ]
        verdicts.append(_judge("mobile_code_control", offenders))
    return verdicts


# --------------------------------------------------------------------------
# Restricted data flow (zones and conduits)
# --------------------------------------------------------------------------

def detect_segmentation(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Zone-aware checks: segmentation, independence, boundary whitelisting,
    person-to-person restriction and data partitioning."""
    attribute_ids = (
        "logical_segmentation",
        "non_control_independence",
        "boundary_default_deny",
        "p2p_restriction",
        "data_partitioning",
    )
    if not ctx.zone_map:
        return [_verdict(attribute_id, Status.INDETERMINATE) for attribute_id in attribute_ids]

    verdicts: list[AttributeVerdict] = []
    zones = ctx.zone_map

    cross: list[tuple[EvidenceEvent, str, str]] = []
    for e in events:
        src_zone = zones.get(e.src_id)
        dst_zone = zones.get(e.dst_id)
        if src_zone is not None and dst_zone is not None and src_zone != dst_zone:
            cross.append((e, src_zone, dst_zone))

    unsanctioned = [
        _violation(
            "logical_segmentation",
            f"cross-zone traffic {e.src_id} ({src_zone}) -> {e.dst_id} ({dst_zone}) over "
            f"{e.protocol} outside the configured conduits",
            e.seq,
        )
        for e, src_zone, dst_zone in cross
        if not ctx.matches_communication(e.src_id, e.dst_id, e.protocol)
    ]
    verdicts.append(_judge("logical_segmentation", unsanctioned))

    if not ctx.control_zones:
        verdicts.append(_verdict("non_control_independence", Status.INDETERMINATE))
    else:
        dependence = [
            _violation(
                "non_control_independence",
                f"process-mandatory {e.protocol} from control zone {src_zone} to {dst_zone} "
                "infers dependence of the non-control network",
                e.seq,
            )
            for e, src_zone, dst_zone in cross
            if e.protocol in ctx.management_protocols
            and src_zone in ctx.control_zones
            and dst_zone not in ctx.control_zones
            and ctx.mandatory_communication(e.src_id, e.dst_id, e.protocol)
        ]
        verdicts.append(_judge("non_control_independence", dependence))

    boundary = [
        _violation("boundary_default_deny", finding.message + "; boundary whitelisting not enforced", *finding.seq_refs)
        for finding in unsanctioned
    ]
    if cross:
        verdicts.append(_judge("boundary_default_deny", boundary))
    else:
        verdicts.append(_verdict("boundary_default_deny", Status.NOT_APPLICABLE))

    verdicts.append(_detect_p2p(events, ctx))

    file_transfers = [
        _violation(
            "data_partitioning",
            f"file transfer over {e.protocol} crosses zone boundary {src_zone} -> {dst_zone}",
            e.seq,
        )
        for e, src_zone, dst_zone in cross
        if e.protocol in FILE_TRANSFER_PROTOCOLS
    ]
    verdicts.append(_judge("data_partitioning", file_transfers))
    return verdicts


def _detect_p2p(events: list[EvidenceEvent], ctx: ContextSpec) -> AttributeVerdict:
    classify = _classifier(ctx)
    p2p_events = []
    for e in events:
        if e.protocol not in ctx.p2p_protocols:
            continue
        src = classify(e.src_id, e.id_scheme_src)
        dst = classify(e.dst_id, e.id_scheme_dst)
        if src.is_human is True and dst.is_human is True:
            p2p_events.append((e, src, dst))
    offenders: list[Finding] = []
    unverifiable = False
    low_sl: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for e, src, dst in p2p_events:
        sl_values = [
            ctx.zone_sl_target[zone]
            for zone in (src.zone, dst.zone)
            if zone is not None and zone in ctx.zone_sl_target
        ]
        if sl_values and max(sl_values) >= 3:
            offenders.append(
                _violation(
                    "p2p_restriction",
                    f"person-to-person {e.protocol} between {e.src_id} and {e.dst_id} "
                    f"in a zone with SL target {max(sl_values)} (forbidden at SL 3+)",
                    e.seq,
                )
            )
        elif ctx.p2p_bandwidth_limit_bytes_per_s is not None:
            low_sl.setdefault(e.pair(), []).append((e.timestamp, e.bytes, e.seq))
        else:
            unverifiable = True

    if ctx.p2p_bandwidth_limit_bytes_per_s is not None:
        limit = RateLimit(window_ms=1000, max_bytes_per_window=ctx.p2p_bandwidth_limit_bytes_per_s)
        for pair in sorted(low_sl):
            finding = _window_violations(sorted(low_sl[pair]), limit, "p2p_restriction", pair)
            if finding is not None:
                offenders.append(
                    _violation(
                        "p2p_restriction", finding.message + " (person-to-person bandwidth restriction)", *finding.seq_refs
                    )
                )

    return _judge("p2p_restriction", offenders, not unverifiable)


# --------------------------------------------------------------------------
# Least functionality
# --------------------------------------------------------------------------

def detect_least_functionality(events: list[EvidenceEvent], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Protocol and port whitelisting; shares the membership core with the
    unknown-protocol check but additionally covers ports/services."""
    if not ctx.expected_protocols:
        return [_verdict("least_functionality", Status.INDETERMINATE)]
    offenders = []
    for e in events:
        if e.protocol not in ctx.expected_protocols:
            offenders.append(_violation("least_functionality", f"unexpected protocol {e.protocol!r} in use", e.seq))
        elif e.port is not None and ctx.expected_ports and e.port not in ctx.expected_ports:
            offenders.append(_violation("least_functionality", f"unexpected port {e.port} for {e.protocol}", e.seq))
    return [_judge("least_functionality", offenders)]


# --------------------------------------------------------------------------
# Audit logs and continuous monitoring
# --------------------------------------------------------------------------

def detect_audit_and_monitoring(events: list[EvidenceEvent]) -> list[AttributeVerdict]:
    audits = [e for e in events if e.audit_record]
    missing = [
        _violation("audit_timestamped", "audit record without a timestamp", e.seq)
        for e in audits
        if not e.record_timestamp
    ]
    heartbeats = ((e.seq, "monitoring infrastructure heartbeat observed") for e in events if e.ids_heartbeat)
    return [
        _observed("audit_log_exists", ((e.seq, "audit record transfer observed") for e in audits)),
        _judge("audit_timestamped", missing, evidenced=bool(audits)),
        _observed("continuous_monitoring", heartbeats),
    ]


# --------------------------------------------------------------------------
# Suite runner
# --------------------------------------------------------------------------

def run_detectors(
    events: list[EvidenceEvent],
    sessions: list[Session],
    ctx: ContextSpec,
) -> dict[str, AttributeVerdict]:
    """Run every detector once; returns attribute_id -> verdict.

    Emits exactly the registry's attribute ids, each exactly once, in
    registry order. Detectors are independent and share only immutable
    inputs. An empty stream carries no evidence, so everything is
    indeterminate rather than vacuously fulfilled.
    """
    if not events:
        return {attribute_id: _verdict(attribute_id, Status.INDETERMINATE) for attribute_id in REGISTRY}

    verdicts: list[AttributeVerdict] = []
    verdicts += detect_unknown_factors(events, ctx)
    verdicts += detect_abnormal_behavior(sessions, ctx)
    verdicts += detect_security_strength(events, ctx)
    verdicts += detect_cleartext_authenticators(events, ctx)
    verdicts += detect_auth_attempts(events, ctx)
    verdicts += detect_session_violations(sessions, ctx)
    verdicts += detect_integrity_anomalies(events, sessions)
    verdicts += detect_iac_management(events)
    verdicts += detect_pki_best_practice(events, ctx)
    verdicts += detect_wireless_iac(events, ctx)
    verdicts += detect_untrusted_access(events, ctx)
    verdicts += detect_authorization_controls(events, ctx)
    verdicts += detect_segmentation(events, ctx)
    verdicts += detect_least_functionality(events, ctx)
    verdicts += detect_audit_and_monitoring(events)

    by_id = {v.attribute_id: v for v in verdicts}
    if set(by_id) != set(REGISTRY) or len(verdicts) != len(REGISTRY):
        missing = set(REGISTRY) - set(by_id)
        raise RuntimeError(f"detector suite incomplete or duplicated; missing={sorted(missing)}")
    return {attribute_id: by_id[attribute_id] for attribute_id in REGISTRY}
