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
indeterminate or not applicable. Its ``needs`` decide which context sections
each logical attribute is judged against: while one is unconfigured (null
or an empty collection) the attribute is indeterminate and no offender is
sought.

Most questions about one event read neither its ``seq``, nor its
``timestamp``, nor its ``bytes``. The other fields make the event's shape:
its conduit ``(src_id, dst_id, protocol, port, id_scheme_src,
id_scheme_dst)``, protection flags, cipher and key size, version,
credentials, error code and payload markers. A plant repeats few shapes over
many events, so :func:`run_detectors` takes the stream grouped by shape once
(:func:`group_shapes`, or the parse's grouping), asks each such question of
one event per shape, and expands only the shapes it accepts back to their
events: findings still cite every offending event in stream order. Shapes
compare by ``==``, so an event must hold its fields' annotated types
(``True == 1``); :func:`parse_evidence` and the simulator build only such
events. Questions across events (rate windows, failed-login runs,
directory-protocol runs, sessions) still read each event they concern.
Entity classification stays memoised per ``(identifier, scheme)`` by
``_classifier``: shapes share endpoints (a wide plant has hundreds of
conduits over fewer identifiers), so classifying per shape would repeat work
the memo does once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import attrgetter, itemgetter, le, lt, sub

from otcms.catalog import AttributeKind
from otcms.context import ContextSpec, RateLimit, classify_entity
from otcms.evidence import EvidenceEvent, IdScheme, Session, Shapes, gaps_over, group_shapes

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
    """``needs`` names the :class:`ContextSpec` sections the attribute is judged
    against, each entry one section or alternatives joined by ``|``."""

    kind: AttributeKind
    detector: str
    description: str
    violation_capable: bool = True
    needs: tuple[str, ...] = ()


#: attribute_id -> producing detector and kind; the catalog is validated
#: against this map.
REGISTRY: dict[str, AttributeInfo] = {
    "unknown_protocol": AttributeInfo(
        AttributeKind.LOGICAL, "detect_unknown_factors", "protocol observed outside the expected protocol set",
        needs=("expected_protocols",),
    ),
    "unknown_communication": AttributeInfo(
        AttributeKind.LOGICAL, "detect_unknown_factors", "communication triple outside the expected whitelist",
        needs=("expected_communications",),
    ),
    "unknown_software_process": AttributeInfo(
        AttributeKind.LOGICAL, "detect_unknown_factors", "software process identifier outside the known process list",
        needs=("known_software_processes",),
    ),
    "abnormal_behavior": AttributeInfo(
        AttributeKind.LOGICAL, "detect_abnormal_behavior", "communication amount/timing beyond the per-pair rate windows",
        needs=("rate_spec",),
    ),
    "weak_encryption": AttributeInfo(
        AttributeKind.LOGICAL, "detect_security_strength", "cipher suite, key size or protocol version below policy",
        needs=("crypto_policy",),
    ),
    "insecure_protocol": AttributeInfo(
        AttributeKind.LOGICAL, "detect_security_strength", "plain protocol observed where the secured variant is expected",
        needs=("expected_communications",),
    ),
    "password_policy": AttributeInfo(
        AttributeKind.LOGICAL, "detect_security_strength", "observed passwords below the minimum-length policy",
        needs=("password_policy",),
    ),
    "authenticator_obscured": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_cleartext_authenticators", "authenticators never observable in cleartext"
    ),
    "login_attempt_limit": AttributeInfo(
        AttributeKind.LOGICAL, "detect_auth_attempts", "consecutive failed login attempts within the allowed maximum",
        needs=("max_failed_attempts",),
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
        AttributeKind.LOGICAL, "detect_wireless_iac", "wireless communications restricted to the expected list",
        needs=("expected_communications",),
    ),
    "untrusted_access_control": AttributeInfo(
        AttributeKind.LOGICAL, "detect_untrusted_access", "untrusted-origin connections only over IAC-capable protocols",
        needs=("external_prefixes|zone_map",),
    ),
    "authorization_enforced": AttributeInfo(
        AttributeKind.TRAFFIC, "detect_authorization_controls", "authorization mechanism evidence (IPSec, access-list transfer)",
        violation_capable=False,
    ),
    "mobile_code_control": AttributeInfo(
        AttributeKind.LOGICAL, "detect_authorization_controls", "mobile code from mobile devices carries integrity certification"
    ),
    "logical_segmentation": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "cross-zone traffic confined to configured conduits",
        needs=("zone_map",),
    ),
    "non_control_independence": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "non-control networks not process-dependent on the control zone",
        needs=("zone_map", "control_zones"),
    ),
    "boundary_default_deny": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "zone-boundary crossings whitelisted (deny by default)",
        needs=("zone_map",),
    ),
    "p2p_restriction": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "person-to-person protocols restricted/forbidden per zone SL target",
        needs=("zone_map",),
    ),
    "data_partitioning": AttributeInfo(
        AttributeKind.LOGICAL, "detect_segmentation", "file transfer does not cross zone boundaries",
        needs=("zone_map",),
    ),
    "least_functionality": AttributeInfo(
        AttributeKind.LOGICAL, "detect_least_functionality", "only expected protocols and ports in use",
        needs=("expected_protocols",),
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


def _configured(ctx: ContextSpec, need: str) -> bool:
    """Whether a section named in ``need`` holds more than null or an empty
    collection; ``0`` and a policy of defaults count as configured."""
    values = (getattr(ctx, name) for name in need.split("|"))
    return any(value is not None and (not isinstance(value, Collection) or len(value) > 0) for value in values)


def _judge(
    attribute_id: str,
    offenders: Iterable[Finding],
    evidenced: bool | Callable[[], bool] = True,
    absent: Status = Status.INDETERMINATE,
    extras: Iterable[Finding] = (),
    ctx: ContextSpec | None = None,
) -> AttributeVerdict:
    """Indeterminate while a section that ``attribute_id`` needs in ``ctx`` is
    unconfigured; only otherwise are ``offenders`` and ``extras`` drawn, so a
    generator never reads such a section. Then violated with the offenders,
    else fulfilled when ``evidenced``, else ``absent``; ``extras`` follow
    either way. A callable ``evidenced`` is called only without offenders."""
    if not all(_configured(ctx, need) for need in REGISTRY[attribute_id].needs):
        return _verdict(attribute_id, Status.INDETERMINATE)
    offenders = list(offenders)
    if offenders:
        return _verdict(attribute_id, Status.VIOLATED, [*offenders, *extras])
    if callable(evidenced):
        evidenced = evidenced()
    return _verdict(attribute_id, Status.FULFILLED if evidenced else absent, list(extras))


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
# Shapes: questions answered once per distinct event shape
# --------------------------------------------------------------------------

def _where(
    events: list[EvidenceEvent], shapes: Shapes, keep: Callable[[EvidenceEvent], object]
) -> Iterator[EvidenceEvent]:
    """The events of every shape whose first event ``keep`` accepts, in
    stream order. ``keep`` must read shape fields only; it is asked once per
    shape, and nothing is asked before the first event is drawn. The kept
    position lists are merged by position, never by ``seq``, which may repeat
    or decrease."""
    runs = list(_among(events, shapes, keep).values())
    # sorting concatenated ascending runs is timsort's merge of those runs
    yield from map(events.__getitem__, runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs)))


def _among(events: list[EvidenceEvent], shapes: Shapes, keep: Callable[[EvidenceEvent], object]) -> Shapes:
    """The shapes whose first event ``keep`` accepts."""
    return {key: positions for key, positions in shapes.items() if keep(events[positions[0]])}


def _heads(events: list[EvidenceEvent], shapes: Shapes) -> Iterator[EvidenceEvent]:
    """The first event of each shape, which answers for every event of its shape."""
    return (events[positions[0]] for positions in shapes.values())


def _first(events: list[EvidenceEvent], shapes: Shapes) -> list[EvidenceEvent]:
    """The earliest event of all ``shapes`` in stream order, alone in a list, or none."""
    return [events[min(positions[0] for positions in shapes.values())]] if shapes else []


# --------------------------------------------------------------------------
# Unknown factors: protocols, communications, software processes
# --------------------------------------------------------------------------

def detect_unknown_factors(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Whitelist checks for protocols, communication triples and process ids."""
    shapes = group_shapes(events) if shapes is None else shapes

    def src_unknown(e: EvidenceEvent) -> bool:
        return e.id_scheme_src is IdScheme.PROCESS_ID and (e.src_id, e.dst_id) not in ctx.known_software_processes

    def dst_unknown(e: EvidenceEvent) -> bool:
        return e.id_scheme_dst is IdScheme.PROCESS_ID and (e.dst_id, e.src_id) not in ctx.known_software_processes

    def unknown_processes():
        message = "software process {!r} unknown for device {!r}"
        for e in _where(events, shapes, lambda e: src_unknown(e) or dst_unknown(e)):
            if src_unknown(e):
                yield _violation("unknown_software_process", message.format(e.src_id, e.dst_id), e.seq)
            if dst_unknown(e):
                yield _violation("unknown_software_process", message.format(e.dst_id, e.src_id), e.seq)

    unknown_protocols = (
        _violation("unknown_protocol", f"protocol {e.protocol!r} not in the expected protocol set", e.seq)
        for e in _where(events, shapes, lambda e: e.protocol not in ctx.expected_protocols)
    )
    unknown_communications = (
        _violation("unknown_communication", f"communication ({e.src_id} -> {e.dst_id}, {e.protocol}) not whitelisted", e.seq)
        for e in _where(events, shapes, lambda e: not ctx.matches_communication(e.src_id, e.dst_id, e.protocol))
    )
    return [
        _judge("unknown_protocol", unknown_protocols, ctx=ctx),
        _judge("unknown_communication", unknown_communications, ctx=ctx),
        _judge("unknown_software_process", unknown_processes(), ctx=ctx),
    ]


# --------------------------------------------------------------------------
# Amount/timing of communications
# --------------------------------------------------------------------------

def _window_violations(
    items: list[tuple[int, int, int]], limit, attribute_id: str, pair: tuple[str, str], suffix: str = ""
) -> Finding | None:
    """Check the half-open window [t, t+window_ms) anchored at each event.

    ``items`` are (timestamp, bytes, seq) sorted by timestamp. Returns the
    first violating window, if any, its message ending in ``suffix``.

    With ``m`` the event limit (the item count without one), anchor ``i``
    holds more than ``m`` events exactly when ``times[i + m]`` falls inside
    its window. Else its window holds at most ``m`` items, so, with no
    negative byte count, at most the bytes of the ``m`` items from ``i``.
    While that bound never exceeds the byte limit, only anchors over the
    event limit can violate, and one pass at C level finds them; otherwise
    every anchor is checked. :class:`RateLimit` refuses a negative limit.
    """
    window_ms, max_events, max_bytes = limit.window_ms, limit.max_events_per_window, limit.max_bytes_per_window
    times = list(map(itemgetter(0), items))
    byte_sums = list(accumulate(map(itemgetter(1), items), initial=0))
    m = len(items) if max_events is None else min(max_events, len(items))
    anchors: Iterable[int] = range(len(items))
    if max_bytes is None or (
        all(map(le, byte_sums, islice(byte_sums, 1, None)))  # no negative byte count
        and max(map(sub, islice(byte_sums, m, None), byte_sums)) <= max_bytes
    ):
        anchors = compress(anchors, map(lt, map(sub, islice(times, m, None), times), repeat(window_ms)))
    for left in anchors:
        right = bisect_left(times, times[left] + window_ms, left)
        count = right - left
        total_bytes = byte_sums[right] - byte_sums[left]
        if max_events is not None and count > max_events:
            excess = f"{count} events in {window_ms} ms exceeds {max_events}"
        elif max_bytes is not None and total_bytes > max_bytes:
            excess = f"{total_bytes} bytes in {window_ms} ms exceeds {max_bytes}"
        else:
            continue
        return _violation(attribute_id, f"{pair[0]}<->{pair[1]}: {excess}{suffix}", items[left][2])
    return None


def detect_abnormal_behavior(sessions: list[Session], ctx: ContextSpec) -> list[AttributeVerdict]:
    """Per-pair sliding-window event/byte rate check against the process knowledge."""

    def offenders():
        per_pair: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
        for session in sessions:
            if session.participants in ctx.rate_spec:
                items = map(attrgetter("timestamp", "bytes", "seq"), session.events)
                per_pair.setdefault(session.participants, []).extend(items)
        for pair in sorted(ctx.rate_spec):
            finding = _window_violations(sorted(per_pair.get(pair, ())), ctx.rate_spec[pair], "abnormal_behavior", pair)
            if finding is not None:
                yield finding

    return [_judge("abnormal_behavior", offenders(), ctx=ctx)]


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


def detect_security_strength(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    shapes = group_shapes(events) if shapes is None else shapes

    def weaknesses(e: EvidenceEvent) -> list[str]:
        policy = ctx.crypto_policy
        found = []
        if e.cipher_suite is not None and policy.approved_suites and e.cipher_suite not in policy.approved_suites:
            found.append(f"cipher suite {e.cipher_suite!r} not approved")
        if e.key_bits is not None and e.key_bits < policy.min_key_bits:
            found.append(f"key size {e.key_bits} below minimum {policy.min_key_bits}")
        if e.protocol_version is not None:
            minimum = policy.min_protocol_versions.get(e.protocol)
            if minimum is not None and _version_below(e.protocol_version, minimum):
                found.append(f"{e.protocol} version {e.protocol_version} below minimum {minimum}")
        return found

    weak_encryption = (
        _violation("weak_encryption", message, e.seq)
        for e in _where(events, shapes, weaknesses)
        for message in weaknesses(e)
    )

    def insecure_conduit(e: EvidenceEvent) -> bool:
        counterpart = SECURE_COUNTERPARTS.get(e.protocol)
        return counterpart is not None and ctx.demands_protocol(e.src_id, e.dst_id, counterpart)

    insecure = (
        _violation(
            "insecure_protocol",
            f"{e.protocol} used on a conduit expecting {SECURE_COUNTERPARTS[e.protocol]} ({e.src_id} -> {e.dst_id})",
            e.seq,
        )
        for e in _where(events, shapes, insecure_conduit)
    )

    observed = [(e.seq, e.cleartext_password) for e in _where(events, shapes, attrgetter("cleartext_password"))]
    short = (
        _violation("password_policy", f"password of length {len(pw)} below minimum {ctx.password_policy.min_length}", seq)
        for seq, pw in observed
        if len(pw) < ctx.password_policy.min_length
    )
    lengths = {len(pw) for _, pw in observed}
    unequal = []
    if len(lengths) > 1:
        # Unequal lengths alone are consistent with a minimum-length policy;
        # reported as an inference-grade observation only.
        unequal.append(
            _info(
                "password_policy",
                f"observed passwords of unequal lengths {sorted(lengths)}; "
                "no uniform password policy enforcement inferable",
                *[seq for seq, _ in observed],
            )
        )
    return [
        _judge("weak_encryption", weak_encryption, ctx=ctx),
        _judge("insecure_protocol", insecure, ctx=ctx),
        _judge("password_policy", short, extras=unequal, ctx=ctx),
    ]


# --------------------------------------------------------------------------
# Authenticator feedback (cleartext authenticators)
# --------------------------------------------------------------------------

def detect_cleartext_authenticators(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """No actual authenticator may be monitorable by itself on the wire."""
    shapes = group_shapes(events) if shapes is None else shapes
    offenders = [
        _violation(
            "authenticator_obscured", f"cleartext password observable ({e.src_id} -> {e.dst_id}, {e.protocol})", e.seq
        )
        for e in _where(events, shapes, lambda e: e.cleartext_password and e.tls_present is not True)
    ]
    evidenced = not offenders and any(e.auth_result is not None or e.cleartext_password for e in _heads(events, shapes))
    return [_judge("authenticator_obscured", offenders, evidenced)]


# --------------------------------------------------------------------------
# Unsuccessful login attempts
# --------------------------------------------------------------------------

def detect_auth_attempts(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Count consecutive failed logins per directed (src, dst); runs reset on success."""
    shapes = group_shapes(events) if shapes is None else shapes

    def offenders():
        limit = ctx.max_failed_attempts
        runs: dict[tuple[str, str], int] = {}
        flagged: set[tuple[str, str]] = set()
        for e in _where(events, shapes, lambda e: e.auth_result is not None):
            key = (e.src_id, e.dst_id)
            if e.auth_result == "Failure":
                runs[key] = runs.get(key, 0) + 1
                if runs[key] > limit and key not in flagged:
                    flagged.add(key)
                    yield _violation(
                        "login_attempt_limit",
                        f"{key[0]} -> {key[1]}: {runs[key]} consecutive failed login attempts exceed the allowed {limit}",
                        e.seq,
                    )
            else:
                runs[key] = 0

    return [_judge("login_attempt_limit", offenders(), ctx=ctx)]


# --------------------------------------------------------------------------
# Session duration and session-id integrity
# --------------------------------------------------------------------------

def detect_session_violations(sessions: list[Session], ctx: ContextSpec) -> list[AttributeVerdict]:
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

    # Per session id, the events of each pair using it.
    uses: dict[str, dict[tuple[str, str], list[EvidenceEvent]]] = {}
    for session in sessions:
        for sid, run in groupby(session.events, attrgetter("session_id")):
            if sid is not None:
                uses.setdefault(sid, {}).setdefault(session.participants, []).extend(run)

    id_offenders: list[Finding] = []
    for sid in sorted(uses):
        if len(uses[sid]) > 1:
            first = sorted((e.timestamp, pair, e.seq) for pair, events in uses[sid].items() for e in events)[:2]
            id_offenders.append(
                _violation(
                    "session_id_integrity",
                    f"session id {sid!r} used by disjoint participant pairs {sorted(uses[sid])}",
                    *[seq for _, _, seq in first],
                )
            )
            continue
        [events] = uses[sid].values()
        times = sorted(map(attrgetter("timestamp"), events))
        late = next(gaps_over(times, ctx.session_max_ms), None)
        if late is not None:
            id_offenders.append(
                _violation(
                    "session_id_integrity",
                    f"session id {sid!r} reused after a {times[late] - times[late - 1]} ms gap, "
                    f"over the allowed {ctx.session_max_ms} ms",
                    # the gap is positive, so the use it ends is the least seq at its timestamp
                    min(e.seq for e in events if e.timestamp == times[late]),
                )
            )
    return [
        _judge("session_termination", offenders, bool(sessions)),
        _judge("session_id_integrity", id_offenders, bool(uses)),
    ]


# --------------------------------------------------------------------------
# Communication integrity anomalies
# --------------------------------------------------------------------------

def _protected(e: EvidenceEvent) -> bool:
    return e.tls_present is True or e.cert_present is True or e.protocol in PROTECTED_PROTOCOLS


def detect_integrity_anomalies(
    events: list[EvidenceEvent], sessions: list[Session], shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Error codes and fragmentation on unprotected conduits break integrity.

    An anomaly violates only when the carrying event explicitly lacks
    protection (tls false, no certificate, no inherently protected
    protocol); unknown flags never violate.
    """
    shapes = group_shapes(events) if shapes is None else shapes
    anomalies = _among(events, shapes, lambda e: e.error_code is not None or e.fragmented)
    offenders = []
    for e in _where(events, anomalies, lambda e: e.tls_present is False and not _protected(e)):
        marker = f"error code {e.error_code!r}" if e.error_code is not None else "fragmented traffic"
        offenders.append(_violation("data_integrity", f"{marker} on unprotected conduit {e.src_id} -> {e.dst_id}", e.seq))
    # offenders imply anomalies, so the protection scan runs only without them
    evidenced = not anomalies and bool(shapes) and all(map(_protected, _heads(events, shapes)))
    return [_judge("data_integrity", offenders, evidenced)]


# --------------------------------------------------------------------------
# IAC management systems (directory protocol runs)
# --------------------------------------------------------------------------

def detect_iac_management(
    events: list[EvidenceEvent], run_len: int = IAC_RUN_LEN, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Directory-protocol run counting.

    A run of ``run_len`` consecutive events (by stream order within one
    participant pair) over a directory protocol is taken as evidence of an
    account/identifier/authenticator management system. Absence of such a
    run is indeterminate, never a violation: these requirements demand the
    existence of a mechanism, which passive monitoring cannot disprove.
    """
    shapes = group_shapes(events) if shapes is None else shapes
    # only the events of pairs that ever speak a directory protocol can start or break a run
    directory_pairs = {e.pair() for e in _heads(events, shapes) if e.protocol in IAC_MANAGEMENT_PROTOCOLS}
    current: dict[tuple[str, str], int] = {}
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for e in _where(events, shapes, lambda e: e.pair() in directory_pairs):
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

def detect_pki_best_practice(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Certificate presence and the TLS/DTLS best-practice combination.

    No certificate anywhere means no PKI is operated and both verdicts are
    not applicable. Once certificates appear, every certificate-bearing
    event must also run over TLS/DTLS to count as best practice.
    """
    shapes = group_shapes(events) if shapes is None else shapes
    # snapshot transfers evidence hardware security (supporting info only;
    # the compliance call itself stays with the manual attribute)
    extras = [
        _info("pki_present", "hardware-security snapshot transfer observed", e.seq)
        for e in _where(events, shapes, attrgetter("snapshot_transfer"))
    ]
    certs = _among(events, shapes, lambda e: e.cert_present is True)
    absent = Status.INDETERMINATE if certs else Status.NOT_APPLICABLE
    x509 = _among(events, certs, lambda e: e.protocol in ctx.x509_capable_protocols)
    present = _observed(
        "pki_present", ((e.seq, f"certificate observed on {e.protocol}") for e in _first(events, x509)), absent, extras
    )
    offenders = [
        _violation(
            "pki_best_practice", f"certificate exchanged without TLS/DTLS ({e.src_id} -> {e.dst_id}, {e.protocol})", e.seq
        )
        for e in _where(events, certs, lambda e: e.tls_present is False)
    ]
    evidenced = bool(certs) and all(e.tls_present is True for e in _heads(events, certs))
    return [present, _judge("pki_best_practice", offenders, evidenced, absent)]


# --------------------------------------------------------------------------
# Wireless identification and authorization
# --------------------------------------------------------------------------

def detect_wireless_iac(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    shapes = group_shapes(events) if shapes is None else shapes
    wireless = _among(events, shapes, lambda e: e.protocol in ctx.wireless_protocols)
    observed = _observed(
        "is_wireless_observed",
        ((e.seq, f"wireless protocol {e.protocol} observed") for e in _first(events, wireless)),
        Status.NOT_APPLICABLE,
    )
    if not wireless:
        return [observed, _verdict("wireless_iac", Status.NOT_APPLICABLE)]
    offenders = (
        _violation(
            "wireless_iac",
            f"wireless communication ({e.src_id} -> {e.dst_id}, {e.protocol}) not in the expected list",
            e.seq,
        )
        for e in _where(events, wireless, lambda e: not ctx.matches_communication(e.src_id, e.dst_id, e.protocol))
    )
    return [observed, _judge("wireless_iac", offenders, ctx=ctx)]


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


def detect_untrusted_access(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Untrusted-origin connections must use protocols capable of IAC; not
    applicable when no connection has an untrusted origin."""
    shapes = group_shapes(events) if shapes is None else shapes

    @cache
    def untrusted() -> list[EvidenceEvent]:
        classify = _classifier(ctx)
        return list(_where(events, shapes, lambda e: _untrusted_origin(e, ctx, classify)))

    def offenders():
        for e in untrusted():
            if e.protocol not in ctx.iac_capable_protocols:
                yield _violation(
                    "untrusted_access_control",
                    f"untrusted origin {e.src_id} over {e.protocol}, which offers no identification/authentication",
                    e.seq,
                )

    return [_judge("untrusted_access_control", offenders(), lambda: bool(untrusted()), Status.NOT_APPLICABLE, ctx=ctx)]


# --------------------------------------------------------------------------
# Authorization and mobile code
# --------------------------------------------------------------------------

def detect_authorization_controls(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    shapes = group_shapes(events) if shapes is None else shapes
    evidence = "authorization mechanism evidence: {}"
    mechanisms = _among(events, shapes, lambda e: e.protocol in AUTHORIZATION_PROTOCOLS or e.access_list_transfer)
    mobile = _among(events, shapes, lambda e: e.mobile_code and e.src_id in ctx.mobile_device_identifiers)
    offenders = [
        _violation(
            "mobile_code_control",
            f"mobile code from device {e.src_id!r} without integrity certification",
            e.seq,
        )
        for e in _where(events, mobile, lambda e: e.cert_present is not True)
    ]
    return [
        _observed("authorization_enforced", (
            (e.seq, evidence.format("IPSec traffic" if e.protocol in AUTHORIZATION_PROTOCOLS else "access-list transfer"))
            for e in _first(events, mechanisms)
        )),
        _judge("mobile_code_control", offenders, bool(mobile), Status.NOT_APPLICABLE),
    ]


# --------------------------------------------------------------------------
# Restricted data flow (zones and conduits)
# --------------------------------------------------------------------------

def detect_segmentation(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Zone-aware checks: segmentation, independence, boundary whitelisting,
    person-to-person restriction and data partitioning."""
    shapes = group_shapes(events) if shapes is None else shapes
    zones = ctx.zone_map

    def crosses(e: EvidenceEvent) -> bool:
        src_zone = zones.get(e.src_id)
        dst_zone = zones.get(e.dst_id)
        return src_zone is not None and dst_zone is not None and src_zone != dst_zone

    def dependent(e: EvidenceEvent) -> bool:
        return (
            e.protocol in ctx.management_protocols
            and zones[e.src_id] in ctx.control_zones
            and zones[e.dst_id] not in ctx.control_zones
            and ctx.mandatory_communication(e.src_id, e.dst_id, e.protocol)
        )

    cross = _among(events, shapes, crosses)
    unsanctioned = [
        _violation(
            "logical_segmentation",
            f"cross-zone traffic {e.src_id} ({zones[e.src_id]}) -> {e.dst_id} ({zones[e.dst_id]}) over "
            f"{e.protocol} outside the configured conduits",
            e.seq,
        )
        for e in _where(events, cross, lambda e: not ctx.matches_communication(e.src_id, e.dst_id, e.protocol))
    ]
    dependence = (
        _violation(
            "non_control_independence",
            f"process-mandatory {e.protocol} from control zone {zones[e.src_id]} to {zones[e.dst_id]} "
            "infers dependence of the non-control network",
            e.seq,
        )
        for e in _where(events, cross, dependent)
    )
    boundary = (
        _violation("boundary_default_deny", finding.message + "; boundary whitelisting not enforced", *finding.seq_refs)
        for finding in unsanctioned
    )
    file_transfers = (
        _violation(
            "data_partitioning",
            f"file transfer over {e.protocol} crosses zone boundary {zones[e.src_id]} -> {zones[e.dst_id]}",
            e.seq,
        )
        for e in _where(events, cross, lambda e: e.protocol in FILE_TRANSFER_PROTOCOLS)
    )
    return [
        _judge("logical_segmentation", unsanctioned, ctx=ctx),
        _judge("non_control_independence", dependence, ctx=ctx),
        _judge("boundary_default_deny", boundary, bool(cross), Status.NOT_APPLICABLE, ctx=ctx),
        _detect_p2p(events, ctx, shapes),
        _judge("data_partitioning", file_transfers, ctx=ctx),
    ]


def _p2p_events(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes
) -> Iterator[tuple[EvidenceEvent, int]]:
    """Person-to-person events, each with the highest SL target of its zones (0 without one)."""
    classify = _classifier(ctx)

    def between_humans(e: EvidenceEvent) -> bool:
        if e.protocol not in ctx.p2p_protocols:
            return False
        src = classify(e.src_id, e.id_scheme_src)
        dst = classify(e.dst_id, e.id_scheme_dst)
        return src.is_human is True and dst.is_human is True

    for e in _where(events, shapes, between_humans):
        zones = (classify(e.src_id, e.id_scheme_src).zone, classify(e.dst_id, e.id_scheme_dst).zone)
        yield e, max((ctx.zone_sl_target[zone] for zone in zones if zone in ctx.zone_sl_target), default=0)


def _detect_p2p(events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes) -> AttributeVerdict:
    """Person-to-person traffic is forbidden in a zone of SL target 3 or more,
    and below that held to the bandwidth limit, unverifiable without one."""
    limit = ctx.p2p_bandwidth_limit_bytes_per_s

    @cache
    def p2p() -> list[tuple[EvidenceEvent, int]]:
        return list(_p2p_events(events, ctx, shapes))

    def offenders():
        low_sl: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
        for e, sl in p2p():
            if sl >= 3:
                yield _violation(
                    "p2p_restriction",
                    f"person-to-person {e.protocol} between {e.src_id} and {e.dst_id} "
                    f"in a zone with SL target {sl} (forbidden at SL 3+)",
                    e.seq,
                )
            else:
                low_sl.setdefault(e.pair(), []).append((e.timestamp, e.bytes, e.seq))
        if limit is not None:
            window = RateLimit(window_ms=1000, max_bytes_per_window=limit)
            suffix = " (person-to-person bandwidth restriction)"
            for pair in sorted(low_sl):
                finding = _window_violations(sorted(low_sl[pair]), window, "p2p_restriction", pair, suffix)
                if finding is not None:
                    yield finding

    # called only without offenders, when every person-to-person event is below SL 3
    return _judge("p2p_restriction", offenders(), lambda: limit is not None or not p2p(), ctx=ctx)


# --------------------------------------------------------------------------
# Least functionality
# --------------------------------------------------------------------------

def detect_least_functionality(
    events: list[EvidenceEvent], ctx: ContextSpec, shapes: Shapes | None = None
) -> list[AttributeVerdict]:
    """Protocol and port whitelisting; shares the membership core with the
    unknown-protocol check but additionally covers ports/services."""
    shapes = group_shapes(events) if shapes is None else shapes

    def unexpected_port(e: EvidenceEvent) -> bool:
        return e.port is not None and bool(ctx.expected_ports) and e.port not in ctx.expected_ports

    def offenders():
        for e in _where(events, shapes, lambda e: e.protocol not in ctx.expected_protocols or unexpected_port(e)):
            if e.protocol not in ctx.expected_protocols:
                yield _violation("least_functionality", f"unexpected protocol {e.protocol!r} in use", e.seq)
            else:
                yield _violation("least_functionality", f"unexpected port {e.port} for {e.protocol}", e.seq)

    return [_judge("least_functionality", offenders(), ctx=ctx)]


# --------------------------------------------------------------------------
# Audit logs and continuous monitoring
# --------------------------------------------------------------------------

def detect_audit_and_monitoring(events: list[EvidenceEvent], shapes: Shapes | None = None) -> list[AttributeVerdict]:
    shapes = group_shapes(events) if shapes is None else shapes
    audits = _among(events, shapes, attrgetter("audit_record"))
    missing = [
        _violation("audit_timestamped", "audit record without a timestamp", e.seq)
        for e in _where(events, audits, lambda e: not e.record_timestamp)
    ]
    heartbeats = _among(events, shapes, attrgetter("ids_heartbeat"))
    return [
        _observed("audit_log_exists", ((e.seq, "audit record transfer observed") for e in _first(events, audits))),
        _judge("audit_timestamped", missing, evidenced=bool(audits)),
        _observed(
            "continuous_monitoring",
            ((e.seq, "monitoring infrastructure heartbeat observed") for e in _first(events, heartbeats)),
        ),
    ]


# --------------------------------------------------------------------------
# Suite runner
# --------------------------------------------------------------------------

def run_detectors(
    events: list[EvidenceEvent],
    sessions: list[Session],
    ctx: ContextSpec,
    shapes: Shapes | None = None,
) -> dict[str, AttributeVerdict]:
    """Run every detector once; returns attribute_id -> verdict.

    Emits exactly the registry's attribute ids, each exactly once, in
    registry order. Detectors are independent and share only immutable
    inputs, the stream's :func:`group_shapes` (``shapes``, else made here)
    among them. Every event must hold its fields' annotated types, as
    :func:`parse_evidence` and the simulator guarantee: shapes compare by
    ``==``, so an event with ``tls_present=1`` would be judged as one with
    ``True``. An empty stream carries no evidence, so everything is
    indeterminate rather than vacuously fulfilled.
    """
    if not events:
        return {attribute_id: _verdict(attribute_id, Status.INDETERMINATE) for attribute_id in REGISTRY}

    shapes = group_shapes(events) if shapes is None else shapes
    verdicts: list[AttributeVerdict] = []
    verdicts += detect_unknown_factors(events, ctx, shapes)
    verdicts += detect_abnormal_behavior(sessions, ctx)
    verdicts += detect_security_strength(events, ctx, shapes)
    verdicts += detect_cleartext_authenticators(events, ctx, shapes)
    verdicts += detect_auth_attempts(events, ctx, shapes)
    verdicts += detect_session_violations(sessions, ctx)
    verdicts += detect_integrity_anomalies(events, sessions, shapes)
    verdicts += detect_iac_management(events, shapes=shapes)
    verdicts += detect_pki_best_practice(events, ctx, shapes)
    verdicts += detect_wireless_iac(events, ctx, shapes)
    verdicts += detect_untrusted_access(events, ctx, shapes)
    verdicts += detect_authorization_controls(events, ctx, shapes)
    verdicts += detect_segmentation(events, ctx, shapes)
    verdicts += detect_least_functionality(events, ctx, shapes)
    verdicts += detect_audit_and_monitoring(events, shapes)

    by_id = {v.attribute_id: v for v in verdicts}
    if set(by_id) != set(REGISTRY) or len(verdicts) != len(REGISTRY):
        missing = set(REGISTRY) - set(by_id)
        raise RuntimeError(f"detector suite incomplete or duplicated; missing={sorted(missing)}")
    return {attribute_id: by_id[attribute_id] for attribute_id in REGISTRY}
