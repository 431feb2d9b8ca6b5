"""Deterministic generator of labeled evidence streams.

A scenario produces baseline traffic that stays entirely within its context
expectations (zero violations when no injections are configured) plus, per
injection, the minimal event pattern that violates one targeted attribute.
The emitted ground truth lists exactly which attributes must come out
violated and which SRs must therefore be non-compliant, making generated
streams usable as an oracle for the whole pipeline.

Where attributes share a membership core, a minimal pattern necessarily
trips the siblings too (an off-list protocol violates both the
unknown-protocol and least-functionality checks; an unsanctioned cross-zone
event violates segmentation, boundary whitelisting and the communication
whitelist at once). Ground truth carries the full coupled set.

Existence-type attributes cannot be violated by construction - their
absence is indeterminate - so they are injected positively (adding the
satisfying pattern) and labeled expected-fulfilled instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

from otcms.catalog import Catalog, default_catalog_path, load_catalog, required_attributes
from otcms.context import ContextSpec, context_from_dict, context_to_dict
from otcms.evidence import EvidenceEvent, IdScheme, to_jsonl
from otcms.jsonfield import from_json, read

PLC1 = "10.0.1.10"
PLC2 = "10.0.1.11"
HMI1 = "10.0.1.20"
SCADA = "10.0.2.10"
HIST = "10.0.2.20"
DC = "10.0.2.30"
PROC = "proc-4401"
ROGUE_PROC = "proc-6606"
ALICE = "alice"
BOB = "bob"
BT_DEV = "e0:4f:43:aa:10:09"
TABLET = "tablet-7"
EXTERNAL = "203.0.113.50"

_SCHEMES = {
    PLC1: IdScheme.IP,
    PLC2: IdScheme.IP,
    HMI1: IdScheme.IP,
    SCADA: IdScheme.IP,
    HIST: IdScheme.IP,
    DC: IdScheme.IP,
    EXTERNAL: IdScheme.IP,
    PROC: IdScheme.PROCESS_ID,
    ROGUE_PROC: IdScheme.PROCESS_ID,
    ALICE: IdScheme.USERNAME,
    BOB: IdScheme.USERNAME,
    BT_DEV: IdScheme.MAC,
    TABLET: IdScheme.OTHER,
}

_VERSIONS = {"MQTT": "5.0", "OPCUA": "1.04", "LDAP": "3"}
_CIPHER = "TLS_AES_128_GCM_SHA256"


class ScenarioError(ValueError):
    """Raised for malformed scenario files or unknown injection ids."""


@dataclass(frozen=True)
class TrafficPattern:
    """One baseline traffic stream between a fixed pair.

    ``flavor`` selects the event shape: plain ``data`` (alternating
    direction), ``process`` (software-process identifier as source) or
    ``auth`` (successful authentication records).
    """

    src: str
    dst: str
    protocol: str
    rate_per_s: float = 1.0
    port: int | None = None
    session_id: str | None = None
    flavor: str = "data"


@dataclass(frozen=True)
class Injection:
    """Targeted violation (or positive pattern) to weave into the stream."""

    attribute_id: str
    at_ms: int | None = None


@dataclass
class Scenario:
    name: str
    seed: int
    spec: ContextSpec
    duration_ms: int = 20_000
    sl_target: int = 2
    traffic_profile: tuple[TrafficPattern, ...] = ()
    injections: tuple[Injection, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ScenarioError("duration_ms must be positive")
        if self.sl_target not in (1, 2, 3, 4):
            raise ScenarioError("sl_target must be 1..4")
        for injection in self.injections:
            if injection.attribute_id not in INJECTIONS:
                raise ScenarioError(f"unknown injection attribute_id {injection.attribute_id!r}")
            if injection.at_ms is not None and injection.at_ms > self.duration_ms:
                raise ScenarioError(
                    f"injection {injection.attribute_id!r} at_ms {injection.at_ms} beyond scenario "
                    f"duration {self.duration_ms}"
                )


@dataclass(frozen=True)
class GroundTruth:
    """Labels for one generated stream.

    ``expected_noncompliant_srs`` follows from the catalog: every SR whose
    required bindings at the scenario SL target intersect the violated set.
    """

    expected_violated: frozenset[str]
    expected_fulfilled: frozenset[str]
    expected_noncompliant_srs: frozenset[str]


# --------------------------------------------------------------------------
# Default scenario
# --------------------------------------------------------------------------

def default_context() -> ContextSpec:
    """Context for the bundled plant model: one cell zone, one control zone,
    an engineering zone for human accounts, and a documented external range."""
    return context_from_dict(
        {
            "expected_protocols": [
                "MQTT", "OPCUA", "LDAP", "HTTP", "FTP", "SFTP", "ICMP", "IPSec", "Bluetooth",
            ],
            "expected_ports": [8883, 4840, 389, 80, 21, 22],
            "expected_communications": [
                {"src": PLC1, "dst": HMI1, "protocol": "*"},
                {"src": HMI1, "dst": PLC1, "protocol": "*"},
                {"src": HMI1, "dst": SCADA, "protocol": "MQTT"},
                {"src": SCADA, "dst": HMI1, "protocol": "MQTT"},
                {"src": SCADA, "dst": HIST, "protocol": "MQTT"},
                {"src": HIST, "dst": SCADA, "protocol": "MQTT"},
                {"src": HMI1, "dst": DC, "protocol": "LDAP"},
                {"src": DC, "dst": HMI1, "protocol": "LDAP"},
                {"src": "*", "dst": HMI1, "protocol": "OPCUA"},
                {"src": ALICE, "dst": BOB, "protocol": "HTTP"},
                {"src": BOB, "dst": ALICE, "protocol": "HTTP"},
                {"src": EXTERNAL, "dst": SCADA, "protocol": "HTTP"},
                {"src": HIST, "dst": DC, "protocol": "*"},
                {"src": HIST, "dst": DC, "protocol": "SFTP"},
                {"src": TABLET, "dst": HMI1, "protocol": "HTTP"},
                {"src": HMI1, "dst": HIST, "protocol": "SFTP"},
                {"src": SCADA, "dst": PLC1, "protocol": "ICMP", "mandatory": True},
                {"src": SCADA, "dst": HIST, "protocol": "IPSec"},
            ],
            "known_software_processes": [{"process_id": PROC, "device_id": HMI1}],
            "human_identifiers": [ALICE, BOB],
            "mobile_device_identifiers": [TABLET],
            "zone_map": {
                PLC1: "cell", PLC2: "cell", HMI1: "cell",
                SCADA: "control", HIST: "control", DC: "control",
                ALICE: "eng", BOB: "eng",
            },
            "zone_sl_target": {"cell": 2, "control": 2, "eng": 3},
            "trusted_zones": ["cell", "control", "eng"],
            "control_zones": ["control"],
            "external_prefixes": ["203.0.113.0/24"],
            "rate_spec": [
                {"pair": [PLC1, HMI1], "window_ms": 1000, "max_events_per_window": 50, "max_bytes_per_window": 500000},
                {"pair": [HMI1, SCADA], "window_ms": 1000, "max_events_per_window": 50, "max_bytes_per_window": 500000},
                {"pair": [SCADA, HIST], "window_ms": 1000, "max_events_per_window": 50, "max_bytes_per_window": 500000},
            ],
            "password_policy": {"min_length": 8},
            "max_failed_attempts": 3,
            "session_max_ms": 600_000,
            "crypto_policy": {
                "approved_suites": ["TLS_AES_128_GCM_SHA256", "TLS_AES_256_GCM_SHA384"],
                "min_key_bits": 128,
                "min_protocol_versions": {"MQTT": "3.1", "OPCUA": "1.02"},
            },
        }
    )


def default_profile() -> tuple[TrafficPattern, ...]:
    return (
        TrafficPattern(PLC1, HMI1, "OPCUA", rate_per_s=1.0, port=4840, session_id="sess-cell"),
        TrafficPattern(HMI1, SCADA, "MQTT", rate_per_s=0.5, port=8883, session_id="sess-cross"),
        TrafficPattern(SCADA, HIST, "MQTT", rate_per_s=0.5, port=8883, session_id="sess-hist"),
        TrafficPattern(PROC, HMI1, "OPCUA", rate_per_s=0.25, port=4840, session_id="sess-proc", flavor="process"),
        TrafficPattern(HMI1, SCADA, "MQTT", rate_per_s=0.2, port=8883, session_id="sess-cross", flavor="auth"),
    )


def default_scenario(
    name: str = "baseline",
    seed: int = 0,
    injections: tuple[Injection, ...] = (),
    duration_ms: int = 20_000,
    sl_target: int = 2,
) -> Scenario:
    return Scenario(
        name=name,
        seed=seed,
        spec=default_context(),
        duration_ms=duration_ms,
        sl_target=sl_target,
        traffic_profile=default_profile(),
        injections=tuple(injections),
    )


# --------------------------------------------------------------------------
# Event construction
# --------------------------------------------------------------------------

def _scheme(identifier: str) -> IdScheme:
    return _SCHEMES.get(identifier, IdScheme.OTHER)


def _record(t: int, src: str, dst: str, protocol: str, **kw) -> dict:
    record = dict(
        timestamp=int(t),
        src_id=src,
        dst_id=dst,
        protocol=protocol,
        id_scheme_src=_scheme(src),
        id_scheme_dst=_scheme(dst),
        direction_external=kw.pop("direction_external", False),
    )
    record.update(kw)
    return record


def _secure(t: int, src: str, dst: str, protocol: str, port: int | None, sid: str | None, nbytes: int, **kw) -> dict:
    base = dict(
        port=port,
        session_id=sid,
        bytes=nbytes,
        tls_present=True,
        cert_present=True,
        cipher_suite=_CIPHER,
        key_bits=256,
    )
    version = _VERSIONS.get(protocol)
    if version is not None:
        base["protocol_version"] = version
    base.update(kw)
    return _record(t, src, dst, protocol, **base)


def _baseline_records(scenario: Scenario, rng: random.Random) -> list[dict]:
    """Compliant traffic. Each stream takes a fresh session id for every
    ``session_max_ms`` window after the first, so no baseline session
    outlives the limit however long the scenario runs."""
    records: list[dict] = []
    window_ms = scenario.spec.session_max_ms
    for pattern in scenario.traffic_profile:
        count = max(1, round(pattern.rate_per_s * scenario.duration_ms / 1000))
        spacing = scenario.duration_ms / count
        stream = pattern.session_id or f"{pattern.src}|{pattern.dst}"
        for k in range(count):
            t = (k + 0.5) * spacing + rng.uniform(-0.3, 0.3) * spacing
            t = min(max(int(t), 0), scenario.duration_ms - 1)
            nbytes = rng.randint(64, 512)
            window = t // window_ms
            sid = f"{stream}~{window}" if window else pattern.session_id
            src, dst = pattern.src, pattern.dst
            if k % 2 and pattern.flavor not in ("auth", "process"):
                src, dst = dst, src  # data streams alternate direction
            extra = {"auth_result": "Success"} if pattern.flavor == "auth" else {}
            records.append(_secure(t, src, dst, pattern.protocol, pattern.port, sid, nbytes, **extra))
    return records


# --------------------------------------------------------------------------
# Injection registry
# --------------------------------------------------------------------------

Builder = Callable[[Scenario, int], list[dict]]


@dataclass(frozen=True)
class InjectionSpec:
    description: str
    violates: frozenset[str]
    fulfills: frozenset[str]
    build: Builder


def _login_attempt_limit(sc: Scenario, t0: int) -> list[dict]:
    # max_failed_attempts + 2 consecutive failures on one directed pair
    limit = sc.spec.max_failed_attempts if sc.spec.max_failed_attempts is not None else 3
    return [
        _secure(t0 + i * 100, PLC1, HMI1, "OPCUA", 4840, None, 96, auth_result="Failure")
        for i in range(limit + 2)
    ]


def _session_termination(sc: Scenario, t0: int) -> list[dict]:
    # spaced below the assembly gap so the events stay one session, whose
    # span then exceeds session_max_ms
    step = 59_000
    count = sc.spec.session_max_ms // step + 2
    return [
        _secure(t0 + i * step, SCADA, HIST, "MQTT", 8883, "inj-long", 128)
        for i in range(count)
    ]


def _iac_management(sc: Scenario, t0: int) -> list[dict]:
    records = []
    for i in range(7):
        src, dst = (HMI1, DC) if i % 2 == 0 else (DC, HMI1)
        records.append(
            _record(t0 + i * 50, src, dst, "LDAP", port=389, bytes=128,
                    tls_present=True, session_id="sess-ldap")
        )
    return records


def _v(*ids: str) -> frozenset[str]:
    return frozenset(ids)


_SEGMENTATION_COUPLING = _v("logical_segmentation", "boundary_default_deny", "unknown_communication")

INJECTIONS: dict[str, InjectionSpec] = {
    "unknown_protocol": InjectionSpec(
        "event over a protocol outside the expected set",
        _v("unknown_protocol", "least_functionality"), _v(),
        lambda sc, t0: [_record(t0, PLC1, HMI1, "Telnet", port=23, bytes=128, tls_present=True)]),
    "unknown_communication": InjectionSpec(
        "same-zone communication between a pair missing from the whitelist",
        _v("unknown_communication"), _v(),
        lambda sc, t0: [_secure(t0, PLC2, PLC1, "MQTT", 8883, None, 128)]),
    "unknown_software_process": InjectionSpec(
        "traffic from a software process absent from the known-process list",
        _v("unknown_software_process"), _v(),
        lambda sc, t0: [_secure(t0, ROGUE_PROC, HMI1, "OPCUA", 4840, None, 128)]),
    "abnormal_behavior": InjectionSpec(
        "event burst exceeding the per-pair rate window",
        _v("abnormal_behavior"), _v(),
        lambda sc, t0: [_secure(t0 + i * 5, PLC1, HMI1, "OPCUA", 4840, None, 80) for i in range(60)]),
    "weak_encryption": InjectionSpec(
        "key size below the crypto policy minimum",
        _v("weak_encryption"), _v(),
        lambda sc, t0: [_secure(t0, HMI1, SCADA, "MQTT", 8883, None, 128, key_bits=64)]),
    "insecure_protocol": InjectionSpec(
        "FTP on a conduit whose expected protocol is SFTP",
        _v("insecure_protocol"), _v(),
        lambda sc, t0: [_record(t0, HIST, DC, "FTP", port=21, bytes=2048, tls_present=True)]),
    "password_policy": InjectionSpec(
        "observed password below the minimum length (plus unequal lengths)",
        _v("password_policy"), _v(),
        lambda sc, t0: [
            _secure(t0, HMI1, SCADA, "MQTT", 8883, None, 96, cleartext_password="abcdef", auth_result="Success"),
            _secure(t0 + 50, HMI1, SCADA, "MQTT", 8883, None, 96,
                    cleartext_password="abcdefghijkl", auth_result="Success"),
        ]),
    "authenticator_obscured": InjectionSpec(
        "cleartext password on an unencrypted flow",
        _v("authenticator_obscured"), _v(),
        lambda sc, t0: [_record(t0, HMI1, SCADA, "MQTT", port=8883, bytes=96,
                                tls_present=False, cleartext_password="hunter2hunter12")]),
    "login_attempt_limit": InjectionSpec(
        "consecutive failed logins beyond the allowed maximum",
        _v("login_attempt_limit"), _v(), _login_attempt_limit),
    "session_termination": InjectionSpec(
        "single session outlasting the allowed maximum duration",
        _v("session_termination"), _v(), _session_termination),
    "session_id_integrity": InjectionSpec(
        "one session id reused by two disjoint participant pairs",
        _v("session_id_integrity"), _v(),
        lambda sc, t0: [
            _secure(t0, PLC1, HMI1, "OPCUA", 4840, "inj-dup", 128),
            _secure(t0 + 100, SCADA, HIST, "MQTT", 8883, "inj-dup", 128),
        ]),
    "data_integrity": InjectionSpec(
        "fragmented traffic on an unprotected conduit",
        _v("data_integrity"), _v(),
        lambda sc, t0: [_record(t0, HMI1, SCADA, "MQTT", port=8883, bytes=256,
                                tls_present=False, cert_present=False, fragmented=True)]),
    "pki_best_practice": InjectionSpec(
        "certificate exchanged without TLS/DTLS",
        _v("pki_best_practice"), _v(),
        lambda sc, t0: [_record(t0, HMI1, SCADA, "MQTT", port=8883, bytes=256,
                                tls_present=False, cert_present=True)]),
    "wireless_iac": InjectionSpec(
        "wireless device outside the expected wireless communication list",
        _v("wireless_iac", "unknown_communication"), _v(),
        lambda sc, t0: [_record(t0, BT_DEV, HMI1, "Bluetooth", bytes=64, tls_present=True)]),
    "untrusted_access_control": InjectionSpec(
        "external origin over a protocol without IAC capability",
        _v("untrusted_access_control"), _v(),
        lambda sc, t0: [_record(t0, EXTERNAL, SCADA, "HTTP", port=80, bytes=512,
                                tls_present=True, direction_external=True)]),
    "mobile_code_control": InjectionSpec(
        "mobile code from a mobile device without integrity certification",
        _v("mobile_code_control"), _v(),
        lambda sc, t0: [_record(t0, TABLET, HMI1, "HTTP", port=80, bytes=4096,
                                tls_present=True, cert_present=False, mobile_code=True)]),
    "logical_segmentation": InjectionSpec(
        "cross-zone traffic outside the configured conduits",
        _SEGMENTATION_COUPLING, _v(),
        lambda sc, t0: [_secure(t0, PLC1, HIST, "MQTT", 8883, None, 256)]),
    "boundary_default_deny": InjectionSpec(
        "zone-boundary crossing missing from the whitelist",
        _SEGMENTATION_COUPLING, _v(),
        lambda sc, t0: [_secure(t0, HMI1, HIST, "OPCUA", 4840, None, 256)]),
    "non_control_independence": InjectionSpec(
        "process-mandatory management traffic from the control zone",
        _v("non_control_independence"), _v(),
        lambda sc, t0: [_record(t0, SCADA, PLC1, "ICMP", bytes=64)]),
    "p2p_restriction": InjectionSpec(
        "person-to-person protocol between two humans in an SL 3 zone",
        _v("p2p_restriction"), _v(),
        lambda sc, t0: [_record(t0, ALICE, BOB, "HTTP", port=80, bytes=2048, tls_present=True)]),
    "data_partitioning": InjectionSpec(
        "file transfer across a zone boundary",
        _v("data_partitioning"), _v(),
        lambda sc, t0: [_record(t0, HMI1, HIST, "SFTP", port=22, bytes=8192, tls_present=True)]),
    "least_functionality": InjectionSpec(
        "expected protocol on an unexpected port",
        _v("least_functionality"), _v(),
        lambda sc, t0: [_secure(t0, PLC1, HMI1, "OPCUA", 9999, None, 128)]),
    "audit_timestamped": InjectionSpec(
        "audit record transferred without a timestamp",
        _v("audit_timestamped"), _v("audit_log_exists"),
        lambda sc, t0: [_secure(t0, SCADA, HIST, "MQTT", 8883, None, 512, audit_record=True, record_timestamp=False)]),
    "iac_management": InjectionSpec(
        "directory-protocol run evidencing an IAC management system (positive)",
        _v(), _v("iac_management"), _iac_management),
    "audit_log_exists": InjectionSpec(
        "timestamped audit record transfer (positive)",
        _v(), _v("audit_log_exists", "audit_timestamped"),
        lambda sc, t0: [_secure(t0, SCADA, HIST, "MQTT", 8883, None, 512, audit_record=True, record_timestamp=True)]),
    "authorization_enforced": InjectionSpec(
        "IPSec traffic evidencing an authorization mechanism (positive)",
        _v(), _v("authorization_enforced"),
        lambda sc, t0: [_record(t0, SCADA, HIST, "IPSec", bytes=256)]),
    "continuous_monitoring": InjectionSpec(
        "monitoring infrastructure heartbeat (positive)",
        _v(), _v("continuous_monitoring"),
        lambda sc, t0: [_secure(t0, SCADA, HIST, "MQTT", 8883, None, 64, ids_heartbeat=True)]),
    "pki_present": InjectionSpec(
        "certificate on an x509-capable protocol (positive)",
        _v(), _v("pki_present"),
        lambda sc, t0: [_secure(t0, HMI1, SCADA, "MQTT", 8883, None, 256)]),
}


def list_injections() -> list[tuple[str, str]]:
    """Every injectable attribute with a one-line description."""
    return [(attribute_id, INJECTIONS[attribute_id].description) for attribute_id in sorted(INJECTIONS)]


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _shipped_catalog() -> Catalog:
    return load_catalog(default_catalog_path())


def ground_truth_for(
    violated: frozenset[str],
    fulfilled: frozenset[str],
    sl_target: int,
    catalog: Catalog | None = None,
) -> GroundTruth:
    catalog = catalog or _shipped_catalog()
    noncompliant = set()
    for sr in catalog.iter_srs():
        if sr.not_monitorable:
            continue
        required_ids = {b.attribute_id for b in required_attributes(catalog, sr.id, sl_target)}
        if required_ids & violated:
            noncompliant.add(sr.id)
    return GroundTruth(
        expected_violated=violated,
        expected_fulfilled=fulfilled,
        expected_noncompliant_srs=frozenset(noncompliant),
    )


def generate_scenario(scenario: Scenario, catalog: Catalog | None = None) -> tuple[list[EvidenceEvent], GroundTruth]:
    """Materialize a scenario: seed-deterministic events plus ground truth.

    Identical scenarios produce byte-identical streams. Combined injections
    compose by union, both in events and in labels.
    """
    rng = random.Random(scenario.seed)
    records = _baseline_records(scenario, rng)

    violated: frozenset[str] = frozenset()
    fulfilled: frozenset[str] = frozenset()
    for injection in scenario.injections:
        spec = INJECTIONS[injection.attribute_id]
        t0 = injection.at_ms if injection.at_ms is not None else scenario.duration_ms
        records.extend(spec.build(scenario, t0))
        violated |= spec.violates
        fulfilled |= spec.fulfills

    indexed = sorted(enumerate(records), key=lambda item: (item[1]["timestamp"], item[0]))
    events = [EvidenceEvent(seq=seq, **record) for seq, (_, record) in enumerate(indexed)]
    truth = ground_truth_for(violated, fulfilled, scenario.sl_target, catalog)
    return events, truth


# --------------------------------------------------------------------------
# File formats
# --------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "duration_ms": scenario.duration_ms,
        "sl_target": scenario.sl_target,
        "context": context_to_dict(scenario.spec),
        "traffic_profile": [
            {
                "pair": [p.src, p.dst],
                "protocol": p.protocol,
                "rate_per_s": p.rate_per_s,
                **({"port": p.port} if p.port is not None else {}),
                **({"session_id": p.session_id} if p.session_id is not None else {}),
                **({"flavor": p.flavor} if p.flavor != "data" else {}),
            }
            for p in scenario.traffic_profile
        ],
        "injections": [
            {
                "attribute_id": injection.attribute_id,
                **({"at_ms": injection.at_ms} if injection.at_ms is not None else {}),
            }
            for injection in scenario.injections
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must be a JSON object")
    profile = []
    raws = read(data.get("traffic_profile", []), tuple[dict, ...], ScenarioError, "traffic_profile")
    for index, raw in enumerate(raws):
        where = f"traffic_profile[{index}]"
        src, dst = read(raw.get("pair"), tuple[str, str], ScenarioError, f"{where}: pair")
        profile.append(read({**raw, "src": src, "dst": dst}, TrafficPattern, ScenarioError, where))
    spec = context_from_dict(data.get("context", {}))
    # A file may leave out the seed, which the dataclass requires.
    return from_json(Scenario, {"seed": 0, **data}, ScenarioError, spec=spec, traffic_profile=tuple(profile))


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def ground_truth_to_dict(scenario: Scenario, truth: GroundTruth) -> dict:
    return {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "sl_target": scenario.sl_target,
        "expected_violated": sorted(truth.expected_violated),
        "expected_fulfilled": sorted(truth.expected_fulfilled),
        "expected_noncompliant_srs": sorted(truth.expected_noncompliant_srs),
    }


def save_scenario_outputs(
    scenario: Scenario,
    out_dir: str | Path,
    catalog: Catalog | None = None,
    emit_context: bool = False,
) -> list[Path]:
    """Write ``evidence.jsonl`` and ``ground_truth.json`` (optionally also the
    scenario's context as ``context.json``) into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events, truth = generate_scenario(scenario, catalog)

    evidence_path = out / "evidence.jsonl"
    evidence_path.write_text(to_jsonl(events), encoding="utf-8")

    truth_path = out / "ground_truth.json"
    truth_path.write_text(
        json.dumps(ground_truth_to_dict(scenario, truth), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    written = [evidence_path, truth_path]
    if emit_context:
        context_path = out / "context.json"
        context_path.write_text(
            json.dumps(context_to_dict(scenario.spec), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(context_path)
    return written
