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

The default plant is defined once, by the bundled ``scenario-example.json``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Annotated, Callable, Iterable

from otcms.catalog import Catalog, SLTarget, default_catalog_path, load_catalog, required_attributes
from otcms.context import ContextSpec, context_from_dict, context_to_dict
from otcms.evidence import INT64_MAX, EvidenceEvent, IdScheme, collector_paused, to_jsonl
from otcms.jsonfield import at_least, at_most, check_ranges, from_json, load, one_of, read, to_json, utf8

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
#: The fields of every event ``_secure`` builds, unless it is given others.
_SECURE = {"tls_present": True, "cert_present": True, "cipher_suite": _CIPHER, "key_bits": 256}
#: Every event field, in order, holding its default (None where it has none).
_BLANK = dict.fromkeys(EvidenceEvent._fields) | EvidenceEvent._field_defaults
#: The slots of an event row, a list of an event's values in field order, that generation sets.
_SEQ, _TIMESTAMP, _SESSION_ID, _BYTES = map(EvidenceEvent._fields.index, ("seq", "timestamp", "session_id", "bytes"))
#: Records :func:`_rows` turns into rows at once, and rows :func:`generate_scenario` into events.
_CHUNK = 1024


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
    flavor: Annotated[str, one_of("data", "process", "auth")] = "data"

    def __post_init__(self) -> None:
        check_ranges(self, ScenarioError)


@dataclass(frozen=True)
class Injection:
    """Targeted violation (or positive pattern) to weave into the stream."""

    attribute_id: str
    at_ms: Annotated[int | None, at_least(0)] = None

    def __post_init__(self) -> None:
        check_ranges(self, ScenarioError)


@dataclass
class Scenario:
    name: str
    seed: int
    spec: ContextSpec
    duration_ms: Annotated[int, at_least(1), at_most(INT64_MAX)] = 20_000
    sl_target: SLTarget = 2
    traffic_profile: tuple[TrafficPattern, ...] = ()
    injections: tuple[Injection, ...] = ()

    def __post_init__(self) -> None:
        check_ranges(self, ScenarioError)
        for index, pattern in enumerate(self.traffic_profile):
            # A pattern's events are counted as a float, which must be finite.
            if not 0 < pattern.rate_per_s * self.duration_ms < math.inf:
                raise ScenarioError(
                    f"traffic_profile[{index}]: rate_per_s: expected a positive number whose events over "
                    f"duration_ms {self.duration_ms} can be counted, got {pattern.rate_per_s}"
                )
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

@lru_cache(maxsize=1)
def _example() -> dict:
    """The bundled example scenario's JSON, read on first use; each caller
    parses its own scenario from it, as a context holds mutable dicts."""
    return load(Path(__file__).with_name("data") / "scenario-example.json", ScenarioError)


def default_context() -> ContextSpec:
    """The default plant's context."""
    return context_from_dict(_example()["context"])


def default_profile() -> tuple[TrafficPattern, ...]:
    """The default plant's baseline traffic."""
    return default_scenario().traffic_profile


def default_scenario(
    name: str = "baseline",
    seed: int = 0,
    injections: tuple[Injection, ...] = (),
    duration_ms: int = 20_000,
    sl_target: int = 2,
) -> Scenario:
    """The default plant's scenario under the given name, seed, injections,
    window and SL target."""
    return replace(scenario_from_dict(_example()), name=name, seed=seed, injections=tuple(injections),
                   duration_ms=duration_ms, sl_target=sl_target)


# --------------------------------------------------------------------------
# Event construction
# --------------------------------------------------------------------------

def _record(t: int, src: str, dst: str, protocol: str, **kw) -> dict:
    """The fields of an event but ``seq``, by name; a field left out takes its default."""
    return {"timestamp": int(t), "src_id": src, "dst_id": dst, "protocol": protocol,
            "id_scheme_src": _SCHEMES.get(src, IdScheme.OTHER), "id_scheme_dst": _SCHEMES.get(dst, IdScheme.OTHER),
            "direction_external": False, **kw}


def _secure(t: int, src: str, dst: str, protocol: str, port: int | None, sid: str | None, nbytes: int, **kw) -> dict:
    return {**_record(t, src, dst, protocol), "port": port, "session_id": sid, "bytes": nbytes,
            "protocol_version": _VERSIONS.get(protocol), **_SECURE, **kw}


def _rows(records: Iterable[dict]) -> list[list]:
    """Each record's values over the defaults, as an event row, made a chunk of records at a time, so
    records given lazily are freed as their rows are made; refuses the least field no event has."""
    rows, records = [], iter(records)
    while chunk := list(islice(records, _CHUNK)):
        made = [[*{**_BLANK, **record}.values()] for record in chunk]
        if max(map(len, made)) > len(_BLANK):  # the records of earlier chunks named only event fields
            raise TypeError(f"no event field {min(set().union(*chunk, *records) - _BLANK.keys())!r}")
        rows += made
    return rows


def _baseline_rows(scenario: Scenario, rng: random.Random) -> list[list]:
    """Compliant traffic as event rows: each a copy of its stream's row for its direction, built
    once by ``_secure``, with timestamp, session id and bytes set. A stream takes a fresh session
    id for every ``session_max_ms`` window after the first, so no baseline session outlives the
    limit however long the scenario runs."""
    rows: list[list] = []
    window_ms = scenario.spec.session_max_ms
    for pattern in scenario.traffic_profile:
        count = max(1, round(pattern.rate_per_s * scenario.duration_ms / 1000))
        spacing = scenario.duration_ms / count
        stream = pattern.session_id or f"{pattern.src}|{pattern.dst}"
        extra = {"auth_result": "Success"} if pattern.flavor == "auth" else {}
        ends = ((pattern.src, pattern.dst), (pattern.dst, pattern.src))
        forward, backward = _rows([_secure(0, *pair, pattern.protocol, pattern.port, None, 0, **extra) for pair in ends])
        for k in range(count):
            t = (k + 0.5) * spacing + rng.uniform(-0.3, 0.3) * spacing
            t = min(max(int(t), 0), scenario.duration_ms - 1)
            row = (backward if k % 2 and pattern.flavor not in ("auth", "process") else forward).copy()
            row[_TIMESTAMP] = t
            row[_SESSION_ID] = f"{stream}~{t // window_ms}" if t >= window_ms else pattern.session_id
            row[_BYTES] = rng.randint(64, 512)
            rows.append(row)
    return rows


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
        _v("wireless_iac", "unknown_communication"), _v("is_wireless_observed"),
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


@collector_paused()
def generate_scenario(scenario: Scenario, catalog: Catalog | None = None) -> tuple[list[EvidenceEvent], GroundTruth]:
    """Materialize a scenario: seed-deterministic events plus ground truth.

    Identical scenarios produce byte-identical streams. Combined injections
    compose by union, both in events and in labels. The collector is paused
    while it runs (:func:`~otcms.evidence.collector_paused`).
    """
    injected = [(INJECTIONS[i.attribute_id], scenario.duration_ms if i.at_ms is None else i.at_ms)
                for i in scenario.injections]
    # The injected records are built one injection at a time, and freed as their rows are made.
    rows = _baseline_rows(scenario, random.Random(scenario.seed))
    rows += _rows(record for spec, t0 in injected for record in spec.build(scenario, t0))
    violated = frozenset().union(*(spec.violates for spec, _ in injected))
    fulfilled = frozenset().union(*(spec.fulfills for spec, _ in injected))

    rows.sort(key=itemgetter(_TIMESTAMP))
    for seq, row in enumerate(rows):
        row[_SEQ] = seq
    # Each numbered row becomes an event as the parse builds one, from its values in field order: in place,
    # a chunk at a time, so each row list is freed as its event is made.
    for start in range(0, len(rows), _CHUNK):
        rows[start:start + _CHUNK] = map(tuple.__new__, repeat(EvidenceEvent), rows[start:start + _CHUNK])
    truth = ground_truth_for(violated, fulfilled, scenario.sl_target, catalog)
    return rows, truth


# --------------------------------------------------------------------------
# File formats
# --------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    data = to_json(scenario)
    # The file names the context ``context`` and a pattern's endpoints ``pair``.
    del data["spec"]
    data["context"] = context_to_dict(scenario.spec)
    for pattern in data["traffic_profile"]:
        pattern["pair"] = [pattern.pop("src"), pattern.pop("dst")]
    return data


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
    return scenario_from_dict(load(path, ScenarioError))


def ground_truth_to_dict(scenario: Scenario, truth: GroundTruth) -> dict:
    return {"scenario": scenario.name, "seed": scenario.seed, "sl_target": scenario.sl_target, **to_json(truth)}


def save_scenario_outputs(
    scenario: Scenario,
    out_dir: str | Path,
    catalog: Catalog | None = None,
    emit_context: bool = False,
) -> list[Path]:
    """Write ``evidence.jsonl`` and ``ground_truth.json`` (optionally also the
    scenario's context as ``context.json``) into ``out_dir``. Every file is
    encoded before ``out_dir`` is made, so a text UTF-8 cannot encode (a
    lone surrogate in an id) raises a ValueError naming the file, with
    nothing written."""
    events, truth = generate_scenario(scenario, catalog)

    documents = {"ground_truth.json": ground_truth_to_dict(scenario, truth)}
    if emit_context:
        documents["context.json"] = context_to_dict(scenario.spec)
    texts = {"evidence.jsonl": to_jsonl(events)}
    texts.update((name, json.dumps(document, indent=2, sort_keys=True) + "\n") for name, document in documents.items())
    out = Path(out_dir)
    encoded = {name: utf8(text, out / name) for name, text in texts.items()}
    out.mkdir(parents=True, exist_ok=True)
    for name, data in encoded.items():
        (out / name).write_bytes(data)
    return [out / name for name in encoded]
