"""Process/context knowledge the logical detectors combine with evidence.

The engine does not discover its environment: expected protocols and
conduits, identity lists, the zone map and all thresholds are supplied as a
:class:`ContextSpec` file by the asset owner. Compliance facts that cannot
be monitored at all (hardware security, commissioning-phase checks) arrive
through a separate manual-assignment file whose entries are cross-checked
against the catalog; overriding a monitored attribute by hand is refused.
"""

from __future__ import annotations

import ipaddress
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

from otcms.catalog import SL_LEVELS, AttributeKind
from otcms.evidence import IdScheme
from otcms.jsonfield import at_least, check_ranges, from_json, load, read, to_json

logger = logging.getLogger(__name__)

DEFAULT_WIRELESS_PROTOCOLS = frozenset({"Bluetooth", "Zigbee"})
DEFAULT_P2P_PROTOCOLS = frozenset({"HTTP"})
DEFAULT_X509_PROTOCOLS = frozenset({"MQTT", "XMPP", "OPCUA", "ModbusTCP"})
DEFAULT_MANAGEMENT_PROTOCOLS = frozenset({"ICMP", "SNMP"})
DEFAULT_IAC_PROTOCOLS = frozenset(
    {"MQTT", "XMPP", "OPCUA", "ModbusTCP", "LDAP", "Kerberos", "EAP", "SSH", "SFTP", "HTTPS"}
)
DEFAULT_SESSION_MAX_MS = 3_600_000


class ContextError(ValueError):
    """Raised for malformed or inconsistent context/manual files."""


@dataclass(frozen=True)
class CommEntry:
    """One whitelisted communication: (src, dst, protocol), ``*`` wildcards allowed.

    ``mandatory`` marks conduits the process cannot run without; used by the
    non-control-network independence check.
    """

    src: str
    dst: str
    protocol: str
    mandatory: bool = False


@dataclass(frozen=True)
class RateLimit:
    """Sliding-window rate thresholds for one participant pair."""

    window_ms: Annotated[int, at_least(1)]
    max_events_per_window: Annotated[int | None, at_least(0)] = None
    max_bytes_per_window: Annotated[int | None, at_least(0)] = None

    def __post_init__(self) -> None:
        check_ranges(self, ContextError)


@dataclass(frozen=True)
class PasswordPolicy:
    min_length: int = 8
    max_lifetime_days: int | None = None


@dataclass(frozen=True)
class CryptoPolicy:
    approved_suites: frozenset[str] = frozenset()
    min_key_bits: Annotated[int, at_least(0)] = 128
    min_protocol_versions: dict[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        check_ranges(self, ContextError)


@dataclass(frozen=True)
class ContextSpec:
    """Expected behavior, identity and zone knowledge, policies.

    A null section or an empty collection is "not configured"; an attribute
    whose ``needs`` in :data:`otcms.detectors.REGISTRY` name such a section
    is indeterminate instead of guessed.

    A whitelist entry matches an observed ``(src, dst, protocol)`` when each
    field equals the observed one or is ``*``; lookups probe the entry triples.
    """

    expected_protocols: frozenset[str] = frozenset()
    expected_communications: tuple[CommEntry, ...] = ()
    expected_ports: frozenset[int] = frozenset()
    known_software_processes: frozenset[tuple[str, str]] = frozenset()
    human_identifiers: frozenset[str] = frozenset()
    mobile_device_identifiers: frozenset[str] = frozenset()
    zone_map: dict[str, str] = field(default_factory=dict)
    zone_sl_target: dict[str, int] = field(default_factory=dict)
    trusted_zones: frozenset[str] = frozenset()
    control_zones: frozenset[str] = frozenset()
    external_prefixes: tuple[str, ...] = ()
    wireless_protocols: frozenset[str] = DEFAULT_WIRELESS_PROTOCOLS
    p2p_protocols: frozenset[str] = DEFAULT_P2P_PROTOCOLS
    iac_capable_protocols: frozenset[str] = DEFAULT_IAC_PROTOCOLS
    x509_capable_protocols: frozenset[str] = DEFAULT_X509_PROTOCOLS
    management_protocols: frozenset[str] = DEFAULT_MANAGEMENT_PROTOCOLS
    rate_spec: dict[tuple[str, str], RateLimit] = field(default_factory=dict)
    password_policy: PasswordPolicy | None = None
    max_failed_attempts: int | None = None
    session_max_ms: int = DEFAULT_SESSION_MAX_MS
    crypto_policy: CryptoPolicy | None = None
    p2p_bandwidth_limit_bytes_per_s: Annotated[int | None, at_least(0)] = None

    def __post_init__(self) -> None:
        check_ranges(self, ContextError)
        for zone, target in self.zone_sl_target.items():
            if target not in SL_LEVELS:
                raise ContextError(f"zone_sl_target for {zone!r} must be 1..4, got {target}")
        if self.password_policy is not None and self.password_policy.min_length < 1:
            raise ContextError("password_policy.min_length must be >= 1")
        if self.max_failed_attempts is not None and self.max_failed_attempts < 0:
            raise ContextError("max_failed_attempts must be >= 0")
        if self.session_max_ms <= 0:
            raise ContextError("session_max_ms must be positive")
        networks = []
        for prefix in self.external_prefixes:
            try:
                networks.append(ipaddress.ip_network(prefix))
            except ValueError as exc:
                raise ContextError(f"invalid external prefix {prefix!r}: {exc}") from exc
        object.__setattr__(self, "_external_networks", tuple(networks))
        comms = self.expected_communications
        object.__setattr__(self, "_triples", frozenset((c.src, c.dst, c.protocol) for c in comms))
        object.__setattr__(self, "_mandatory", frozenset((c.src, c.dst, c.protocol) for c in comms if c.mandatory))

    def matches_communication(self, src: str, dst: str, protocol: str) -> bool:
        return _probe(self._triples, src, dst, (protocol, "*"))

    def demands_protocol(self, src: str, dst: str, protocol: str) -> bool:
        """True when an entry expects exactly ``protocol``, not ``*``, on the conduit."""
        return _probe(self._triples, src, dst, (protocol,))

    def mandatory_communication(self, src: str, dst: str, protocol: str) -> bool:
        return _probe(self._mandatory, src, dst, (protocol, "*"))


def _probe(triples: frozenset, src: str, dst: str, protocols: tuple[str, ...]) -> bool:
    return any((s, d, p) in triples for s in (src, "*") for d in (dst, "*") for p in protocols)


@dataclass(frozen=True)
class ManualEntry:
    value: bool
    set_by: str = ""
    date: str = ""
    note: str = ""


@dataclass
class ManualAttributeFile:
    """Auditor-asserted values for catalog attributes of kind manual."""

    entries: dict[str, ManualEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class EntityClass:
    """Classification of one identifier against the context knowledge.

    Tri-state fields are ``True``/``False``/``None``; ``None`` means the
    context gives no evidence either way.
    """

    is_human: bool | None
    zone: str | None
    is_external: bool | None
    zone_trusted: bool | None


def classify_entity(identifier: str, scheme: IdScheme, ctx: ContextSpec) -> EntityClass:
    """Pure classification of ``identifier`` under ``ctx``.

    Humanity follows the identity list or the Username scheme; the list wins
    for accounts it knows about. An identifier is external when it matches a
    configured external prefix, or when it is an unzoned globally routable
    address; private addresses without a zone stay internal.
    """
    is_human: bool | None = None
    if identifier in ctx.human_identifiers:
        is_human = True
    elif scheme is IdScheme.USERNAME:
        if ctx.human_identifiers:
            logger.debug(
                "identifier %r uses the Username scheme but is not in the human list; "
                "treating as human by scheme",
                identifier,
            )
        is_human = True

    zone = ctx.zone_map.get(identifier)
    zone_trusted: bool | None = None
    if zone is not None and ctx.trusted_zones:
        zone_trusted = zone in ctx.trusted_zones

    try:
        address = ipaddress.ip_address(identifier)
    except ValueError:
        address = None
    is_external: bool | None = None
    if address is not None and any(address in network for network in ctx._external_networks):
        is_external = True
    elif zone is not None:
        is_external = False
    elif address is not None:
        is_external = bool(address.is_global)

    return EntityClass(
        is_human=is_human,
        zone=zone,
        is_external=is_external,
        zone_trusted=zone_trusted,
    )


def context_from_dict(data: dict) -> ContextSpec:
    """Build a :class:`ContextSpec` from its JSON object form."""
    if not isinstance(data, dict):
        raise ContextError("context file must contain a JSON object")
    processes = set()
    raws = read(data.get("known_software_processes", []), list, ContextError, "known_software_processes")
    for index, raw in enumerate(raws):
        if type(raw) is dict:  # {process_id, device_id}, or else a [process_id, device_id] pair
            raw = [raw.get("process_id"), raw.get("device_id")]
        processes.add(read(raw, tuple[str, str], ContextError, f"known_software_processes[{index}]"))
    rate_spec, indexes = {}, {}
    for index, raw in enumerate(read(data.get("rate_spec", []), tuple[dict, ...], ContextError, "rate_spec")):
        pair = tuple(sorted(read(raw.get("pair"), tuple[str, str], ContextError, f"rate_spec[{index}]: pair")))
        if pair in indexes:  # either order names the same pair; one limit must not silently replace another
            raise ContextError(f"rate_spec[{index}]: pair {list(pair)} is already limited by rate_spec[{indexes[pair]}]")
        indexes[pair] = index
        rate_spec[pair] = read(raw, RateLimit, ContextError, f"rate_spec[{index}]")
    return from_json(
        ContextSpec, data, ContextError, known_software_processes=frozenset(processes), rate_spec=rate_spec
    )


def context_to_dict(ctx: ContextSpec) -> dict:
    """JSON object form of a :class:`ContextSpec` (inverse of ``context_from_dict``)."""
    data = to_json(ctx)
    # The two sections whose file shape is not their field's.
    data["known_software_processes"] = [{"process_id": p, "device_id": d} for p, d in data["known_software_processes"]]
    data["rate_spec"] = [{"pair": list(pair), **limit} for pair, limit in sorted(data["rate_spec"].items())]
    return data


def load_context(path: str | Path) -> ContextSpec:
    """Load a context file, applying documented defaults for absent sections."""
    return context_from_dict(load(path, ContextError))


def load_manual_attributes(path: str | Path, catalog) -> ManualAttributeFile:
    """Load auditor-set manual attribute values, cross-checked against ``catalog``.

    An entry is accepted only when the catalog binds its attribute with kind
    manual. Entries for traffic/logical attributes are refused: monitored
    attributes cannot be overridden by hand.
    """
    data = load(path, ContextError)
    if not isinstance(data, dict):
        raise ContextError("manual attribute file must contain a JSON object")

    raw_entries = data.get("entries", data)
    if not isinstance(raw_entries, dict):
        raise ContextError("'entries' must be a JSON object")

    kinds = catalog.attribute_kinds()
    entries: dict[str, ManualEntry] = {}
    for attribute_id, raw in raw_entries.items():
        kind = kinds.get(attribute_id)
        if kind is None:
            raise ContextError(f"unknown manual attribute {attribute_id!r}: not bound in the catalog")
        if kind is not AttributeKind.MANUAL:
            raise ContextError(
                f"manual override refused for {attribute_id!r}: attribute is monitored ({kind.value})"
            )
        if type(raw) is bool:
            entries[attribute_id] = ManualEntry(value=raw)
        else:
            entries[attribute_id] = read(raw, ManualEntry, ContextError, f"manual entry {attribute_id}")
    return ManualAttributeFile(entries=entries)
