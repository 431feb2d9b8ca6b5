"""Normalized network-evidence records and session assembly.

Evidence reaches the engine as JSON Lines, one observed communication per
line, produced by a capture adapter outside this package. Security
properties that passive monitoring may fail to observe are tri-state:
``True``, ``False`` or ``None`` (unknown). Unknown never counts against
compliance.

A session groups the events of one task between two entities. The wire
never marks where such a task starts or ends, so assembly uses an explicit
``session_id`` when present plus a silence-gap heuristic; the gap rule is a
construction of this engine, not of any protocol.
"""

from __future__ import annotations

import json
import logging
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Iterable

from otcms.jsonfield import at_least, from_json, one_of

logger = logging.getLogger(__name__)

DEFAULT_SESSION_GAP_MS = 60_000


class EvidenceError(ValueError):
    """Raised for malformed evidence input (carries line number and reason)."""


class IdScheme(str, Enum):
    """Identifier scheme of a communication endpoint."""

    IP = "IP"
    MAC = "MAC"
    USERNAME = "Username"
    PROCESS_ID = "ProcessId"
    EPC = "EPC"
    UCODE = "Ucode"
    NETBIOS = "NetBIOS"
    OTHER = "Other"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown identifier scheme {value!r}")


@dataclass(frozen=True)
class EvidenceEvent:
    """One observed network communication record.

    The annotations are the evidence format: :func:`parse_evidence` reads
    each JSON key by its field's exact type, and :func:`event_to_record`
    leaves a field out while it holds its absent default (null, false,
    ``Other``). The payload markers, ``access_list_transfer`` to
    ``snapshot_transfer``, stand in for deep-payload parsing: adapters set
    them when the corresponding content was observed inside a packet payload.
    """

    seq: int
    timestamp: int = field(metadata=at_least(0))  # milliseconds since epoch
    src_id: str
    dst_id: str
    protocol: str
    id_scheme_src: IdScheme = IdScheme.OTHER
    id_scheme_dst: IdScheme = IdScheme.OTHER
    protocol_version: str | None = None
    port: int | None = None
    tls_present: bool | None = None
    cert_present: bool | None = None
    cipher_suite: str | None = None
    key_bits: int | None = field(default=None, metadata=at_least(1))
    cleartext_password: str | None = None
    auth_result: str | None = field(default=None, metadata=one_of("Success", "Failure"))
    session_id: str | None = None
    error_code: str | None = None
    fragmented: bool = False
    bytes: int = field(default=0, metadata=at_least(0))
    direction_external: bool | None = None
    access_list_transfer: bool = False
    mobile_code: bool = False
    audit_record: bool = False
    record_timestamp: bool = False
    ids_heartbeat: bool = False
    snapshot_transfer: bool = False

    def pair(self) -> tuple[str, str]:
        """Unordered participant pair, canonically sorted."""
        return (self.src_id, self.dst_id) if self.src_id <= self.dst_id else (self.dst_id, self.src_id)


@dataclass
class Session:
    """All events of one task between two entities.

    Sessions partition their input stream: every event belongs to exactly
    one session, timestamps within a session are non-decreasing.
    """

    session_key: str
    participants: tuple[str, str]
    events: list[EvidenceEvent] = field(default_factory=list)

    @property
    def start(self) -> int:
        return self.events[0].timestamp

    @property
    def end(self) -> int:
        return self.events[-1].timestamp

    @property
    def total_bytes(self) -> int:
        return sum(e.bytes for e in self.events)

    @property
    def duration_ms(self) -> int:
        return self.end - self.start


def parse_evidence(lines: Iterable[str], strict: bool = True) -> list[EvidenceEvent]:
    """Parse a JSON Lines evidence stream into events in file order.

    ``seq`` is assigned 0..n-1 over the parsed events; any ``seq`` present
    in the input is ignored. In strict mode a malformed line raises
    :class:`EvidenceError` naming the line; in lenient mode it is skipped
    with a warning.
    """
    events: list[EvidenceEvent] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            events.append(from_json(EvidenceEvent, json.loads(stripped), EvidenceError, seq=len(events)))
        except (EvidenceError, json.JSONDecodeError) as exc:
            reason = f"invalid JSON ({exc.msg})" if isinstance(exc, json.JSONDecodeError) else str(exc)
            if strict:
                raise EvidenceError(f"line {line_no}: {reason}") from exc
            logger.warning("skipping malformed evidence line %d: %s", line_no, reason)
    return events


def load_evidence(path: str | Path, strict: bool = True) -> list[EvidenceEvent]:
    """Read and parse an evidence file."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_evidence(text.splitlines(), strict=strict)


#: Each field with its default where that default means "not observed"
#: (null, false, ``Other``) and is left out of a record; MISSING for the
#: fields always written, the required ones and ``bytes``.
_ABSENT = [
    (f.name, f.default if f.default is None or type(f.default) in (bool, IdScheme) else MISSING)
    for f in fields(EvidenceEvent)
]


def event_to_record(event: EvidenceEvent) -> dict:
    """Serializable record; optional fields are omitted when absent."""
    record: dict = {}
    for name, absent in _ABSENT:
        value = getattr(event, name)
        if value is not absent:
            record[name] = value.value if type(value) is IdScheme else value
    return record


def to_jsonl(events: Iterable[EvidenceEvent]) -> str:
    """Canonical JSON Lines serialization (sorted keys, compact, trailing newline)."""
    lines = [
        json.dumps(event_to_record(e), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_evidence(events: Iterable[EvidenceEvent], path: str | Path) -> None:
    Path(path).write_text(to_jsonl(events), encoding="utf-8")


def assemble_sessions(
    events: list[EvidenceEvent],
    gap_ms: int = DEFAULT_SESSION_GAP_MS,
    explicit_ids: bool = True,
) -> list[Session]:
    """Group events into sessions.

    Events are grouped by unordered participant pair, additionally keyed by
    ``session_id`` when ``explicit_ids`` is set and the event carries one.
    Within a group, a silence longer than ``gap_ms`` starts a new session.
    The result partitions the input and is deterministic for identical
    input and parameters.
    """
    if gap_ms <= 0:
        raise ValueError("gap_ms must be positive")

    groups: dict[tuple, list[EvidenceEvent]] = {}
    for event in events:
        sid = event.session_id if explicit_ids else None
        groups.setdefault((event.pair(), sid), []).append(event)

    sessions: list[Session] = []
    for (pair, sid), members in groups.items():
        members = sorted(members, key=lambda e: (e.timestamp, e.seq))
        chunk: list[EvidenceEvent] = []
        chunks: list[list[EvidenceEvent]] = []
        for event in members:
            if chunk and event.timestamp - chunk[-1].timestamp > gap_ms:
                chunks.append(chunk)
                chunk = []
            chunk.append(event)
        if chunk:
            chunks.append(chunk)
        base = f"{pair[0]}|{pair[1]}" + (f"|{sid}" if sid is not None else "")
        for index, part in enumerate(chunks):
            sessions.append(Session(session_key=f"{base}#{index}", participants=pair, events=part))

    sessions.sort(key=lambda s: (s.start, s.events[0].seq))
    return sessions
