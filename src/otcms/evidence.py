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

import hashlib
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Annotated, BinaryIO, Iterable, Iterator, NamedTuple

from otcms.jsonfield import at_least, from_json, one_of, reader, unreadable, within_depth, writer

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


class EvidenceEvent(NamedTuple):
    """One observed network communication record.

    The annotations are the evidence format: :func:`parse_evidence` reads
    each JSON key by its field's exact type, and :func:`to_jsonl` writes
    every field except one holding a null, false or enum default
    (``Other``), which reads back as that default when absent; the required
    fields and ``bytes`` are always written. The payload markers,
    ``access_list_transfer`` to ``snapshot_transfer``, stand in for
    deep-payload parsing: adapters set them when the corresponding content
    was observed inside a packet payload.

    An event is an immutable named tuple: it compares equal to the plain
    tuple of its fields, and ``_replace`` derives a copy with some fields
    changed.
    """

    seq: int
    timestamp: Annotated[int, at_least(0)]  # milliseconds since epoch
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
    key_bits: Annotated[int | None, at_least(1)] = None
    cleartext_password: str | None = None
    auth_result: Annotated[str | None, one_of("Success", "Failure")] = None
    session_id: str | None = None
    error_code: str | None = None
    fragmented: bool = False
    bytes: Annotated[int, at_least(0)] = 0
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
    def duration_ms(self) -> int:
        return self.end - self.start


def parse_evidence(lines: Iterable[str], strict: bool = True) -> list[EvidenceEvent]:
    """Parse a JSON Lines evidence stream into events in file order.

    ``seq`` is assigned 0..n-1 over the parsed events; any ``seq`` present
    in the input is ignored. Each line is decoded by the JSON scanner alone,
    and its record built by the :func:`~otcms.jsonfield.reader` compiled for
    :class:`EvidenceEvent`. A line that either refuses is read again by
    :func:`_reread`, which words the refusal. One string memo per call makes
    equal string values share one object across the stream.

    A line is malformed when its JSON is invalid or too large for Python's
    reader (nested too deeply, an integer of too many digits) or when its
    record is refused; a refused record nested more than
    :data:`~otcms.jsonfield.MAX_DEPTH` deep is refused as nested too deeply.
    In strict mode a malformed line raises :class:`EvidenceError` naming the
    line; in lenient mode it is skipped with a warning.
    """
    events: list[EvidenceEvent] = []
    strings: dict[str, str] = {}
    read = reader(EvidenceEvent, "seq")
    scan = json.JSONDecoder().scan_once
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record, end = scan(stripped, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        # ``strip`` removes JSON's whitespace too, so the scanner reads the whole line or the line is not JSON.
        event = read(record, strings, seq=len(events)) if end == len(stripped) and type(record) is dict else None
        if event is None:
            event = _reread(stripped, strings, len(events))
            if type(event) is str:
                if strict:
                    raise EvidenceError(f"line {line_no}: {event}")
                logger.warning("skipping malformed evidence line %d: %s", line_no, event)
                continue
        events.append(event)
    return events


def _reread(text: str, strings: dict[str, str], seq: int) -> EvidenceEvent | str:
    """The event of the evidence line ``text``, read by ``json.loads`` and
    :func:`~otcms.jsonfield.from_json`, or why the line is refused, in
    their words."""
    try:
        record = within_depth(json.loads(text))
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON ({unreadable(exc)})"
    try:
        return from_json(EvidenceEvent, record, EvidenceError, strings=strings, seq=seq)
    except EvidenceError as exc:
        return str(exc)


def evidence_digest(data: bytes) -> str:
    """Content hash binding a report to its evidence input."""
    return _digest(hashlib.sha256(data))


def _digest(sha256) -> str:
    """The one written form of an evidence digest, from a running SHA-256."""
    return "sha256:" + sha256.hexdigest()


def read_evidence(file: BinaryIO, strict: bool = True) -> tuple[list[EvidenceEvent], str]:
    """Parse an evidence file opened in binary mode, in one pass: its events
    (by :func:`parse_evidence`) and its :func:`evidence_digest`.

    Each line is hashed and decoded as it is read, so neither the file's
    bytes nor its text is ever held whole. Records are separated at line
    feeds only, as JSON Lines defines them: ``str.splitlines`` would also
    split at U+2028, U+2029 and U+0085, which :func:`to_jsonl` writes raw
    inside strings. A carriage return before a line feed is stripped with
    its line; a bare one separates nothing. A line that is not UTF-8 raises
    :class:`EvidenceError` naming it in lenient mode too, since a file in
    another encoding has no readable line.
    """
    sha256 = hashlib.sha256()

    def lines() -> Iterator[str]:
        for line_no, line in enumerate(file, start=1):
            sha256.update(line)
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EvidenceError(f"line {line_no}: not UTF-8 ({exc.reason})") from None

    return parse_evidence(lines(), strict=strict), _digest(sha256)


def load_evidence(path: str | Path, strict: bool = True) -> list[EvidenceEvent]:
    """Read and parse an evidence file; its digest, which :func:`read_evidence`
    also returns, is dropped."""
    with open(path, "rb") as file:
        return read_evidence(file, strict=strict)[0]


def to_jsonl(events: Iterable[EvidenceEvent]) -> str:
    """Canonical JSON Lines serialization: one line per event, each ended by
    a line feed, written by the :func:`~otcms.jsonfield.writer` compiled for
    :class:`EvidenceEvent`: the :func:`~otcms.jsonfield.canonical` text of
    its :func:`~otcms.jsonfield.to_json` record."""
    lines = list(map(writer(EvidenceEvent), events))
    return "\n".join(lines) + ("\n" if lines else "")


def jsonl_digest(events: Iterable[EvidenceEvent]) -> str:
    """The :func:`evidence_digest` of ``to_jsonl(events)`` in UTF-8, hashed
    line by line as :func:`read_evidence` hashes a file, so the text is
    never held whole."""
    sha256 = hashlib.sha256()
    update = sha256.update
    for line in map(writer(EvidenceEvent), events):
        update((line + "\n").encode("utf-8"))
    return _digest(sha256)


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
