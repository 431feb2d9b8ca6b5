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

import gc
import hashlib
import io
import json
import logging
import re
import typing
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import chain, compress, islice, pairwise, repeat
from operator import gt, itemgetter, sub
from pathlib import Path
from typing import Annotated, BinaryIO, Iterable, Iterator, Mapping, NamedTuple

from otcms.jsonfield import at_least, at_most, canonical, from_json, one_of, to_json, unreadable, within_depth

logger = logging.getLogger(__name__)

DEFAULT_SESSION_GAP_MS = 60_000
#: The largest integer a capture format's signed 64-bit counter carries: the most ``bytes`` an event may give.
INT64_MAX = 2**63 - 1


@contextmanager
def collector_paused() -> Iterator[None]:
    """Python's cyclic garbage collector paused around a block, or, as the
    decorator ``@collector_paused()``, around each call, and then left as
    it was found, also when the block raises. The pause is process-global.

    Entry points that build one object per event pause it: each collection
    would walk every event, which its :class:`IdScheme` fields keep
    tracked, and what they build is freed by reference counting."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


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
    bytes: Annotated[int, at_least(0), at_most(INT64_MAX)] = 0
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


@collector_paused()
def parse_evidence(lines: Iterable[str], strict: bool = True, *, shapes: dict | None = None) -> list[EvidenceEvent]:
    """Parse a JSON Lines evidence stream into events in file order.

    ``seq`` is assigned 0..n-1 over the parsed events; any ``seq`` present
    in the input is ignored. Each line is decoded by the JSON scanner alone,
    and its record built by :func:`~otcms.jsonfield.from_json`. A line that
    either refuses is read again by :func:`_reread`, which words the refusal
    and checks the depth first. Each string value of a record passes through
    one string memo per call, so equal strings share one object across the
    stream.

    A line repeating an earlier line's shape, its text pieces and key names
    left after cutting the integer runs of ``"bytes":``, ``"seq":`` and
    ``"timestamp":`` (:data:`_RUNS`), is read from the shape's template: the
    event of its first line, admitted then by one re-read if :func:`_template`
    finds each run read into its own field alone. A hit is one tuple of its
    position, the line's ``timestamp`` and ``bytes`` (a run has at most 18
    digits, so it is in range) and the template's other fields; every line
    of a refused shape is read as above. Shapes are kept up to
    :data:`_SHAPE_ROOM` characters, and cutting stops once lines of a new or
    refused shape outnumber hits by more than :data:`_MISSES`. Events,
    refusals, line numbers and warnings are the same either way.

    A line is malformed when its JSON is invalid or too large for Python's
    reader (nested too deeply, an integer of too many digits) or when its
    record is refused; a refused record nested more than
    :data:`~otcms.jsonfield.MAX_DEPTH` deep is refused as nested too deeply.
    In strict mode a malformed line raises :class:`EvidenceError` naming the
    line; in lenient mode it is skipped with a warning.

    An empty dict ``shapes`` is filled with the events' :func:`group_shapes`
    on the way: a template holds its shape's position list, which each hit
    appends to, and every other event is put in under its shape. The
    collector is paused while it runs (:func:`collector_paused`).
    """
    events: list[EvidenceEvent] = []
    intern = {}.setdefault
    scan = json.JSONDecoder().scan_once

    def parse(text: str, seq: int) -> EvidenceEvent | None:
        """The event of a line read by the scanner and ``from_json``, or None."""
        try:
            record, end = scan(text, 0)
            # ``strip`` removes JSON's whitespace too, so the scanner reads the whole line or the line is not JSON.
            if end < len(text) or type(record) is not dict:
                return None
            for key, value in record.items():
                if type(value) is str:
                    record[key] = intern(value, value)
            return from_json(EvidenceEvent, record, EvidenceError, seq=seq)
        except (StopIteration, ValueError, RecursionError):  # the scanner, or quoting a deep value, may recurse too far
            return None

    # Per shape: () refused, else its template (see _template).
    cut, templates, lead, room, positions = re.compile(_RUNS).split, {}, 0, _SHAPE_ROOM, None
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if cut:
            parts = cut(stripped)
            shape = _THREE_RUN_SHAPE(parts) if len(parts) == 10 else (*parts[0::3], *parts[1::3])
            template = templates.get(shape)
            if template:
                get, middle, tail, members = template
                timestamp, size = get(parts)
                position = len(events)
                events.append(tuple.__new__(EvidenceEvent, (position, int(timestamp), *middle, int(size), *tail)))
                if shapes is not None:
                    members.append(position)
                lead -= 1
                continue
            admit = template is None and len(stripped) <= room
            lead += 1
            if lead > _MISSES:
                cut = templates = None
        event = parse(stripped, len(events))
        if event is None:
            event = _reread(stripped, len(events))
        if type(event) is str:
            if strict:
                raise EvidenceError(f"line {line_no}: {event}")
            logger.warning("skipping malformed evidence line %d: %s", line_no, event)
        else:
            events.append(event)
            if shapes is not None:
                positions = shapes.setdefault(event[SHAPE_START:SHAPE_GAP] + event[SHAPE_GAP + 1:], [])
                positions.append(event.seq)
        if cut and admit:
            room -= len(stripped)
            templates[shape] = () if type(event) is str else _template(event, parts, parse, positions)
    return events


#: Splits an evidence line into its text between runs, each run's key with
#: its colon, and the run: a JSON integer of no sign, fraction or exponent,
#: and of at most 18 digits, so below ``INT64_MAX`` and every field's bound;
#: a longer integer stays in the line's shape. The parse cuts read lines by
#: it, and :func:`_lines` the written lines it makes templates of. Compiled
#: on first use, so importing compiles nothing.
_RUNS = r'("(?:bytes|seq|timestamp)":)(0|[1-9][0-9]{0,17})(?![0-9.eE])'
#: The fields whose integers a shape leaves out, in key order.
_RUN_NAMES = ("bytes", "seq", "timestamp")
#: The field each run's key names.
_RUN_FIELDS = {f'"{name}":': EvidenceEvent._fields.index(name) for name in _RUN_NAMES}
#: An event's shape, ``e[SHAPE_START:SHAPE_GAP] + e[SHAPE_GAP + 1:]``: every field but the
#: runs', whose fields are the leading ones and one more.
SHAPE_START, SHAPE_GAP = len(_RUN_NAMES) - 1, max(_RUN_FIELDS.values())
#: The shape of a line cut into three runs: its text pieces, then its keys.
_THREE_RUN_SHAPE = itemgetter(0, 3, 6, 9, 1, 4, 7)
Shapes = Mapping[tuple, list[int]]  #: shape -> stream positions, as :func:`group_shapes` gives them
#: Most characters of line text one parse, or one write, keeps in its shapes.
_SHAPE_ROOM = 2**20
#: By how many lines those of a new or refused shape may outnumber template
#: hits before the parse's cut stops.
_MISSES = 512


def _template(event: EvidenceEvent, parts: list[str], parse, positions: list[int] | None) -> tuple:
    """The template of the evidence line cut into ``parts`` and read as
    ``event``: a getter of its ``timestamp`` and ``bytes`` run texts, the
    event's fields between those two and after ``bytes``, and ``positions``.
    A field without a run is a constant of the shape, which the getter
    gives. It is () if the cut names a run key twice, or if ``parse``,
    given the line with every run changed to a value unlike its field's,
    reads an event changed otherwise than in exactly the ``timestamp`` and
    ``bytes`` runs' fields. One re-read suffices: a changed run keeps the
    parse tree, its leaf is read into its own key's top-level field or into
    nothing, and the keys differ, so a run nested in an unknown value or
    ending an unknown key after an escaped quote leaves its field as it was."""
    runs = dict(zip(map(_RUN_FIELDS.get, parts[1::3]), range(2, len(parts), 3)))
    if 3 * len(runs) + 1 < len(parts):  # a run key cut twice
        return ()
    changed, expected = parts.copy(), list(event)
    for field, index in runs.items():
        changed[index] = "1" if event[field] == 0 else "0"
        if field:  # not ``seq``, whose field is the event's position
            expected[field] = int(changed[index])
    if parse("".join(changed), event.seq) != tuple(expected):
        return ()
    at, values = (runs.get(SHAPE_START - 1), runs.get(SHAPE_GAP)), (event.timestamp, event.bytes)
    get = itemgetter(*at) if all(at) else lambda parts: [parts[i] if i else v for i, v in zip(at, values)]
    return get, event[SHAPE_START:SHAPE_GAP], event[SHAPE_GAP + 1:], positions


def group_shapes(events: list[EvidenceEvent]) -> dict[tuple, list[int]]:
    """Shape -> the ascending stream positions of its events, shapes in order
    of first appearance. Shapes compare by ``==``, so events must hold their
    fields' annotated types."""
    shapes: defaultdict[tuple, list[int]] = defaultdict(list)
    for position, e in enumerate(events):
        shapes[e[SHAPE_START:SHAPE_GAP] + e[SHAPE_GAP + 1:]].append(position)
    return dict(shapes)


def _reread(text: str, seq: int) -> EvidenceEvent | str:
    """The event of the evidence line ``text``, read by ``json.loads`` and
    :func:`~otcms.jsonfield.from_json`, or why the line is refused, in
    their words."""
    try:
        record = within_depth(json.loads(text))
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON ({unreadable(exc)})"
    try:
        return from_json(EvidenceEvent, record, EvidenceError, seq=seq)
    except EvidenceError as exc:
        return str(exc)


def evidence_digest(data: bytes) -> str:
    """Content hash binding a report to its evidence input."""
    return _digest(hashlib.sha256(data))


def _digest(sha256) -> str:
    """The one written form of an evidence digest, from a running SHA-256."""
    return "sha256:" + sha256.hexdigest()


def read_evidence(file: BinaryIO, strict: bool = True, *, shapes: dict | None = None) -> tuple[list[EvidenceEvent], str]:
    """Parse an evidence file opened in binary mode, in one pass: its events
    (by :func:`parse_evidence`, which fills ``shapes`` if given) and its
    :func:`evidence_digest`.

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

    return parse_evidence(lines(), strict=strict, shapes=shapes), _digest(sha256)


def load_evidence(path: str | Path, strict: bool = True) -> list[EvidenceEvent]:
    """Read and parse an evidence file; its digest, which :func:`read_evidence`
    also returns, is dropped."""
    with open(path, "rb") as file:
        return read_evidence(file, strict=strict)[0]


def to_jsonl(events: Iterable[EvidenceEvent]) -> str:
    """Canonical JSON Lines serialization: one line per event, each ended by
    a line feed, the :func:`~otcms.jsonfield.canonical` text of its
    :func:`~otcms.jsonfield.to_json` record. The events are grouped by
    :func:`group_shapes` and a repeated shape is written from its template
    (see :func:`_lines`), to the same text. Each line is copied into one
    growing buffer as it is written, so no line outlives its copy and no
    list of them is held."""
    text = io.StringIO()
    text.writelines(_lines(*_grouped(events)))
    return text.getvalue()


def jsonl_digest(events: Iterable[EvidenceEvent], shapes: Shapes | None = None) -> str:
    """The :func:`evidence_digest` of ``to_jsonl(events)`` in UTF-8, hashed
    line by line as :func:`read_evidence` hashes a file, so the text is
    never held whole; lines come from :func:`_lines`, as there, each the
    canonical JSON of its event's record. ``shapes``, if given, is the
    :func:`group_shapes` of the list ``events``, trusted as sessions and
    detectors trust it; else the events are grouped here. It refuses at the
    first line it cannot write or encode."""
    if shapes is None:
        events, shapes = _grouped(events)
    sha256 = hashlib.sha256()
    update = sha256.update
    for line in _lines(events, shapes):
        update(line.encode("utf-8"))
    return _digest(sha256)


#: The values of an event's ``bytes``, ``seq`` and ``timestamp``, in key order.
_RUN_VALUES = itemgetter(*_RUN_FIELDS.values())


def _grouped(events: Iterable[EvidenceEvent]) -> tuple[list[EvidenceEvent], Shapes]:
    """``events`` as a list, a list itself uncopied, and its :func:`group_shapes`,
    or no shapes if a field holds a list or dict, so every event is written in full."""
    events = events if isinstance(events, list) else list(events)
    try:
        return events, group_shapes(events)
    except TypeError:
        return events, {}


@cache
def _annotated() -> list[frozenset]:
    """Per event field, the types its annotation names; read on first use,
    so importing evaluates no annotation."""
    return [frozenset(typing.get_args(hint) or (hint,)) for hint in typing.get_type_hints(EvidenceEvent).values()]


def _lines(events: list[EvidenceEvent], shapes: Shapes) -> Iterator[str]:
    """Each event's line and its line feed: ``canonical(to_json(event))``,
    in stream order. ``shapes`` groups the events; a shape of one event is
    written in full. A shape's first event whose fields hold their
    annotated types is written so and its text cut by the parse's rule,
    :data:`_RUNS`: if the cut finds the runs of ``bytes``, ``seq`` and
    ``timestamp``, each a non-negative integer of at most 18 digits, the
    four pieces around them are the shape's template. A later event of the
    shape holding the same types in every field as the one cut is written
    by putting its three integers between the pieces, as equal values of
    other types write other text (``True == 1``, ``IdScheme.IP == "IP"``);
    any other event is written in full. Templates are kept up to
    :data:`_SHAPE_ROOM` characters."""
    cut, annotated, room = re.compile(_RUNS).split, _annotated(), _SHAPE_ROOM
    # Per position, its shape's cell: empty until a template is cut, then the field types of the event cut
    # and the template's pieces; None for a shape of one event.
    cells: list[list | None] = [None] * len(events)
    for positions in shapes.values():
        if len(positions) > 1:
            cell = []
            for position in positions:
                cells[position] = cell
    for event, cell in zip(events, cells):
        if cell:
            kinds, head, after_bytes, after_seq, tail = cell
            if kinds == [*map(type, event)]:
                size, seq, timestamp = _RUN_VALUES(event)
                yield f"{head}{size}{after_bytes}{seq}{after_seq}{timestamp}{tail}"
                continue
        text = canonical(to_json(event)) + "\n"
        if cell == [] and len(text) <= room:
            kinds = [*map(type, event)]
            if all(map(frozenset.__contains__, annotated, kinds)):
                parts = cut(text)
                if len(parts) == 3 * len(_RUN_NAMES) + 1:  # text, key and run thrice, then text
                    cell += kinds, parts[0] + parts[1], parts[3] + parts[4], parts[6] + parts[7], parts[9]
                    room -= len(text)
        yield text


def write_evidence(events: Iterable[EvidenceEvent], path: str | Path) -> None:
    Path(path).write_text(to_jsonl(events), encoding="utf-8")


def gaps_over(times: list[int], limit: int) -> Iterator[int]:
    """Each position, ascending, whose time follows its predecessor's by more than ``limit``."""
    return compress(range(1, len(times)), map(gt, map(sub, islice(times, 1, None), times), repeat(limit)))


def assemble_sessions(
    events: list[EvidenceEvent],
    gap_ms: int = DEFAULT_SESSION_GAP_MS,
    explicit_ids: bool = True,
    shapes: Shapes | None = None,
) -> list[Session]:
    """Group events into sessions.

    Events are grouped by unordered participant pair, additionally keyed by
    ``session_id`` when ``explicit_ids`` is set and the event carries one.
    Within a group, a silence longer than ``gap_ms`` starts a new session.
    The result partitions the input and is deterministic for identical
    input and parameters.

    Pair and ``session_id`` are shape fields, so shapes are grouped, not
    events: ``shapes`` is the stream's :func:`group_shapes`, made here if not given.
    """
    if gap_ms <= 0:
        raise ValueError("gap_ms must be positive")

    groups: dict[tuple, list[list[int]]] = {}
    for positions in (group_shapes(events) if shapes is None else shapes).values():
        head = events[positions[0]]
        groups.setdefault((head.pair(), head.session_id if explicit_ids else None), []).append(positions)

    sessions: list[Session] = []
    for (pair, sid), runs in groups.items():
        # timsort merges the ascending runs into stream order, then sorts by (timestamp, seq), stably
        members = sorted(map(events.__getitem__, sorted(chain.from_iterable(runs))), key=itemgetter(1, 0))
        cuts = gaps_over(list(map(itemgetter(1), members)), gap_ms)
        base = f"{pair[0]}|{pair[1]}" + (f"|{sid}" if sid is not None else "")
        for index, (start, stop) in enumerate(pairwise([0, *cuts, len(members)])):
            sessions.append(Session(session_key=f"{base}#{index}", participants=pair, events=members[start:stop]))

    sessions.sort(key=lambda s: (s.start, s.events[0].seq))
    return sessions
