"""Metamorphic relations: changes to an evidence stream that must leave its
report as it was, checked through ``run_evaluation`` and through
``otcms evaluate`` without knowing what the report should say.

* R1: shifting every timestamp by one amount, also one that changes how
  many digits they have, keeps every verdict and every finding.
* R3: rewriting the evidence text in ways JSON ignores (key order,
  insignificant whitespace, unknown keys, ``\\u`` escapes of ASCII
  characters, CRLF line ends) reads the same events and gives the same
  report.
* R4: inserting malformed lines and reading with ``--lenient`` reads the
  same events, grouped by shape as before, and gives the same report.

The report's ``evidence_digest`` follows the evidence bytes, so it is left
out of each comparison. The streams are the default plant's, simulated,
and the ``shape_streams`` of the detector tests with their contexts.
"""

import io
import json
import random
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_detectors import full_contexts, shape_streams

from otcms.catalog import default_catalog_path, load_catalog
from otcms.cli import main
from otcms.compliance import report_body
from otcms.context import context_to_dict
from otcms.engine import run_evaluation
from otcms.evidence import read_evidence, to_jsonl
from otcms.simulator import Injection, default_scenario, generate_scenario, list_injections

CATALOG = load_catalog(default_catalog_path())
KINDS = [attribute_id for attribute_id, _ in list_injections()]


@st.composite
def simulated(draw):
    """A stream of the default plant, with no, one or every injection, and its context."""
    kinds = draw(st.sampled_from([[], KINDS]) | st.sampled_from(KINDS).map(lambda kind: [kind]))
    scenario = default_scenario(
        name="metamorphic", seed=draw(st.integers(0, 2)), duration_ms=draw(st.sampled_from([20_000, 120_000])),
        injections=tuple(Injection(attribute_id=kind) for kind in kinds),
    )
    return generate_scenario(scenario, CATALOG)[0], scenario.spec


@st.composite
def drawn(draw):
    events = draw(shape_streams())
    return events, draw(full_contexts(events))


streams = simulated() | drawn()


def library_body(ctx, events, shapes=None) -> dict:
    """The report of ``run_evaluation`` without its evidence digest."""
    body = json.loads(report_body(run_evaluation(CATALOG, ctx, events, shapes=shapes)))
    del body["evidence_digest"]
    return body


def cli_body(ctx, text: str, *options: str) -> tuple[int, dict]:
    """Exit code and report of ``otcms evaluate`` with ``options`` on the
    evidence ``text``, the report without its evidence digest."""
    with tempfile.TemporaryDirectory() as tmp:
        evidence, context, out = (Path(tmp) / name for name in ("evidence.jsonl", "context.json", "report.json"))
        evidence.write_bytes(text.encode("utf-8"))
        context.write_text(json.dumps(context_to_dict(ctx)), encoding="utf-8")
        code = main(["evaluate", "--evidence", str(evidence), "--context", str(context), "--out", str(out),
                     "--generated-at", "0", *options])
        body = json.loads(out.read_text(encoding="utf-8"))
    del body["evidence_digest"]
    return code, body


@settings(max_examples=40, deadline=None)
@given(stream=streams, shift=st.sampled_from([1, 999, 10**12, None]) | st.integers(1, 10**15))
def test_r1_time_shift_keeps_every_verdict_and_finding(stream, shift):
    """A shift of None moves the earliest timestamp to 0."""
    events, ctx = stream
    if shift is None:
        shift = -min(event.timestamp for event in events)
    moved = [event._replace(timestamp=event.timestamp + shift) for event in events]
    assert library_body(ctx, moved) == library_body(ctx, events)
    assert cli_body(ctx, to_jsonl(moved)) == cli_body(ctx, to_jsonl(events))


# Members a rewrite may add, which the reader ignores, some naming run keys
# where they are no field; ``%d`` takes a number per line or per stream.
UNKNOWN_MEMBERS = [
    '"note":"x"', '"Timestamp":%d', '"meta":{"bytes":%d,"seq":1,"timestamp":2}', '"note":"\\"timestamp\\":%d"',
    '"a\\"bytes":%d', '"tags":[%d,{"seq":3}]',
]
rewrites = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32),
    "per_line": st.booleans(),  # each line its own rewrite, else one for the stream
    "order": st.sampled_from(["written", "reversed", "shuffled"]),
    "colon": st.sampled_from([":", ": ", " :\t"]),
    "comma": st.sampled_from([",", ", ", "\t, "]),
    "ends": st.sampled_from(["", " ", "\t "]),
    "escapes": st.sampled_from([0.0, 0.3, 1.0]),  # share of ASCII letters written as \u escapes
    # no two naming one key, which the reader refuses as repeated
    "unknown": st.lists(st.sampled_from(UNKNOWN_MEMBERS), max_size=2, unique_by=lambda member: member.split(":")[0]),
    "crlf": st.booleans(),
})


def escaped(text: str, rng: random.Random, share: float) -> str:
    """``text`` as a JSON string, each ASCII letter a ``\\u`` escape with
    probability ``share``."""
    return '"' + "".join(
        f"\\u{ord(char):04x}" if char.isascii() and char.isalpha() and rng.random() < share
        else json.dumps(char, ensure_ascii=False)[1:-1]
        for char in text
    ) + '"'


def rewritten(text: str, how: dict) -> str:
    """The JSON Lines ``text`` rewritten as ``how`` says, every record's
    values kept."""
    lines = []
    for line in text.split("\n")[:-1]:  # a record may hold U+2028 raw, which splitlines would split at
        record = json.loads(line)
        # One rewrite for the stream writes records of one shape alike.
        rng = random.Random(f"{how['seed']}-{len(lines) if how['per_line'] else sorted(record)}")
        members = [
            escaped(key, rng, how["escapes"]) + how["colon"]
            + (escaped(value, rng, how["escapes"]) if isinstance(value, str) else json.dumps(value))
            for key, value in record.items()
        ]
        members += [member.replace("%d", str(rng.randrange(10**6))) for member in how["unknown"]]
        if how["order"] == "reversed":
            members.reverse()
        elif how["order"] == "shuffled":
            rng.shuffle(members)
        lines.append(how["ends"] + "{" + how["comma"].join(members) + "}" + how["ends"])
    return "".join(line + ("\r\n" if how["crlf"] else "\n") for line in lines)


def plant(duration_ms: int = 120_000):
    """The default plant's stream, no injection, and its context."""
    scenario = default_scenario(name="metamorphic", duration_ms=duration_ms)
    return generate_scenario(scenario, CATALOG)[0], scenario.spec


@settings(max_examples=40, deadline=None)
@given(stream=streams, how=rewrites)
@example(  # records of one shape written alike, so later ones are read from a template
    stream=plant(),
    how={"seed": 0, "per_line": False, "order": "written", "colon": ":", "comma": ",", "ends": "", "escapes": 0.0,
         "unknown": ['"meta":{"bytes":%d,"seq":1,"timestamp":2}', '"a\\"bytes":%d'], "crlf": True},
)
def test_r3_rewrites_json_ignores_keep_events_and_report(stream, how):
    events, ctx = stream
    text = to_jsonl(events)
    rewrite = rewritten(text, how)
    read, reread = (read_evidence(io.BytesIO(data.encode("utf-8")))[0] for data in (text, rewrite))
    assert to_jsonl(reread) == to_jsonl(read)  # the written form tells True from 1
    assert library_body(ctx, reread) == library_body(ctx, read)
    assert cli_body(ctx, rewrite) == cli_body(ctx, text)


#: Lines a lenient read skips, each refused in another way.
MALFORMED = [
    "not json",
    '{"seq":',
    '{"timestamp":1,"src_id":"a","dst_id":"b"}',
    '{"timestamp":1,"src_id":"a","dst_id":"b","protocol":"MQTT","bytes":-1}',
]


@settings(max_examples=40, deadline=None)
@given(stream=streams, data=st.data())
def test_r4_malformed_lines_read_leniently_keep_the_report(stream, data):
    """Some inserted lines copy a written line with a timestamp past Python's
    digit limit: they share that line's shape, so a template would read them
    if its run could be read."""
    events, ctx = stream
    text = to_jsonl(events)
    lines = text.split("\n")[:-1]
    for _ in range(data.draw(st.integers(1, 3))):
        bad = data.draw(st.sampled_from(MALFORMED) | st.sampled_from(lines).map(
            lambda line: re.sub(r'"timestamp":[0-9]+', '"timestamp":' + "9" * 4301, line)
        ))
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
    damaged = "".join(line + "\n" for line in lines)
    shapes = {}
    read = read_evidence(io.BytesIO(text.encode("utf-8")))[0]
    assert read_evidence(io.BytesIO(damaged.encode("utf-8")), strict=False, shapes=shapes)[0] == read
    assert library_body(ctx, read, shapes) == library_body(ctx, read)
    assert cli_body(ctx, damaged, "--lenient") == cli_body(ctx, text)
