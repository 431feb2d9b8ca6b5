"""The benchmark's three workloads, each with one operation and its traced twin.

A workload turns a seed into inputs with the otcms simulator and writes
them into a work directory during set-up. Its operation is the evaluation
a user runs on those inputs:

* ``long_capture`` and ``wide_plant`` run ``otcms evaluate`` (through
  ``otcms.cli.main``) on a JSONL evidence file and a context file;
* ``incident_storm`` runs the in-memory library path the simulator oracle
  uses: ``generate_scenario``, ``run_evaluation(digest=None)`` and
  ``render_report`` in both formats.

The traced twin calls the same pipeline one layer at a time, in
``run_detectors`` order, under a span each. Its report body must equal
the untraced operation's byte for byte, which proves that the per-layer
numbers decompose the pipeline the end-to-end numbers measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from otcms.catalog import Catalog, default_catalog_path, load_catalog
from otcms.cli import main as cli_main
from otcms.compliance import build_report, parse_report, render_report, report_body
from otcms.context import context_from_dict, context_to_dict, load_context
from otcms.detectors import (
    IAC_RUN_LEN,
    REGISTRY,
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
)
from otcms.engine import evidence_digest, manual_verdicts, run_evaluation
from otcms.evidence import DEFAULT_SESSION_GAP_MS, assemble_sessions, parse_evidence, to_jsonl
from otcms.simulator import (
    SCADA,
    Injection,
    Scenario,
    TrafficPattern,
    default_context,
    default_profile,
    default_scenario,
    generate_scenario,
    list_injections,
    load_scenario,
    scenario_to_dict,
)

# Input sizes at scale 1.0, chosen so one operation takes about a second
# on a 2-core machine and a run holds a few dozen of them: on a shared
# host single operations vary by +-15%, so the median needs many samples.
LONG_CAPTURE_HOURS = 2
WIDE_PLANT_CELLS = 60
# Below the default context's 600 s session limit. Baseline sessions never
# rotate (ROADMAP item 1), so a longer window would show that defect here
# too; it stays measured on long_capture, and this workload's oracle holds.
WIDE_PLANT_WINDOW_MS = 540_000
INCIDENT_REPEATS = 50
INCIDENT_WINDOW_MS = 1_800_000

# ``otcms evaluate`` defaults the CLI workloads rely on.
CLI_SL_TARGET = 2

# run_detectors order; each entry takes (events, sessions, ctx).
DETECTORS: tuple[tuple[str, Callable], ...] = (
    ("unknown_factors", lambda ev, ss, ctx: detect_unknown_factors(ev, ctx)),
    ("abnormal_behavior", lambda ev, ss, ctx: detect_abnormal_behavior(ss, ctx)),
    ("security_strength", lambda ev, ss, ctx: detect_security_strength(ev, ctx)),
    ("cleartext_authenticators", lambda ev, ss, ctx: detect_cleartext_authenticators(ev, ctx)),
    ("auth_attempts", lambda ev, ss, ctx: detect_auth_attempts(ev, ctx)),
    ("session_violations", lambda ev, ss, ctx: detect_session_violations(ss, ctx)),
    ("integrity_anomalies", lambda ev, ss, ctx: detect_integrity_anomalies(ev, ss)),
    ("iac_management", lambda ev, ss, ctx: detect_iac_management(ev, run_len=IAC_RUN_LEN)),
    ("pki_best_practice", lambda ev, ss, ctx: detect_pki_best_practice(ev, ctx)),
    ("wireless_iac", lambda ev, ss, ctx: detect_wireless_iac(ev, ctx)),
    ("untrusted_access", lambda ev, ss, ctx: detect_untrusted_access(ev, ctx)),
    ("authorization_controls", lambda ev, ss, ctx: detect_authorization_controls(ev, ctx)),
    ("segmentation", lambda ev, ss, ctx: detect_segmentation(ev, ctx)),
    ("least_functionality", lambda ev, ss, ctx: detect_least_functionality(ev, ctx)),
    ("audit_and_monitoring", lambda ev, ss, ctx: detect_audit_and_monitoring(ev)),
)


# --------------------------------------------------------------------------
# Scenarios: seed -> simulator input
# --------------------------------------------------------------------------

def long_capture_scenario(seed: int, scale: float = 1.0) -> Scenario:
    """The default plant profile, compliant baseline, over many hours."""
    return default_scenario(
        name="long_capture", seed=seed, duration_ms=int(LONG_CAPTURE_HOURS * 3_600_000 * scale)
    )


def wide_plant_scenario(seed: int, scale: float = 1.0) -> Scenario:
    """The default plant plus many cells: hundreds of identifiers, a
    whitelist of a few hundred entries, many pairs and sessions."""
    data = context_to_dict(default_context())
    profile = list(default_profile())
    for cell in range(max(2, round(WIDE_PLANT_CELLS * scale))):
        plc_a, plc_b, hmi = (f"10.1.{cell}.{host}" for host in (10, 11, 20))
        zone = f"cell{cell:02d}"
        data["zone_map"].update({plc_a: zone, plc_b: zone, hmi: zone})
        data["zone_sl_target"][zone] = 2
        data["trusted_zones"].append(zone)
        data["expected_communications"] += [
            {"src": plc_a, "dst": hmi, "protocol": "*"},
            {"src": hmi, "dst": plc_a, "protocol": "*"},
            {"src": "*", "dst": hmi, "protocol": "OPCUA"},
            {"src": hmi, "dst": SCADA, "protocol": "MQTT"},
            {"src": SCADA, "dst": hmi, "protocol": "MQTT"},
        ]
        data["rate_spec"].append(
            {"pair": [plc_a, hmi], "window_ms": 1000, "max_events_per_window": 50}
        )
        profile += [
            TrafficPattern(plc_a, hmi, "OPCUA", rate_per_s=0.12, port=4840, session_id=f"c{cell}-a"),
            TrafficPattern(plc_b, hmi, "OPCUA", rate_per_s=0.08, port=4840, session_id=f"c{cell}-b",
                           flavor="process"),
            TrafficPattern(hmi, SCADA, "MQTT", rate_per_s=0.1, port=8883, session_id=f"c{cell}-x"),
        ]
    return Scenario(
        name="wide_plant",
        seed=seed,
        spec=context_from_dict(data),
        duration_ms=WIDE_PLANT_WINDOW_MS,
        traffic_profile=tuple(profile),
    )


def incident_storm_scenario(seed: int, scale: float = 1.0) -> Scenario:
    """Every injection kind, repeated at seed-drawn timestamps."""
    rng = random.Random(seed)
    window = int(INCIDENT_WINDOW_MS * scale)
    repeats = max(1, round(INCIDENT_REPEATS * scale))
    injections = tuple(
        Injection(attribute_id=attribute_id, at_ms=rng.randrange(window))
        for attribute_id, _ in list_injections()
        for _ in range(repeats)
    )
    return default_scenario(name="incident_storm", seed=seed, injections=injections, duration_ms=window)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int, float], Scenario]
    cli: bool  # evaluated by ``otcms evaluate`` from files, else in memory


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("long_capture", long_capture_scenario, cli=True),
        Workload("wide_plant", wide_plant_scenario, cli=True),
        Workload("incident_storm", incident_storm_scenario, cli=False),
    )
}


# --------------------------------------------------------------------------
# Set-up and the measured operation
# --------------------------------------------------------------------------

@dataclass
class Inputs:
    workload: Workload
    files: dict[str, Path]
    catalog: Catalog | None = None
    scenario: Scenario | None = None
    expected_noncompliant: frozenset[str] = frozenset()
    events: int = 0


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    body: bytes
    noncompliant: frozenset[str]
    expected_noncompliant: frozenset[str]
    events: int
    exit_code: int | None = None  # the library path has none


def set_up(workload: Workload, seed: int, scale: float, workdir: Path, tracer) -> Inputs:
    """Load catalog and context, generate the inputs and write them."""
    workdir.mkdir(parents=True, exist_ok=True)
    with tracer.span("setup"):
        with tracer.span("catalog.load"):
            catalog = load_catalog(default_catalog_path())
        with tracer.span("scenario.build"):
            scenario = workload.scenario(seed, scale)
        if not workload.cli:
            path = workdir / "scenario.json"
            with tracer.span("inputs.write"):
                path.write_text(json.dumps(scenario_to_dict(scenario), sort_keys=True), encoding="utf-8")
            return Inputs(workload, {"scenario": path}, catalog=catalog, scenario=scenario)
        with tracer.span("simulator.generate"):
            events, truth = generate_scenario(scenario, catalog)
        with tracer.span("evidence.to_jsonl"):
            text = to_jsonl(events)
        files = {
            "evidence": workdir / "evidence.jsonl",
            "context": workdir / "context.json",
            "report": workdir / "report.json",
            "traced_report": workdir / "traced-report.json",
        }
        with tracer.span("inputs.write"):
            files["evidence"].write_text(text, encoding="utf-8")
            files["context"].write_text(
                json.dumps(context_to_dict(scenario.spec), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    return Inputs(
        workload, files, catalog=catalog, scenario=scenario,
        expected_noncompliant=truth.expected_noncompliant_srs, events=len(events),
    )


def reload_inputs(workload: Workload, files: dict[str, Path]) -> Inputs:
    """Inputs for an operation in a fresh process, from the written files
    only: the simulator's generation of the CLI inputs never runs there."""
    if workload.cli:
        return Inputs(workload, files)
    return Inputs(
        workload, files,
        catalog=load_catalog(default_catalog_path()),
        scenario=load_scenario(files["scenario"]),
    )


def operate(inputs: Inputs):
    """The measured operation. Returns what :func:`outcome` needs."""
    if inputs.workload.cli:
        files = inputs.files
        with contextlib.redirect_stderr(io.StringIO()):
            return cli_main([
                "evaluate", "--evidence", str(files["evidence"]), "--context", str(files["context"]),
                "--out", str(files["report"]), "--generated-at", "0",
            ])
    events, truth = generate_scenario(inputs.scenario, inputs.catalog)
    report = run_evaluation(
        inputs.catalog, inputs.scenario.spec, events,
        sl_target=inputs.scenario.sl_target, digest=None, generated_at=0,
    )
    rendered = (render_report(report, "structured"), render_report(report, "human"))
    return report, truth, len(events), rendered


def outcome(inputs: Inputs, result) -> Outcome:
    """Reduce an operation's result to its report body and statuses."""
    if inputs.workload.cli:
        text = inputs.files["report"].read_text(encoding="utf-8")
        inputs.files["report"].unlink()  # so an operation that writes no report cannot pass
        report = parse_report(text)
        return Outcome(
            report_body(report), frozenset(report.noncompliant_sr_ids()),
            inputs.expected_noncompliant, inputs.events, exit_code=result,
        )
    report, truth, events, rendered = result
    if not all(rendered):
        raise ValueError("a rendered report is empty")
    return Outcome(
        report_body(report), frozenset(report.noncompliant_sr_ids()),
        truth.expected_noncompliant_srs, events,
    )


def check(result: Outcome, reference_body: bytes) -> str | None:
    """Why an operation failed, or None when it passed."""
    if result.exit_code is not None:
        if result.exit_code not in (0, 1):
            return f"exit code {result.exit_code}"
        if (result.exit_code == 1) != bool(result.noncompliant):
            return f"exit code {result.exit_code} disagrees with {len(result.noncompliant)} non-compliant SRs"
    if result.body != reference_body:
        return "report body differs from the first operation's"
    return None


# --------------------------------------------------------------------------
# The traced twin
# --------------------------------------------------------------------------

def run_traced(inputs: Inputs, tracer) -> tuple[Outcome, dict[str, int]]:
    """One operation, layer by layer, plus the input-property counts.

    Only the layers the workload's own operation runs get a span: the CLI
    path renders no text report, and the library path reads, parses and
    loads nothing.
    """
    span = tracer.span
    files = inputs.files
    with span("op"):
        if inputs.workload.cli:
            with span("catalog.load"):
                catalog = load_catalog(default_catalog_path())
            with span("context.load"):
                ctx = load_context(files["context"])
            with span("evidence.read"):
                data = files["evidence"].read_bytes()
                lines = data.decode("utf-8").splitlines()
            with span("evidence.parse"):
                events = parse_evidence(lines, strict=True)
            sl_target, expected = CLI_SL_TARGET, inputs.expected_noncompliant
        else:
            catalog, ctx, sl_target = inputs.catalog, inputs.scenario.spec, inputs.scenario.sl_target
            with span("simulator.generate"):
                events, truth = generate_scenario(inputs.scenario, catalog)
            with span("evidence.to_jsonl"):
                data = to_jsonl(events).encode("utf-8")
            expected = truth.expected_noncompliant_srs
        with span("engine.digest"):
            digest = evidence_digest(data)
        with span("evidence.sessions"):
            sessions = assemble_sessions(events, gap_ms=DEFAULT_SESSION_GAP_MS, explicit_ids=True)
        if not events:
            raise ValueError("the workload produced no events")
        found = []
        with span("detectors.total"):
            for name, detect in DETECTORS:
                with span(f"detectors.{name}"):
                    found += detect(events, sessions, ctx)
        by_id = {v.attribute_id: v for v in found}
        if len(found) != len(REGISTRY) or set(by_id) != set(REGISTRY):
            raise RuntimeError("the traced detector calls do not cover the registry exactly once")
        verdicts = {attribute_id: by_id[attribute_id] for attribute_id in REGISTRY}
        with span("engine.manual"):
            verdicts.update(manual_verdicts(catalog, None))
        with span("compliance.build"):
            report = build_report(catalog, verdicts, sl_target=sl_target, evidence_digest=digest, generated_at=0)
        with span("compliance.render_json"):
            structured = render_report(report, "structured")
        if inputs.workload.cli:
            with span("cli.write"):
                files["traced_report"].write_text(structured, encoding="utf-8")
        else:
            with span("compliance.render_text"):
                render_report(report, "human")
    counts = {
        "evidence.events": len(events),
        "evidence.bytes": len(data),
        "evidence.distinct_ids": len({e.src_id for e in events} | {e.dst_id for e in events}),
        "evidence.sessions": len(sessions),
        "context.whitelist_entries": len(ctx.expected_communications),
        "simulator.injections": len(inputs.scenario.injections) if inputs.scenario else 0,
        "detectors.findings": sum(len(v.findings) for v in found),
        "detectors.violated": sum(v.status is Status.VIOLATED for v in found),
        "compliance.report_bytes": len(structured.encode("utf-8")),
    }
    result = Outcome(report_body(report), frozenset(report.noncompliant_sr_ids()), expected, len(events))
    return result, counts
