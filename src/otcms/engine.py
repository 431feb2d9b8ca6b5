"""End-to-end evaluation pipeline: evidence -> sessions -> detectors ->
manual merge -> compliance report."""

from __future__ import annotations

import hashlib

from otcms.catalog import AttributeKind, Catalog
from otcms.compliance import ComplianceReport, build_report
from otcms.context import ContextSpec, ManualAttributeFile
from otcms.detectors import AttributeVerdict, Finding, Severity, Status, run_detectors
from otcms.evidence import DEFAULT_SESSION_GAP_MS, EvidenceEvent, assemble_sessions, to_jsonl


def evidence_digest(data: bytes) -> str:
    """Content hash binding a report to its evidence input."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def manual_verdicts(catalog: Catalog, manual: ManualAttributeFile | None) -> dict[str, AttributeVerdict]:
    """One verdict per manual-kind attribute bound in the catalog.

    Unset attributes are indeterminate: the auditor obligation stays
    visible in the report instead of defaulting to compliant.
    """
    verdicts: dict[str, AttributeVerdict] = {}
    entries = manual.entries if manual is not None else {}
    for attribute_id in sorted(catalog.manual_attribute_ids()):
        entry = entries.get(attribute_id)
        if entry is None:
            status, findings = Status.INDETERMINATE, ()
        elif entry.value:
            note = f" ({entry.note})" if entry.note else ""
            message = f"asserted fulfilled by {entry.set_by or 'auditor'}{note}"
            status, findings = Status.FULFILLED, (Finding("manual", message, Severity.INFO),)
        else:
            message = f"asserted not fulfilled by {entry.set_by or 'auditor'}"
            status, findings = Status.VIOLATED, (Finding("manual", message, Severity.VIOLATION),)
        verdicts[attribute_id] = AttributeVerdict(
            attribute_id=attribute_id, kind=AttributeKind.MANUAL, status=status, findings=findings
        )
    return verdicts


def evaluate_verdicts(
    catalog: Catalog,
    ctx: ContextSpec,
    events: list[EvidenceEvent],
    manual: ManualAttributeFile | None = None,
    gap_ms: int = DEFAULT_SESSION_GAP_MS,
) -> dict[str, AttributeVerdict]:
    """Sessions + detector suite + manual merge; the full verdict map."""
    verdicts = run_detectors(events, assemble_sessions(events, gap_ms=gap_ms), ctx)
    verdicts.update(manual_verdicts(catalog, manual))
    return verdicts


def run_evaluation(
    catalog: Catalog,
    ctx: ContextSpec,
    events: list[EvidenceEvent],
    manual: ManualAttributeFile | None = None,
    sl_target: int = 2,
    gap_ms: int = DEFAULT_SESSION_GAP_MS,
    digest: str | None = None,
    generated_at: int = 0,
) -> ComplianceReport:
    """Run the full pipeline over parsed events and return the report."""
    verdicts = evaluate_verdicts(catalog, ctx, events, manual=manual, gap_ms=gap_ms)
    if digest is None:
        digest = evidence_digest(to_jsonl(events).encode("utf-8"))
    return build_report(
        catalog,
        verdicts,
        sl_target=sl_target,
        evidence_digest=digest,
        generated_at=generated_at,
    )
