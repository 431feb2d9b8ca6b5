"""End-to-end evaluation pipeline: evidence -> sessions -> detectors ->
manual merge -> compliance report."""

from __future__ import annotations

from otcms.catalog import AttributeKind, Catalog, require_valid
from otcms.compliance import ComplianceReport, build_report
from otcms.context import ContextSpec, ManualAttributeFile
from otcms.detectors import AttributeVerdict, Finding, Severity, Status, registry_kinds, run_detectors
from otcms.evidence import (
    DEFAULT_SESSION_GAP_MS,
    EvidenceEvent,
    Shapes,
    assemble_sessions,
    collector_paused,
    group_shapes,
    jsonl_digest,
)
from otcms.evidence import evidence_digest  # noqa: F401  (perfbench/workloads.py imports it from here)


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
    shapes: Shapes | None = None,
) -> dict[str, AttributeVerdict]:
    """Sessions + detector suite + manual merge; the full verdict map.

    Sessions and detectors share ``shapes``, else the events' :func:`~otcms.evidence.group_shapes`.
    A catalog ``otcms catalog validate`` rejects raises
    :class:`~otcms.catalog.CatalogError` naming its first issue.
    """
    require_valid(catalog, registry_kinds())
    shapes = group_shapes(events) if shapes is None else shapes
    verdicts = run_detectors(events, assemble_sessions(events, gap_ms=gap_ms, shapes=shapes), ctx, shapes)
    verdicts.update(manual_verdicts(catalog, manual))
    return verdicts


@collector_paused()
def run_evaluation(
    catalog: Catalog,
    ctx: ContextSpec,
    events: list[EvidenceEvent],
    manual: ManualAttributeFile | None = None,
    sl_target: int = 2,
    gap_ms: int = DEFAULT_SESSION_GAP_MS,
    digest: str | None = None,
    generated_at: int = 0,
    shapes: Shapes | None = None,
) -> ComplianceReport:
    """Run the full pipeline over parsed events and return the report.

    ``shapes`` is the events' :func:`~otcms.evidence.group_shapes`, made
    here if not given; sessions, detectors and the digest share it. Without
    a ``digest``, the report's is that of the events' canonical
    serialisation, :func:`~otcms.evidence.to_jsonl`, hashed line by line
    from those shapes' templates. The collector is paused while it runs
    (:func:`~otcms.evidence.collector_paused`).
    """
    shapes = group_shapes(events) if shapes is None else shapes
    verdicts = evaluate_verdicts(catalog, ctx, events, manual=manual, gap_ms=gap_ms, shapes=shapes)
    if digest is None:
        digest = jsonl_digest(events, shapes)
    return build_report(
        catalog,
        verdicts,
        sl_target=sl_target,
        evidence_digest=digest,
        generated_at=generated_at,
    )
