"""Per-SR/per-FR compliance evaluation and report rendering.

Status precedence over the attributes an SR requires at the targeted
security level: any violated attribute makes the SR non-compliant; absent
that, any indeterminate attribute leaves it indeterminate (an open auditor
obligation is never silently compliant); if everything that remains is
not-applicable the SR is not applicable; otherwise it is compliant.

``achieved_sl`` is the highest level whose required attributes are all
fulfilled or not applicable, with 0 expressing "base requirement unmet" -
a distinction the 1..4 scale itself cannot carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from otcms.catalog import SL_LEVELS, Catalog, SecurityRequirement, all_bindings, required_attributes
from otcms.detectors import AttributeVerdict, Finding, Severity, Status
from otcms.jsonfield import canonical, from_json, loads, to_json


class ComplianceStatus(str, Enum):
    COMPLIANT = "compliant"
    NON_COMPLIANT = "non_compliant"
    INDETERMINATE = "indeterminate"
    NOT_APPLICABLE = "not_applicable"


#: Rollup severity: worst status wins.
_SEVERITY_ORDER = {
    ComplianceStatus.NON_COMPLIANT: 3,
    ComplianceStatus.INDETERMINATE: 2,
    ComplianceStatus.COMPLIANT: 1,
    ComplianceStatus.NOT_APPLICABLE: 0,
}

_OK_STATUSES = (Status.FULFILLED, Status.NOT_APPLICABLE)


@dataclass(frozen=True)
class SRStatus:
    sr_id: str
    status: ComplianceStatus
    achieved_sl: int
    required: tuple[tuple[str, Status], ...] = ()
    findings_ref: tuple[int, ...] = ()


@dataclass(frozen=True)
class ComplianceReport:
    generated_at: int
    sl_target: int
    catalog_version: str
    evidence_digest: str
    per_sr: tuple[SRStatus, ...]
    per_fr: dict[str, ComplianceStatus]
    summary: dict[str, int]
    findings: tuple[Finding, ...] = ()

    def noncompliant_sr_ids(self) -> list[str]:
        return [s.sr_id for s in self.per_sr if s.status is ComplianceStatus.NON_COMPLIANT]


def evaluate_sr(
    sr: SecurityRequirement,
    verdicts: dict[str, AttributeVerdict],
    sl_target: int,
    catalog: Catalog,
) -> SRStatus:
    """Evaluate one SR against the verdict map at ``sl_target``.

    Missing verdicts count as indeterminate. An SR flagged not_monitorable
    is not applicable regardless of verdicts.
    """
    if sr.not_monitorable:
        return SRStatus(sr_id=sr.id, status=ComplianceStatus.NOT_APPLICABLE, achieved_sl=4)

    def status_of(attribute_id: str) -> Status:
        verdict = verdicts.get(attribute_id)
        return verdict.status if verdict is not None else Status.INDETERMINATE

    required = required_attributes(catalog, sr.id, sl_target)
    statuses = [(binding.attribute_id, status_of(binding.attribute_id)) for binding in required]

    if any(status is Status.VIOLATED for _, status in statuses):
        overall = ComplianceStatus.NON_COMPLIANT
    elif any(status is Status.INDETERMINATE for _, status in statuses):
        overall = ComplianceStatus.INDETERMINATE
    elif all(status is Status.NOT_APPLICABLE for _, status in statuses):
        overall = ComplianceStatus.NOT_APPLICABLE  # vacuously for an empty required set
    else:
        overall = ComplianceStatus.COMPLIANT

    # each level below the lowest min_sl of a binding that is not OK requires only OK bindings
    achieved = min(
        (binding.min_sl - 1 for binding in all_bindings(sr) if status_of(binding.attribute_id) not in _OK_STATUSES),
        default=SL_LEVELS[-1],
    )

    return SRStatus(sr_id=sr.id, status=overall, achieved_sl=achieved, required=tuple(statuses))


def build_report(
    catalog: Catalog,
    verdicts: dict[str, AttributeVerdict],
    sl_target: int,
    evidence_digest: str,
    generated_at: int = 0,
) -> ComplianceReport:
    """Assemble the full report: per-SR statuses, FR rollups, summary counts.

    Deterministic for identical inputs; ``generated_at`` is carried but
    excluded from the digest-checked body (see :func:`report_body`).
    """
    findings_pool: list[Finding] = []
    finding_refs: dict[str, tuple[int, ...]] = {}
    for attribute_id, verdict in verdicts.items():
        refs = []
        for finding in verdict.findings:
            refs.append(len(findings_pool))
            findings_pool.append(finding)
        finding_refs[attribute_id] = tuple(refs)

    per_sr: list[SRStatus] = []
    per_fr: dict[str, ComplianceStatus] = {}
    for fr in catalog.frs:
        fr_statuses: list[ComplianceStatus] = []
        for sr in fr.srs:
            sr_status = evaluate_sr(sr, verdicts, sl_target, catalog)
            refs: list[int] = []
            for attribute_id, _ in sr_status.required:
                refs.extend(finding_refs.get(attribute_id, ()))
            sr_status = replace(sr_status, findings_ref=tuple(sorted(refs)))
            per_sr.append(sr_status)
            fr_statuses.append(sr_status.status)
        per_fr[fr.id] = max(fr_statuses, key=lambda s: _SEVERITY_ORDER[s])

    summary = {status.value: 0 for status in ComplianceStatus}
    for sr_status in per_sr:
        summary[sr_status.status.value] += 1
    summary["srs_total"] = len(per_sr)

    return ComplianceReport(
        generated_at=generated_at,
        sl_target=sl_target,
        catalog_version=catalog.version,
        evidence_digest=evidence_digest,
        per_sr=tuple(per_sr),
        per_fr=per_fr,
        summary=summary,
        findings=tuple(findings_pool),
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def render_report(report: ComplianceReport, format: str = "structured") -> str:
    """Render the report: canonical JSON (``structured``) or a fixed-layout
    table grouped by FR (``human``)."""
    if format == "structured":
        return canonical(to_json(report)) + "\n"
    if format == "human":
        return _render_human(report)
    raise ValueError(f"unknown report format {format!r}")


def report_body(report: ComplianceReport) -> bytes:
    """Canonical bytes of the report without ``generated_at``.

    Identical inputs produce identical bodies; this is the digest-checked
    and determinism-checked portion of a report.
    """
    data = to_json(report)
    del data["generated_at"]
    return canonical(data).encode("utf-8")


def parse_report(text: str) -> ComplianceReport:
    """Inverse of ``render_report(..., "structured")``; raises ValueError
    naming the field for a report that does not match its dataclasses, and
    for a text :func:`~otcms.jsonfield.loads` refuses (invalid JSON, a key
    given twice, nesting too deep)."""
    return from_json(ComplianceReport, loads(text, ValueError), ValueError)


_GLYPHS = {
    ComplianceStatus.COMPLIANT: "+",
    ComplianceStatus.NON_COMPLIANT: "x",
    ComplianceStatus.INDETERMINATE: "?",
    ComplianceStatus.NOT_APPLICABLE: "-",
}


def _render_human(report: ComplianceReport) -> str:
    lines = [
        "IEC 62443-3-3 compliance report",
        f"catalog version : {report.catalog_version}",
        f"evidence digest : {report.evidence_digest}",
        f"SL target       : {report.sl_target}",
        f"generated at    : {report.generated_at}",
        "",
        f"{'SR':<10}{'status':<18}{'achieved SL':>12}",
    ]
    per_fr = report.per_fr
    sr_by_fr: dict[str, list[SRStatus]] = {}
    for sr_status in report.per_sr:
        fr_id = "FR" + sr_status.sr_id[2:].split(".")[0]
        sr_by_fr.setdefault(fr_id, []).append(sr_status)
    for fr_id, fr_status in per_fr.items():
        lines.append(f"[{_GLYPHS[fr_status]}] {fr_id}  ({fr_status.value})")
        for sr_status in sr_by_fr.get(fr_id, []):
            lines.append(
                f"  {sr_status.sr_id:<8}{sr_status.status.value:<18}{sr_status.achieved_sl:>12}"
            )
    violations = [s for s in report.per_sr if s.status is ComplianceStatus.NON_COMPLIANT]
    lines.append("")
    if violations:
        lines.append("violations:")
        for sr_status in violations:
            lines.append(f"  {sr_status.sr_id}:")
            for ref in sr_status.findings_ref:
                finding = report.findings[ref]
                if finding.severity is Severity.VIOLATION:
                    refs = ",".join(str(r) for r in finding.seq_refs)
                    lines.append(f"    - {finding.message} [events {refs}]")
    else:
        lines.append("violations: none")
    summary = " ".join(f"{key}={value}" for key, value in sorted(report.summary.items()))
    lines.append(f"summary: {summary}")
    return "\n".join(lines) + "\n"
