"""Compliance monitoring engine for IEC 62443-3-3 over IIoT network evidence.

The package evaluates how far a monitored industrial network fulfills the
security requirements (SR) of IEC 62443-3-3. Evidence events gathered by a
capture adapter are matched against a machine-readable requirement catalog
through a suite of traffic/logical attribute detectors, merged with manual
auditor assertions, and rolled up into an auditable compliance report.

A deterministic scenario simulator produces labeled evidence streams
(compliant baselines plus targeted violation injections) and serves as the
testing oracle for the whole pipeline.
"""

from otcms.catalog import (
    AttributeBinding,
    AttributeKind,
    Catalog,
    CatalogError,
    FunctionalRequirement,
    RequirementEnhancement,
    SecurityRequirement,
    ValidationIssue,
    default_catalog_path,
    load_catalog,
    required_attributes,
    serialize_catalog,
    validate_catalog,
)
from otcms.compliance import (
    ComplianceReport,
    ComplianceStatus,
    SRStatus,
    build_report,
    evaluate_sr,
    parse_report,
    render_report,
    report_body,
)
from otcms.context import (
    ContextError,
    ContextSpec,
    EntityClass,
    ManualAttributeFile,
    classify_entity,
    load_context,
    load_manual_attributes,
)
from otcms.detectors import REGISTRY, AttributeVerdict, Finding, Status, run_detectors
from otcms.engine import run_evaluation
from otcms.evidence import (
    EvidenceError,
    EvidenceEvent,
    IdScheme,
    Session,
    assemble_sessions,
    evidence_digest,
    load_evidence,
    parse_evidence,
    to_jsonl,
    write_evidence,
)
from otcms.simulator import (
    GroundTruth,
    Injection,
    Scenario,
    ScenarioError,
    default_scenario,
    generate_scenario,
    list_injections,
    load_scenario,
    save_scenario_outputs,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeBinding",
    "AttributeKind",
    "AttributeVerdict",
    "Catalog",
    "CatalogError",
    "ComplianceReport",
    "ComplianceStatus",
    "ContextError",
    "ContextSpec",
    "EntityClass",
    "EvidenceError",
    "EvidenceEvent",
    "Finding",
    "FunctionalRequirement",
    "GroundTruth",
    "IdScheme",
    "Injection",
    "ManualAttributeFile",
    "REGISTRY",
    "RequirementEnhancement",
    "SRStatus",
    "Scenario",
    "ScenarioError",
    "SecurityRequirement",
    "Session",
    "Status",
    "ValidationIssue",
    "assemble_sessions",
    "build_report",
    "classify_entity",
    "default_catalog_path",
    "default_scenario",
    "evaluate_sr",
    "evidence_digest",
    "generate_scenario",
    "list_injections",
    "load_catalog",
    "load_context",
    "load_evidence",
    "load_manual_attributes",
    "load_scenario",
    "parse_evidence",
    "parse_report",
    "render_report",
    "report_body",
    "required_attributes",
    "run_detectors",
    "run_evaluation",
    "save_scenario_outputs",
    "serialize_catalog",
    "to_jsonl",
    "validate_catalog",
    "write_evidence",
]
