"""Machine-readable requirement catalog for IEC 62443-3-3 (FR1..FR7).

The catalog maps each security requirement (SR) and requirement enhancement
(RE) to the monitorable attributes that evidence its fulfillment, with the
security level at which each attribute becomes required. It ships as a data
file rather than compiled-in so bindings can be revised without code
changes; :func:`default_catalog_path` points at the bundled file.

SR 3.3 (security functionality verification) ships flagged not_monitorable:
a monitoring engine cannot verify its own verification capability, so the
report renders it NotApplicable instead of claiming compliance.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from enum import Enum
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from typing import Annotated, Mapping

from otcms.jsonfield import from_json, loads, one_of, read, to_json

#: The security levels of IEC 62443-3-3, lowest first.
SL_LEVELS = (1, 2, 3, 4)
#: An SL target or minimum, as a file gives it.
SLTarget = Annotated[int, one_of(*SL_LEVELS)]


class CatalogError(ValueError):
    """Raised for malformed catalog files or invariant violations."""


class AttributeKind(str, Enum):
    """Origin of an attribute's value."""

    TRAFFIC = "traffic"  # measured directly in gathered evidence
    LOGICAL = "logical"  # deduced from evidence plus context knowledge
    MANUAL = "manual"  # asserted by an auditor, never monitored

    @classmethod
    def _missing_(cls, value):
        """Kinds match case-insensitively."""
        for kind in cls:
            if str(value).lower() == kind.value:
                return kind
        raise ValueError(f"unknown attribute kind {value!r}")


@dataclass(frozen=True)
class AttributeBinding:
    """Binds an SR (or RE) to one monitorable attribute.

    ``min_sl`` is the security level at which the attribute becomes
    required; 1 means always.
    """

    attribute_id: str
    kind: AttributeKind
    min_sl: SLTarget = 1


@dataclass(frozen=True)
class RequirementEnhancement:
    """An SR add-on mandatory only from ``min_sl`` upward."""

    id: str
    min_sl: SLTarget
    bindings: tuple[AttributeBinding, ...] = ()


@dataclass(frozen=True)
class SecurityRequirement:
    id: str
    title: str = ""
    bindings: tuple[AttributeBinding, ...] = ()
    enhancements: tuple[RequirementEnhancement, ...] = ()
    not_monitorable: bool = False
    rationale: str = ""


@dataclass(frozen=True)
class FunctionalRequirement:
    id: str
    title: str = ""
    srs: tuple[SecurityRequirement, ...] = ()


@dataclass(frozen=True)
class Catalog:
    """FR -> SR -> RE hierarchy with SL-conditional attribute bindings."""

    frs: tuple[FunctionalRequirement, ...]
    version: str = ""
    source_note: str = ""

    @cached_property
    def _srs_by_id(self) -> dict[str, SecurityRequirement]:
        return {sr.id: sr for sr in self.iter_srs()}

    def sr(self, sr_id: str) -> SecurityRequirement:
        try:
            return self._srs_by_id[sr_id]
        except KeyError:
            raise KeyError(f"unknown SR id {sr_id!r}") from None

    def iter_srs(self):
        for fr in self.frs:
            yield from fr.srs

    def attribute_kinds(self) -> dict[str, AttributeKind]:
        """All bound attribute ids mapped to their declared kind."""
        return {binding.attribute_id: binding.kind for sr in self.iter_srs() for binding in all_bindings(sr)}

    def manual_attribute_ids(self) -> set[str]:
        return {
            attribute_id
            for attribute_id, kind in self.attribute_kinds().items()
            if kind is AttributeKind.MANUAL
        }


@dataclass(frozen=True)
class ValidationIssue:
    """One consistency problem found by :func:`validate_catalog`."""

    sr_id: str
    code: str
    message: str


def default_catalog_path() -> Path:
    """Path of the catalog file bundled with the package."""
    return Path(str(resources.files("otcms").joinpath("data/catalog-62443-3-3.json")))


def _line_note(raw_text: str, sr_id: str, nth: int = 0) -> str:
    """`` (line N)`` of the ``nth`` (from 0) ``"id"`` member whose value is
    ``sr_id`` as JSON writes it, else empty; other strings equal to it do not count."""
    members = re.finditer(r'"id"\s*:\s*' + re.escape(json.dumps(sr_id, ensure_ascii=False)), raw_text)
    match = next(islice(members, nth, None), None)
    return "" if match is None else " (line %d)" % (raw_text.count("\n", 0, match.start()) + 1)


def parse_catalog(text: str) -> Catalog:
    """Parse catalog JSON text and enforce structural invariants."""
    catalog = from_json(Catalog, loads(text, CatalogError), CatalogError)

    seen_srs: set[str] = set()
    for fr in catalog.frs:
        for sr in fr.srs:
            if not sr.id:
                raise CatalogError(f"{fr.id}: SR without an id")
            if sr.id in seen_srs:
                raise CatalogError(f"duplicate SR id {sr.id!r}{_line_note(text, sr.id, 1)}")
            seen_srs.add(sr.id)
            if not sr.bindings and not sr.enhancements and not sr.not_monitorable:
                raise CatalogError(f"{sr.id}: no bindings and not flagged not_monitorable{_line_note(text, sr.id)}")
        if not fr.srs:
            raise CatalogError(f"{fr.id}: functional requirement with no SRs")

    expected = [f"FR{i}" for i in range(1, 8)]
    if [fr.id for fr in catalog.frs] != expected:
        raise CatalogError(f"catalog must contain exactly FR1..FR7 in order, got {[fr.id for fr in catalog.frs]}")
    for fr in catalog.frs:  # IEC 62443-3-3 numbering: the text report files SR<n>.<m> under FR<n>
        prefix = f"SR{fr.id[2:]}."
        for sr in fr.srs:
            if not sr.id.startswith(prefix):
                raise CatalogError(f"{fr.id}: SR id {sr.id!r} does not start with {prefix!r}{_line_note(text, sr.id)}")
    return catalog


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a catalog file."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise CatalogError("empty catalog file")
    return parse_catalog(text)


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to its file form; load(serialize(c)) == c."""
    return json.dumps(to_json(catalog), indent=2, ensure_ascii=False) + "\n"


def validate_catalog(catalog: Catalog, kind_map: Mapping[str, AttributeKind]) -> list[ValidationIssue]:
    """Cross-check the catalog against the detector registry.

    Reports dangling traffic/logical attribute ids and kind mismatches
    (including manual bindings shadowing a detector output); every other
    invariant is enforced by :func:`parse_catalog`. Issues are data, not
    failures; an empty result means the catalog is fully resolvable.
    """
    issues: list[ValidationIssue] = []
    for sr in catalog.iter_srs():
        for binding in chain(sr.bindings, *(enhancement.bindings for enhancement in sr.enhancements)):
            produced = kind_map.get(binding.attribute_id)
            if binding.kind is AttributeKind.MANUAL:
                if produced is None:
                    continue
                code, message = "kind_mismatch", "bound as manual but produced by a detector"
            elif produced is None:
                code, message = "dangling_attribute", f"no detector produces this {binding.kind.value} attribute"
            elif produced is not binding.kind:
                code = "kind_mismatch"
                message = f"catalog says {binding.kind.value}, detector registry says {produced.value}"
            else:
                continue
            issues.append(ValidationIssue(sr.id, code, f"{binding.attribute_id}: {message}"))
    return issues


def require_valid(catalog: Catalog, kind_map: Mapping[str, AttributeKind]) -> None:
    """Raise :class:`CatalogError` naming the first :func:`validate_catalog`
    issue: an evaluation refuses every catalog ``otcms catalog validate``
    rejects."""
    issues = validate_catalog(catalog, kind_map)
    if issues:
        raise CatalogError(f"{issues[0].sr_id}: {issues[0].message}")


def required_attributes(catalog: Catalog, sr_id: str, sl_target: int) -> list[AttributeBinding]:
    """Attributes required of ``sr_id`` at ``sl_target``.

    Union of the SR's base bindings with ``min_sl <= sl_target`` and the
    bindings of every enhancement active at ``sl_target``. The effective
    min_sl of an enhancement binding is the later of the enhancement's and
    the binding's own. Duplicate attribute ids collapse to the earliest
    level at which the attribute is required. Result is ordered by
    attribute_id; the required set grows monotonically with ``sl_target``.
    """
    read(sl_target, SLTarget, ValueError, "sl_target")
    return [binding for binding in all_bindings(catalog.sr(sr_id)) if binding.min_sl <= sl_target]


def all_bindings(sr: SecurityRequirement) -> list[AttributeBinding]:
    """Every binding of ``sr`` with its effective min_sl, for achieved-SL math."""
    effective = [(binding, binding.min_sl) for binding in sr.bindings] + [
        (binding, max(enhancement.min_sl, binding.min_sl))
        for enhancement in sr.enhancements
        for binding in enhancement.bindings
    ]
    merged: dict[str, AttributeBinding] = {}
    for binding, min_sl in effective:
        current = merged.get(binding.attribute_id)
        if current is None or min_sl < current.min_sl:
            merged[binding.attribute_id] = replace(binding, min_sl=min_sl)
    return [merged[attribute_id] for attribute_id in sorted(merged)]
