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
from dataclasses import dataclass, replace
from functools import cached_property
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

_SL_RANGE = (1, 2, 3, 4)


class CatalogError(ValueError):
    """Raised for malformed catalog files or invariant violations."""


class AttributeKind(str, Enum):
    """Origin of an attribute's value."""

    TRAFFIC = "traffic"  # measured directly in gathered evidence
    LOGICAL = "logical"  # deduced from evidence plus context knowledge
    MANUAL = "manual"  # asserted by an auditor, never monitored


@dataclass(frozen=True)
class AttributeBinding:
    """Binds an SR (or RE) to one monitorable attribute.

    ``min_sl`` is the security level at which the attribute becomes
    required; 1 means always.
    """

    attribute_id: str
    kind: AttributeKind
    min_sl: int = 1


@dataclass(frozen=True)
class RequirementEnhancement:
    """An SR add-on mandatory only from ``min_sl`` upward."""

    id: str
    min_sl: int
    bindings: tuple[AttributeBinding, ...] = ()


@dataclass(frozen=True)
class SecurityRequirement:
    id: str
    title: str
    bindings: tuple[AttributeBinding, ...] = ()
    enhancements: tuple[RequirementEnhancement, ...] = ()
    not_monitorable: bool = False
    rationale: str = ""


@dataclass(frozen=True)
class FunctionalRequirement:
    id: str
    title: str
    srs: tuple[SecurityRequirement, ...] = ()


@dataclass(frozen=True)
class Catalog:
    """FR -> SR -> RE hierarchy with SL-conditional attribute bindings."""

    frs: tuple[FunctionalRequirement, ...]
    version: str
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


def _line_note(raw_text: str, needle: str) -> str:
    """`` (line N)`` for the first quoted occurrence of ``needle``, else empty."""
    position = raw_text.find(f'"{needle}"')
    if position < 0:
        return ""
    line = raw_text.count("\n", 0, position) + 1
    return f" (line {line})"


def _parse_binding(raw: dict, where: str) -> AttributeBinding:
    if not isinstance(raw, dict) or "attribute_id" not in raw:
        raise CatalogError(f"{where}: binding must be an object with attribute_id")
    kind_raw = str(raw.get("kind", "")).lower()
    try:
        kind = AttributeKind(kind_raw)
    except ValueError:
        raise CatalogError(f"{where}: unknown attribute kind {raw.get('kind')!r}") from None
    min_sl = raw.get("min_sl", 1)
    if not isinstance(min_sl, int):
        raise CatalogError(f"{where}: min_sl must be an integer")
    return AttributeBinding(attribute_id=str(raw["attribute_id"]), kind=kind, min_sl=min_sl)


def parse_catalog(text: str) -> Catalog:
    """Parse catalog JSON text and enforce structural invariants."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict) or "frs" not in data:
        raise CatalogError("catalog must be a JSON object with an 'frs' array")

    frs: list[FunctionalRequirement] = []
    seen_srs: set[str] = set()
    for fr_raw in data["frs"]:
        srs: list[SecurityRequirement] = []
        fr_id = str(fr_raw.get("id", ""))
        for sr_raw in fr_raw.get("srs", []):
            sr_id = str(sr_raw.get("id", ""))
            if not sr_id:
                raise CatalogError(f"{fr_id}: SR without an id")
            if sr_id in seen_srs:
                raise CatalogError(f"duplicate SR id {sr_id!r}{_line_note(text, sr_id)}")
            seen_srs.add(sr_id)
            bindings = tuple(
                _parse_binding(raw, sr_id) for raw in sr_raw.get("bindings", [])
            )
            enhancements = []
            for enh_raw in sr_raw.get("enhancements", []):
                enh_id = str(enh_raw.get("id", ""))
                enh_min_sl = enh_raw.get("min_sl")
                if enh_min_sl not in _SL_RANGE:
                    raise CatalogError(f"{sr_id}: enhancement {enh_id!r} min_sl must be 1..4")
                enhancements.append(
                    RequirementEnhancement(
                        id=enh_id,
                        min_sl=enh_min_sl,
                        bindings=tuple(
                            _parse_binding(raw, enh_id) for raw in enh_raw.get("bindings", [])
                        ),
                    )
                )
            not_monitorable = bool(sr_raw.get("not_monitorable", False))
            if not bindings and not enhancements and not not_monitorable:
                raise CatalogError(f"{sr_id}: no bindings and not flagged not_monitorable{_line_note(text, sr_id)}")
            srs.append(
                SecurityRequirement(
                    id=sr_id,
                    title=str(sr_raw.get("title", "")),
                    bindings=bindings,
                    enhancements=tuple(enhancements),
                    not_monitorable=not_monitorable,
                    rationale=str(sr_raw.get("rationale", "")),
                )
            )
        if not srs:
            raise CatalogError(f"{fr_id}: functional requirement with no SRs")
        frs.append(FunctionalRequirement(id=fr_id, title=str(fr_raw.get("title", "")), srs=tuple(srs)))

    expected = [f"FR{i}" for i in range(1, 8)]
    if [fr.id for fr in frs] != expected:
        raise CatalogError(f"catalog must contain exactly FR1..FR7 in order, got {[fr.id for fr in frs]}")

    return Catalog(
        frs=tuple(frs),
        version=str(data.get("version", "")),
        source_note=str(data.get("source_note", "")),
    )


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a catalog file."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise CatalogError(f"{path}: empty catalog file")
    return parse_catalog(text)


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to its file form; load(serialize(c)) == c."""

    def binding_obj(binding: AttributeBinding) -> dict:
        obj: dict = {"attribute_id": binding.attribute_id, "kind": binding.kind.value}
        if binding.min_sl != 1:
            obj["min_sl"] = binding.min_sl
        return obj

    data = {
        "version": catalog.version,
        "source_note": catalog.source_note,
        "frs": [
            {
                "id": fr.id,
                "title": fr.title,
                "srs": [
                    {
                        "id": sr.id,
                        "title": sr.title,
                        **({"not_monitorable": True} if sr.not_monitorable else {}),
                        **({"rationale": sr.rationale} if sr.rationale else {}),
                        "bindings": [binding_obj(b) for b in sr.bindings],
                        **(
                            {
                                "enhancements": [
                                    {
                                        "id": enh.id,
                                        "min_sl": enh.min_sl,
                                        "bindings": [binding_obj(b) for b in enh.bindings],
                                    }
                                    for enh in sr.enhancements
                                ]
                            }
                            if sr.enhancements
                            else {}
                        ),
                    }
                    for sr in fr.srs
                ],
            }
            for fr in catalog.frs
        ],
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def validate_catalog(catalog: Catalog, kind_map: Mapping[str, AttributeKind]) -> list[ValidationIssue]:
    """Cross-check the catalog against the detector registry.

    Reports dangling traffic/logical attribute ids, SRs without bindings or
    a not_monitorable flag, out-of-range min_sl values, and kind mismatches
    (including manual bindings shadowing a detector output). Issues are
    data, not failures; an empty result means the catalog is internally
    consistent and fully resolvable.
    """
    issues: list[ValidationIssue] = []

    def check_binding(sr_id: str, binding: AttributeBinding) -> None:
        if binding.min_sl not in _SL_RANGE:
            issues.append(
                ValidationIssue(sr_id, "min_sl_range", f"{binding.attribute_id}: min_sl {binding.min_sl} outside 1..4")
            )
        if binding.kind is AttributeKind.MANUAL:
            if binding.attribute_id in kind_map:
                issues.append(
                    ValidationIssue(
                        sr_id,
                        "kind_mismatch",
                        f"{binding.attribute_id}: bound as manual but produced by a detector",
                    )
                )
            return
        if binding.attribute_id not in kind_map:
            issues.append(
                ValidationIssue(
                    sr_id,
                    "dangling_attribute",
                    f"{binding.attribute_id}: no detector produces this {binding.kind.value} attribute",
                )
            )
        elif kind_map[binding.attribute_id] is not binding.kind:
            issues.append(
                ValidationIssue(
                    sr_id,
                    "kind_mismatch",
                    f"{binding.attribute_id}: catalog says {binding.kind.value}, "
                    f"detector registry says {kind_map[binding.attribute_id].value}",
                )
            )

    for sr in catalog.iter_srs():
        if not sr.bindings and not sr.enhancements and not sr.not_monitorable:
            issues.append(ValidationIssue(sr.id, "unbound_sr", "no bindings and no not_monitorable flag"))
        for binding in sr.bindings:
            check_binding(sr.id, binding)
        for enhancement in sr.enhancements:
            if enhancement.min_sl not in _SL_RANGE:
                issues.append(
                    ValidationIssue(
                        sr.id, "min_sl_range", f"{enhancement.id}: min_sl {enhancement.min_sl} outside 1..4"
                    )
                )
            for binding in enhancement.bindings:
                check_binding(sr.id, binding)
    return issues


def required_attributes(catalog: Catalog, sr_id: str, sl_target: int) -> list[AttributeBinding]:
    """Attributes required of ``sr_id`` at ``sl_target``.

    Union of the SR's base bindings with ``min_sl <= sl_target`` and the
    bindings of every enhancement active at ``sl_target``. The effective
    min_sl of an enhancement binding is the later of the enhancement's and
    the binding's own. Duplicate attribute ids collapse to the earliest
    level at which the attribute is required. Result is ordered by
    attribute_id; the required set grows monotonically with ``sl_target``.
    """
    if sl_target not in _SL_RANGE:
        raise ValueError(f"sl_target must be 1..4, got {sl_target}")
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
