import json
import re

import pytest

from otcms.catalog import (
    AttributeKind,
    CatalogError,
    default_catalog_path,
    load_catalog,
    parse_catalog,
    required_attributes,
    serialize_catalog,
    validate_catalog,
)
from otcms.detectors import REGISTRY, registry_kinds
from otcms.engine import run_evaluation
from otcms.simulator import default_context, default_scenario, generate_scenario


def minimal_catalog_dict():
    frs = []
    for i in range(1, 8):
        frs.append(
            {
                "id": f"FR{i}",
                "title": f"family {i}",
                "srs": [
                    {
                        "id": f"SR{i}.1",
                        "title": "t",
                        "bindings": [{"attribute_id": "least_functionality", "kind": "logical"}],
                    }
                ],
            }
        )
    return {"version": "test", "frs": frs}


class TestLoad:
    def test_default_catalog_shape(self, catalog):
        assert [fr.id for fr in catalog.frs] == [f"FR{i}" for i in range(1, 8)]
        fr1 = catalog.frs[0]
        assert [sr.id for sr in fr1.srs] == [f"SR1.{i}" for i in range(1, 14)]

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("")
        with pytest.raises(CatalogError, match="empty"):
            load_catalog(path)

    def test_duplicate_sr_named(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"].append(dict(data["frs"][0]["srs"][0]))
        with pytest.raises(CatalogError, match="duplicate SR id 'SR1.1'"):
            parse_catalog(json.dumps(data))

    def test_duplicate_sr_named_at_its_own_line(self):
        # the bundled catalog with SR1.1 appended again to FR1: its first copy sits at line 10
        data = json.loads(default_catalog_path().read_text(encoding="utf-8"))
        data["frs"][0]["srs"].append(data["frs"][0]["srs"][0])
        text = json.dumps(data, indent=2)
        assert [n for n, line in enumerate(text.split("\n"), 1) if '"id": "SR1.1"' in line] == [10, 182]
        with pytest.raises(CatalogError, match=r"^duplicate SR id 'SR1\.1' \(line 182\)$"):
            parse_catalog(text)

    def test_refused_sr_named_at_its_id_not_at_an_equal_title(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["title"] = "CUSTOM-1"
        data["frs"][1]["srs"][0]["id"] = "CUSTOM-1"
        text = json.dumps(data, indent=2)
        line = text[: text.index('"id": "CUSTOM-1"')].count("\n") + 1
        with pytest.raises(CatalogError, match=rf"^FR2: SR id 'CUSTOM-1' does not start with 'SR2\.' \(line {line}\)$"):
            parse_catalog(text)

    def test_unknown_kind_rejected(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["bindings"][0]["kind"] = "telepathic"
        with pytest.raises(CatalogError, match="unknown attribute kind"):
            parse_catalog(json.dumps(data))

    def test_unbound_sr_rejected_unless_flagged(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["bindings"] = []
        with pytest.raises(CatalogError, match="not flagged not_monitorable"):
            parse_catalog(json.dumps(data))
        data["frs"][0]["srs"][0]["not_monitorable"] = True
        parse_catalog(json.dumps(data))  # now fine

    def test_min_sl_out_of_range(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["bindings"][0]["min_sl"] = 5
        refused = r"srs\[SR1\.1\]: bindings\[0\]: min_sl: expected one of 1, 2, 3, 4, got 5$"
        with pytest.raises(CatalogError, match=refused):
            parse_catalog(json.dumps(data))

    def test_requires_exactly_fr1_to_fr7(self):
        data = minimal_catalog_dict()
        data["frs"].pop()
        with pytest.raises(CatalogError, match="FR1..FR7"):
            parse_catalog(json.dumps(data))

    @pytest.mark.parametrize("sr_id, fr_index", [("CUSTOM-1", 0), ("SR1.99", 1), ("SR2", 1)])
    def test_sr_id_not_naming_its_fr_refused(self, sr_id, fr_index):
        data = minimal_catalog_dict()
        data["frs"][fr_index]["srs"][0]["id"] = sr_id
        text = json.dumps(data, indent=2)
        line = text[: text.index(f'"{sr_id}"')].count("\n") + 1
        refused = f"FR{fr_index + 1}: SR id '{sr_id}' does not start with 'SR{fr_index + 1}.' (line {line})"
        with pytest.raises(CatalogError, match=f"^{re.escape(refused)}$"):
            parse_catalog(text)

    def test_round_trip_structural_equality(self, catalog):
        assert parse_catalog(serialize_catalog(catalog)) == catalog

    def test_only_sr33_not_monitorable(self, catalog):
        flagged = [sr.id for sr in catalog.iter_srs() if sr.not_monitorable]
        assert flagged == ["SR3.3"]
        assert catalog.sr("SR3.3").rationale


class TestValidate:
    def test_shipped_catalog_clean_against_registry(self, catalog):
        assert validate_catalog(catalog, registry_kinds()) == []

    def test_dangling_attribute(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["bindings"].append({"attribute_id": "frobnicate", "kind": "traffic"})
        issues = validate_catalog(parse_catalog(json.dumps(data)), registry_kinds())
        assert len(issues) == 1
        assert issues[0].code == "dangling_attribute"
        assert "frobnicate" in issues[0].message

    def test_kind_mismatch_with_registry(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["bindings"][0] = {"attribute_id": "data_integrity", "kind": "logical"}
        issues = validate_catalog(parse_catalog(json.dumps(data)), registry_kinds())
        assert [i.code for i in issues] == ["kind_mismatch"]

    def test_manual_shadowing_detector_output(self):
        data = minimal_catalog_dict()
        data["frs"][0]["srs"][0]["bindings"].append({"attribute_id": "data_integrity", "kind": "manual"})
        issues = validate_catalog(parse_catalog(json.dumps(data)), registry_kinds())
        assert [i.code for i in issues] == ["kind_mismatch"]


class TestRequiredAttributes:
    def test_sl1_excludes_multifactor(self, catalog):
        ids = [b.attribute_id for b in required_attributes(catalog, "SR1.1", 1)]
        assert "multifactor_auth" not in ids
        assert "unknown_communication" in ids

    def test_sl3_includes_multifactor(self, catalog):
        ids = [b.attribute_id for b in required_attributes(catalog, "SR1.1", 3)]
        assert "multifactor_auth" in ids

    def test_deterministic_and_sorted(self, catalog):
        for sr in catalog.iter_srs():
            first = required_attributes(catalog, sr.id, 2)
            second = required_attributes(catalog, sr.id, 2)
            assert first == second
            assert [b.attribute_id for b in first] == sorted(b.attribute_id for b in first)

    def test_monotone_in_sl_target(self, catalog):
        for sr in catalog.iter_srs():
            previous: set[str] = set()
            for sl in (1, 2, 3, 4):
                current = {b.attribute_id for b in required_attributes(catalog, sr.id, sl)}
                assert previous <= current, f"{sr.id}: required set shrank from SL {sl - 1} to {sl}"
                previous = current

    @pytest.mark.parametrize("sl_target, message", [
        (7, "sl_target: expected one of 1, 2, 3, 4, got 7"),
        (0, "sl_target: expected one of 1, 2, 3, 4, got 0"),
        (2.0, "sl_target: expected an integer, got 2.0"),
    ])
    def test_sl_target_refused_in_the_range_rules_words(self, catalog, sl_target, message):
        events, _ = generate_scenario(default_scenario())
        with pytest.raises(ValueError) as refused:
            run_evaluation(catalog, default_context(), events, sl_target=sl_target)
        assert str(refused.value) == message

    def test_unknown_sr(self, catalog):
        with pytest.raises(KeyError):
            required_attributes(catalog, "SR9.9", 1)

    def test_invalid_sl(self, catalog):
        with pytest.raises(ValueError):
            required_attributes(catalog, "SR1.1", 5)


def test_manual_ids_never_collide_with_registry(catalog):
    assert not catalog.manual_attribute_ids() & set(REGISTRY)


def test_all_kinds_match_registry(catalog):
    kinds = catalog.attribute_kinds()
    registry = registry_kinds()
    for attribute_id, kind in kinds.items():
        if kind is not AttributeKind.MANUAL:
            assert registry[attribute_id] is kind
