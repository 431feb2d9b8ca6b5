"""Report bytes pinned by hash.

Refactors must leave every report byte unchanged. These tests pin the
sha256 of the evidence stream (``to_jsonl``), the report body and the text
rendering for default scenarios no longer than the context's
``session_max_ms`` (seeds 0-5, a fixed set of injection mixes, SL 1-4) and
for the bundled example scenario. A hash changes only when a correctness
fix changes the output on purpose; update it then, and say why.
"""

import hashlib
from importlib import resources

import pytest

from otcms.catalog import Catalog
from otcms.compliance import render_report, report_body
from otcms.engine import run_evaluation
from otcms.evidence import to_jsonl
from otcms.simulator import INJECTIONS, Injection, Scenario, default_scenario, generate_scenario, load_scenario

MIXES = (
    (),
    ("weak_encryption",),
    ("session_termination", "session_id_integrity"),
    ("pki_best_practice", "data_integrity", "authenticator_obscured"),
    ("p2p_restriction", "logical_segmentation", "boundary_default_deny", "wireless_iac"),
    ("iac_management", "audit_log_exists", "authorization_enforced", "continuous_monitoring", "pki_present"),
    ("login_attempt_limit", "password_policy", "audit_timestamped", "untrusted_access_control"),
    tuple(sorted(INJECTIONS)),
)

GOLDEN_SEEDS = {
    0: "d8f3ab543e7e95d1a10d3004ba31f6b9b8cda3e36034eb9cf99827c0493cb887",
    1: "2e0eb30a5edd2fd432298df1a19a00e522aa711fac72d664d2f118a5c609a52e",
    2: "63bd41b12341ed74c76e79f45987acf30c5b7d1e475ee8fc9d50a86ab34812aa",
    3: "cb738ce4a896e7911b9c20ee866a911c9197d540f0abc608d5a7543aa62b250d",
    4: "319e58e0d44de434a59d1f1bac4e1601f1d5ce1d327bf12f7f350a77ba3cc05f",
    5: "0d813354d3df47978ac2d23b31f607b0b1e45507593b59e579762bdbd14e2cb9",
}
GOLDEN_EXAMPLE = "7f72c54118d725294cc12c912dd5372e842d61ba289648d9d7d3a6df6c052a22"


def _injections(mix: tuple[str, ...]) -> tuple[Injection, ...]:
    # every other injection at an explicit time, the rest at the window end
    return tuple(
        Injection(attribute_id=attribute_id, at_ms=500 * (i + 1) if i % 2 else None)
        for i, attribute_id in enumerate(mix)
    )


def _digest(catalog: Catalog, scenarios: list[Scenario]) -> str:
    sha = hashlib.sha256()
    for scenario in scenarios:
        events, _ = generate_scenario(scenario, catalog)
        sha.update(to_jsonl(events).encode("utf-8"))
        for sl_target in (1, 2, 3, 4):
            report = run_evaluation(catalog, scenario.spec, events, sl_target=sl_target)
            sha.update(report_body(report))
            sha.update(render_report(report, "human").encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEEDS))
def test_default_scenarios_unchanged(catalog, seed):
    scenarios = [default_scenario(name="golden", seed=seed, injections=_injections(mix)) for mix in MIXES]
    assert all(s.duration_ms <= s.spec.session_max_ms for s in scenarios)
    assert _digest(catalog, scenarios) == GOLDEN_SEEDS[seed]


def test_bundled_example_unchanged(catalog):
    scenario = load_scenario(str(resources.files("otcms").joinpath("data/scenario-example.json")))
    assert _digest(catalog, [scenario]) == GOLDEN_EXAMPLE
