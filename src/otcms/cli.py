"""Command-line front door for auditors and CI.

Exit codes form the machine contract: ``evaluate`` returns 0 when no SR is
non-compliant, 1 when at least one is, 2 on input/configuration errors.
Diagnostics go to stderr only; the report body never interleaves with them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from otcms.catalog import default_catalog_path, load_catalog, validate_catalog
from otcms.compliance import render_report
from otcms.context import load_context, load_manual_attributes
from otcms.detectors import registry_kinds
from otcms.engine import evidence_digest, run_evaluation
from otcms.evidence import DEFAULT_SESSION_GAP_MS, EvidenceError, parse_evidence
from otcms.simulator import load_scenario, save_scenario_outputs

CATALOG_ENV = "CMS_CATALOG"
GENERATED_AT_ENV = "CMS_GENERATED_AT"

_FORMATS = {"json": "structured", "text": "human"}


def _err(message: str) -> None:
    print(f"otcms: error: {message}", file=sys.stderr)


def _resolve_catalog_path(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get(CATALOG_ENV)
    if env_value:
        return Path(env_value)
    return default_catalog_path()


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.session_gap_ms <= 0:
        _err(f"--session-gap-ms must be positive, got {args.session_gap_ms}")
        return 2
    generated_at = args.generated_at
    if generated_at is None:
        env_value = os.environ.get(GENERATED_AT_ENV)
        try:
            generated_at = int(env_value) if env_value else int(time.time() * 1000)
        except ValueError:
            _err(f"{GENERATED_AT_ENV} must be an integer (epoch ms), got {env_value!r}")
            return 2
    catalog_path = _resolve_catalog_path(args.catalog)
    try:
        catalog = load_catalog(catalog_path)
    except (OSError, ValueError) as exc:
        _err(f"cannot load catalog {catalog_path}: {exc}")
        return 2
    for issue in validate_catalog(catalog, registry_kinds()):
        # parse_catalog keeps such a binding for validate to report; no SL requires it, so a report would drop it.
        if issue.code == "min_sl_range":
            _err(f"cannot evaluate with catalog {catalog_path}: {issue.sr_id}: {issue.message}")
            return 2
    try:
        ctx = load_context(args.context)
    except (OSError, ValueError) as exc:
        _err(f"cannot load context {args.context}: {exc}")
        return 2
    manual = None
    if args.manual:
        try:
            manual = load_manual_attributes(args.manual, catalog)
        except (OSError, ValueError) as exc:
            _err(f"cannot load manual attributes {args.manual}: {exc}")
            return 2
    try:
        raw = Path(args.evidence).read_bytes()
        events = parse_evidence(raw.decode("utf-8").splitlines(), strict=not args.lenient)
    except OSError as exc:
        _err(f"cannot read evidence {args.evidence}: {exc}")
        return 2
    except (EvidenceError, UnicodeDecodeError) as exc:
        _err(f"{args.evidence}: {exc}")
        return 2

    report = run_evaluation(
        catalog,
        ctx,
        events,
        manual=manual,
        sl_target=args.sl_target,
        gap_ms=args.session_gap_ms,
        digest=evidence_digest(raw),
        generated_at=generated_at,
    )
    rendered = render_report(report, _FORMATS[args.format])
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        Path(args.out).write_text(rendered, encoding="utf-8")

    noncompliant = report.noncompliant_sr_ids()
    if noncompliant:
        print(f"otcms: {len(noncompliant)} non-compliant SR(s): {', '.join(noncompliant)}", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        catalog = load_catalog(_resolve_catalog_path(args.catalog))
        written = save_scenario_outputs(
            scenario, args.out_dir, catalog=catalog, emit_context=args.emit_context
        )
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return 2
    for path in written:
        print(f"otcms: wrote {path}", file=sys.stderr)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    catalog_path = _resolve_catalog_path(args.catalog)
    try:
        catalog = load_catalog(catalog_path)
    except (OSError, ValueError) as exc:
        _err(f"cannot load catalog {catalog_path}: {exc}")
        return 1 if args.action == "validate" else 2

    if args.action == "validate":
        issues = validate_catalog(catalog, registry_kinds())
        for issue in issues:
            print(f"{issue.sr_id}: {issue.code}: {issue.message}")
        if issues:
            return 1
        print(f"catalog {catalog.version}: no issues")
        return 0

    # list: FR/SR tree with binding counts
    for fr in catalog.frs:
        print(f"{fr.id}  {fr.title}")
        for sr in fr.srs:
            bindings = len(sr.bindings) + sum(len(e.bindings) for e in sr.enhancements)
            flags = "  [not monitorable]" if sr.not_monitorable else ""
            print(f"  {sr.id:<8} {sr.title}  ({bindings} bindings){flags}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otcms",
        description="IEC 62443-3-3 compliance monitoring over normalized network evidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser("evaluate", help="evaluate evidence and write a compliance report")
    evaluate.add_argument("--catalog", help=f"catalog file (default: bundled; env {CATALOG_ENV})")
    evaluate.add_argument("--evidence", required=True, help="JSON Lines evidence file")
    evaluate.add_argument("--context", required=True, help="context knowledge file")
    evaluate.add_argument("--manual", help="manual attribute assignments file")
    evaluate.add_argument("--sl-target", type=int, choices=(1, 2, 3, 4), default=2)
    evaluate.add_argument("--out", default="-", help="report path ('-' for stdout)")
    evaluate.add_argument("--format", choices=sorted(_FORMATS), default="json")
    evaluate.add_argument("--lenient", action="store_true", help="skip malformed evidence lines")
    evaluate.add_argument("--session-gap-ms", type=int, default=DEFAULT_SESSION_GAP_MS)
    evaluate.add_argument(
        "--generated-at", type=int, default=None,
        help=f"report timestamp in epoch ms (default: now; env {GENERATED_AT_ENV})",
    )
    evaluate.set_defaults(func=cmd_evaluate)

    simulate = sub.add_parser("simulate", help="generate a labeled evidence stream from a scenario")
    simulate.add_argument("scenario", help="scenario file")
    simulate.add_argument("--out-dir", required=True)
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.add_argument("--catalog", help="catalog used to compute ground-truth SR labels")
    simulate.add_argument("--emit-context", action="store_true",
                          help="also write the scenario context as context.json")
    simulate.set_defaults(func=cmd_simulate)

    catalog = sub.add_parser("catalog", help="validate or list the requirement catalog")
    catalog.add_argument("action", choices=("validate", "list"))
    catalog.add_argument("--catalog", help="catalog file (default: bundled)")
    catalog.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
