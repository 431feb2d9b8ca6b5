"""Command-line front door for auditors and CI.

Exit codes form the machine contract: ``evaluate`` returns 0 when no SR is
non-compliant, 1 when at least one is, 2 on input/configuration errors.
Diagnostics go to stderr only; the report body never interleaves with them.
Every refusal of an input is raised to :func:`main`, which prints it as one
``otcms: error:`` line and returns its exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from otcms.catalog import SL_LEVELS, CatalogError, default_catalog_path, load_catalog, require_valid, validate_catalog
from otcms.compliance import render_report
from otcms.context import load_context, load_manual_attributes
from otcms.detectors import registry_kinds
from otcms.engine import run_evaluation
from otcms.evidence import DEFAULT_SESSION_GAP_MS, EvidenceError, read_evidence
from otcms.simulator import load_scenario, save_scenario_outputs

CATALOG_ENV = "CMS_CATALOG"
GENERATED_AT_ENV = "CMS_GENERATED_AT"

_FORMATS = {"json": "structured", "text": "human"}


class _Refusal(Exception):
    """An input refused: :func:`main` prints the message and returns ``code``."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _load(what: str, path, load, *args):
    """``load(path, *args)``, its ``OSError`` or ``ValueError`` refused as ``cannot load {what} {path}: ...``."""
    try:
        return load(path, *args)
    except (OSError, ValueError) as exc:
        raise _Refusal(f"cannot load {what} {path}: {exc}") from None


def _catalog_path(args: argparse.Namespace) -> Path:
    return Path(args.catalog or os.environ.get(CATALOG_ENV) or default_catalog_path())


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.session_gap_ms <= 0:
        raise _Refusal(f"--session-gap-ms must be positive, got {args.session_gap_ms}")
    generated_at = args.generated_at
    if generated_at is None:
        env_value = os.environ.get(GENERATED_AT_ENV)
        try:
            generated_at = int(env_value) if env_value else int(time.time() * 1000)
        except ValueError:
            raise _Refusal(f"{GENERATED_AT_ENV} must be an integer (epoch ms), got {env_value!r}") from None
    catalog_path = _catalog_path(args)
    catalog = _load("catalog", catalog_path, load_catalog)
    try:
        require_valid(catalog, registry_kinds())
    except CatalogError as exc:
        raise _Refusal(f"cannot evaluate with catalog {catalog_path}: {exc}") from None
    ctx = _load("context", args.context, load_context)
    manual = _load("manual attributes", args.manual, load_manual_attributes, catalog) if args.manual else None
    try:
        with open(args.evidence, "rb") as file:
            events, digest = read_evidence(file, strict=not args.lenient)
    except OSError as exc:
        raise _Refusal(f"cannot read evidence {args.evidence}: {exc}") from None
    except EvidenceError as exc:
        raise _Refusal(f"{args.evidence}: {exc}") from None

    report = run_evaluation(
        catalog,
        ctx,
        events,
        manual=manual,
        sl_target=args.sl_target,
        gap_ms=args.session_gap_ms,
        digest=digest,
        generated_at=generated_at,
    )
    rendered = render_report(report, _FORMATS[args.format])
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise _Refusal(f"cannot write report {args.out}: {exc}") from None

    noncompliant = report.noncompliant_sr_ids()
    if noncompliant:
        print(f"otcms: {len(noncompliant)} non-compliant SR(s): {', '.join(noncompliant)}", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load("scenario", args.scenario, load_scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    catalog = _load("catalog", _catalog_path(args), load_catalog)
    try:
        written = save_scenario_outputs(scenario, args.out_dir, catalog=catalog, emit_context=args.emit_context)
    except (OSError, ValueError) as exc:
        raise _Refusal(str(exc)) from None
    for path in written:
        print(f"otcms: wrote {path}", file=sys.stderr)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    try:
        catalog = _load("catalog", _catalog_path(args), load_catalog)
    except _Refusal as refusal:
        if args.action == "validate":  # validate finds an unloadable catalog invalid
            refusal.code = 1
        raise

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
    evaluate.add_argument("--sl-target", type=int, choices=SL_LEVELS, default=2)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as refusal:
        print(f"otcms: error: {refusal}", file=sys.stderr)
        return refusal.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
