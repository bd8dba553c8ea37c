"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit status: 0 when clean (possibly via waivers), 1 when active
error-severity findings remain (or warnings, under ``--strict``), 2 on
usage problems (bad baseline, unknown rule codes, missing paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import run_analysis
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.analysis`` argument parser (shared with ``repro lint``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant linter: determinism, top-k total order, "
            "monotonic clocks, lock discipline, shared-memory lifecycle, "
            "async blocking calls, and no print() in library code."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to scan (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the report to FILE (any --format)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            f"baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file, report everything",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write the current active findings to the baseline file as a "
            "skeleton (justifications must then be filled in by hand)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--severity",
        metavar="CODE=LEVEL",
        action="append",
        default=[],
        help="override a rule's severity, e.g. --severity REP004=warning",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="warnings also fail the run",
    )
    parser.add_argument(
        "--include-tests",
        action="store_true",
        help="also scan test files (skipped by default)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="text format: also list suppressed and baselined findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code for code in raw.split(",") if code.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit status."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.severity:<7}  {rule.name}")
            print(f"        {rule.description}")
        return 0

    severities = {}
    for pair in args.severity:
        if "=" not in pair:
            print(f"error: --severity expects CODE=LEVEL, got {pair!r}", file=sys.stderr)
            return 2
        code, level = pair.split("=", 1)
        severities[code] = level

    baseline = None
    baseline_path = args.baseline
    if not args.no_baseline and not args.write_baseline:
        if baseline_path is None and Path(DEFAULT_BASELINE).exists():
            baseline_path = DEFAULT_BASELINE
        if baseline_path is not None:
            try:
                baseline = load_baseline(baseline_path)
            except (BaselineError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    try:
        result = run_analysis(
            args.paths,
            baseline=baseline,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            severities=severities,
            include_tests=args.include_tests,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        count = write_baseline(result.findings, target)
        print(
            f"wrote {count} entr{'y' if count == 1 else 'ies'} to {target} — "
            f"replace every placeholder justification before committing"
        )
        return 0

    report = (
        render_json(result)
        if args.format == "json"
        else render_text(result, verbose=args.verbose)
    )
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    return result.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
