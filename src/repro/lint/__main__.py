"""Command-line front end: ``python -m repro.lint src tests``.

Exit codes: 0 clean (suppressed findings do not fail the run),
1 findings or unparsable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.base import all_rules
from repro.lint.runner import lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based contract checker for the repro engine",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="finding output format",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-rule wall time after the findings",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES", default="",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="append a per-rule markdown summary table to the output",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for code, rule in all_rules().items():
            print(f"{code} {rule.name}: {rule.rationale}")
        return 0

    select = (
        [c for c in args.select.split(",") if c.strip()] if args.select else None
    )
    ignore = [c for c in args.ignore.split(",") if c.strip()]

    report = lint_paths(
        [Path(p) for p in args.paths], select=select, ignore=ignore
    )

    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text())
    if args.summary:
        print()
        print(report.render_summary())
    if args.stats:
        print()
        print(report.render_stats())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
