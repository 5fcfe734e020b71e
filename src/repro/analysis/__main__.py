"""CLI: ``python -m repro.analysis [paths] [--format text|json|github] ...``.

Exit status is the CI contract: 0 when no finding is at or above
``--severity``, 1 when one is, 2 on usage errors.  The analysis is always
whole-program — the call-graph fixpoint needs every module.  ``--format
github`` emits ``::error``/``::warning`` workflow annotations; ``--format
json`` emits the stable schema for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.checkers import all_checkers
from repro.analysis.core import run_analysis
from repro.analysis.findings import SEVERITIES, Finding


def _list_rules() -> str:
    lines: List[str] = []
    for checker in all_checkers():
        lines.append(f"{checker.name}:")
        for rule, description in sorted(checker.rules.items()):
            lines.append(f"  {rule:28s} {description}")
    return "\n".join(lines)


def _github_line(finding: Finding) -> str:
    level = "error" if finding.severity == "error" else "warning"
    message = finding.message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    return (
        f"::{level} file={finding.file},line={finding.line},"
        f"title={finding.rule}::{message}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Whole-program invariant linter: RNG discipline, "
        "interprocedural lock discipline, deterministic iteration, batched "
        "contract signatures, pickle safety, plan immutability.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories (default: src)")
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github = workflow annotations)",
    )
    parser.add_argument(
        "--severity",
        choices=SEVERITIES,
        default="error",
        help="gate threshold: exit nonzero only for findings at or above "
        "this severity (default: error; warnings are always reported but "
        "never fail the run unless --severity warning)",
    )
    parser.add_argument("--report", default=None, help="also write the JSON report to this path")
    parser.add_argument("--list-rules", action="store_true", help="list every rule and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        findings = run_analysis(args.paths, all_checkers())
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    threshold = SEVERITIES.index(args.severity)
    gating = [f for f in findings if SEVERITIES.index(f.severity) >= threshold]

    report = {
        "findings": [finding.to_dict() for finding in findings],
        "severity_gate": args.severity,
        "gating": [finding.to_dict() for finding in gating],
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for finding in findings:
            print(_github_line(finding) if args.format == "github" else finding.render())
        print(
            f"{len(findings)} finding(s), {len(gating)} at/above --severity {args.severity}",
            file=sys.stderr,
        )

    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main())
