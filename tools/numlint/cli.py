"""Command-line entry point: ``python -m tools.numlint`` / ``numlint``.

Exit codes: 0 — clean (every finding baselined), 1 — new findings (or
baseline written with ``--update-baseline`` … which still exits 0), 2 —
usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from tools.numlint.baseline import load_baseline, save_baseline, split_findings
from tools.numlint.core import Finding, LintPass, run_paths
from tools.numlint.passes import all_passes, get_pass
from tools.numlint.sarif import build_sarif

DEFAULT_PATHS = ("src", "benchmarks", "tests", "examples")
DEFAULT_BASELINE = Path("tools") / "numlint" / "baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numlint",
        description=(
            "numerics-aware static analysis: RNG discipline, linalg "
            "safety, out-buffer contracts, dtype hygiene, nondeterminism, "
            "concurrency safety, determinism & replay safety"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repository root that relative paths and the baseline resolve "
        "against (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather in the current findings",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated code prefixes to report (e.g. NL0,NL101)",
    )
    parser.add_argument(
        "--pass",
        dest="pass_names",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named pass (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github", "sarif"),
        default=None,
        help="output format (default: text; 'github' emits workflow-command "
        "annotations and is auto-selected when GITHUB_ACTIONS is set; "
        "'sarif' emits a SARIF 2.1.0 log of the new findings)",
    )
    parser.add_argument(
        "--explain",
        metavar="NLxxx",
        default=None,
        help="print the rationale and example snippets for one diagnostic "
        "code, then exit",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="list registered passes and their codes, then exit",
    )
    parser.add_argument(
        "--fail-stale",
        action="store_true",
        help="exit non-zero when baseline entries no longer match any "
        "finding (keeps the baseline from rotting as findings are fixed)",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings suppressed by the baseline",
    )
    parser.add_argument(
        "--with-external",
        action="store_true",
        help="additionally run ruff and mypy when installed (skipped with a "
        "notice otherwise)",
    )
    return parser


def _github_escape(text: str) -> str:
    """Escape a message for a GitHub Actions workflow command."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _render_github(finding: Finding) -> str:
    """A ``::error`` annotation GitHub attaches to the PR diff line."""
    return (
        f"::error file={finding.relpath},line={finding.line},"
        f"col={finding.col + 1},title={finding.code}"
        f"::{_github_escape(finding.message)} [{finding.pass_name}]"
    )


def _list_passes() -> int:
    for lint_pass in all_passes():
        print(f"{lint_pass.name}: {lint_pass.description}")
        for code, summary in sorted(lint_pass.codes.items()):
            print(f"  {code}  {summary}")
    return 0


def _docstring_rationale(lint_pass: LintPass, code: str) -> str | None:
    """The ``* **NLxxx** —`` bullet for ``code`` from the pass docstrings.

    Every pass module documents its codes as a bulleted registry; this
    parses the bullet body (including indented continuation lines) so
    ``--explain`` and the docs cannot drift apart.
    """
    docs = [
        sys.modules.get(type(lint_pass).__module__).__doc__ or "",
        type(lint_pass).__doc__ or "",
    ]
    pattern = re.compile(
        rf"^\* \*\*{re.escape(code)}\*\*\s*[—-]\s*(.*)$"
    )
    for doc in docs:
        lines = doc.splitlines()
        for i, line in enumerate(lines):
            match = pattern.match(line.strip())
            if match is None:
                continue
            body = [match.group(1).strip()]
            for cont in lines[i + 1 :]:
                stripped = cont.strip()
                if not stripped or stripped.startswith("* **"):
                    break
                body.append(stripped)
            return " ".join(body)
    return None


def _explain(code: str) -> int:
    """Print the rationale and example pair for one diagnostic code."""
    code = code.strip().upper()
    for lint_pass in all_passes():
        if code not in lint_pass.codes:
            continue
        print(f"{code}: {lint_pass.codes[code]}")
        print(f"pass: {lint_pass.name} — {lint_pass.description}")
        rationale = _docstring_rationale(lint_pass, code)
        if rationale:
            print()
            print(rationale)
        example = lint_pass.examples.get(code)
        if example:
            triggering, clean = example
            print()
            print("triggers:")
            for line in triggering.strip("\n").splitlines():
                print(f"    {line}")
            print()
            print("clean:")
            for line in clean.strip("\n").splitlines():
                print(f"    {line}")
        return 0
    known = sorted(
        code for lint_pass in all_passes() for code in lint_pass.codes
    )
    print(f"numlint: unknown code {code!r}", file=sys.stderr)
    print(f"numlint: known codes: {', '.join(known)}", file=sys.stderr)
    return 2


def _run_external(root: Path) -> int:
    """Best-effort ruff + mypy; missing tools are a notice, not a failure."""
    status = 0
    for tool, cmd in (
        ("ruff", ["ruff", "check", "src", "benchmarks", "tests", "tools"]),
        ("mypy", ["mypy", "--config-file", "pyproject.toml"]),
    ):
        if shutil.which(tool) is None:
            print(f"numlint: {tool} not installed; skipping")
            continue
        print(f"numlint: running {' '.join(cmd)}")
        proc = subprocess.run(cmd, cwd=root)
        status = max(status, min(proc.returncode, 1))
    return status


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_passes:
        return _list_passes()
    if args.explain is not None:
        return _explain(args.explain)

    root = args.root.resolve()
    baseline_path = (
        args.baseline if args.baseline is not None else root / DEFAULT_BASELINE
    )
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    try:
        passes = (
            [get_pass(name) for name in args.pass_names]
            if args.pass_names
            else None
        )
        findings = run_paths(args.paths, root, passes=passes, select=select)
    except (FileNotFoundError, KeyError) as exc:
        print(f"numlint: error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        save_baseline(baseline_path, findings)
        print(
            f"numlint: baseline written to "
            f"{baseline_path.relative_to(root)} ({len(findings)} findings)"
        )
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    new, baselined, stale = split_findings(findings, baseline)

    output_format = args.format
    if output_format is None:
        output_format = (
            "github" if os.environ.get("GITHUB_ACTIONS") else "text"
        )

    if output_format == "sarif":
        active = passes if passes is not None else all_passes()
        print(json.dumps(build_sarif(new, active), indent=2))
    elif output_format == "json":
        print(
            json.dumps(
                {
                    "new": [f.to_json() for f in new],
                    "baselined": [f.to_json() for f in baselined],
                    "stale_fingerprints": stale,
                },
                indent=2,
            )
        )
    elif output_format == "github":
        for finding in new:
            print(_render_github(finding))
        print(
            f"numlint: {len(new)} new finding(s), {len(baselined)} baselined"
        )
        if stale:
            print(
                f"::warning title=numlint::{len(stale)} stale baseline "
                "fingerprint(s) no longer match any finding; refresh with "
                "--update-baseline"
            )
    else:
        for finding in new:
            print(finding.render())
        if args.show_baselined:
            for finding in baselined:
                print(f"{finding.render()} (baselined)")
        summary = (
            f"numlint: {len(new)} new finding(s), "
            f"{len(baselined)} baselined, {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'}"
        )
        print(summary)
        if stale:
            print(
                "numlint: stale entries no longer match any finding; "
                "refresh with --update-baseline"
            )

    status = 1 if new else 0
    if args.fail_stale and stale:
        if output_format not in ("json", "sarif"):
            print(
                f"numlint: failing on {len(stale)} stale baseline "
                "entr" + ("y" if len(stale) == 1 else "ies")
                + " (--fail-stale)"
            )
        status = max(status, 1)
    if args.with_external:
        status = max(status, _run_external(root))
    return status


if __name__ == "__main__":
    sys.exit(main())
