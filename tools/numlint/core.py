"""Core framework: file contexts, the pass interface, and the tree walker.

A :class:`FileContext` bundles everything a pass needs about one file — the
parsed AST, the raw source lines, an import-alias map for resolving dotted
names like ``np.random.rand`` back to ``numpy.random.rand``, and the file's
*role* in the repository (library / hot path / experiment / benchmark /
test), which scopes several passes.

Passes are small classes yielding :class:`Finding` records; they register
themselves with :mod:`tools.numlint.passes` and are orchestrated by
:func:`run_paths`.
"""

from __future__ import annotations

import abc
import ast
import dataclasses
import re
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

#: Inline suppression marker: ``# numlint: disable`` silences every code on
#: that physical line; ``# numlint: disable=NL001,NL101`` silences only the
#: listed codes.
_SUPPRESS_RE = re.compile(
    r"#\s*numlint:\s*disable(?:=(?P<codes>[A-Z0-9_,\s]+))?"
)

#: Directories never walked (fixture snippets are deliberately bad code).
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".venv",
        ".mypy_cache",
        ".ruff_cache",
        ".pytest_cache",
        "numlint_fixtures",
    }
)

#: Path fragments (posix) that mark the float64 numerical hot path, where
#: the dtype-hygiene pass applies.
HOT_PATH_FRAGMENTS = (
    "repro/gp/",
    "repro/kernels/",
    "repro/acquisition/",
    "repro/optim/",
)

#: Path fragments that mark experiment-driver code (reproducibility-critical).
EXPERIMENT_FRAGMENTS = ("repro/experiments/",)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a pass at a specific source location."""

    relpath: str
    line: int
    col: int
    code: str
    message: str
    pass_name: str
    line_text: str

    def render(self) -> str:
        return (
            f"{self.relpath}:{self.line}:{self.col + 1}: "
            f"{self.code} {self.message} [{self.pass_name}]"
        )

    def to_json(self) -> dict:
        return {
            "path": self.relpath,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "pass": self.pass_name,
        }


def build_alias_map(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted import path they refer to.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random import
    default_rng as rng`` maps ``rng -> numpy.random.default_rng``.  Plain
    ``import numpy.random`` binds only the top-level name ``numpy``.
    Relative imports are ignored — the invariants target third-party
    numerics APIs, which are always absolute.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def qualified_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve an ``Attribute``/``Name`` chain to a canonical dotted path.

    Returns None for dynamic expressions (subscripts, calls) that cannot be
    resolved statically.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


class FileContext:
    """Everything a pass needs about one file under analysis."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.parse_error: SyntaxError | None = None
        try:
            self.tree: ast.Module = ast.parse(source, filename=self.relpath)
        except SyntaxError as exc:
            self.parse_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        self.aliases = build_alias_map(self.tree)

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "FileContext":
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
        return cls(relpath, path.read_text(encoding="utf-8"))

    # -- file roles ---------------------------------------------------------

    @property
    def is_test(self) -> bool:
        return self.relpath.startswith("tests/")

    @property
    def is_benchmark(self) -> bool:
        return self.relpath.startswith("benchmarks/")

    @property
    def is_library(self) -> bool:
        return self.relpath.startswith("src/")

    @property
    def is_experiment(self) -> bool:
        """Experiment-driver code, where reproducibility is load-bearing."""
        return self.is_benchmark or any(
            frag in self.relpath for frag in EXPERIMENT_FRAGMENTS
        )

    @property
    def is_hot_path(self) -> bool:
        """The float64 numerical core targeted by the dtype-hygiene pass."""
        return any(frag in self.relpath for frag in HOT_PATH_FRAGMENTS)

    @property
    def module_name(self) -> str:
        """Dotted module path (``src/repro/gp/model.py`` → ``repro.gp.model``).

        Files outside an importable tree still get a deterministic dotted
        name derived from the relpath, so contract indexing stays total.
        """
        parts = list(Path(self.relpath).with_suffix("").parts)
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # -- helpers for passes -------------------------------------------------

    def qualified(self, node: ast.AST) -> str | None:
        return qualified_name(node, self.aliases)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def is_suppressed(self, line: int, code: str) -> bool:
        match = _SUPPRESS_RE.search(self.line_text(line))
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True
        return code in {c.strip() for c in codes.split(",")}

    def finding(
        self, node: ast.AST, code: str, message: str, pass_name: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            relpath=self.relpath,
            line=line,
            col=col,
            code=code,
            message=message,
            pass_name=pass_name,
            line_text=self.line_text(line).strip(),
        )


class LintPass(abc.ABC):
    """One invariant checker.

    Subclasses declare ``name`` (kebab-case identifier), ``codes`` (a map of
    every diagnostic code they can emit to a one-line description) and
    implement :meth:`run` yielding findings for one file.  Scoping (which
    file roles the pass applies to) lives inside ``run`` so that each pass
    documents its own reach.
    """

    name: ClassVar[str]
    description: ClassVar[str]
    codes: ClassVar[dict[str, str]]
    #: Optional per-code (triggering, clean) snippet pairs for ``--explain``.
    examples: ClassVar[dict[str, tuple[str, str]]] = {}

    @abc.abstractmethod
    def run(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one file."""

    def prepare(self, contexts: Sequence[FileContext]) -> None:
        """Called once with every file context before the per-file runs.

        Interprocedural passes override this to build cross-file state (a
        contract index, a call graph); the default is a no-op.  When a pass
        is run standalone on a single context (fixture tests), ``prepare``
        may never be called — such passes must degrade to per-file scope.
        """

    def emit(
        self, ctx: FileContext, node: ast.AST, code: str, message: str
    ) -> Finding:
        if code not in self.codes:
            raise ValueError(f"pass {self.name} does not declare code {code}")
        return ctx.finding(node, code, message, self.name)


def iter_python_files(paths: Sequence[Path | str], root: Path) -> list[Path]:
    """Collect ``.py`` files under ``paths``, skipping excluded directories."""
    files: list[Path] = []
    seen: set[Path] = set()
    for entry in paths:
        base = Path(entry)
        if not base.is_absolute():
            base = root / base
        if base.is_file() and base.suffix == ".py":
            candidates: Iterable[Path] = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for path in candidates:
            resolved = path.resolve()
            if resolved in seen:
                continue
            rel_parts = resolved.relative_to(root.resolve()).parts
            if any(part in EXCLUDED_DIR_NAMES for part in rel_parts):
                continue
            seen.add(resolved)
            files.append(resolved)
    return files


def run_passes_on_context(
    ctx: FileContext,
    passes: Sequence[LintPass],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Run ``passes`` over one parsed file, honoring inline suppressions.

    Standalone (single-file) entry point: passes are prepared with just
    this context, so cross-file state from an earlier ``run_paths`` call
    on the same pass instances cannot leak in.  ``run_paths`` prepares
    with the full file set itself and calls :func:`_collect_findings`
    directly.
    """
    for lint_pass in passes:
        lint_pass.prepare([ctx])
    return _collect_findings(ctx, passes, select=select)


def _collect_findings(
    ctx: FileContext,
    passes: Sequence[LintPass],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    findings: list[Finding] = []
    if ctx.parse_error is not None:
        findings.append(
            Finding(
                relpath=ctx.relpath,
                line=ctx.parse_error.lineno or 1,
                col=(ctx.parse_error.offset or 1) - 1,
                code="NL000",
                message=f"syntax error: {ctx.parse_error.msg}",
                pass_name="parser",
                line_text="",
            )
        )
        return findings
    for lint_pass in passes:
        for finding in lint_pass.run(ctx):
            if select and not any(
                finding.code.startswith(prefix) for prefix in select
            ):
                continue
            if ctx.is_suppressed(finding.line, finding.code):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.code))
    return findings


def run_paths(
    paths: Sequence[Path | str],
    root: Path,
    passes: Sequence[LintPass] | None = None,
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint every python file under ``paths`` and return sorted findings.

    Every context is built and every pass prepared (cross-file state such
    as the contract index and effect call graph) before any file's
    findings are collected.
    """
    from tools.numlint.passes import all_passes

    active = list(passes) if passes is not None else all_passes()
    contexts = [
        FileContext.from_path(path, root)
        for path in iter_python_files(paths, root)
    ]
    for lint_pass in active:
        lint_pass.prepare(contexts)
    findings: list[Finding] = []
    for ctx in contexts:
        findings.extend(_collect_findings(ctx, active, select=select))
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.code))
    return findings


def iter_function_defs(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
