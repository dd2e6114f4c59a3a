"""Checker framework for ``repro lint``.

The analysis subsystem turns the invariants pinned in prose by
``docs/architecture.md`` into mechanical AST checks: every rule has a stable
``RPR0xx`` code, findings can be suppressed inline with
``# repro: ignore[RPRnnn]`` on the offending line, and a committed baseline
file grandfathers historical findings so only *new* violations fail the
build (exit status 2).

The pieces:

* :class:`Rule` / :class:`Finding` — the vocabulary shared by checkers,
  reporters, and the baseline.
* :class:`SourceModule` / :class:`Project` — one parsed file and the whole
  scanned tree; checkers get both so cross-module rules stay cheap.
* :class:`Checker` — base class; subclasses declare ``rules`` and implement
  :meth:`Checker.check`.
* :class:`Baseline` — load/save and membership for grandfathered findings.
  Identity deliberately excludes the line number so unrelated edits above a
  grandfathered hit do not un-baseline it.
* :func:`run_lint` — walk, parse, check, filter (suppressions, ``--select``,
  baseline) and return a :class:`LintReport`.
* :func:`render_text` / :func:`render_json` — the two reporters.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

from ..errors import AnalysisError

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "ImportMap",
    "LintReport",
    "PARSE_ERROR",
    "Project",
    "Rule",
    "ScopedVisitor",
    "SourceModule",
    "dotted_name",
    "iter_nodes",
    "render_json",
    "render_text",
    "rules_catalog",
    "run_lint",
]

JSON_REPORT_VERSION = 1

_SUPPRESSION_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Rule:
    """One checkable invariant: a stable code, a slug, and a summary."""

    code: str
    name: str
    summary: str


#: Pseudo-rule for files the scanner cannot parse.  Always reported; never
#: filtered by ``--select`` and never eligible for the baseline.
PARSE_ERROR = Rule(
    "RPR000",
    "parse-error",
    "The file could not be parsed as Python; nothing else can be checked.",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location.

    ``symbol`` is the dotted in-module scope (``Class.method``) — it feeds
    the baseline identity so findings survive line drift.
    """

    code: str
    message: str
    path: str
    line: int
    column: int
    symbol: str = ""

    @property
    def identity(self) -> tuple[str, str, str, str]:
        """Baseline identity: everything except the (volatile) position."""
        return (self.path, self.code, self.symbol, self.message)

    def to_json(self, *, baselined: bool = False) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "symbol": self.symbol,
            "baselined": baselined,
        }


class SourceModule:
    """A parsed source file plus its inline suppression table."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:
            self.parse_error = exc
        self.suppressions = self._scan_suppressions(source)

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(Path(self.relpath).parts)

    @property
    def filename(self) -> str:
        return Path(self.relpath).name

    @staticmethod
    def _scan_suppressions(source: str) -> dict[int, frozenset[str]]:
        table: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESSION_RE.search(line)
            if match:
                codes = frozenset(
                    code.strip().upper()
                    for code in match.group(1).split(",")
                    if code.strip()
                )
                if codes:
                    table[lineno] = codes
        return table

    def suppressed(self, finding: Finding) -> bool:
        return finding.code in self.suppressions.get(finding.line, frozenset())


class Project:
    """The whole scanned tree, for checkers that need cross-module context."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = list(modules)


class Checker:
    """Base class for rule groups.  Subclasses set ``rules`` and ``check``."""

    rules: ClassVar[tuple[Rule, ...]] = ()

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


class Baseline:
    """Grandfathered findings: identity tuples loaded from a JSON file."""

    def __init__(self, entries: Iterable[tuple[str, str, str, str]] = ()) -> None:
        self.entries = frozenset(entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return cls()
        except (OSError, json.JSONDecodeError) as exc:
            raise AnalysisError(f"unreadable lint baseline {path}: {exc}") from exc
        entries = []
        for row in payload.get("findings", []):
            entries.append(
                (
                    str(row.get("path", "")),
                    str(row.get("code", "")),
                    str(row.get("symbol", "")),
                    str(row.get("message", "")),
                )
            )
        return cls(entries)

    @staticmethod
    def render(findings: Sequence[Finding]) -> str:
        rows = [
            {
                "path": finding.path,
                "code": finding.code,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            for finding in sorted(findings, key=lambda f: f.identity)
        ]
        return json.dumps({"version": 1, "findings": rows}, indent=2) + "\n"

    def matches(self, finding: Finding) -> bool:
        return finding.identity in self.entries


@dataclass
class LintReport:
    """What a lint run produced, split by disposition."""

    findings: list[Finding]
    baselined: list[Finding]
    suppressed: int
    files_checked: int
    rules: tuple[Rule, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, field-order traversal (preserves statement order,
    unlike :func:`ast.walk`'s breadth-first order)."""
    yield node
    for child in ast.iter_child_nodes(node):
        yield from iter_nodes(child)


class ImportMap:
    """Resolve local call names back to qualified dotted names.

    ``import time as t`` makes ``t.sleep`` resolve to ``time.sleep``;
    ``from os import fsync`` makes ``fsync`` resolve to ``os.fsync``.
    Unresolvable heads pass through unchanged.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base


class ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the class/function nesting stack.

    Subclasses override ``handle_*`` hooks; traversal stays in the base so
    the stacks cannot drift.
    """

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.class_stack: list[ast.ClassDef] = []
        self.function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    # -- hooks ---------------------------------------------------------- #
    def handle_classdef(self, node: ast.ClassDef) -> None:
        """Called on entering a class body."""

    def handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Called on entering a function body."""

    def handle_node(self, node: ast.AST) -> None:
        """Called for every other node."""

    # -- traversal ------------------------------------------------------ #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.handle_classdef(node)
        self.class_stack.append(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.handle_function(node)
        self.function_stack.append(node)
        self.generic_visit(node)
        self.function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def generic_visit(self, node: ast.AST) -> None:
        self.handle_node(node)
        super().generic_visit(node)

    # -- context -------------------------------------------------------- #
    @property
    def current_function(self) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        return self.function_stack[-1] if self.function_stack else None

    @property
    def in_async(self) -> bool:
        return isinstance(self.current_function, ast.AsyncFunctionDef)

    def qualname(self) -> str:
        parts = [node.name for node in self.class_stack]
        parts.extend(node.name for node in self.function_stack)
        return ".".join(parts)


# --------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------- #
def _all_checkers() -> list[Checker]:
    # Imported lazily so framework helpers stay importable from the checker
    # modules without a cycle.
    from .concurrency import ConcurrencyChecker
    from .durability import DurabilityChecker
    from .exceptions import ExceptionHygieneChecker
    from .layout import BinaryLayoutChecker
    from .policies import PolicyPurityChecker

    return [
        ConcurrencyChecker(),
        DurabilityChecker(),
        BinaryLayoutChecker(),
        ExceptionHygieneChecker(),
        PolicyPurityChecker(),
    ]


def rules_catalog() -> tuple[Rule, ...]:
    """Every shipped rule, parse-error pseudo-rule first, then by code."""
    rules = [PARSE_ERROR]
    for checker in _all_checkers():
        rules.extend(checker.rules)
    return tuple(sorted(rules, key=lambda rule: rule.code))


def _iter_python_files(paths: Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            files.append(path)
        else:
            raise AnalysisError(f"lint path does not exist: {path}")
    return files


def _relative_path(path: Path) -> str:
    try:
        relative = os.path.relpath(path, Path.cwd())
    except ValueError:  # different drive (Windows)
        return path.as_posix()
    if relative.startswith(".."):
        return path.as_posix()
    return Path(relative).as_posix()


def load_project(paths: Sequence[Path]) -> Project:
    modules = []
    for file in _iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        modules.append(SourceModule(file, _relative_path(file), source))
    return Project(modules)


def run_lint(
    paths: Sequence[Path],
    *,
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
) -> LintReport:
    """Scan ``paths`` and return the report.

    ``select`` restricts reporting to the given rule codes (parse errors are
    always reported).  ``baseline`` diverts matching findings out of the
    failing set.
    """
    project = load_project(paths)
    checkers = _all_checkers()
    selected = {code.upper() for code in select} if select is not None else None
    baseline = baseline or Baseline()

    raw: list[Finding] = []
    for module in project.modules:
        if module.parse_error is not None:
            error = module.parse_error
            raw.append(
                Finding(
                    code=PARSE_ERROR.code,
                    message=f"syntax error: {error.msg}",
                    path=module.relpath,
                    line=error.lineno or 1,
                    column=(error.offset or 1) - 1,
                )
            )
            continue
        for checker in checkers:
            raw.extend(checker.check(module, project))

    by_path = {module.relpath: module for module in project.modules}
    new: list[Finding] = []
    baselined: list[Finding] = []
    suppressed = 0
    for finding in raw:
        if finding.code != PARSE_ERROR.code:
            if selected is not None and finding.code not in selected:
                continue
            module = by_path.get(finding.path)
            if module is not None and module.suppressed(finding):
                suppressed += 1
                continue
            if baseline.matches(finding):
                baselined.append(finding)
                continue
        new.append(finding)

    def sort_key(finding: Finding) -> tuple[str, int, str]:
        return (finding.path, finding.line, finding.code)

    return LintReport(
        findings=sorted(new, key=sort_key),
        baselined=sorted(baselined, key=sort_key),
        suppressed=suppressed,
        files_checked=len(project.modules),
        rules=rules_catalog(),
    )


# --------------------------------------------------------------------- #
# Reporters
# --------------------------------------------------------------------- #
def render_text(report: LintReport) -> str:
    lines = []
    for finding in report.findings:
        location = f"{finding.path}:{finding.line}:{finding.column + 1}"
        symbol = f" [{finding.symbol}]" if finding.symbol else ""
        lines.append(f"{location}: {finding.code} {finding.message}{symbol}")
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
        f" ({len(report.baselined)} baselined, {report.suppressed} suppressed)"
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(report: LintReport) -> str:
    payload = {
        "version": JSON_REPORT_VERSION,
        "tool": "repro lint",
        "files_checked": report.files_checked,
        "rules": [
            {"code": rule.code, "name": rule.name, "summary": rule.summary}
            for rule in report.rules
        ],
        "findings": [finding.to_json(baselined=False) for finding in report.findings]
        + [finding.to_json(baselined=True) for finding in report.baselined],
        "summary": {
            "new": len(report.findings),
            "baselined": len(report.baselined),
            "suppressed": report.suppressed,
        },
    }
    return json.dumps(payload, indent=2) + "\n"
