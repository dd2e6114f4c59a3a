"""Binary-layout checkers (RPR030–RPR031).

Snapshot format v2 declares its geometry as module constants in
``db/store.py``: a ``struct`` header format, a reserved header size, and a
64-byte section alignment.  The file format is only self-consistent when
the packed struct fits inside the reserved header and the reserved sizes
are multiples of the alignment — drift here corrupts every snapshot ever
written.  These rules evaluate the *actual* format strings with
:func:`struct.calcsize` against the declared constants, so the geometry is
re-proved on every lint run instead of trusted to a comment.
"""

from __future__ import annotations

import ast
import struct
from typing import Iterator

from .framework import (
    Checker,
    Finding,
    ImportMap,
    Project,
    Rule,
    SourceModule,
)

__all__ = ["BinaryLayoutChecker"]

RULE_FORMAT = Rule(
    "RPR030",
    "struct-layout-mismatch",
    "struct format strings must parse, and a declared <NAME>_SIZE constant "
    "must be at least struct.calcsize(<NAME>) — otherwise reads and writes "
    "disagree about where the payload starts.",
)
RULE_ALIGNMENT = Rule(
    "RPR031",
    "layout-misaligned",
    "Declared *_ALIGN constants must be powers of two (>= 8), and every "
    "paired *_SIZE constant must be a multiple of its alignment — every "
    "mapped section, lane rows included, must start word-aligned.",
)


def _safe_calcsize(fmt: str) -> int | None:
    try:
        return struct.calcsize(fmt)
    except struct.error:
        return None


def _module_constants(tree: ast.Module) -> tuple[dict[str, tuple[str, ast.AST]], dict[str, tuple[int, ast.AST]]]:
    """(struct-format defs, integer constants) bound at module level."""
    imports = ImportMap(tree)
    formats: dict[str, tuple[str, ast.AST]] = {}
    integers: dict[str, tuple[int, ast.AST]] = {}

    def scan(statements: list[ast.stmt]) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = [statement.target], statement.value
            if value is not None:
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if (
                        isinstance(value, ast.Call)
                        and imports.resolve(value.func) == "struct.Struct"
                        and value.args
                        and isinstance(value.args[0], ast.Constant)
                        and isinstance(value.args[0].value, str)
                    ):
                        formats[target.id] = (value.args[0].value, statement)
                    elif isinstance(value, ast.Constant) and isinstance(
                        value.value, int
                    ) and not isinstance(value.value, bool):
                        integers[target.id] = (value.value, statement)
            for attr in ("body", "orelse", "finalbody"):
                nested = getattr(statement, attr, None)
                if nested:
                    scan(nested)

    scan(tree.body)
    return formats, integers


class BinaryLayoutChecker(Checker):
    rules = (RULE_FORMAT, RULE_ALIGNMENT)

    def check(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap(module.tree)
        formats, integers = _module_constants(module.tree)

        def finding(rule: Rule, node: ast.AST, message: str, symbol: str) -> Finding:
            return Finding(
                code=rule.code,
                message=message,
                path=module.relpath,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                symbol=symbol,
            )

        # Every literal format string handed to struct anywhere in the file
        # must at least parse.
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and imports.resolve(node.func) in {"struct.calcsize", "struct.pack", "struct.unpack", "struct.Struct"}
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                fmt = node.args[0].value
                if _safe_calcsize(fmt) is None:
                    yield finding(
                        RULE_FORMAT,
                        node,
                        f"invalid struct format {fmt!r}",
                        "",
                    )

        # Alignment constants stand on their own.
        aligns = {
            name: (value, node)
            for name, (value, node) in integers.items()
            if name.endswith("_ALIGN")
        }
        for name, (value, node) in aligns.items():
            if value < 8 or value & (value - 1):
                yield finding(
                    RULE_ALIGNMENT,
                    node,
                    f"{name} = {value} is not a power of two >= 8",
                    name,
                )

        # Struct defs vs their declared reserved sizes.
        for name, (fmt, _node) in formats.items():
            packed = _safe_calcsize(fmt)
            if packed is None:
                continue  # already reported above
            size_name = f"{name}_SIZE"
            if size_name not in integers:
                continue
            declared, size_node = integers[size_name]
            if declared < packed:
                yield finding(
                    RULE_FORMAT,
                    size_node,
                    f"{size_name} = {declared} is smaller than "
                    f"struct.calcsize({name}) = {packed}",
                    size_name,
                )
            for align_name, (align, _align_node) in aligns.items():
                prefix = align_name[: -len("_ALIGN")]
                if not size_name.startswith(prefix):
                    continue
                if align and declared % align:
                    yield finding(
                        RULE_ALIGNMENT,
                        size_node,
                        f"{size_name} = {declared} is not a multiple of "
                        f"{align_name} = {align}",
                        size_name,
                    )
