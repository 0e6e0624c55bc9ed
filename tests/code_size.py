"""Code size in tokens, the unit a shrink is judged by (ROADMAP item 22).

Physical lines can be cut by trimming docstrings or joining calls, so a
size ratchet counts ``tokenize`` tokens as well.  Layout tokens (COMMENT,
NL, NEWLINE, INDENT, DEDENT, ENDMARKER) and the docstring of every module,
class and function are not code and are not counted.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
})

Position = tuple[int, int]


def docstring_spans(tree: ast.Module) -> list[tuple[Position, Position]]:
    """(start, end) of the docstring of the module and of every class and
    function in it."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            assert first.end_lineno is not None and first.end_col_offset is not None
            spans.append((
                (first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset),
            ))
    return spans


#: From Python 3.12 on an f-string comes as its parts (PEP 701); it counts
#: as the one STRING token earlier versions read, on every interpreter.
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_token_positions(source: str, tree: ast.Module | None = None) -> list[Position]:
    """The start of every code token of ``source``, in order."""
    spans = docstring_spans(tree if tree is not None else ast.parse(source))
    positions, depth = [], 0  # depth: how many f-strings the token is in
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == FSTRING_END:
            depth -= 1
            continue
        inside = depth > 0
        depth += token.type == FSTRING_START
        if inside or token.type in LAYOUT or (
            token.type == tokenize.STRING
            and any(start <= token.start < end for start, end in spans)
        ):
            continue
        positions.append(token.start)
    return positions


def code_tokens(path: Path) -> int:
    """How many code tokens the Python file at ``path`` holds."""
    return len(code_token_positions(path.read_text(encoding="utf-8")))
