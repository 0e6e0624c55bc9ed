"""The code-token count the size ratchets hold ``src/`` to (ROADMAP item 22):
layout and docstrings are not code, everything else is one token each."""

from __future__ import annotations

import ast
import textwrap

import pytest

from tests.code_size import code_token_positions, code_tokens, docstring_spans


def count(source: str) -> int:
    return len(code_token_positions(textwrap.dedent(source)))


def test_a_statement_is_its_tokens():
    assert code_token_positions("x = 1\n") == [(1, 0), (1, 2), (1, 4)]


def test_comments_blank_lines_and_layout_are_not_code():
    plain = "def f(a):\n    return a\n"
    laid_out = """
        # a comment

        def f(a):  # another

            return a
    """
    assert count(plain) == count(laid_out) == 8


def test_a_line_continued_inside_brackets_counts_its_tokens_once():
    assert count("x = (1,\n     2)\n") == count("x = (1, 2)\n") == 7


@pytest.mark.parametrize("where, source", [
    ("module", '"""Doc."""\nx = 1\n'),
    ("class", 'class C:\n    """Doc."""\n    x = 1\n'),
    ("function", 'def f():\n    """Doc."""\n    return 1\n'),
    ("async function", 'async def f():\n    """Doc."""\n    return 1\n'),
    ("nested function", 'def f():\n    def g():\n        """Doc."""\n        return 1\n'),
])
def test_a_docstring_is_not_code(where, source):
    without = "\n".join(line for line in source.splitlines() if '"""' not in line) + "\n"
    assert count(source) == count(without)


def test_a_string_that_is_not_the_first_statement_is_code():
    assert count('def f():\n    x = 1\n    "not a docstring"\n') == count(
        'def f():\n    x = 1\n    "a"\n'
    ) == 9


def test_a_string_value_is_code():
    assert count('x = """not a docstring"""\n') == 3


def test_an_f_string_is_one_token_on_every_interpreter():
    assert count('x = f"{a} and {b!r:>4}"\n') == count('x = "s"\n') == 3


def test_a_nested_f_string_is_still_one_token():
    assert count("x = f\"{f'{a}'}\"\n") == 3


def test_docstring_spans_cover_each_docstring_and_nothing_else():
    source = '"""M."""\n\nclass C:\n    """C."""\n\n    def f(self):\n        return "s"\n'
    assert docstring_spans(ast.parse(source)) == [((1, 0), (1, 8)), ((4, 4), (4, 12))]


def test_code_tokens_reads_the_file(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Doc."""\n\n# c\nx = 1\n', encoding="utf-8")
    assert code_tokens(path) == 3
