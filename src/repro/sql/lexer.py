"""Tokeniser for the SQL-like dialect.

Hand-rolled single-pass lexer: keywords are case-insensitive, identifiers
keep their case, string literals use single quotes with ``''`` escaping.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple

from repro.errors import SqlSyntaxError


class TokenType(Enum):
    IDENT = auto()
    STRING = auto()
    NUMBER = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    DOT = auto()
    EQ = auto()
    STAR = auto()
    KEYWORD = auto()
    END = auto()


KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "PROCESS", "PRODUCE", "USING", "AS",
        "AND", "OR", "ORDER", "BY", "LIMIT", "MERGE", "RANK",
    }
)


class Token(NamedTuple):  # half the cost of a frozen dataclass to build
    type: TokenType
    text: str
    position: int

    @property
    def upper(self) -> str:
        return self.text.upper()


_PUNCT = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "=": TokenType.EQ,
    "*": TokenType.STAR,
}


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; raises :class:`SqlSyntaxError` on any
    character outside the dialect."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # '' escape
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token(TokenType.NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = (
                TokenType.KEYWORD if word.upper() in KEYWORDS else TokenType.IDENT
            )
            tokens.append(Token(kind, word, i))
            i = j
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.END, "", n))
    return tokens
