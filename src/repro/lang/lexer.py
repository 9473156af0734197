"""Lexer for the mini-IR language.

The mini-IR is a small C-like language used to write instrumentable
programs against the simulated process: structs, pointers, fixed-size
arrays, globals, functions, loops.  Programs compile to an AST that the
interpreter executes on a :class:`~repro.runtime.process.Process`, with
every syntactic load/store becoming a distinct static instruction --
exactly the granularity at which the paper's instruction probes sit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List


class LangError(Exception):
    """Base error for the mini-IR toolchain."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")
        #: the bare message, without the baked-in location suffix, for
        #: tools that format their own ``file:line:col:`` prefix
        self.message = message
        self.line = line
        self.column = column


class LexError(LangError):
    """Raised on invalid source characters or unterminated comments."""


class TokenKind(enum.Enum):
    IDENT = "ident"
    INT = "int-literal"
    PUNCT = "punct"
    KEYWORD = "keyword"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "struct",
        "fn",
        "var",
        "global",
        "if",
        "else",
        "while",
        "for",
        "return",
        "new",
        "delete",
        "null",
        "int",
        "true",
        "false",
        "break",
        "continue",
    }
)

#: multi-character punctuation, longest first so maximal munch works
PUNCTUATION = (
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
    "&",
    ":",
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Turn source text into a token list ending with an EOF token."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> LexError:
        return LexError(message, line, column)

    while index < length:
        char = source[index]
        # whitespace
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        # comments
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[index : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            index = end + 2
            continue
        # identifiers / keywords
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue
        # integer literals (decimal or hex)
        if char.isdigit():
            start = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                index += 2
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    index += 1
            else:
                while index < length and source[index].isdigit():
                    index += 1
            text = source[start:index]
            tokens.append(Token(TokenKind.INT, text, line, column))
            column += len(text)
            continue
        # punctuation
        for punct in PUNCTUATION:
            if source.startswith(punct, index):
                tokens.append(Token(TokenKind.PUNCT, punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise error(f"unexpected character {char!r}")

    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
