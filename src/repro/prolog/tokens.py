"""Tokenizer for (DEC-10 flavoured) Prolog source text.

Produces a stream of :class:`Token` values for the operator-precedence
reader.  The token classes follow classic Edinburgh syntax:

* atoms: lowercase identifiers, quoted atoms, symbolic atoms built from
  the symbol-char set, and the solo atoms ``! ; [] {}``
* variables: identifiers starting with an uppercase letter or ``_``
* integers: ASCII decimal digits, ``0'c`` character codes
* strings: ``"..."`` read as lists of character codes
* punctuation: ``( ) [ ] { } , |`` and the clause-terminating ``.``

Comments (``% ...`` and ``/* ... */``) are skipped.

The scanner is one compiled master pattern: a layout prefix (blanks
and comments) followed by one named alternative per token class.  Each
``match`` consumes the layout and one token, the match's ``lastgroup``
names the class, and line and column come from counting newlines over
the span since the previous token.  Inputs no class accepts match one
of the error alternatives (an unterminated comment, quote or string,
or a character outside the syntax) and raise
:class:`~repro.errors.PrologSyntaxError` at that token's position.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.errors import PrologSyntaxError

SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")


class TokenKind(Enum):
    ATOM = auto()
    VAR = auto()
    INT = auto()
    STRING = auto()          # value is the raw text; reader expands to code list
    PUNCT = auto()           # ( ) [ ] { } , |
    OPEN_CT = auto()         # '(' immediately after an atom: functor application
    END = auto()             # clause-terminating full stop
    EOF = auto()


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object = None
    line: int = 0
    column: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


_SYMBOL_RUN = f"[{re.escape(''.join(sorted(SYMBOL_CHARS)))}]+"

_MASTER = re.compile(r"""
    (?:[ \t\r\n]+ | %[^\n]* | /\*.*?\*/)*       # layout
    (?:                                         # first match wins:
        (?P<PUNCT>[()\[\],|{}])
      | (?P<NAME>[^\W\d]\w*)                    # '_' or a letter first
      | (?P<OPEN_COMMENT>/\*)                   # before SYMBOL
      | (?P<SYMBOL>""" + _SYMBOL_RUN + r""")
      | (?P<CHAR>0'\\?.)                        # before INT
      | (?P<OPEN_CHAR>0')
      | (?P<INT>[0-9]+)
      | (?P<SOLO>[!;])
      | (?P<QUOTED>'(?:[^'\\]|''|\\.)*')
      | (?P<OPEN_QUOTE>')
      | (?P<STRING>"(?:[^"\\]|\\.)*")
      | (?P<OPEN_STRING>")
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )""", re.VERBOSE | re.DOTALL)

_ESCAPES = {"n": 10, "t": 9, "r": 13, "a": 7, "b": 8, "f": 12, "v": 11,
            "\\": 92, "'": 39, '"': 34, "`": 96, "0": 0}
#: Escapes inside a quoted atom (which also doubles its quote) and a string.
_QUOTED_ESCAPES = re.compile(r"\\(.)|''", re.DOTALL)
_STRING_ESCAPES = re.compile(r"\\(.)", re.DOTALL)

_UNTERMINATED = {
    "OPEN_COMMENT": "unterminated block comment",
    "OPEN_QUOTE": "unterminated quoted atom",
    "OPEN_STRING": "unterminated string",
    "OPEN_CHAR": "unterminated character code",
}

#: The kinds as module constants (cheaper to reach than enum attributes).
ATOM, VAR, INT, STRING, PUNCT, OPEN_CT, END, EOF = TokenKind


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an ``EOF`` token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    count = text.count
    new = tuple.__new__       # Token(...) without the Python-level __new__
    pos = 0
    line = 1
    line_start = 0      # offset of the first character of ``line``
    last = 0            # start of the previous token; newlines are counted from it
    while True:
        m = match(text, pos)
        group = m.lastgroup
        start = m.start(group)
        pos = m.end()
        if count("\n", last, start):
            line += count("\n", last, start)
            line_start = text.rindex("\n", last, start) + 1
        last = start
        column = start - line_start + 1
        if group == "PUNCT":
            append(new(Token, (PUNCT, text[start], None, line, column)))
            continue
        if group == "NAME":
            name = text[start:pos]
            first = name[0]
            if first == "_" or first.isupper():
                append(new(Token, (VAR, name, name, line, column)))
                continue
            if not first.isalpha():
                raise PrologSyntaxError(f"unexpected character {first!r}", line, column)
        elif group == "SYMBOL":
            name = text[start:pos]
                                                # A lone '.' followed by layout or EOF terminates a clause.
            if name == "." and text[pos:pos + 1] in ("", " ", "\t", "\r", "\n", "%"):
                append(new(Token, (END, ".", None, line, column)))
                continue
        elif group == "INT":
            digits = text[start:pos]
            append(new(Token, (INT, digits, int(digits), line, column)))
            continue
        elif group == "SOLO":
            name = text[start]
            append(new(Token, (ATOM, name, name, line, column)))
            continue
        elif group == "QUOTED":
            name = text[start + 1:pos - 1]
            if "\\" in name or "''" in name:
                name = _unescape(_QUOTED_ESCAPES, name, line, column)
        elif group == "STRING":
            body = text[start + 1:pos - 1]
            if "\\" in body:
                body = _unescape(_STRING_ESCAPES, body, line, column)
            append(new(Token, (STRING, body, body, line, column)))
            continue
        elif group == "CHAR":
            raw = text[start:pos]
            code = _escape_code(raw[3:], line, column) if raw[2] == "\\" else ord(raw[2])
            append(new(Token, (INT, raw, code, line, column)))
            continue
        elif group == "EOF":
            append(new(Token, (EOF, "", None, line, column)))
            return tokens
        elif group == "BAD":
            raise PrologSyntaxError(f"unexpected character {text[start]!r}", line, column)
        else:
            raise PrologSyntaxError(_UNTERMINATED[group], line, column)
        # An atom name (identifier, symbol run or quoted) opens a
                                                # compound term when '(' follows with no layout between.
        if text.startswith("(", pos):
            pos += 1
            append(new(Token, (OPEN_CT, name, name, line, column)))
        else:
            append(new(Token, (ATOM, name, name, line, column)))


def _escape_code(char: str, line: int, column: int) -> int:
    """The character code of the escape sequence ``\\`` + ``char``."""
    code = _ESCAPES.get(char)
    if code is None:
        raise PrologSyntaxError(f"unknown escape sequence \\{char}", line, column)
    return code


def _unescape(pattern: re.Pattern, body: str, line: int, column: int) -> str:
    def replace(m: re.Match) -> str:
        char = m.group(1)
        return "'" if char is None else chr(_escape_code(char, line, column))
    return pattern.sub(replace, body)
