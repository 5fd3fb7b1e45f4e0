"""Lexer for the C subset."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import CSyntaxError, SourceLocation

KEYWORDS = frozenset(
    {
        "int",
        "float",
        "double",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
    }
)


class CTok(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    PUNCT = "punct"
    EOF = "eof"


#: Multi-character punctuators, longest first.
_PUNCTUATORS = [
    "<<=",
    ">>=",
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "~",
    "&",
    "|",
    "^",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    "?",
    ":",
]


@dataclass(frozen=True)
class CToken:
    kind: CTok
    value: object
    location: SourceLocation

    def __repr__(self) -> str:
        return f"CToken({self.kind.name}, {self.value!r})"


#: One token per match, alternatives tried in order.  A word starts with
#: a character for which ``str.isalpha()`` holds, or ``_``: ``[^\W\d]``
#: also admits numerics such as ``'½'`` and ``'²'``, which tokenize_c
#: rejects.  Numbers take decimal digits only (``\d``), which ``int``
#: and ``float`` accept.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|0[xX](?P<hex>[0-9a-fA-F]*)"
    r"|(?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTUATORS)) + ")",
    re.DOTALL,
)


def tokenize_c(text: str, filename: str = "<c>") -> list[CToken]:
    tokens: list[CToken] = []
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    length = len(text)
    match = _TOKEN.match
    while pos < length:
        found = match(text, pos)
        kind = found.lastgroup if found else None
        if kind == "space" or kind == "comment":
            end = found.end()
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
            pos = end
            continue
        location = SourceLocation(filename, line, pos - line_start + 1)
        if found is None:
            raise CSyntaxError(f"unexpected character {text[pos]!r}", location)
        end = found.end()
        if kind == "word":
            word = found.group()
            if not (word[0].isalpha() or word[0] == "_"):
                raise CSyntaxError(f"unexpected character {word[0]!r}", location)
            kind = CTok.KEYWORD if word in KEYWORDS else CTok.IDENT
            tokens.append(CToken(kind, word, location))
        elif kind == "punct":
            tokens.append(CToken(CTok.PUNCT, found.group(), location))
        elif kind == "int":
            tokens.append(CToken(CTok.INT, int(found.group()), location))
        elif kind == "float":
            tokens.append(CToken(CTok.FLOAT, float(found.group()), location))
        elif kind == "hex":
            if pos + 2 == end:
                raise CSyntaxError("malformed hex literal", location)
            tokens.append(CToken(CTok.INT, int(found.group("hex"), 16), location))
        else:  # a "/*" with no "*/" after it
            raise CSyntaxError("unterminated comment", location)
        pos = end
    tokens.append(
        CToken(CTok.EOF, None, SourceLocation(filename, line, pos - line_start + 1))
    )
    return tokens
