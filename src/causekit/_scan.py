"""Tokenizer shared by the instance and rule parsers."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError

# 'word' covers relation names, variables, and unquoted constants; the
# parsers classify them by their first character.
_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<arrow>:-)
    | (?P<punct>[().,\[\]])
    | (?P<quoted>"(?:[^"\\\n]|\\.)*")
    | (?P<word>[A-Za-z0-9_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "arrow" | "punct" | "quoted" | "word" | "end"
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            ch = text[pos]
            msg = "unterminated string literal" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(msg, line, pos - bol + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, m.group(), line, m.start() - bol + 1))
        nl = m.group().count("\n")
        if nl:
            line += nl
            bol = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("end", "", line, len(text) - bol + 1))
    return tokens


def unquote(text: str) -> str:
    """Strip the quotes of a quoted constant and resolve backslash escapes."""
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def is_constant_word(text: str) -> bool:
    return text[0].islower() or text[0].isdigit()


def is_variable_word(text: str) -> bool:
    return text[0].isupper() or text[0] == "_"


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def expect(self, text: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.text != text:
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {what or text!r}, found {found}", tok.line, tok.column)
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)


def parse_atom(stream: TokenStream, arities: dict[str, int], parse_arg: Callable):
    """Parse `rel(arg, ...)`, reading each argument with `parse_arg`.

    The relation name is lower-cased and its arity checked against (and
    recorded in) `arities`. Returns the relation, the argument tuple and
    the relation-name token.
    """
    tok = stream.peek()
    if tok.kind != "word" or not tok.text[0].isalpha():
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise stream.error(f"expected a relation name, found {found}")
    stream.advance()
    relation = tok.text.lower()
    stream.expect("(", "'(' after relation name")
    args = [parse_arg(stream)]
    while stream.peek().text == ",":
        stream.advance()
        args.append(parse_arg(stream))
    stream.expect(")")
    seen = arities.setdefault(relation, len(args))
    if seen != len(args):
        raise ParseError(
            f"arity conflict for relation '{relation}': {seen} vs {len(args)}",
            tok.line,
            tok.column,
        )
    return relation, tuple(args), tok
