"""The grammar of instance and rule text, and the scanner that reads it.

`TokenStream(text)` is the one scanner of the instance and rule parsers.
Tokens carry their character offset; a `ParseError`'s 1-based line and
column are worked out from it only when the error is raised. A column
counts characters (a tab is one), and only "\\n" ends a line.

`FACT` splits instance text into headers and whole facts, with no tokens,
where a fact holds only plain words and no gaps. It is built from
the same word and comment sub-patterns as the scanner, so a change to the
grammar is one edit; text it does not match is left to the scanner, which
reads it or reports the error.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .errors import ParseError

# The grammar's pieces, shared by `_TOKEN`, `FACT` and the serializer in `model`.
_WORD_CHARS = "A-Za-z0-9_"
_COMMENT = r"%[^\n]*"
BARE = rf"[a-z0-9][{_WORD_CHARS}]*"  # a word that is a constant
NAME = rf"[A-Za-z][{_WORD_CHARS}]*"  # a relation name as spelled; lower-cased when read

# Whitespace and comments match no named group. 'word' covers relation names,
# variables, and unquoted constants; the parsers classify them by their first
# character. 'bad' is any character that starts no token.
_TOKEN = re.compile(
    rf"""
      \s+
    | {_COMMENT}
    | (?P<arrow>:-)
    | (?P<punct>[().,\[\]])
    | (?P<quoted>"(?:[^"\\\n]|\\.)*")
    | (?P<word>[{_WORD_CHARS}]+)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

# Whitespace and comments between two tokens. A comment must run to the end
# of its line, as the scanner reads it, so the gap matches in one way only
# and a failed match backtracks in linear time.
GAP = re.compile(rf"\s*(?:{_COMMENT}(?![^\n])\s*)*")

# One item of instance text and the gap after it: a section header (group 1)
# or a fact `rel(c1,...,ck).` with its relation name (group 2) and its
# plain-word arguments joined by bare commas (group 3). A fact with a gap or a
# quoted constant inside matches neither, and is left to the scanner. An item
# starts after no word character and takes the gap after it, never the one
# before, so a search (`FACT.split`) fails at once inside gaps and words it
# passes over, and reads any text in linear time.
FACT = re.compile(
    rf"(?<![{_WORD_CHARS}])(?:\[(endogenous|exogenous)\]"
    rf"|({NAME})\(({BARE}(?:,{BARE})*)\)\.){GAP.pattern}"
)


class Token(NamedTuple):
    kind: str  # "arrow" | "punct" | "quoted" | "word" | "end"
    text: str
    offset: int


def unquote(text: str) -> str:
    """Strip the quotes of a quoted constant and resolve backslash escapes."""
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def is_constant_word(text: str) -> bool:
    return text[0].islower() or text[0].isdigit()


def is_variable_word(text: str) -> bool:
    return text[0].isupper() or text[0] == "_"


def _found(tok: Token) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


class TokenStream:
    def __init__(self, text: str):
        self._text = text
        self._tokens = [Token(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text) if m.lastgroup]
        for tok in self._tokens:
            if tok.kind == "bad":
                msg = "unterminated string literal" if tok.text == '"' else f"unexpected character {tok.text!r}"
                raise self.error(msg, tok)
        self._tokens.append(Token("end", "", len(text)))
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
            raise self.error(f"expected {what or text!r}, found {_found(tok)}")
        return self.advance()

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """A ParseError at `tok` (default: the next token), positioned by its offset."""
        offset = (self.peek() if tok is None else tok).offset
        line_start = self._text.rfind("\n", 0, offset) + 1
        return ParseError(message, self._text.count("\n", 0, offset) + 1, offset - line_start + 1)


def parse_atom(stream: TokenStream, arities: dict[str, int], parse_arg: Callable):
    """Parse `rel(arg, ...)`, reading each argument with `parse_arg`.

    The relation name is lower-cased and its arity checked against (and
    recorded in) `arities`. Returns the relation, the argument tuple and
    the relation-name token.
    """
    tok = stream.peek()
    if tok.kind != "word" or not tok.text[0].isalpha():
        raise stream.error(f"expected a relation name, found {_found(tok)}")
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
        raise stream.error(f"arity conflict for relation '{relation}': {seen} vs {len(args)}", tok)
    return relation, tuple(args), tok
