"""A regex token stream and its list reader, shared by the text-format parsers."""

from __future__ import annotations

import re

# Identifiers, decimal numbers, the junction signs and any other single
# non-space character; whitespace (exactly ``str.isspace``) separates tokens.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|/\\|\\/|\S")


class ParseError(ValueError):
    """Syntax error carrying the offending position."""

    def __init__(self, message: str, text: str | None = None, pos: int | None = None):
        if text is not None and pos is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            snippet = text[max(0, pos - 24) : pos + 24].replace("\n", " ")
            message = f"{message} (line {line}, column {col}, near {snippet!r})"
        super().__init__(message)
        self.pos = pos


class Cursor:
    """A position in a text's tokens, with helpers to consume them.

    ``after`` records whether the last step consumed a token.  An error is
    placed at the end of that token if so, and otherwise at the start of
    the next one (or at the end of the text).
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")  # the end: no literal, word or number equals it
        self.i = 0
        self.after = True

    def error(self, message: str):
        n = len(self.text)
        spans = [(0, 0), *(m.span() for m in _TOKEN.finditer(self.text)), (n, n)]
        pos = spans[self.i][1] if self.after else spans[self.i + 1][0]
        raise ParseError(message, self.text, pos)

    def at_end(self) -> bool:
        self.after = False
        return not self.toks[self.i]

    def expect_end(self):
        if not self.at_end():
            self.error("unexpected trailing input")

    def take(self, literal: str) -> bool:
        """Consume the token `literal` (a symbol or a word) if it is next."""
        self.after = self.toks[self.i] == literal
        self.i += self.after
        return self.after

    def expect(self, literal: str):
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    take_word = take
    expect_word = expect

    def ident(self, what: str = "identifier") -> str:
        tok = self.toks[self.i]
        self.after = tok[:1].isalpha() and tok.isascii()
        if not self.after:
            self.error(f"expected {what}")
        self.i += 1
        return tok

    def items(self, open: str, close: str, item) -> list:
        """Consume ``open``, comma-separated ``item(self)`` results, ``close``."""
        self.expect(open)
        out = []
        if not self.take(close):
            while True:
                out.append(item(self))
                if self.take(close):
                    break
                self.expect(",")
        return out

    def ident_set(self) -> frozenset:
        """Consume a braced, comma-separated set of identifiers."""
        return frozenset(self.items("{", "}", lambda c: c.ident("name")))

    def int_lit(self) -> int:
        tok = self.toks[self.i]
        self.after = tok.isdecimal()
        if not self.after:
            self.error("expected a number")
        self.i += 1
        return int(tok)


def parse_keep(text: str) -> tuple:
    """Comma-separated proposition names, optionally in braces, sorted."""
    cur = Cursor(text if text.lstrip().startswith("{") else "{" + text + "}")
    names = cur.ident_set()
    cur.expect_end()
    return tuple(sorted(names))
