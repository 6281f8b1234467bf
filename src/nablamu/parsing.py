"""Cursor-based recursive-descent parsing helpers shared by the text formats."""

from __future__ import annotations

import string

_IDENT_START = set(string.ascii_letters)
_IDENT_CHARS = set(string.ascii_letters + string.digits + "_")


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
    """A position in a text, with helpers to consume tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.text, self.pos)

    def skip_ws(self):
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.error("unexpected trailing input")

    def peek(self, literal: str) -> bool:
        """True if the next non-whitespace input starts with `literal`."""
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def take(self, literal: str) -> bool:
        """Consume `literal` (a symbol, not a word) if it is next."""
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def peek_ident(self) -> str | None:
        self.skip_ws()
        text, i = self.text, self.pos
        if i >= len(text) or text[i] not in _IDENT_START:
            return None
        j = i + 1
        while j < len(text) and text[j] in _IDENT_CHARS:
            j += 1
        return text[i:j]

    def ident(self, what: str = "identifier") -> str:
        word = self.peek_ident()
        if word is None:
            self.error(f"expected {what}")
        self.pos += len(word)
        return word

    def take_word(self, word: str) -> bool:
        """Consume `word` only if it is a whole identifier token."""
        if self.peek_ident() == word:
            self.pos += len(word)
            return True
        return False

    def expect_word(self, word: str):
        if not self.take_word(word):
            self.error(f"expected {word!r}")

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
        self.skip_ws()
        text, i = self.text, self.pos
        j = i
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i:
            self.error("expected a number")
        self.pos = j
        return int(text[i:j])


def parse_keep(text: str) -> tuple:
    """Comma-separated proposition names, optionally in braces, sorted."""
    cur = Cursor(text if text.lstrip().startswith("{") else "{" + text + "}")
    names = cur.ident_set()
    cur.expect_end()
    return tuple(sorted(names))
