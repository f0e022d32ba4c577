"""Readers of text: the polynomial grammar, and the JSON or line-per-item
files and lists that name a sequence or a run's configuration.

Every error is a ValueError whose text cli reports as a ConfigError.
This module does not import cli: under ``python -m koszulpow.cli`` that
would run cli a second time, with a second ConfigError class.
"""

from __future__ import annotations

import json

from .poly import Domain, QQ, Polynomial, _fraction


# Parser for the polynomial grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' INT)?
#   atom   := INT ('/' INT)? | VAR | '(' expr ')' | '-' atom
# '^' binds tightest, then '*', then '+'/'-'; unary minus allowed.  The
# rational literal INT/INT extends the integer grammar so that printed
# Q-coefficients round-trip.

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, object, int]] = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
            elif c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j]), i))
                i = j
            elif c == "x":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ParseError("variable needs an index, e.g. x1", i)
                self.toks.append(("var", int(text[i + 1:j]), i))
                i = j
            elif c in "+-*^()/":
                self.toks.append((c, c, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {c!r}", i)
        self.k = 0

    def peek(self) -> str | None:
        return self.toks[self.k][0] if self.k < len(self.toks) else None

    def next(self) -> tuple[str, object, int]:
        if self.k >= len(self.toks):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.toks[self.k]
        self.k += 1
        return tok

    @property
    def pos(self) -> int:
        return self.toks[self.k][2] if self.k < len(self.toks) else len(self.text)


def parse_poly(text: str, n_vars: int, domain: Domain = QQ) -> Polynomial:
    """Parse polynomial text into canonical form.

    Raises ParseError (with position) on syntax errors, out-of-range
    variables, and negative exponents.
    """
    toks = _Tokens(text)

    def atom() -> Polynomial:
        kind, value, pos = toks.next()
        if kind == "int":
            if toks.peek() == "/":
                toks.next()
                k2, v2, p2 = toks.next()
                if k2 != "int":
                    raise ParseError("expected integer denominator", p2)
                if v2 == 0:
                    raise ParseError("zero denominator", p2)
                return Polynomial.constant(n_vars, domain, _fraction(value, v2))
            return Polynomial.constant(n_vars, domain, value)
        if kind == "var":
            if not 1 <= value <= n_vars:
                raise ParseError(f"variable x{value} out of range 1..{n_vars}", pos)
            return Polynomial.variable(n_vars, domain, value)
        if kind == "(":
            p = expr()
            k2, _, p2 = toks.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return p
        if kind == "-":
            return -atom()
        raise ParseError(f"unexpected token {value!r}", pos)

    def factor() -> Polynomial:
        base = atom()
        if toks.peek() == "^":
            toks.next()
            sign = 1
            if toks.peek() == "-":
                toks.next()
                sign = -1
            kind, value, pos = toks.next()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            if sign < 0:
                raise ParseError("negative exponent", pos)
            return base ** value
        return base

    def term() -> Polynomial:
        p = factor()
        while toks.peek() == "*":
            toks.next()
            p = p * factor()
        return p

    def expr() -> Polynomial:
        negate = False
        if toks.peek() == "-":
            toks.next()
            negate = True
        p = term()
        if negate:
            p = -p
        while toks.peek() in ("+", "-"):
            op, _, _ = toks.next()
            q = term()
            p = p + q if op == "+" else p - q
        return p

    result = expr()
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.toks[toks.k][1]!r}", toks.pos)
    return result


# ---------------------------------------------------------------------------
# Sequence and configuration files.

def string_list(text: str, what: str) -> list[str]:
    """The JSON list of polynomial strings in text."""
    try:
        items = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"bad {what}: {e}") from None
    if not isinstance(items, list) or \
            not all(isinstance(x, str) for x in items):
        raise ValueError(f"{what} must hold a list of polynomial strings")
    return items


def read_sequence_file(path: str) -> list[str]:
    """A JSON list of polynomial strings, or one polynomial per line."""
    try:
        with open(path) as fh:
            body = fh.read().strip()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read sequence file: {e}") from None
    if body.startswith("["):
        return string_list(body, f"sequence file {path}")
    return [ln for ln in body.splitlines() if ln.strip()]


def read_config(path: str) -> dict:
    """The JSON object in the config file at path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"config is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data
