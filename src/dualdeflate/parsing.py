"""Text formats for systems and points.

System grammar: a header line ``vars: <name>+`` followed by one polynomial
per ``;``-terminated statement. Operators are + - * ^; complex literals are
written ``(re,im)``; parenthesized subexpressions are allowed and
disambiguated from complex literals by lookahead. Whitespace is free.

Point format: one ``name = (re,im)`` (or ``name = number``) per line.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .errors import ParseError
from .poly import Polynomial, PolySystem

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^();,:=])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "op" else chunk
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var_index: dict[str, int], nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.vars = var_index
        self.nvars = nvars

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return tok

    # -- expression grammar ------------------------------------------------

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.next().kind == "-" else 1
        acc = self.term() * sign
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek().kind == "*":
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        while self.peek().kind == "^":
            self.next()
            tok = self.expect("number")
            if not tok.text.isdigit():
                raise ParseError("exponent must be a non-negative integer", tok.line, tok.col)
            base = base ** int(tok.text)
        return base

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Polynomial.constant(self.nvars, _finite_number(tok))
        if tok.kind == "name":
            self.next()
            if tok.text not in self.vars:
                raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.col)
            return Polynomial.variable(self.nvars, self.vars[tok.text])
        if tok.kind == "(":
            if self._looks_complex():
                return Polynomial.constant(self.nvars, self._complex_literal())
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "-":
            self.next()
            return -self.factor()
        raise ParseError(
            f"unexpected token {tok.text or 'end of input'!r}", tok.line, tok.col
        )

    def _looks_complex(self) -> bool:
        # "(" SIGN? NUMBER "," ...
        i = 1
        if self.peek(i).kind in ("+", "-"):
            i += 1
        if self.peek(i).kind != "number":
            return False
        return self.peek(i + 1).kind == ","

    def _complex_literal(self) -> complex:
        self.expect("(")
        re_part = self._signed_number()
        self.expect(",")
        im_part = self._signed_number()
        self.expect(")")
        return complex(re_part, im_part)

    def _signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind in ("+", "-"):
            sign = -1.0 if self.next().kind == "-" else 1.0
        tok = self.expect("number")
        return sign * _finite_number(tok)


def _finite_number(tok: _Token) -> float:
    value = float(tok.text)
    if not math.isfinite(value):
        raise ParseError(f"number {tok.text!r} is out of range", tok.line, tok.col)
    return value


def parse_system(text: str) -> PolySystem:
    """Parse the system format into a canonical PolySystem."""
    lines = text.splitlines()
    header_idx = next(
        (i for i, ln in enumerate(lines) if ln.strip()), None
    )
    if header_idx is None or not lines[header_idx].lstrip().startswith("vars"):
        raise ParseError("input must start with a 'vars:' header", 1, 1)
    header = lines[header_idx].strip()
    m = re.fullmatch(r"vars\s*:\s*(.*)", header)
    if m is None:
        raise ParseError("expected ':' after 'vars'", header_idx + 1, None)
    names = m.group(1).split()
    if not names:
        raise ParseError("at least one variable name required", header_idx + 1, None)
    for nm in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
            raise ParseError(f"invalid variable name {nm!r}", header_idx + 1, None)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in header", header_idx + 1, None)
    body = "\n" * (header_idx + 1) + "\n".join(lines[header_idx + 1:])
    tokens = _tokenize(body)
    var_index = {nm: i for i, nm in enumerate(names)}
    parser = _Parser(tokens, var_index, len(names))
    polys: list[Polynomial] = []
    while parser.peek().kind != "eof":
        start = parser.peek()
        p = parser.expr()
        parser.expect(";")
        if not all(cmath.isfinite(c) for _, c in p.items()):
            raise ParseError(
                "statement has a coefficient out of range", start.line, start.col
            )
        if any(a >= 2**63 for alpha, _ in p.items() for a in alpha):
            raise ParseError(
                "statement has an exponent of 2^63 or more", start.line, start.col
            )
        polys.append(p)
    if not polys:
        tok = parser.peek()
        raise ParseError("empty system", tok.line, tok.col)
    return PolySystem(len(names), tuple(polys), tuple(names))


def serialize_system(F: PolySystem) -> str:
    lines = ["vars: " + " ".join(F.var_names)]
    for p in F.polys:
        lines.append(p.to_string(F.var_names) + ";")
    return "\n".join(lines) + "\n"


_REAL = r"[+-]?[0-9.eE+-]+"


def parse_point(text: str, F: PolySystem) -> np.ndarray:
    """Parse ``name = (re,im)`` lines into a coordinate vector for F."""
    values: dict[str, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'name = value'", lineno, None)
        name, _, rhs = stripped.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if name not in F.var_names:
            raise ParseError(f"unknown variable {name!r}", lineno, None)
        if name in values:
            raise ParseError(f"duplicate assignment to {name!r}", lineno, None)
        m = re.fullmatch(rf"\(\s*({_REAL})\s*,\s*({_REAL})\s*\)", rhs)
        try:
            if m:
                values[name] = complex(float(m.group(1)), float(m.group(2)))
            elif re.fullmatch(rf"{_REAL}|[+-]?(inf|infinity|nan)", rhs, re.I):
                values[name] = complex(float(rhs), 0.0)
            else:  # float() also reads forms such as 1_0, which no number has
                raise ValueError
        except ValueError:
            raise ParseError(f"cannot parse value {rhs!r}", lineno, None) from None
        if not cmath.isfinite(values[name]):
            raise ParseError(f"value {rhs!r} is not finite", lineno, None)
    missing = [nm for nm in F.var_names if nm not in values]
    if missing:
        raise ParseError(f"missing coordinates for {', '.join(missing)}")
    return np.array([values[nm] for nm in F.var_names], dtype=complex)
