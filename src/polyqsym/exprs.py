"""Text grammar for polytope expressions and integer combinations.

    sum    := ['-'] term (('+'|'-') term)*
    term   := [INT '*'] factor
    factor := 'C' factor | 'B' factor | 'dual' '(' sum ')'
            | 'prod' '(' sum ',' sum ')' | 'join' '(' sum ',' sum ')'
            | atom | '(' sum ')'
    atom   := 'empty' | 'pt' | 'cell24' | NAME '(' INT ')' | 'word' '(' WORD ')'

Unary cone/bipyramid/dual bind tighter than '*'; '+'/'-' bind last.
Factors nest ('(', 'C', 'B', 'dual(', 'prod(', 'join(') at most MAX_DEPTH
deep, and no atom or operator result may have more than MAX_FACES faces;
both limits refuse input before anything is built.
"""

from __future__ import annotations

import itertools
import re

from . import polytopes as pb
from .ring import (FormalSum, JOIN_RING, PRODUCT_RING, bipyramid_op, cone_op,
                   dual_sum, mul_join, mul_product)


class ExprError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s at offset %d" % (message, position))
        self.position = position


MAX_DEPTH = 100
# a lattice of n faces keeps order masks of n^2 bits
MAX_FACES = 10_000
_NESTING = ("C", "B", "dual", "prod", "join")


def _grow(letters, faces=1):
    """Face count after cones (C: 2a faces) and bipyramids (B: 3a - 2, the
    point from the empty polytope) on a polytope of a faces, counted only
    until it passes MAX_FACES, as the letters may come from user input."""
    for letter in letters:
        if faces > MAX_FACES:
            break
        faces = 2 * faces if letter == "C" else max(3 * faces - 2, 2)
    return faces


def _largest(s):
    return max((p.lattice.n for p in s.terms), default=1)


def _check_faces(faces, position):
    if faces > MAX_FACES:
        raise ExprError("expression too large", position)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                    r"|(?P<sym>[()+,*-]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError("unexpected character %r" % stripped[0],
                            len(text) - len(stripped))
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, value, position = self.take()
        if kind != "sym" or value != sym:
            raise ExprError("expected %r" % sym, position)

    def parse_sum(self):
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.take()
            total = -1 * self.parse_term()
        else:
            total = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.take()
                term = self.parse_term()
                total = total + term if value == "+" else total - term
            else:
                return total

    def parse_term(self):
        kind, value, _ = self.peek()
        coeff = 1
        if kind == "int":
            self.take()
            coeff = value
            self.expect_sym("*")
        return coeff * self.parse_factor()

    def parse_factor(self):
        kind, value, position = self.peek()
        nests = kind != "name" or value in _NESTING
        self.depth += nests
        if self.depth > MAX_DEPTH:
            raise ExprError("expression nested too deeply", position)
        out = self._factor(kind, value, position)
        self.depth -= nests
        return out

    def _factor(self, kind, value, position):
        if kind == "sym" and value == "(":
            self.take()
            inner = self.parse_sum()
            self.expect_sym(")")
            return inner
        if kind != "name":
            raise ExprError("expected an expression", position)
        self.take()
        if value in ("C", "B"):
            inner = self.parse_factor()
            _check_faces(_grow(value, _largest(inner)), position)
            return (cone_op if value == "C" else bipyramid_op)(inner)
        if value == "dual":
            self.expect_sym("(")
            inner = self.parse_sum()
            self.expect_sym(")")
            # a dual has the face count of its operand, checked already
            return dual_sum(inner)
        if value in ("prod", "join"):
            self.expect_sym("(")
            left = self.parse_sum()
            self.expect_sym(",")
            right = self.parse_sum()
            self.expect_sym(")")
            a, b = _largest(left), _largest(right)
            _check_faces((a - 1) * (b - 1) + 1 if value == "prod" else a * b,
                         position)
            if value == "prod":
                prod = mul_product(_as_product_ring(left, position),
                                   _as_product_ring(right, position))
                return FormalSum(JOIN_RING, prod.terms)
            return mul_join(left, right)
        return self.parse_atom(value, position)

    def parse_atom(self, name, position):
        if name in ("empty", "pt", "cell24"):
            return FormalSum.of(pb.build_named(name), JOIN_RING)
        if name == "word":
            self.expect_sym("(")
            kind, letters, wpos = self.take()
            if kind != "name" or any(ch not in "BC" for ch in letters):
                raise ExprError("word(..) takes letters B and C", wpos)
            self.expect_sym(")")
            _check_faces(_grow(reversed(letters)), position)
            return FormalSum.of(pb.from_word(letters), JOIN_RING)
        if name in ("simplex", "cube", "cross", "polygon"):
            self.expect_sym("(")
            kind, n, npos = self.take()
            if kind != "int":
                raise ExprError("%s(..) takes an integer" % name, npos)
            self.expect_sym(")")
            # simplex(n) has the 2^(n+1) faces of C^(n+1) empty, cube(n)
            # and cross(n) the 3^n + 1 of B^(n+1) empty; each letter at
            # least doubles the count, so MAX_FACES.bit_length() letters
            # pass MAX_FACES, however large n is
            letters = min(n + 1, MAX_FACES.bit_length())
            _check_faces(2 * n + 2 if name == "polygon" else _grow(
                itertools.repeat("C" if name == "simplex" else "B", letters)),
                position)
            try:
                return FormalSum.of(pb.build_named(name, n), JOIN_RING)
            except ValueError as exc:
                raise ExprError(str(exc), npos) from None
        raise ExprError("unknown atom %r" % name, position)


def _as_product_ring(s, position):
    try:
        return FormalSum(PRODUCT_RING, s.terms)
    except ValueError:
        raise ExprError("the empty polytope cannot enter prod(..)",
                        position) from None


def parse_expression(text, ambient=None):
    """Parse to a FormalSum.  The ambient defaults to the product ring
    unless the result mentions the empty polytope."""
    parser = _Parser(text)
    result = parser.parse_sum()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ExprError("trailing input", position)
    if ambient is None:
        ambient = JOIN_RING if any(p.is_empty() for p in result.terms) \
            else PRODUCT_RING
    return FormalSum(ambient, result.terms)

