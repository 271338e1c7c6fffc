"""Text grammar for polytope expressions and integer combinations.

    sum    := ['-'] term (('+'|'-') term)*
    term   := [INT '*'] factor
    factor := 'C' factor | 'B' factor | 'dual' '(' sum ')'
            | 'prod' '(' sum ',' sum ')' | 'join' '(' sum ',' sum ')'
            | atom | '(' sum ')'
    atom   := NAME ['(' (INT | NAME) ')']

Unary cone/bipyramid/dual bind tighter than '*'; '+'/'-' bind last.
An atom is `polytopes.build_named(NAME, ..)`, and each operator the ring
operation on the sums it takes.  Factors nest ('(', 'C', 'B', 'dual(',
'prod(', 'join(') at most MAX_DEPTH deep, a limit met before anything is
built.  A construction that `polytopes` refuses, such as one past its
face bound `polytopes.MAX_FACES`, the empty polytope in a product or an
unknown atom, is an ExprError at the first token of its factor.  Each
construction is refused before its own lattice is built, so a refused
expression may build smaller lattices before the oversized one, such as
the other pairs of a product of sums, but none past the bound.  An integer
literal of more than MAX_DIGITS digits is an ExprError at its token, and a
coefficient of the parsed sum past it one at offset 0, so that every value
printed from an admitted sum converts to text.
"""

from __future__ import annotations

import re

from . import polytopes as pb
from .ring import (FormalSum, JOIN_RING, PRODUCT_RING, bipyramid_op, cone_op,
                   dual_sum, mul_join, mul_product)


class ExprError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s at offset %d" % (message, position))
        self.position = position


MAX_DEPTH = 100
# digits of a coefficient, in a literal and in the parsed sum; every value
# printed from an admitted sum stays under Python's int-to-text limit
# (4,300 digits): flag numbers at the face bound have under 40
MAX_DIGITS = 1000
_COEFF_BOUND = 10 ** MAX_DIGITS
_NESTING = ("C", "B", "dual", "prod", "join")


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
            if len(m.group("int")) > MAX_DIGITS:
                raise ExprError("integer of more than %d digits" % MAX_DIGITS,
                                m.start("int"))
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
        try:
            out = self._factor(kind, value, position)
        except ExprError:
            raise
        except ValueError as exc:
            raise ExprError(str(exc), position) from None
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
            return (cone_op if value == "C" else bipyramid_op)(
                self.parse_factor())
        if value == "dual":
            self.expect_sym("(")
            inner = self.parse_sum()
            self.expect_sym(")")
            return dual_sum(inner)
        if value in ("prod", "join"):
            self.expect_sym("(")
            left = self.parse_sum()
            self.expect_sym(",")
            right = self.parse_sum()
            self.expect_sym(")")
            return (mul_product if value == "prod" else mul_join)(left, right)
        return self.parse_atom(value)

    def parse_atom(self, name):
        params = ()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "(":
            self.take()
            kind, arg, position = self.take()
            if kind not in ("int", "name"):
                raise ExprError("expected an integer or a word", position)
            self.expect_sym(")")
            params = (arg,)
        return FormalSum.of(pb.build_named(name, *params), JOIN_RING)


def parse_expression(text, ambient=None):
    """Parse to a FormalSum.  The ambient defaults to the product ring
    unless the result mentions the empty polytope."""
    parser = _Parser(text)
    result = parser.parse_sum()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ExprError("trailing input", position)
    if any(abs(c) >= _COEFF_BOUND for c in result.terms.values()):
        raise ExprError("a coefficient of more than %d digits" % MAX_DIGITS,
                        0)
    if ambient is None:
        ambient = JOIN_RING if any(p.is_empty() for p in result.terms) \
            else PRODUCT_RING
    return FormalSum(ambient, result.terms)

