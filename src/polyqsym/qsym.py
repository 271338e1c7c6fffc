"""Quasi-symmetric functions over the integers.

Terms are indexed by (alpha power, composition); the plain ring sits at
alpha power 0.  The product is the overlapping shuffle on compositions,
the coproduct is deconcatenation, and expansion into finitely many
t-variables is exact and injective once the variable count reaches the
degree.
"""

from __future__ import annotations

import itertools
import operator
from types import MappingProxyType

from . import store
from .polys import Combination, MultiPoly, format_terms


def compositions(total, parts=None):
    """All compositions of `total` (tuples of positive parts summing to
    it) in lexicographic order.  `parts` restricts the allowed part sizes;
    None allows every size, and an empty `parts` leaves only the empty
    composition of 0."""
    if parts is None:
        parts = range(1, total + 1)
    parts = sorted(set(parts))
    if parts and parts[0] < 1:
        raise ValueError("composition parts must be positive")
    out = []

    def rec(remaining, prefix):
        if not remaining:
            out.append(prefix)
        for part in parts:
            if part > remaining:
                break
            rec(remaining - part, prefix + (part,))

    rec(total, ())
    return out


@store.cached
def quasi_shuffle(c1, c2):
    """Overlapping shuffle of two compositions: interleavings where adjacent
    parts from the two factors may merge.  Returns a read-only mapping
    {composition: count}; the memo hands the same one to every caller.
    The product is commutative, so a pair out of order answers from its
    swap's entry, and only the swap's mapping is built."""
    if c2 < c1:
        return quasi_shuffle(c2, c1)
    if not c1:
        return MappingProxyType({c2: 1})
    out = {}

    def put(head, tail_counts):
        for comp, k in tail_counts.items():
            key = (head,) + comp
            out[key] = out.get(key, 0) + k

    put(c1[0], quasi_shuffle(c1[1:], c2))
    put(c2[0], quasi_shuffle(c1, c2[1:]))
    put(c1[0] + c2[0], quasi_shuffle(c1[1:], c2[1:]))
    return MappingProxyType(out)


class QSym(Combination):
    """Integer combination of quasi-symmetric monomials, with an optional
    polynomial grading variable folded into the keys."""

    __slots__ = ()
    _coeff = staticmethod(operator.index)

    @staticmethod
    def _key(key):
        a, comp = key
        comp = tuple(comp)
        if type(a) is not int or a < 0 or not all(
                type(part) is int and part > 0 for part in comp):
            raise ValueError("a QSym key is an int alpha power >= 0 and a "
                             "composition of positive ints")
        return a, comp

    @staticmethod
    def _degree(key):
        return key[0] + sum(key[1])

    @staticmethod
    def _print_order(key):
        return key[0] + sum(key[1]), key[0], len(key[1]), key[1]

    @classmethod
    def monomial(cls, comp, coeff=1, alpha=0):
        return cls({(alpha, tuple(comp)): coeff})

    @classmethod
    def one(cls):
        return cls({(0, ()): 1})

    @classmethod
    def alpha_power(cls, k, coeff=1):
        return cls({(k, ()): coeff})

    @classmethod
    def sigma(cls, i):
        if i < 1:
            raise ValueError("sigma(i) needs i >= 1")
        return cls.monomial((1,) * i)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        self._check(other)
        return self._from_valid(
            ((a1 + a2, comp), v1 * v2 * mult)
            for (a1, c1), v1 in self.terms.items()
            for (a2, c2), v2 in other.terms.items()
            for comp, mult in quasi_shuffle(c1, c2).items())

    __rmul__ = __mul__

    def star(self):
        """Reverse every composition; an involutory ring homomorphism."""
        return self._like({(a, comp[::-1]): v
                           for (a, comp), v in self.terms.items()})

    def alpha_free(self):
        return all(a == 0 for a, _ in self.terms)

    def coefficient(self, comp, alpha=0):
        return self.terms.get((alpha, tuple(comp)), 0)

    def degree(self):
        return max(self.degree_set(), default=0)

    def coproduct(self):
        """Deconcatenation coproduct; defined on the plain ring only.
        Returns {(left comp, right comp): coeff}.  A key fixes both its
        composition and the cut, so no two splits share one."""
        if not self.alpha_free():
            raise ValueError("coproduct is defined on the plain ring")
        return {(comp[:i], comp[i:]): v for (_, comp), v in self.terms.items()
                for i in range(len(comp) + 1)}

    def expand(self, r):
        """Expansion into r variables (compositions longer than r drop).
        An exponent vector fixes its composition, its nonzero parts in
        order, and their positions, so no two terms share a key."""
        out = {}
        for (a, comp), v in self.terms.items():
            for positions in itertools.combinations(range(r), len(comp)):
                e = [0] * r
                for part, pos in zip(comp, positions):
                    e[pos] = part
                out[(a, tuple(e))] = v
        return MultiPoly(r)._like(out)

    def to_json_obj(self):
        out = []
        for (a, comp) in sorted(self.terms, key=self._print_order):
            entry = {"comp": list(comp), "coeff": self.terms[(a, comp)]}
            if a:
                entry["alpha"] = a
            out.append(entry)
        return out

    def __repr__(self):
        terms = []
        for (a, comp) in sorted(self.terms, key=self._print_order):
            factors = []
            if a == 1:
                factors.append("a")
            elif a > 1:
                factors.append("a^%d" % a)
            if comp:
                factors.append("M[%s]" % ",".join(map(str, comp)))
            terms.append(("*".join(factors) if factors else "1",
                          self.terms[(a, comp)]))
        return format_terms(terms)


def is_quasisymmetric(poly, r=None):
    """A polynomial is a combination of quasi-symmetric monomials iff
    setting any one variable slot to zero gives the same polynomial in the
    remaining ordered variables."""
    if r is not None and r != poly.r:
        raise ValueError("variable count mismatch")
    r = poly.r
    if r <= 1:
        return True
    ref = poly.drop_var(r - 1)
    return all(poly.drop_var(i) == ref for i in range(r - 1))
