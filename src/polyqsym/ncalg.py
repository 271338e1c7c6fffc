"""The free Leibnitz-Hopf algebra on countably many generators and its
quotient by the Euler relations.

Words are tuples of generator indices (>= 1); polynomials carry exact
rational coefficients.  The quotient modulo the two-sided ideal generated
by the alternating convolution relations admits a terminating rewriting
system whose normal-form words contain the index 1 at most once, and then
only as the leftmost letter.  Linear functionals on the quotient are stored
on normal-form basis words and evaluated anywhere through the rewriting.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .polys import AlphaPoly, Combination, merge_terms
from .qsym import QSym, compositions


class NCPoly(Combination):
    """Finite rational combination of words in the generators."""

    __slots__ = ()
    _coeff = staticmethod(Fraction)
    _degree = staticmethod(sum)

    @staticmethod
    def _key(w):
        w = tuple(int(x) for x in w)
        if any(x < 1 for x in w):
            raise ValueError("generator indices start at 1")
        return w

    @classmethod
    def gen(cls, k, coeff=1):
        if k < 1:
            raise ValueError("generator indices start at 1")
        return cls({(k,): coeff})

    @classmethod
    def word(cls, w, coeff=1):
        return cls({tuple(w): coeff})

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        self._check(other)
        return self._from_valid((w1 + w2, v1 * v2)
                                for w1, v1 in self.terms.items()
                                for w2, v2 in other.terms.items())

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (sum(w), len(w), w)):
            v = self.terms[w]
            body = " ".join("Z%d" % x for x in w) if w else "1"
            if v == 1:
                bits.append(body)
            elif v == -1:
                bits.append("-%s" % body)
            else:
                bits.append("%s*%s" % (v, body))
        return " + ".join(bits).replace("+ -", "- ")


def coproduct(a):
    """Leibnitz coproduct: each generator splits as the full convolution
    with index 0 acting as the unit.  Returns {(left, right): coeff}."""
    out = {}
    for word, v in a.terms.items():
        splits = [((), ())]
        for k in word:
            splits = [(l + ((i,) if i else ()), r + ((k - i,) if k - i else ()))
                      for (l, r) in splits for i in range(k + 1)]
        for l, r in splits:
            out[(l, r)] = out.get((l, r), Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def counit(a):
    return a.terms.get((), Fraction(0))


@functools.lru_cache(maxsize=None)
def _antipode_gen(n):
    """Closed form: alternating sum over all compositions of n."""
    return NCPoly({w: -1 if len(w) % 2 else 1 for w in compositions(n)})


def antipode(a):
    """Antihomomorphic extension of the generator formula."""
    return NCPoly((w, v * c) for word, v in a.terms.items()
                  for w, c in _antipode_word(word).terms.items())


def _antipode_word(word):
    return functools.reduce(operator.mul, map(_antipode_gen, reversed(word)),
                            NCPoly.one())


# -- the quotient by the Euler relations -----------------------------------


def is_normal_word(w):
    ones = [i for i, x in enumerate(w) if x == 1]
    if not ones:
        return True
    return len(ones) == 1 and ones[0] == 0


@functools.lru_cache(maxsize=None)
def _normal_form_word(w):
    """Integer expansion of a word in the normal-form basis.

    Rewrites with the consequences of the alternating relations: a doubled
    leading 1 contracts to the next generator, any other 1 moves left past
    its >= 2 neighbour, shedding words with strictly fewer 1-letters."""
    if is_normal_word(w):
        return {w: 1}
    ones = [i for i, x in enumerate(w) if x == 1]
    if ones[0] == 0 and ones[1] == 1:
        # Z1 Z1 = 2 Z2 applied at the front
        rewrites = {(2,) + w[2:]: 2}
    else:
        p = ones[0] if ones[0] >= 1 else ones[1]
        i = w[p - 1]
        head, tail = w[:p - 1], w[p + 1:]
        # Z_i Z_1 = (-1)^i [ Z_1 Z_i - (1 + (-1)^(i+1)) Z_{i+1}
        #                    - sum_{a=2}^{i-1} (-1)^a Z_a Z_{i+1-a} ]
        sign = -1 if i % 2 else 1
        rewrites = {head + (1, i) + tail: sign}
        euler = 1 + (-1 if (i + 1) % 2 else 1)
        if euler:
            key = head + (i + 1,) + tail
            rewrites[key] = rewrites.get(key, 0) - sign * euler
        for a in range(2, i):
            s2 = -1 if a % 2 else 1
            key = head + (a, i + 1 - a) + tail
            rewrites[key] = rewrites.get(key, 0) - sign * s2
    return merge_terms((w3, c * c3) for w2, c in rewrites.items() if c
                       for w3, c3 in _normal_form_word(w2).items())


def normal_form(a):
    """Canonical representative modulo the Euler-relation ideal."""
    return NCPoly((w, v * c) for word, v in a.terms.items()
                  for w, c in _normal_form_word(word).items())


def euler_relation(n):
    """The degree-n ideal generator: the alternating convolution."""
    if n < 1:
        raise ValueError("relations start at degree 1")
    terms = {}
    for i in range(n + 1):
        w = tuple(x for x in (i, n - i) if x)
        sign = -1 if i % 2 else 1
        terms[w] = terms.get(w, 0) + sign
    return NCPoly(terms)


@functools.lru_cache(maxsize=None)
def basis_words(degree):
    """Normal-form basis in one degree: words with all parts >= 2, plus a
    single leading 1 in front of such a word."""
    out = compositions(degree, range(2, degree + 1))
    if degree >= 1:
        out += [(1,) + w for w in compositions(degree - 1, range(2, degree))]
    return tuple(sorted(out, key=lambda w: (len(w), w)))


def pairing(q, a):
    """Dual-basis pairing of a plain quasi-symmetric function against a
    word polynomial."""
    if not q.alpha_free():
        raise ValueError("pairing is defined on the plain ring")
    total = Fraction(0)
    for (_, comp), v in q.terms.items():
        c = a.terms.get(comp)
        if c:
            total += v * c
    return total


# -- functionals on the quotient --------------------------------------------


class DualFunctional:
    """Linear functional on the quotient algebra, stored on normal-form
    basis words (well-defined by construction) and evaluated on arbitrary
    words through the rewriting."""

    __slots__ = ("values", "max_degree")

    def __init__(self, values, max_degree):
        self.values = {tuple(w): v for w, v in values.items() if v}
        self.max_degree = max_degree
        for w in self.values:
            if not is_normal_word(w):
                raise ValueError("values must be keyed by basis words")

    @classmethod
    def from_word_values(cls, word_values, max_degree):
        """Build from values on arbitrary words, checking consistency with
        the quotient relations."""
        basis_vals = {}
        for w, v in word_values.items():
            if is_normal_word(tuple(w)):
                basis_vals[tuple(w)] = v
        psi = cls(basis_vals, max_degree)
        for w, v in word_values.items():
            if psi.value(tuple(w)) != v:
                raise ValueError("not a functional on the quotient: value on "
                                 "%r conflicts with the relations" % (w,))
        return psi

    def value(self, word):
        word = tuple(word)
        if sum(word) > self.max_degree:
            return 0
        values = self.values
        return sum((c * values[w] for w, c in _normal_form_word(word).items()
                    if w in values), 0)

    def is_zero(self):
        return not self.values

    def to_qsym(self, degree):
        """Embedding into quasi-symmetric functions: the coefficient of the
        monomial indexed by a composition is the value on the reversed
        word.  Integer (or grading-polynomial) values pass through."""
        return QSym(((p, word), c) for word in compositions(degree)
                    for p, c in AlphaPoly.coerce(
                        self.value(word[::-1])).terms.items())


# -- series ------------------------------------------------------------------


def s_series(nmax):
    """Coefficients of the logarithm of the generating series: a list whose
    k-th entry (k >= 1) is the degree-k coefficient.  With u = Z_1 t +
    Z_2 t^2 + .., the degree-d part of u^m is the sum of the words Z_w over
    the compositions w of d into m parts, so log(1 + u) = sum (-1)^(m+1)
    u^m / m gives each such word the coefficient (-1)^(m+1) / m."""
    if nmax < 1:
        raise ValueError("nmax >= 1")
    return [NCPoly()] + [
        NCPoly((w, Fraction((-1) ** (len(w) + 1), len(w)))
               for w in compositions(d))
        for d in range(1, nmax + 1)]


def d_even_formula(k):
    """The even generator written in odd generators: the square-root series
    of the even/odd splitting of the relations."""
    if k < 1:
        raise ValueError("k >= 1")
    from math import comb
    return NCPoly((word, Fraction((-1) ** (i - 1) * comb(2 * i - 2, i - 1),
                                  i * 2 ** (2 * i - 1)))
                  for i in range(1, k + 1)
                  for word in _odd_words(2 * i, i + k))


def _odd_words(length, half_sum):
    """Words of fixed length in odd generators with (sum+length)/2 fixed:
    indices 2 j_l - 1 with the j_l summing to half_sum."""
    def rec(slots, remaining):
        if slots == 0:
            return [()] if remaining == 0 else []
        out = []
        for j in range(1, remaining - slots + 2):
            for rest in rec(slots - 1, remaining - j):
                out.append((2 * j - 1,) + rest)
        return out

    return rec(length, half_sum)
