"""The free Leibnitz-Hopf algebra on countably many generators and its
quotient by the Euler relations.

Words are tuples of generator indices (>= 1); polynomials carry exact
rational coefficients: an integral one is stored as an `int`, any other as
a `Fraction`, so the coproduct, the antipode and the normal form of an
integral polynomial run on machine integers.  Arithmetic may leave an
integral `Fraction` behind (1/2 + 1/2); equality, hashing and printing do
not tell it from the `int`.  The antipode is the closed form on words, a
signed sum of concatenated compositions; multiplying out the generator
antipodes is its test oracle in `tests/oracles.py`.  The quotient modulo the
two-sided ideal generated by the alternating convolution relations admits
a terminating rewriting system whose normal-form words contain the index 1
at most once, and then only as the leftmost letter.  The normal form of a
word is a fold from the left that keeps no table: each Z_1 is moved left
through the normal words so far, shedding only normal words; the memoized
whole-word rewriting is its test oracle, `normal_form_rewriting` in
`tests/oracles.py`.  Linear functionals on the quotient are stored on
normal-form basis words and evaluated anywhere through the same fold.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .polys import AlphaPoly, Combination, format_terms, merge_terms
from .qsym import QSym, compositions


class NCPoly(Combination):
    """Finite rational combination of words in the generators."""

    __slots__ = ()
    _degree = staticmethod(sum)

    @staticmethod
    def _coeff(v):
        """An `int` as it is; any value `Fraction()` accepts as a
        `Fraction`, or as its numerator when that is the whole value."""
        if type(v) is int:
            return v
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    @staticmethod
    def _key(w):
        w = tuple(w)
        key = tuple(map(int, w))
        if key != w or bool in map(type, w):
            raise ValueError("generator indices are integers")
        if any(x < 1 for x in key):
            raise ValueError("generator indices start at 1")
        return key

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
        return format_terms([
            (" ".join("Z%d" % x for x in w) if w else "1", self.terms[w])
            for w in sorted(self.terms, key=lambda w: (sum(w), len(w), w))])


def coproduct(a):
    """Leibnitz coproduct: each generator splits as the full convolution
    with index 0 acting as the unit.  Returns {(left word, right word):
    coefficient}, every coefficient nonzero: an `int` when every
    coefficient of `a` is one, else an `int` or a `Fraction`."""
    out = {}
    for word, v in a.terms.items():
        splits = [((), ())]
        for k in word:
            splits = [(l + ((i,) if i else ()), r + ((k - i,) if k - i else ()))
                      for (l, r) in splits for i in range(k + 1)]
        for key, m in Counter(splits).items():
            c = v if m == 1 else v * m
            out[key] = out[key] + c if key in out else c
    return {k: v for k, v in out.items() if v}


def counit(a):
    return a.terms.get((), 0)


def antipode(a):
    """S(Z_w) is the sum of (-1)^(number of parts) Z_(c_1 c_2 ..) with c_i
    running over the compositions of the i-th letter of w read backwards
    (Gelfand, Krob, Lascoux, Leclerc, Retakh & Thibon, "Noncommutative
    symmetric functions", 1995).  The words of one S(Z_w) are distinct, so
    coefficients add only across the words of `a`."""
    out = {}
    for word, v in a.terms.items():
        signed = (v, -v)
        for parts in itertools.product(*map(compositions, reversed(word))):
            w = sum(parts, ())
            c = signed[len(w) % 2]
            out[w] = out[w] + c if w in out else c
    return a._like({w: c for w, c in out.items() if c})


# -- the quotient by the Euler relations -----------------------------------


def is_normal_word(w):
    ones = [i for i, x in enumerate(w) if x == 1]
    if not ones:
        return True
    return len(ones) == 1 and ones[0] == 0


def _absorb_one(u, c):
    """c NF(u Z_1) for a normal word u, as (word, coefficient) pairs.

    The Z_1 moves left through u by the rule
    Z_i Z_1 = (-1)^i [Z_1 Z_i - (1 + (-1)^(i+1)) Z_(i+1)
                      - sum_(a=2..i-1) (-1)^a Z_a Z_(i+1-a)],
    and every word it sheds is normal.  It stops at the front, or meets a
    leading Z_1 and contracts with it: Z_1 Z_1 = 2 Z_2."""
    for j in range(len(u) - 1, -1, -1):
        i = u[j]
        if i == 1:
            yield (2,) + u[1:], 2 * c
            return
        head, tail = u[:j], u[j + 1:]
        if i % 2:
            c = -c
            yield head + (i + 1,) + tail, -2 * c
        for a in range(2, i):
            yield head + (a, i + 1 - a) + tail, c if a % 2 else -c
    yield (1,) + u, c


def _normal_words(word):
    """NF(Z_word) as {normal word: int coefficient}, by a fold from the
    left: the ideal is two-sided, so NF(u Z_k) = NF(NF(u) Z_k).  A letter
    k >= 2 appended to a normal word leaves it normal, and a Z_1 is
    absorbed into each word by `_absorb_one`."""
    terms = {(): 1}
    run = ()
    for k in word:
        if k != 1:
            run += (k,)
            continue
        terms = merge_terms(pair for u, c in terms.items()
                            for pair in _absorb_one(u + run, c))
        run = ()
    return {u + run: c for u, c in terms.items()} if run else terms


def normal_form(a):
    """Canonical representative modulo the Euler-relation ideal, read word
    by word off the left-to-right fold of `_normal_words`, which keeps no
    table.  The memoized whole-word rewriting is its test oracle,
    `normal_form_rewriting` in `tests/oracles.py`."""
    return a._from_valid((w, v * c) for word, v in a.terms.items()
                         for w, c in _normal_words(word).items())


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
    words through the fold of `_normal_words`."""

    __slots__ = ("values", "max_degree")

    def __init__(self, values, max_degree):
        self.values = {tuple(w): v for w, v in values.items() if v}
        self.max_degree = max_degree
        for w, v in self.values.items():
            if not is_normal_word(w):
                raise ValueError("values must be keyed by basis words")
            if not (isinstance(v, int) or isinstance(v, AlphaPoly)
                    and min(v.terms) >= 0):
                raise ValueError("values must be ints or AlphaPolys in "
                                 "powers >= 0")

    def value(self, word):
        word = tuple(word)
        if sum(word) > self.max_degree:
            return 0
        values = self.values
        return sum((c * values[w] for w, c in _normal_words(word).items()
                    if w in values), 0)

    def is_zero(self):
        return not self.values

    def to_qsym(self, degree):
        """Embedding into quasi-symmetric functions: the coefficient of the
        monomial indexed by a composition is the value on the reversed
        word.  Integer (or grading-polynomial) values pass through."""
        return QSym()._from_valid(
            ((p, word), c) for word in compositions(degree)
            for p, c in AlphaPoly.coerce(self.value(word[::-1])).terms.items())


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
    of the even/odd splitting of the relations.  Its words are the
    compositions of 2k into odd parts, each of even length 2i."""
    if k < 1:
        raise ValueError("k >= 1")
    from math import comb

    def coeff(i):
        return Fraction((-1) ** (i - 1) * comb(2 * i - 2, i - 1),
                        i * 2 ** (2 * i - 1))
    return NCPoly((word, coeff(len(word) // 2))
                  for word in compositions(2 * k, range(1, 2 * k, 2)))
