"""Sparse exact combinations and the small polynomial carriers.

Combination: a finitely supported combination of keys with nonzero
coefficients.  The polytope rings, Qsym, the free Leibnitz-Hopf algebra and
the polynomials here are all such combinations; they share construction,
the module operations, equality and grading through this base.

AlphaPoly: integer polynomials in the single grading variable (printed as
`a`).  MultiPoly: integer polynomials in the grading variable plus finitely
many t-variables, sparse on (alpha power, exponent vector) keys; this is the
expansion target for quasi-symmetric functions and the substrate for the
substitution identities.
"""

from __future__ import annotations

import itertools
import operator


def merge_terms(pairs):
    """Sum (key, coefficient) pairs into a dict of nonzero coefficients.
    Keys keep the order in which they first appear (or reappear after
    cancelling)."""
    out = {}
    get = out.get
    for k, v in pairs:
        w = get(k, 0) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def format_terms(terms):
    """Signed-sum text for (text, coefficient) pairs, in this order: a
    coefficient of 1 or -1 prints as a sign, any other as `c*text`, and a
    constant term (text `1`) as its signed coefficient alone."""
    if not terms:
        return "0"
    parts = []
    for text, coeff in terms:
        body = (str(abs(coeff)) if text == "1" else text if abs(coeff) == 1
                else "%s*%s" % (abs(coeff), text))
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


def _describe(x):
    space = getattr(x, "_space", None)
    if space:
        return "%s(%s=%r)" % (type(x).__name__, space, getattr(x, space))
    return type(x).__name__


class Combination:
    """Finitely supported combination: `terms` maps keys to nonzero
    coefficients.

    The constructor takes a dict or an iterable of (key, coefficient)
    pairs, merges repeated keys and drops zeros.  Subclasses normalize and
    validate each nonzero pair in `_coeff` and `_key`, and give a key's
    degree in `_degree`.  `_space` names the attribute, if any, on which
    two values must agree to be added (a ring's ambient, a variable count).
    The integer combinations take coefficients through `operator.index`,
    which refuses a float, a fraction or a string.
    Sums, negations, scalings and products build their results from keys
    that are already valid, so they skip the constructor's checks."""

    __slots__ = ("terms",)
    _space = None

    def __init__(self, terms=None):
        self.terms = merge_terms(self._normalized(terms)) if terms else {}

    def _normalized(self, terms):
        key, coeff = self._key, self._coeff
        for k, v in terms.items() if hasattr(terms, "items") else terms:
            v = coeff(v)
            if v:
                yield key(k), v

    @staticmethod
    def _coeff(coeff):
        return coeff

    def _space_value(self):
        return getattr(self, self._space) if self._space else None

    def _like(self, terms):
        """A value of this type and space holding `terms` as they are."""
        out = object.__new__(type(self))
        out.terms = terms
        if self._space:
            setattr(out, self._space, self._space_value())
        return out

    def _from_valid(self, pairs):
        """Sum of pairs whose keys are valid in this space already."""
        return self._like(merge_terms(pairs))

    def _check(self, other):
        """Raise unless `other` has this type and space."""
        same_type = type(other) is type(self)
        if not same_type or self._space_value() != other._space_value():
            raise (ValueError if same_type else TypeError)(
                "cannot combine %s with %s" % (_describe(self),
                                               _describe(other)))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.terms == other.terms
                and self._space_value() == other._space_value())

    def __hash__(self):
        return hash((self._space_value(), frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        return self._from_valid(itertools.chain(self.terms.items(),
                                                other.terms.items()))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def _scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()}
                          if c else {})

    def degree_set(self):
        return {self._degree(k) for k in self.terms}

    def is_homogeneous(self, degree=None):
        ds = self.degree_set()
        if not ds:
            return True
        return len(ds) == 1 and (degree is None or ds == {degree})


class AlphaPoly(Combination):
    """Integer polynomial in one variable: power -> coefficient.  An int
    stands for a constant in ==, + and -, since a functional's value is 0
    or an AlphaPoly."""

    __slots__ = ()
    _key = _coeff = staticmethod(operator.index)

    @classmethod
    def const(cls, v):
        return cls({0: v})

    @classmethod
    def term(cls, power, coeff=1):
        return cls({power: coeff})

    @classmethod
    def coerce(cls, v):
        return cls.const(v) if isinstance(v, int) else v

    @staticmethod
    def _degree(power):
        return power

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return Combination.__eq__(self, AlphaPoly.coerce(other))

    __hash__ = Combination.__hash__

    def __add__(self, other):
        return Combination.__add__(self, AlphaPoly.coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Combination.__sub__(self, AlphaPoly.coerce(other))

    def __rsub__(self, other):
        return AlphaPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        self._check(other)
        return self._from_valid((p + q, v * w)
                                for p, v in self.terms.items()
                                for q, w in other.terms.items())

    __rmul__ = __mul__

    def coeff(self, power):
        return self.terms.get(power, 0)

    def degree(self):
        return max(self.terms, default=-1)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms):
            v = self.terms[p]
            if p == 0:
                bits.append(str(v))
            else:
                var = "a" if p == 1 else "a^%d" % p
                bits.append(var if v == 1 else "-%s" % var if v == -1
                            else "%d*%s" % (v, var))
        return " + ".join(bits).replace("+ -", "- ")


class MultiPoly(Combination):
    """Integer polynomial in alpha and t_1..t_r.

    terms: dict {(alpha_power, exponent_tuple): coeff}; the exponent tuple
    always has length r.
    """

    __slots__ = ("r",)
    _space = "r"
    _coeff = staticmethod(operator.index)

    def __init__(self, r, terms=None):
        if r < 0:
            raise ValueError("a polynomial in r variables needs r >= 0, "
                             "not %r" % (r,))
        self.r = r
        Combination.__init__(self, terms)

    @staticmethod
    def _key(key):
        a, e = key
        return a, tuple(e)

    @staticmethod
    def _degree(key):
        return key[0] + sum(key[1])

    @classmethod
    def zero(cls, r):
        return cls(r)

    @classmethod
    def const(cls, r, v):
        return cls(r, {(0, (0,) * r): v})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        self._check(other)
        return self._from_valid(
            ((a1 + a2, tuple(x + y for x, y in zip(e1, e2))), v1 * v2)
            for (a1, e1), v1 in self.terms.items()
            for (a2, e2), v2 in other.terms.items())

    __rmul__ = __mul__

    def set_var_zero(self, i):
        """Substitute t_{i+1} = 0 (variable slot kept, exponent forced 0)."""
        return self._like({k: v for k, v in self.terms.items()
                           if k[1][i] == 0})

    def drop_var(self, i):
        """Substitute t_{i+1} = 0 and remove the slot (result has r-1 vars)."""
        return MultiPoly(self.r - 1, (((a, e[:i] + e[i + 1:]), v)
                                      for (a, e), v in self.terms.items()
                                      if e[i] == 0))

    def merge_neg_pair(self, q):
        """Substitute t_{q+2} = -t_{q+1} (0-based slots q, q+1)."""
        return MultiPoly(self.r, (
            ((a, e[:q] + (e[q] + e[q + 1], 0) + e[q + 2:]),
             -v if e[q + 1] % 2 else v)
            for (a, e), v in self.terms.items()))

    def negate_alpha(self):
        return MultiPoly(self.r, {(a, e): (v if a % 2 == 0 else -v)
                                  for (a, e), v in self.terms.items()})

    def var_to_alpha(self, i):
        """Substitute t_{i+1} = alpha."""
        return MultiPoly(self.r, (((a + e[i], e[:i] + (0,) + e[i + 1:]), v)
                                  for (a, e), v in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, e) in sorted(self.terms):
            v = self.terms[(a, e)]
            mono = []
            if a:
                mono.append("a" if a == 1 else "a^%d" % a)
            for i, p in enumerate(e):
                if p:
                    mono.append("t%d" % (i + 1) if p == 1
                                else "t%d^%d" % (i + 1, p))
            body = "*".join(mono) if mono else "1"
            bits.append("%+d*%s" % (v, body))
        return " ".join(bits)
