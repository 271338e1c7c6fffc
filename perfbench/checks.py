"""Output checks, run after the timed requests.

Lattice requests are checked with identities the library does not use to
produce its answer: Euler's relation and the generalized Dehn-Sommerville
relations on the flag vector, multiplicativity of f_poly under products
and of ehrenborg_F under joins, and F(S(P)) = (-1)^rank F(P)* for the
antipode of an Eulerian poset.  Algebra requests are checked against
polynomial expansion, the Hopf axioms, and brute-force enumerations
written here.  CLI output is checked against the library's API, or
against an identity where the CLI prints names.

Each check returns None when the output is right and a short reason when
it is not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# -- flag vectors ---------------------------------------------------------------


def euler_relation(dim, flags):
    if dim < 1:
        return None
    alternating = sum((-1) ** i * flags[(i,)] for i in range(dim))
    if alternating != 1 - (-1) ** dim:
        return "Euler's relation fails: %d" % alternating
    return None


def dehn_sommerville(dim, flags):
    """Bayer-Billera: for S, consecutive i < k of S + {-1, dim} with
    k - i >= 2, sum_{i<j<k} (-1)^(j-i-1) f_{S+j} = (1 - (-1)^(k-i-1)) f_S."""
    for s in flags:
        ext = (-1,) + s + (dim,)
        for i, k in zip(ext, ext[1:]):
            if k - i < 2:
                continue
            total = sum((-1) ** (j - i - 1) * flags[tuple(sorted(s + (j,)))]
                        for j in range(i + 1, k))
            if total != (1 - (-1) ** (k - i - 1)) * flags[s]:
                return "Dehn-Sommerville fails at S=%r, (%d,%d)" % (s, i, k)
    return None


def check_flag_table(dim, flags):
    if set(flags) != {s for k in range(dim + 1)
                      for s in itertools.combinations(range(dim), k)}:
        return "flag table does not cover every subset"
    if flags[()] != 1:
        return "f_empty is %r" % flags[()]
    return euler_relation(dim, flags) or dehn_sommerville(dim, flags)


# -- lattice-stream -------------------------------------------------------------


def check_lattice(req, out):
    from polyqsym.exprs import parse_expression
    from polyqsym.ring import JOIN_RING, PRODUCT_RING, FormalSum
    from polyqsym.transforms import ehrenborg_F, f_poly

    poly = out["poly"]
    if out["coeff"] != 1 or poly.dim != req["dim"]:
        return "built dim %d coeff %d, expected dim %d" % (
            poly.dim, out["coeff"], req["dim"])
    reason = check_flag_table(poly.dim, out["flags"])
    if reason:
        return reason
    top = (poly.dim + 1,)
    if out["F"].coefficient(top) != 1:
        return "F has coefficient %r on M%r" % (out["F"].coefficient(top),
                                                top)
    if req["kind"] in ("prod", "join"):
        a, b = (single(parse_expression(t)) for t in req["parts"])
        if req["kind"] == "prod":
            want = f_poly(FormalSum.of(a, PRODUCT_RING)) \
                * f_poly(FormalSum.of(b, PRODUCT_RING))
            if out["fpoly"] != want:
                return "f_poly(prod(a,b)) != f_poly(a) f_poly(b)"
        else:
            want = ehrenborg_F(FormalSum.of(a, JOIN_RING)) \
                * ehrenborg_F(FormalSum.of(b, JOIN_RING))
            if out["F"] != want:
                return "F(join(a,b)) != F(a) F(b)"
    if "antipode" in out:
        s = out["antipode"]
        if any(p.dim != poly.dim for p in s.terms):
            return "antipode is not homogeneous"
        sign = -1 if (poly.dim + 1) % 2 else 1
        if ehrenborg_F(s) != sign * out["F"].star():
            return "F(S(P)) != (-1)^rank F(P)*"
    return None


def single(s):
    (poly, coeff), = s.terms.items()
    if coeff != 1:
        raise ValueError("expected a single polytope")
    return poly


# -- algebra --------------------------------------------------------------------


def is_lyndon_word(w):
    return all(w < w[i:] for i in range(1, len(w)))


def moebius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def lyndon_count(letters, weight):
    """Number of Lyndon words of a weight over weighted letters.  From
    1/(1 - A) = prod_n (1 - t^n)^(-L_n), A(t) = sum_a t^a:
    sum_{n | N} n L_n = q_N = sum_m (N/m) [t^N] A^m, then Moebius."""
    q = [Fraction(0)] * (weight + 1)
    power = [1] + [0] * weight
    for m in range(1, weight + 1):
        power = [sum(power[k - a] for a in letters if a <= k)
                 for k in range(weight + 1)]
        for n in range(1, weight + 1):
            q[n] += Fraction(n * power[n], m)
    total = sum(moebius(weight // d) * q[d]
                for d in range(1, weight + 1) if weight % d == 0)
    return total / weight


def refines(v, w):
    """True when composition v splits each part of w into parts."""
    i = 0
    for part in w:
        acc = 0
        while acc < part and i < len(v):
            acc += v[i]
            i += 1
        if acc != part:
            return False
    return i == len(v)


def series_from_exponents(ks, nmax):
    """prod_i (1 - t^i)^(-k_i) through degree nmax, via the power sums
    a_n = sum_{d | n} d k_d and n c_n = sum_{j=1..n} a_j c_{n-j}."""
    a = [0] * (nmax + 1)
    for d, k in enumerate(ks, start=1):
        for m in range(d, nmax + 1, d):
            a[m] += d * k
    c = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total = sum(a[j] * c[n - j] for j in range(1, n + 1))
        if total % n:
            raise ValueError("exponents give a non-integral series")
        c[n] = total // n
    return c


def qsym_value(q, point):
    """Evaluate a plain quasi-symmetric function at a numeric point."""
    total = 0
    for (a, comp), v in q.terms.items():
        for pos in itertools.combinations(range(len(point)), len(comp)):
            total += v * math.prod(point[i] ** e for i, e in zip(pos, comp))
    return total


def multipoly_value(poly, point):
    return sum(v * math.prod(x ** e for x, e in zip(point, exps))
               for (a, exps), v in poly.terms.items())


def deconcatenate(q):
    out = {}
    for (_, comp), v in q.terms.items():
        for i in range(len(comp) + 1):
            key = (comp[:i], comp[i:])
            out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def check_algebra(req, out):
    from polyqsym import ncalg
    from perfbench.execute import ncpoly_of, qsym_of, series_target

    op = req["op"]
    if op == "qsym-mul":
        a, b = qsym_of(req["a"]), qsym_of(req["b"])
        point = (2, -1, 3, 1)
        if qsym_value(out, point) != qsym_value(a, point) \
                * qsym_value(b, point):
            return "product does not evaluate as a product"
        return None
    if op == "qsym-coproduct":
        if out != deconcatenate(qsym_of(req["a"])):
            return "coproduct is not deconcatenation"
        return None
    if op == "qsym-expand":
        point = tuple(range(2, 2 + req["r"]))
        if multipoly_value(out, point) != qsym_value(qsym_of(req["a"]),
                                                     point):
            return "expansion evaluates wrongly"
        return None
    a = ncpoly_of(req) if op.startswith("nc-") else None
    if op == "nc-normal-form":
        for w in out.terms:
            if 1 in w[1:] or w.count(1) > 1:
                return "word %r is not in normal form" % (w,)
        if {sum(w) for w in out.terms} - {sum(w) for w in a.terms}:
            return "normal form changed the degree"
        if ncalg.normal_form(out) != out:
            return "normal form is not idempotent"
        return None
    if op == "nc-antipode":
        # S(Z_w) = prod over reversed letters of sum_c (-1)^len(c) Z_c, so
        # Z_{1^n} gets (-1)^n from every word of weight n, and Z_{rev v}
        # gets (-1)^len(v) from every word w that v refines.
        for v in a.terms:
            n = sum(v)
            want = sum(c for w, c in a.terms.items() if sum(w) == n) \
                * (-1) ** n
            if out.terms.get((1,) * n, 0) != want:
                return "antipode coefficient on Z_1^%d is wrong" % n
            want = sum(c for w, c in a.terms.items() if refines(v, w)) \
                * (-1) ** len(v)
            if out.terms.get(v[::-1], 0) != want:
                return "antipode coefficient on Z_%r is wrong" % (v[::-1],)
        return None
    if op == "nc-coproduct":
        left = {l: v for (l, r), v in out.items() if r == ()}
        right = {r: v for (l, r), v in out.items() if l == ()}
        if left != a.terms or right != a.terms:
            return "coproduct violates the counit axiom"
        want = sum(v * math.prod(k + 1 for k in w)
                   for w, v in a.terms.items())
        if sum(out.values()) != want:
            return "coproduct has the wrong total weight"
        return None
    if op == "lyndon-words":
        letters = list(range(1, req["weight"] + 1, 2)) \
            if req["alphabet"] == "odd" else req["alphabet"]
        words = [tuple(w) for w in out]
        if len(set(words)) != len(words) or not all(
                sum(w) == req["weight"] and set(w) <= set(letters)
                and is_lyndon_word(w) for w in words):
            return "output holds a word that is not a Lyndon word"
        if len(words) != lyndon_count(letters, req["weight"]):
            return "wrong number of Lyndon words"
        return None
    if op == "series-exponents":
        nmax = req["nmax"]
        if series_from_exponents(out, nmax) != \
                series_target(req["alphabet"], nmax):
            return "exponents do not reproduce the series"
        return None
    return "unknown op %r" % op
