"""Flag-vector transforms into quasi-symmetric functions and back.

The poset transform `ehrenborg_F` is the one flag carrier, the one
transform that reads flag vectors: f_S of dimension n goes to f_S M_c, c =
`flag_composition(n, S)` = (a_1+1, a_2-a_1, .., n-a_k) for S = {a_1 < ..
< a_k}.  It reads each type's flag vector once and keeps that type's
terms under ("F", type) in `store.memo`, so a sum of types costs one memo
hit per term.  The flag polynomial is a relabelling of F: `f_of_F` sends
M_(c_1, .., c_k) to alpha^(c_1-1) M_(c_k, .., c_2); and `f_rp` = F(P)* +
alpha f(P).  The image equations, the sparse-flag basis with its
unimodular matrix, the projection onto it (which reads the sparse flag
numbers off F of the sum), and the cone/bipyramid operators on the
quasi-symmetric side, as closed forms on the monomial basis, also live
here.  The second route of each transform, of the cone operators, of the
basis matrix and of the projection (face-operator series, chain sums,
word coaction, flag routes, t-variables, basis polytopes, flag-number
sums) is a test oracle in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools

from . import polytopes as pb, store
from .intlinalg import det_bareiss, solve_exact
from .ncalg import DualFunctional, basis_words
from .polys import MultiPoly
from .qsym import QSym, compositions
from .ring import (FormalSum, JOIN_RING, PRODUCT_RING, apply_operator,
                   mul_product, xi_alpha)


# -- the flag transforms ------------------------------------------------------


def flag_composition(n, s):
    """The composition of the flag set s = {a_1 < .. < a_k} of dimension n:
    (a_1+1, a_2-a_1, .., n-a_k), and () for the empty polytope."""
    ends = (-1,) + tuple(s) + (n,)
    return tuple(b - a for a, b in zip(ends, ends[1:])) if n >= 0 else ()


def _F_terms(poly):
    """The terms of F of one type, read off its flag vector once and kept
    under ("F", poly)."""
    return store.memoized(("F", poly), lambda: tuple(
        ((0, flag_composition(poly.dim, subset)), value)
        for subset, value in pb.flag_vector(poly).items()))


def ehrenborg_F(s):
    """Chain transform of the face lattice, the one transform that reads
    flag vectors: f_S of dimension n goes to f_S M_(flag_composition(n, S))."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, JOIN_RING)
    return QSym()._from_valid(
        (key, coeff * value)
        for poly, coeff in s.terms.items()
        for key, value in _F_terms(poly))


def _f_key(comp):
    return comp[0] - 1, comp[:0:-1]


def f_of_F(g):
    """The flag polynomial read off F: M_(c_1, .., c_k) goes to
    alpha^(c_1-1) M_(c_k, .., c_2), and the constant term drops."""
    return QSym()._from_valid((_f_key(comp), v)
                              for (_, comp), v in g.terms.items() if comp)


def f_poly(s):
    """Generalized flag polynomial, a relabelling of F."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, PRODUCT_RING)
    if any(poly.is_empty() for poly in s.terms):
        raise ValueError("flag polynomial is defined on the product ring")
    return f_of_F(ehrenborg_F(s))


def f_rp(s):
    """Rank-character transform of the join ring, by the star-transform
    identity f_RP(P) = F(P)* + alpha f(P)."""
    g = ehrenborg_F(s)
    return g.star() + QSym()._from_valid(
        ((a + 1, comp), v) for (a, comp), v in f_of_F(g).terms.items())


# -- image equations ----------------------------------------------------------


FLAVOR_PRODUCT = "P"
FLAVOR_JOIN = "RP"
FLAVOR_POSET = "F"


def verify_image_equations(g, n, flavor):
    """Substitution identities cutting out the transform images: adjacent
    sign-cancellation in every slot, plus the flavor's grading equation."""
    if flavor not in (FLAVOR_PRODUCT, FLAVOR_JOIN, FLAVOR_POSET):
        raise ValueError("unknown flavor %r" % flavor)
    if not g.is_homogeneous():
        raise ValueError("image equations apply to homogeneous polynomials")
    if not g.is_zero() and g.degree_set() != {n}:
        raise ValueError("degree mismatch")
    r = g.r
    for q in range(r - 1):
        lhs = g.merge_neg_pair(q)
        rhs = g.set_var_zero(q).set_var_zero(q + 1)
        if lhs != rhs:
            return False
    if flavor == FLAVOR_POSET:
        return True
    lhs = g.negate_alpha().var_to_alpha(r - 1)
    if flavor == FLAVOR_PRODUCT:
        rhs = g.set_var_zero(r - 1)
    else:
        rhs = g.set_var_zero(r - 1)
        rhs = MultiPoly(r, {(a, e): v for (a, e), v in rhs.terms.items()
                            if a == 0})
    return lhs == rhs


def dehn_sommerville_check(poly):
    """All instances of the generalized relations on one polytope."""
    n = poly.dim
    if n < 1:
        raise ValueError("needs dimension >= 1")
    flags = pb.flag_vector(poly)
    for s, f_s in flags.items():
        extended = (-1,) + s + (n,)
        for ii in range(len(extended) - 1):
            i, k = extended[ii], extended[ii + 1]
            if k - i < 2:
                continue
            total = 0
            for j in range(i + 1, k):
                term = flags[s[:ii] + (j,) + s[ii:]]
                total += term if (j - i - 1) % 2 == 0 else -term
            if total != (1 - (-1) ** (k - i - 1)) * f_s:
                return False
    return True


# -- sparse-flag basis ---------------------------------------------------------


def sparse_index_sets(n):
    """Subsets of {0..n-2} with no two consecutive members, as sorted
    tuples in order: the start offsets of the parts 2 in each composition
    of n into parts 1 and 2."""
    return sorted(
        tuple(start for start, part in zip(
            itertools.accumulate(comp, initial=0), comp) if part == 2)
        for comp in compositions(n, (1, 2)))


def basis_word_strings(n):
    """Cone/bipyramid words of the flag basis in dimension n: a composition
    of n into parts 1 and 2, written C for 1 and BC for 2, then a final C.
    They end in two cones and have no adjacent bipyramids, and composition
    order sorts them with C before B."""
    return ["".join("C" if part == 1 else "BC" for part in comp) + "C"
            for comp in compositions(n, (1, 2))]


class BBBasis:
    __slots__ = ("n", "psi_sets", "omega_words", "matrix")

    def __init__(self, n, psi_sets, omega_words, matrix):
        self.n = n
        self.psi_sets = psi_sets
        self.omega_words = omega_words
        self.matrix = matrix

    def det(self):
        return det_bareiss(self.matrix)

    def to_json_obj(self):
        return {"n": self.n, "psi": [list(s) for s in self.psi_sets],
                "omega": list(self.omega_words),
                "matrix": [list(r) for r in self.matrix]}


# at n = 11 bb-matrix takes 1.0 s and project simplex(11) 1.8 s; at 12 the
# basis takes 3.8 s and projecting simplex(12) 8.9 s (see README)
MAX_BB_DIM = 11


def bb_basis(n):
    """The sparse-flag basis of dim n, its flag numbers f_S read off f of
    each word, built from f(pt) = 1: the words of dim k are C.w for each w
    of dim k - 1, and B.w = 2 C.w - A.w for each such w that starts with
    C."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if n > MAX_BB_DIM:
        raise ValueError("basis of dim %d too large: at most %d"
                         % (n, MAX_BB_DIM))
    level = {"CC": cone_qsym(QSym.one())}
    for _ in range(n - 1):
        nxt = {}
        for w, g in level.items():
            c = nxt["C" + w] = cone_qsym(g)
            if w[0] == "C":
                nxt["B" + w] = 2 * c - a_qsym(g)
        level = nxt
    psi = tuple(sparse_index_sets(n))
    words = tuple(basis_word_strings(n))
    keys = [_f_key(flag_composition(n, s)) for s in psi]
    return BBBasis(n, psi, words, tuple(
        tuple(level[w].terms.get(k, 0) for k in keys) for w in words))


def bb_det(n):
    return bb_basis(n).det()


def bb_coordinates(s, n):
    """The nonzero (word, coefficient) pairs, in basis order, of the basis
    combination with the flag vector of s, read off F(s)."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, PRODUCT_RING)
    if s.dims() not in ([], [n]):
        raise ValueError("projection needs a homogeneous input of the "
                         "stated dimension")
    basis, g = bb_basis(n), ehrenborg_F(s)
    rhs = [g.coefficient(flag_composition(n, subset))
           for subset in basis.psi_sets]
    coeffs = solve_exact(list(zip(*basis.matrix)), rhs)
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("unimodular solve returned a fraction")
    return [(w, int(c)) for w, c in zip(basis.omega_words, coeffs) if c]


def project_bb(s, n):
    """`bb_coordinates` as a sum of basis polytopes."""
    return FormalSum(PRODUCT_RING, ((pb.from_word(w), c)
                                    for w, c in bb_coordinates(s, n)))


def bb_multiply(x, y):
    """Multiply in the basis ring: project the product, whose flag
    polynomial is the product of the factors' flag polynomials."""
    prod = mul_product(x, y)
    return project_bb(prod, prod.max_dim())


# -- cone and bipyramid on the quasi-symmetric side ---------------------------


def cone_qsym(g):
    """Quasi-symmetric counterpart of the cone operator, on the monomial
    basis: (alpha + M_1) g plus M_(c, a+1) for each term alpha^a M_c."""
    return c_rp_qsym(g) + QSym()._from_valid(
        ((0, c + (a + 1,)), v) for (a, c), v in g.terms.items())


def a_qsym(g):
    """Quasi-symmetric counterpart of twice-cone-minus-bipyramid on the
    product-ring side: alpha^a M_c goes to 2 alpha^a M_(1, c) +
    alpha^a M_(c_1+1, c_2, ..), read as alpha^(a+1) when c is empty."""
    return QSym()._from_valid(
        term for (a, c), v in g.terms.items() for term in (
            ((a, (1,) + c), 2 * v),
            ((a, (c[0] + 1,) + c[1:]) if c else (a + 1, ()), v)))


def b_qsym(g):
    return 2 * cone_qsym(g) - a_qsym(g)


def _constant_term(g):
    return g.terms.get((0, ()), 0)


def a_rp_qsym(g):
    """Join-ring variant: same as the product-ring operator minus the
    counit correction."""
    out = a_qsym(g)
    c = _constant_term(g)
    if c:
        out = out - c * QSym.sigma(1)
    return out


def a0_qsym(g):
    """Counit variant acting on the plain ring (no grading variable): the
    join-ring operator without its grading term alpha * g(0)."""
    if not g.alpha_free():
        raise ValueError("plain-ring operator; no grading variable allowed")
    return a_rp_qsym(g) - QSym.alpha_power(1, _constant_term(g))


def c_rp_qsym(g):
    return (QSym.alpha_power(1) + QSym.sigma(1)) * g


def b_rp_qsym(g):
    return 2 * c_rp_qsym(g) - a_rp_qsym(g)


def c0_qsym(g):
    return QSym.sigma(1) * g


def b0_qsym(g):
    return 2 * c0_qsym(g) - a0_qsym(g)


# -- functionals from polytopes ------------------------------------------------


def phi_alpha(s):
    """Functional on the operator quotient: the value on a word is the
    dimension character of the word acting on the input."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, PRODUCT_RING)
    n = s.max_dim()
    values = {}
    for deg in range(0, max(n, 0) + 1):
        for w in basis_words(deg) if deg else [()]:
            v = xi_alpha(apply_operator(w, s)) if w else xi_alpha(s)
            if v:
                values[w] = v
    return DualFunctional(values, max(n, 0))


def phi_zero(s):
    """Vertex-count functional: the grading-zero part of phi_alpha."""
    psi = phi_alpha(s)
    values = {w: v.coeff(0) for w, v in psi.values.items() if v.coeff(0)}
    return DualFunctional(values, psi.max_degree)
