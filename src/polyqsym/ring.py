"""The rings of polytopes under direct product and join.

FormalSum is an integer combination of canonical polytopes.  The ambient
tag distinguishes the product ring (unit: the point, empty polytope
forbidden) from the join ring (unit: the empty polytope).  Face operators,
characters, cone/bipyramid operators, the join-ring antipode and the
comodule coactions all live here as functions on FormalSums.  The chain-sum
antipode that checks the memoized recursion is a test oracle in
`tests/oracles.py`.
"""

from __future__ import annotations

import collections
import operator

from . import polytopes as pb
from . import store
from .polys import AlphaPoly, Combination, format_terms, merge_terms
from .qsym import compositions

PRODUCT_RING = "P"
JOIN_RING = "RP"


class FormalSum(Combination):
    __slots__ = ("ambient",)
    _space = "ambient"
    _coeff = staticmethod(operator.index)

    def __init__(self, ambient, terms=None):
        if ambient not in (PRODUCT_RING, JOIN_RING):
            raise ValueError("ambient must be %r or %r"
                             % (PRODUCT_RING, JOIN_RING))
        self.ambient = ambient
        Combination.__init__(self, terms)

    def _key(self, poly):
        if self.ambient == PRODUCT_RING and poly.is_empty():
            raise ValueError("the empty polytope is not an element "
                             "of the product ring")
        return poly

    @staticmethod
    def _degree(poly):
        return poly.dim

    @classmethod
    def of(cls, poly, ambient=PRODUCT_RING, coeff=1):
        return cls(ambient, {poly: coeff})

    @classmethod
    def zero(cls, ambient=PRODUCT_RING):
        return cls(ambient)

    def __mul__(self, k):
        if not isinstance(k, int):
            raise TypeError("scalars are integers")
        return self._scale(k)

    __rmul__ = __mul__

    def dims(self):
        return sorted(self.degree_set())

    def max_dim(self):
        return max(self.degree_set(), default=-1)

    def map_terms(self, fn):
        """The linear extension of fn, a map from polytopes to sums."""
        return FormalSum(self.ambient, ((q, c * d)
                                        for p, c in self.terms.items()
                                        for q, d in fn(p).terms.items()))

    def __repr__(self):
        """Each term is labelled by its dim and f-vector, which tell
        cube(3) from cross(3) (both have 28 faces)."""
        return format_terms([
            ("<dim %d, f=%s>" % (p.dim, pb.f_vector(p)), c)
            for p, c in pb.in_output_order(self.terms)])


# -- ring multiplications -------------------------------------------------


def _bilinear(op, a, b):
    a._check(b)
    return FormalSum(a.ambient, ((op(p, q), cp * cq)
                                 for p, cp in a.terms.items()
                                 for q, cq in b.terms.items()))


def mul_product(a, b):
    return _bilinear(pb.product, a, b)


def mul_join(a, b):
    return _bilinear(pb.join, a, b)


# -- face operators -------------------------------------------------------

def _face_classes(poly, k):
    """Codimension-k faces of a single polytope, collected by class."""
    def make():
        faces = pb.faces(poly, poly.dim - k)
        return tuple(collections.Counter(f for _, f in faces).items())
    return store.memoized(("faces", poly, k), make)


def d_k(s, k):
    """Sum of codimension-k faces; k = dim+1 yields the empty polytope in
    the join ring and nothing in the product ring."""
    if k <= 0:
        raise ValueError("face operators need k >= 1")
    return FormalSum(s.ambient, _codim_faces(s, k))


def _codim_faces(s, k):
    """The (face, coefficient) pairs that d_k sums."""
    for poly, coeff in s.terms.items():
        n = poly.dim
        if n == -1 or k > n + 1:
            continue
        if k == n + 1:
            if s.ambient == JOIN_RING:
                yield pb.empty(), coeff
            continue
        for f, mult in _face_classes(poly, k):
            yield f, coeff * mult


def phi_poly(s):
    """Coefficient list of the face-operator series: [s, d_1 s, d_2 s, ...]
    up to degree max dim + 1."""
    out = [s]
    for k in range(1, s.max_dim() + 2):
        out.append(d_k(s, k))
    return out


def apply_operator(word, s):
    """Compose face operators right-to-left: word (j_1, .., j_l) acts as
    d_{j_1} after ... after d_{j_l}."""
    if any(j < 1 for j in word):
        raise ValueError("operator word parts must be >= 1")
    for j in reversed(word):
        if s.is_zero():
            break
        s = d_k(s, j)
    return s


# -- characters -----------------------------------------------------------


def xi_alpha(s):
    """Dimension character of the product ring."""
    if any(p.is_empty() for p in s.terms):
        raise ValueError("dimension character undefined on the empty "
                         "polytope")
    return AlphaPoly((p.dim, c) for p, c in s.terms.items())


def epsilon_alpha(s):
    """Rank character of the join ring; at 0 it is the counit."""
    return AlphaPoly((p.dim + 1, c) for p, c in s.terms.items())


def counit(s):
    return epsilon_alpha(s).coeff(0)


# -- cone / bipyramid / duality -------------------------------------------


def cone_op(s):
    return s.map_terms(lambda p: FormalSum.of(pb.cone(p), s.ambient))


def bipyramid_op(s):
    return s.map_terms(lambda p: FormalSum.of(pb.bipyramid(p), s.ambient))


def a_op(s):
    return 2 * cone_op(s) - bipyramid_op(s)


def dual_sum(s):
    return s.map_terms(lambda p: FormalSum.of(pb.dual(p), s.ambient))


def delta_derivation(s):
    """The conjugate derivation: dualize, take facets, dualize back."""
    if s.ambient != JOIN_RING:
        raise ValueError("the conjugate derivation lives in the join ring")
    return dual_sum(d_k(dual_sum(s), 1))


# -- join-ring Hopf structure ----------------------------------------------


def _face_quotient_pairs(poly, faces):
    """(F, P/F) for each face F, given as a lattice element, of `poly`."""
    lat = poly.lattice
    return [(pb.interval_polytope(poly, lat.bottom, z),
             pb.interval_polytope(poly, z, lat.top)) for z in faces]


def hopf_coproduct_pairs(poly):
    """All (face, quotient) pairs of the join-ring comultiplication,
    including the empty face and the polytope itself."""
    return _face_quotient_pairs(poly, range(poly.lattice.n))


def _antipode(poly):
    """S(poly) as a tuple of (polytope, coefficient) terms, memoized per
    type.  The tuple is shared; callers build fresh sums from it."""
    def make():
        if poly.is_empty():
            return ((pb.empty(), 1),)
        pairs = collections.Counter(comodule_pairs(poly))
        return tuple(merge_terms((pb.join(face, r), -mult * c)
                                 for (face, quot), mult in pairs.items()
                                 for r, c in _antipode(quot)).items())
    return store.memoized(("antipode", poly), make)


def antipode_rp(s):
    """Antipode of the join ring, from the antipode axiom: S(empty) = empty
    and S(P) = -sum over nonempty faces F of F * S(P/F).  Equal (face,
    quotient) pairs are grouped, and S is memoized per combinatorial type,
    so each type's face lattice is split into intervals once per process."""
    if s.ambient != JOIN_RING:
        raise ValueError("the antipode lives in the join ring")
    return s.map_terms(lambda p: FormalSum(JOIN_RING, _antipode(p)))


def comodule_pairs(poly):
    """Coaction of the join ring on the product ring: one (face, quotient)
    pair per nonempty face."""
    if poly.dim < 0:
        raise ValueError("defined for nonempty polytopes")
    lat = poly.lattice
    return _face_quotient_pairs(
        poly, [z for z in range(lat.n) if z != lat.bottom])


def l_alpha(poly):
    """Group the face quotients by face dimension: {power: sum of P/F}."""
    counts = {}
    for face, quot in comodule_pairs(poly):
        counts.setdefault(face.dim, collections.Counter())[quot] += 1
    return {dim: FormalSum(JOIN_RING, c) for dim, c in counts.items()}


def coaction(s):
    """Word-indexed coaction: all (composition, operator result) pairs with
    nonzero result; weight runs to dim in the product ring and dim+1 in
    the join ring."""
    bound = s.max_dim() + (2 if s.ambient == JOIN_RING else 1)
    out = []
    for total in range(max(bound, 1)):
        for word in compositions(total):
            r = apply_operator(word, s)
            if not r.is_zero():
                out.append((word, r))
    return out
