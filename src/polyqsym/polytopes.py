"""Combinatorial polytopes as canonicalized face lattices.

A Polytope wraps a GradedPoset whose bottom is the empty face and whose top
is the polytope itself, so dim = height - 1.  The empty polytope (dim -1,
one-element lattice) is a first-class value: it is the unit of the join
ring.  All constructions funnel through the registry `store.types`, so
equal combinatorial types are the same object and share one flag vector.
A type carries no name: it is only its face lattice, so nothing printed
depends on which expression built it.

Registry: each Polytope carries its invariant, (dim, f-vector), read off
the strata, and hashes by it.  Two types with different invariants are
different, so `canonical` stores the first type of each invariant under
the invariant and keys nothing; only when a second lattice of that
invariant comes are both keyed, and each is stored under its key too.
Equality is identity, or else equal invariants and equal keys, so a dict
lookup of a registered type keys nothing either.

A key takes one of three routes, each exact on face lattices:

- dim <= 2: the dim and the vertex count, since an Eulerian lattice of
  height <= 2 is the empty polytope, the point or the segment, and one of
  height 3 whose proper part is one cycle is the polygon with that many
  vertices;
- a d-polytope with d + 1 vertices and 2^(d+1) faces: the dim, since its
  faces are all the vertex sets, ordered by inclusion: the d-simplex;
- otherwise: the dim followed by the canonical key of the vertex-facet
  incidence, encoded as a height-3 poset (bottom, vertices, facets, top).
  A face lattice is atomic and coatomic, so the incidence fixes it
  (Kaibel & Schwartz, Graphs & Combin. 19, 2003).

Bound: each constructor counts the faces of its result (a memoized one
on a miss only) and raises ValueError ("too large: ...") before it
builds a lattice of more than MAX_FACES faces.

Faces and quotients of a face lattice are face lattices.  Data from
outside comes in through `from_incidence` alone: `registry_restore`
reads a saved registry, each type as its vertex-facet incidence, through
it.  `from_incidence` checks that its lattice is Eulerian and that every
interval of height 3 is a polygon, and its construction implies the
rest of what the key needs (see its docstring).
`tests/oracles.canonical_key_oracle` on the whole lattice is the test
oracle.

Constructions: the join's face lattice is the Cartesian product of the
two lattices; the direct product's and the bipyramid's (the free sum
with a segment, as the cone is the join with a point) are the pairs of
nonempty faces with a new bottom, and of proper faces with a new top.
`posets.poset_product(p, q, drop)` builds all three from the operands'
order masks, as `posets` builds the dual and the faces.  This module
builds no mask: `from_incidence`, `polygon` and the incidence posets
that keys are read off go through the validating `GradedPoset(ranks,
covers)`.

Memos: each catalogue type has one request in `store.memo` and one
build.  `empty`, `point` and `segment` are simplex(-1), simplex(0) and
simplex(1), under ("simplex", n); `cross(n)` is the word B^n C, under
("word", w); `cube`, `polygon` and `cell24` have their own.  These and
`product`, `join`, `bipyramid` and `dual` go through `store.memoized`
under the request tuples that `store` lists; `build_named` validates a
catalogue request and calls its generator.  The product and
the join are commutative and associative, so their requests hold the
multiset of the factors: each type made by × or join keeps the factors
it was first made of, and every bracketing and order of the same
factors hits one entry before any lattice is built.  The unit (the
point for ×, the empty polytope for join) is no factor.  Dual is an
involution, so the dual of its result is memoized with it.  The flag
vector lives on the type, in `_flags`, as its key does in `_key`: one
depth-first walk over the lattice fills it with every flag number on
the first `flag_number` call, which `flag_vector` makes too, and each
later call reads one set.  Faces and quotients have no memo:
`interval_polytope` finds a registered polygon or simplex, or the empty
polytope, point or segment, by the invariant read off the parent's
masks, and cuts out any other interval.
"""

from __future__ import annotations

import collections
import functools
import itertools
from types import MappingProxyType

from . import store
from .posets import GradedPoset, bit_indices, boolean_lattice, poset_product

# a lattice of n faces keeps order masks of n^2 bits
MAX_FACES = 10_000


def _check_faces(faces, what):
    if faces > MAX_FACES:
        raise ValueError("too large: %s has more than %d faces"
                         % (what, MAX_FACES))


def _check_word(word, what):
    """Refuse the polytope of a word over {B, C} past MAX_FACES faces.
    Read right to left from the empty polytope, C takes a faces to 2a and
    B to 3a - 2 (the point from the empty polytope): each letter at least
    doubles the count, so only the last MAX_FACES.bit_length() letters
    count, however long the word."""
    faces = 1
    for letter in reversed(word[-MAX_FACES.bit_length():]):
        faces = 2 * faces if letter == "C" else max(3 * faces - 2, 2)
    _check_faces(faces, what)


class Polytope:
    __slots__ = ("lattice", "dim", "invariant", "_hash", "_key", "_flags",
                 "_factors")

    def __init__(self, lattice):
        self.lattice = lattice
        self.dim = lattice.height - 1
        # (dim, f-vector), read off the strata: a type invariant that
        # tells most types apart with no key
        self.invariant = (self.dim, tuple(len(lattice.elements_of_rank(r))
                                          for r in range(1, lattice.height)))
        self._hash = hash(self.invariant)
        self._key = None
        self._flags = {}
        # op -> the factors of the type under "prod" or "join"
        self._factors = {}

    @property
    def key(self):
        """The type's key, exact on face lattices: the dim and vertex count
        up to dim 2, the dim alone for a simplex, and otherwise the dim and
        the canonical key of the vertex-facet incidence."""
        if self._key is None:
            lat, dim = self.lattice, self.dim
            self._key = _invariant_key(dim, self.vertex_count, lat.n) or (
                b"%d:" % dim + _incidence_poset(lat).canonical_key())
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """The same type: the same object, or equal invariants and keys,
        so only two types that share an invariant are keyed to compare."""
        return self is other or (isinstance(other, Polytope)
                                 and self.invariant == other.invariant
                                 and self.key == other.key)

    def __repr__(self):
        return "Polytope(dim=%d, faces=%d)" % (self.dim, self.lattice.n)

    @property
    def vertex_count(self):
        return len(self.lattice.elements_of_rank(1))

    @property
    def facet_count(self):
        return len(self.lattice.elements_of_rank(self.lattice.height - 1))

    def is_empty(self):
        return self.dim == -1


def canonical(poly):
    """Global dedup: the registered Polytope of poly's type.  The first
    type of each invariant is stored under the invariant, with no key.  A
    later Polytope of that invariant keys itself and the first, stores
    the first under its key too, and is looked up by its own key.  Each
    insert is one `setdefault`, so racing threads agree with no lock."""
    first = store.types.setdefault(poly.invariant, poly)
    if first is poly:
        return poly
    store.types.setdefault(first.key, first)
    return store.types.setdefault(poly.key, poly)


def _invariant_key(dim, vertices, faces):
    """The key of a d-polytope with these counts when they fix its type,
    else None: up to dim 2 the vertex count does, and d + 1 vertices with
    2^(d+1) faces make the d-simplex."""
    if dim <= 2:
        return b"%d:v%d" % (dim, vertices)
    if vertices == dim + 1 and faces == 1 << (dim + 1):
        return b"%d:simplex" % dim
    return None


def _facet_vertices(lat):
    """The vertex-facet incidence of a face lattice of height >= 2: for
    each coatom, the indices in `elements_of_rank(1)` of the atoms below
    it."""
    atoms = lat.elements_of_rank(1)
    return [[i for i, a in enumerate(atoms) if below >> a & 1]
            for below in map(lat.downset_mask,
                             lat.elements_of_rank(lat.height - 1))]


def _incidence_poset(lat):
    """Height-3 poset of the vertex-facet incidence of a face lattice of
    height >= 3: bottom, the atoms, the coatoms, top, and a cover from an
    atom to each coatom above it."""
    facets = _facet_vertices(lat)
    nv, nf = len(lat.elements_of_rank(1)), len(facets)
    top = 1 + nv + nf
    covers = [(0, 1 + i) for i in range(nv)]
    for j, facet in enumerate(facets):
        covers.extend((1 + i, 1 + nv + j) for i in facet)
        covers.append((1 + nv + j, top))
    return GradedPoset([0] + [1] * nv + [2] * nf + [3], covers)


def registry_snapshot():
    """The vertex-facet incidence of each registered type of dim >= 1,
    once each (a type may be stored under its invariant and under its
    key): a list of facets, each a list of vertex indices.  The empty
    polytope and the point have no facet list; they are generators,
    built again on request."""
    types = {id(p): p for p in list(store.types.values()) if p.dim >= 1}
    return [_facet_vertices(p.lattice) for p in types.values()]


def registry_restore(entries):
    """Register the types of a saved registry list, each a list of facets,
    each a list of vertex indices, through `from_incidence`.  Raises
    ValueError, before any lattice is built, on a value of another shape,
    and where `from_incidence` refuses an entry."""
    if not isinstance(entries, list):
        raise ValueError("registry must be a list")
    for facets in entries:
        if not (isinstance(facets, list) and all(
                isinstance(f, list) and all(type(v) is int for v in f)
                for f in facets)):
            raise ValueError("registry entry must be a list of facets, "
                             "each a list of integer vertex indices")
    for facets in entries:
        from_incidence(facets)
    return len(entries)


# -- named generators ---------------------------------------------------


def _generator(request, make):
    """The registered type of the lattice `make()`, memoized under
    `request`, a (name, *params) tuple."""
    return store.memoized(request, lambda: canonical(Polytope(make())))


def empty():
    return _generator(("simplex", -1), lambda: boolean_lattice(0))


def point():
    return _generator(("simplex", 0), lambda: boolean_lattice(1))


def simplex(n):
    if n < 0:
        raise ValueError("simplex(n) needs n >= 0")
    # simplex(n) is C^(n+1) empty
    _check_word("C" * min(n + 1, MAX_FACES.bit_length()), "simplex(n)")
    return _generator(("simplex", n), lambda: boolean_lattice(n + 1))


def segment():
    return _generator(("simplex", 1), lambda: boolean_lattice(2))


def cube(n):
    if n < 1:
        raise ValueError("cube(n) needs n >= 1")
    # cube(n) has the 3^n + 1 faces of cross(n), B^(n+1) empty
    _check_word("B" * min(n + 1, MAX_FACES.bit_length()), "cube(n)")
    return store.memoized(("cube", n),
                          lambda: functools.reduce(product, [segment()] * n))


def cross(n):
    """n-fold bipyramid over a point: the word B^n C."""
    if n < 1:
        raise ValueError("cross(n) needs n >= 1")
    _check_word("B" * min(n + 1, MAX_FACES.bit_length()), "cross(n)")
    return from_word("B" * n + "C")


def polygon(m):
    if m < 3:
        raise ValueError("polygon(m) needs m >= 3")
    _check_faces(2 * m + 2, "polygon(m)")

    def make():
        # 0 = empty face, 1..m vertices, m+1..2m edges, 2m+1 top
        ranks = [0] + [1] * m + [2] * m + [3]
        covers = [(0, 1 + i) for i in range(m)]
        for j in range(m):
            covers.append((1 + j, 1 + m + j))
            covers.append((1 + (j + 1) % m, 1 + m + j))
            covers.append((1 + m + j, 2 * m + 1))
        return GradedPoset(ranks, covers)
    return _generator(("polygon", m), make)


def _cell24_incidence():
    """Vertex sets of the 24 octahedral facets (coordinates doubled so the
    supporting functionals evaluate to the integer 2)."""
    verts = []
    for i in range(4):
        for s in (2, -2):
            v = [0, 0, 0, 0]
            v[i] = s
            verts.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=4):
        verts.append(signs)
    facets = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                for t in (1, -1):
                    facets.append(frozenset(
                        k for k, x in enumerate(verts) if s * x[i] + t * x[j] == 2))
    return facets


def cell24():
    return store.memoized(("cell24",),
                          lambda: from_incidence(_cell24_incidence()))


def build_named(name, *params):
    """Catalogue entry point: empty | pt | cell24 | simplex(n) | cube(n)
    | cross(n) | polygon(m) | word(w), n and m integers and w a string
    over {B, C}.  Raises ValueError on any other name or parameters."""
    makers = {"empty": (empty, ()), "pt": (point, ()), "cell24": (cell24, ()),
              "simplex": (simplex, (int,)), "cube": (cube, (int,)),
              "cross": (cross, (int,)), "polygon": (polygon, (int,)),
              "word": (from_word, (str,))}
    if name not in makers:
        raise ValueError("unknown polytope name %r" % name)
    fn, kinds = makers[name]
    if len(params) != len(kinds):
        raise ValueError("%s takes %d parameter(s)" % (name, len(kinds)))
    if not all(map(isinstance, params, kinds)):
        raise ValueError("%s(..) takes %s" % (
            name, "an integer" if int in kinds else "letters B and C"))
    return fn(*params)


def from_word(word):
    """Apply a word over {B, C} right-to-left to the empty polytope.
    C and B both take the empty polytope to the point, so the last letter
    gives the point and the rest of the word applies to it."""
    if not word:
        raise ValueError("empty operator word")
    if any(ch not in "BC" for ch in word):
        raise ValueError("operator word must use letters B and C only")

    def make():
        _check_word(word, "the word")
        p = point()
        for ch in reversed(word[:-1]):
            p = cone(p) if ch == "C" else bipyramid(p)
        return p
    return store.memoized(("word", word), make)


def from_incidence(facet_vertex_sets):
    """Face lattice from facet vertex sets, in one pass from the top down.

    Faces are the intersections of facets, with the empty face and the top,
    as bitmasks over the vertices, so vertex labels need only hash.  A face
    f covers the maximal sets f & F, F a facet not containing f, or the
    empty face if every facet contains f (Kaibel & Pfetsch, Comput. Geom.
    23, 2002).  Each face takes its corank when first met; a cover that
    does not raise it by one means the closure is not graded.  A closure
    past MAX_FACES faces, the empty face counted from the start, is
    refused as soon as it passes.  The lattice must be Eulerian, and every
    interval of height 3 in it a polygon.  Each label must be a vertex, an
    atom of its own: two labels in the same facets, or one in a proper
    subset of another's, are refused.  So is a list that is not a facet
    list: an empty facet, a facet listed twice, or a facet that holds
    every vertex.

    This is the one route from outside data to a registered type, and
    what it accepts is keyed exactly by `Polytope.key`: the lattice is
    rebuilt by its vertex-facet incidence.  The construction implies it:

    - the order is inclusion of vertex sets: a face g strictly inside a
      face f lies in a facet F that does not hold f (or g is empty and f
      covers it), so g lies in f & F, below a maximal such set, which f
      covers, and so on down to g;
    - the faces are closed under intersection, so the atoms are
      disjoint, and the vertex check makes them as many as the labels:
      each is one vertex, and the atoms below a face are its vertex set.
      So faces are separated by their vertices, and they are exactly the
      intersections of facets;
    - no facet contains another, so the coatoms are the facets, and a
      face is the intersection of the facets above it: faces are
      separated by their facets too.  For the empty face that needs the
      intersection of all facets to be empty; if it is not, it is the
      one atom, and the vertex check refuses the labels.

    `tests/oracles.py` holds these three properties as checks, with the
    intersection closure as a second route.

    The facets through each vertex are indexed, so the pass intersects a
    face only with the facets that meet it, and the containment test
    checks a facet only against those through its lowest vertex; the
    top's covers are the facets, which that test showed maximal.  So an
    incidence of many small facets, such as a polygon's, costs about its
    size, not the facet count squared.
    """
    vertices = {}
    facets = [sum({1 << vertices.setdefault(v, len(vertices)) for v in f})
              for f in facet_vertex_sets]
    if not facets:
        raise ValueError("need at least one facet")
    top = (1 << len(vertices)) - 1
    _check_faces(len({0, top, *facets}), "the incidence closure")
    # the facets through each vertex, as a mask over facet positions
    through = [0] * len(vertices)
    for i, f in enumerate(facets):
        for v in bit_indices(f):
            through[v] |= 1 << i

    def meeting(f):
        """The facets that meet the face f, ascending."""
        mask = 0
        for v in bit_indices(f):
            mask |= through[v]
        return [facets[i] for i in bit_indices(mask)]
    distinct = set(facets)
    # a facet inside another holds its lowest vertex; the empty facet lies
    # inside any other
    if any(f & g == f != g for f in distinct
           for g in (meeting(f & -f) if f else distinct)):
        raise ValueError("one facet contains another")
    for bad, what in ((0 in facets, "an empty facet"),
                      (top in facets, "a facet contains every vertex"),
                      (len(distinct) < len(facets), "a repeated facet")):
        if bad:
            raise ValueError("not a valid polytope incidence: %s" % what)
    # the facets that meet each face met but not yet passed, ascending;
    # every facet that meets a face meets the face it was found under
    faces, corank, covers, meets = [top], {top: 0}, [], {top: facets}
    for f in faces:
        meet = meets.pop(f)
        below = sorted({0, *(f & facet for facet in meet)} - {f},
                       key=int.bit_count, reverse=True)
        if f == top:
            # the facets, which the containment test showed maximal, and
            # not the empty face, last
            maximal = below[:-1]
        else:
            maximal = []
            for g in below:
                if all(g & ~h for h in maximal):
                    maximal.append(g)
        for g in maximal:
            covers.append((g, f))
            if g not in corank:
                corank[g] = corank[f] + 1
                faces.append(g)
                meets[g] = meeting(g) if f == top else [
                    facet for facet in meet if facet & g]
                _check_faces(len(faces) + (0 not in corank),
                             "the incidence closure")
    if any(corank[g] != corank[f] + 1 for g, f in covers):
        raise ValueError("not a valid polytope incidence: closure not graded")
    # numbered as met, the top first; the empty face, met last, has the
    # largest corank, the height
    index = {f: i for i, f in enumerate(faces)}
    lattice = GradedPoset([corank[0] - corank[f] for f in faces],
                          [(index[g], index[f]) for g, f in covers])
    if not lattice.is_eulerian():
        raise ValueError("not a valid polytope incidence: not an Eulerian "
                         "lattice")
    if not lattice.height3_intervals_are_cycles():
        raise ValueError("not a valid polytope incidence: not a polytope "
                         "face lattice: an interval of height 3 is not a "
                         "polygon")
    atoms = len(lattice.elements_of_rank(1))
    if atoms < len(vertices):
        raise ValueError("not a valid polytope incidence: a label is not a "
                         "vertex (%d labels, %d vertices)"
                         % (len(vertices), atoms))
    return canonical(Polytope(lattice))


# -- constructions ------------------------------------------------------


def _by_factors(op, unit_dim, p, q, build):
    """The type that `op` ("prod" or "join") makes of p and q, memoized by
    the multiset of their factors: in a commutative, associative ring the
    type depends on nothing else.  A type made by `op` keeps the first
    factors it is made of; any other type is its own one factor.  The
    ring unit (the one type of dim `unit_dim`) is no factor, and with at
    most one factor left the operand itself is the result, with nothing
    built.  `build()` gives the lattice of a new product."""
    factors = tuple(sorted((f for x in (p, q) for f in x._factors.get(op, (x,))
                            if f.dim != unit_dim), key=id))
    if len(factors) <= 1:
        return q if p.dim == unit_dim else p

    def make():
        r = canonical(Polytope(build()))
        r._factors.setdefault(op, factors)
        return r
    return store.memoized((op, factors), make)


def product(p, q):
    """Direct product; nonempty faces are pairs of nonempty faces."""
    if p.is_empty() or q.is_empty():
        raise ValueError("product is defined on nonempty polytopes")

    def build():
        a, b = p.lattice.n, q.lattice.n
        _check_faces((a - 1) * (b - 1) + 1, "the product")
        return poset_product(p.lattice, q.lattice, drop="bottom")
    return _by_factors("prod", 0, p, q, build)


def join(p, q):
    """Join: the face lattice is the product of the face lattices."""
    def build():
        _check_faces(p.lattice.n * q.lattice.n, "the join")
        return poset_product(p.lattice, q.lattice)
    return _by_factors("join", -1, p, q, build)


def cone(p):
    return join(point(), p)


def bipyramid(p):
    """Double cone: the free sum with a segment."""
    if p.is_empty():
        return point()

    def make():
        _check_faces(3 * p.lattice.n - 2, "the bipyramid")
        return canonical(Polytope(
            poset_product(p.lattice, segment().lattice, drop="top")))
    return store.memoized(("bipyramid", p), make)


def dual(p):
    """The polar polytope.  Dual is an involution, so the dual of the
    result is memoized too, as p."""
    def make():
        q = canonical(Polytope(p.lattice.dual()))
        store.memo.setdefault(("dual", q), canonical(p))
        return q
    return store.memoized(("dual", p), make)


def interval_polytope(p, x, y):
    """The interval [x, y] of the face lattice of p, registered.  When its
    counts fix its type (`_invariant_key`), the type is looked up by the
    interval's invariant, read off p's masks; an interval of any other
    type, or of one not registered yet, is cut out."""
    lat = p.lattice
    if x == lat.bottom and y == lat.top:
        return canonical(p)
    members = lat.upset_mask(x) & lat.downset_mask(y)
    if members:
        low, high = lat.ranks[x], lat.ranks[y]
        vertices = (members & lat.rank_mask(low + 1)).bit_count()
        if _invariant_key(high - low - 1, vertices, members.bit_count()):
            hit = store.types.get((high - low - 1, tuple(
                (members & lat.rank_mask(r)).bit_count()
                for r in range(low + 1, high))))
            if hit is not None:
                return hit
    return canonical(Polytope(lat.interval(x, y)))


def face_polytope(p, face):
    """Quotient P/F: the interval [F, P] of the face lattice."""
    lat = p.lattice
    if not (0 <= face < lat.n):
        raise ValueError("face index out of range")
    return interval_polytope(p, face, lat.top)


def face_as_polytope(p, face):
    """The face F itself: the interval [empty, F]."""
    lat = p.lattice
    if not (0 <= face < lat.n):
        raise ValueError("face index out of range")
    return interval_polytope(p, lat.bottom, face)


def faces(p, k):
    """All k-dimensional faces as (lattice element, Polytope) pairs."""
    if k < -1 or k > p.dim:
        return []
    return [(x, face_as_polytope(p, x))
            for x in p.lattice.elements_of_rank(k + 1)]


# -- flag numbers ---------------------------------------------------------


def _normalize_flag_set(p, subset):
    s = set()
    for a in subset:
        # bool is an int subclass, and no dimension; checked before the
        # set, where True would pass for 1
        if type(a) is not int or not -1 <= a <= p.dim:
            raise ValueError("flag set entry %r out of range for dim %d"
                             % (a, p.dim))
        s.add(a)
    s.discard(-1)
    s.discard(p.dim)
    return tuple(sorted(s))


def flag_number(p, subset):
    """Number of strictly increasing face chains hitting exactly the
    dimensions in `subset` (convention: -1 and dim are dropped).  The first
    call on a type fills its `_flags` with the whole flag vector."""
    if not p._flags:
        # one update from a whole dict: a racing reader sees all or none
        p._flags.update(dict(_flag_walk(p.lattice)))
    return p._flags[_normalize_flag_set(p, subset)]


def flag_vector(p):
    """All flag numbers f_S, S a subset of {0, .., dim-1}, read-only and by
    sorted S, computed once per type and kept on it, in `_flags`."""
    flag_number(p, ())
    return MappingProxyType(p._flags)


def _flag_walk(lat):
    """(S, f_S) for every flag set S of `lat`, depth first from the bottom.
    The chain counts of S, one per element of rank max(S) + 1, give those
    of S + (a,) in one rank step, so each flag set costs one step: over the
    elements of rank max(S) + 1 below each element of the new rank, read
    once per pair of ranks off the downset masks."""
    below = {}

    def walk(s, r, counts):
        yield s, sum(counts.values())
        get = counts.__getitem__
        for q in range(r + 1, lat.height):
            step = below.get((r, q))
            if step is None:
                rank = lat.rank_mask(r)
                step = below[r, q] = {
                    y: bit_indices(lat.downset_mask(y) & rank)
                    for y in lat.elements_of_rank(q)}
            yield from walk(s + (q - 1,), q,
                            {y: sum(map(get, xs)) for y, xs in step.items()})
    return walk((), 0, {lat.bottom: 1})


def f_vector(p):
    """Face counts f_0 .. f_(dim-1), read off the ranks."""
    return list(p.invariant[1])


def in_output_order(terms):
    """The (type, value) pairs of `terms`, a dict, in output order: by
    dim, then f-vector, and by canonical key only among the types that
    share both, so only those are keyed.  Such types come in a
    deterministic order that may move with the key bytes."""
    ties = collections.Counter(p.invariant for p in terms)
    return sorted(terms.items(), key=lambda pc: (
        pc[0].invariant, pc[0].key if ties[pc[0].invariant] > 1 else b""))
