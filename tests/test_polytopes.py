import inspect
import itertools
import random
import time

import pytest

from polyqsym import polytopes as pb
from polyqsym import store
from polyqsym.polytopes import MAX_FACES
from polyqsym.posets import (GradedPoset, PosetError, boolean_lattice,
                             poset_product)
from polyqsym.exprs import parse_expression
from polyqsym.ring import FormalSum, PRODUCT_RING
from conftest import (DIAGONAL_SPHERE, FOLDED_PRISM, MERGED_OCTAHEDRON,
                      STACKED_BIPYRAMID, brute_flag_number, cw_sphere_lattice,
                      flag_test_types, lattice_stream_exprs,
                      random_graded_poset, random_lattices)
from oracles import (bipyramid_lattice_route, boolean_lattice_cover_route,
                     canonical_key_oracle, chain_count_route,
                     checked_face_lattice, dual_cover_route,
                     face_product_cover_route, faces_are_separated,
                     incidence_lattice_route, interval_cover_route,
                     interval_polytope_cut_route, is_facet_closure,
                     order_is_atom_inclusion, poset_product_cover_route,
                     product_lattice_route, register_by_key, relabel)


def test_named_generators():
    assert pb.empty().dim == -1 and pb.empty().lattice.n == 1
    assert pb.point().dim == 0
    assert pb.simplex(0) == pb.point()
    tri = pb.simplex(2)
    assert pb.flag_number(tri, (0,)) == 3
    assert pb.flag_number(tri, (1,)) == 3
    assert pb.flag_number(tri, (0, 1)) == 6
    assert pb.polygon(3) == tri
    assert pb.polygon(4) == pb.cube(2)
    with pytest.raises(ValueError):
        pb.polygon(2)
    with pytest.raises(ValueError):
        pb.build_named("dodecahedron")
    with pytest.raises(ValueError):
        pb.build_named("simplex")


def test_build_named_dispatch():
    assert pb.build_named("pt") == pb.point()
    assert pb.build_named("simplex", 3) == pb.simplex(3)
    assert pb.build_named("cell24") == pb.cell24()


def test_word_construction():
    assert pb.from_word("CC") == pb.segment()
    assert pb.from_word("BCC") == pb.cube(2)
    bd2 = pb.from_word("BCCC")
    assert bd2 == pb.bipyramid(pb.simplex(2))
    assert bd2.vertex_count == 5
    assert pb.from_word("C") == pb.point()
    assert pb.from_word("B") == pb.point()
    with pytest.raises(ValueError):
        pb.from_word("")
    with pytest.raises(ValueError):
        pb.from_word("CXC")


def test_boolean_lattice_types_are_built_once(monkeypatch, empty_store):
    """The empty polytope, the point and the segment are the simplices of
    dim -1, 0 and 1, with one memo request and one lattice each: the
    generators share their entries with `simplex(n)`, and the words C and
    B, which take the empty polytope to the point, build nothing."""
    built = []
    real_init = GradedPoset.__init__

    def init(poset, *args, **kw):
        real_init(poset, *args, **kw)
        built.append(poset.n)
    monkeypatch.setattr(GradedPoset, "__init__", init)
    types = [pb.empty(), pb.point(), pb.simplex(0), pb.segment(),
             pb.simplex(1), pb.from_word("C"), pb.from_word("B")]
    assert built == [1, 2, 4]
    assert pb.point() is pb.simplex(0) and pb.segment() is pb.simplex(1)
    assert types[5] is types[6] is types[1]
    assert {request[0] for request in store.memo} == {"simplex", "word"}


def test_cross_is_its_word(empty_store):
    """cross(n) is the word B^n C, with no memo entry of its own, and
    refuses past the face bound with the same text however large n is."""
    for n in range(1, 9):
        assert pb.cross(n) is pb.from_word("B" * n + "C")
    assert not any(request[0] == "cross" for request in store.memo)
    for n in (9, 9223372036854775807):
        with pytest.raises(ValueError) as refused:
            pb.cross(n)
        assert str(refused.value) == \
            "too large: cross(n) has more than 10000 faces"


def _cube_facets(n):
    """The facet vertex sets of the n-cube, its vertices the n-bit masks."""
    return [{v for v in range(1 << n) if v >> i & 1 == side}
            for i in range(n) for side in (0, 1)]


REFUSALS = {
    "polygon(6000)": lambda: pb.polygon(6000),
    "word(C^14)": lambda: pb.from_word("C" * 14),
    "bipyramid(cube(8))": lambda: pb.bipyramid(pb.cube(8)),
    "simplex(10^20)": lambda: pb.simplex(10 ** 20),
    "cube(10^20)": lambda: pb.cube(10 ** 20),
    "cross(10^20)": lambda: pb.cross(10 ** 20),
    "polygon(10^20)": lambda: pb.polygon(10 ** 20),
    "word(C^10^6)": lambda: pb.from_word("C" * 10 ** 6),
    "product(cube(6),cube(6))": lambda: pb.product(pb.cube(6), pb.cube(6)),
    "from_incidence(9-cube)": lambda: pb.from_incidence(_cube_facets(9)),
}


@pytest.mark.parametrize("label", sorted(REFUSALS))
def test_constructions_past_face_bound_build_nothing(label, monkeypatch):
    """Each constructor refuses a result of more than MAX_FACES faces
    before it builds a lattice; the operands, cube(6) and cube(8) (6,562
    faces), are built and memoized first."""
    pb.cube(6), pb.cube(8)
    built = []
    real_init = GradedPoset.__init__

    def init(lat, ranks, *args, **kw):
        ranks = list(ranks)
        built.append(len(ranks))
        assert len(ranks) <= MAX_FACES, "a lattice of %d faces" % len(ranks)
        real_init(lat, ranks, *args, **kw)
    monkeypatch.setattr(GradedPoset, "__init__", init)
    with pytest.raises(ValueError, match="too large"):
        REFUSALS[label]()
    assert built == []


def test_incidence_face_bound_counts_every_face(monkeypatch):
    """The 4-cube has 82 faces, the empty face and the top included: a
    bound of 82 admits its facet sets, and one of 81 refuses them before
    any lattice is built."""
    monkeypatch.setattr(pb, "MAX_FACES", 82)
    assert pb.from_incidence(_cube_facets(4)) is pb.cube(4)
    monkeypatch.setattr(pb, "MAX_FACES", 81)
    built = []
    monkeypatch.setattr(GradedPoset, "__init__",
                        lambda lat, *args, **kw: built.append(lat))
    with pytest.raises(ValueError, match="too large"):
        pb.from_incidence(_cube_facets(4))
    assert built == []


def test_incidence_small():
    assert pb.from_incidence([{1, 2}, {1, 3}, {2, 3}]) == pb.simplex(2)
    assert pb.from_incidence([{1, 2}, {2, 3}, {3, 4}, {1, 4}]) == pb.cube(2)
    # vertex labels need only hash, not sort
    assert pb.from_incidence([{1, "a"}, {"a", 2}, {2, 1}]) is pb.polygon(3)
    assert pb.from_incidence([{None, 0}, {0, 1}, {1, None}]) is pb.polygon(3)
    with pytest.raises(ValueError, match="one facet contains another"):
        pb.from_incidence([{1, 2, 3}, {1, 2}])
    with pytest.raises(ValueError, match="need at least one facet"):
        pb.from_incidence([])
    # graded closure that fails the parity test (theta graph)
    with pytest.raises(ValueError, match="Eulerian"):
        pb.from_incidence([{1, 2}, {2, 3}, {1, 3}, {4, 1}, {4, 2}])
    # closure whose cover relation jumps levels
    with pytest.raises(ValueError, match="graded"):
        pb.from_incidence([{1, 2, 3}, {1, 2, 4}, {1, 5}])
    # labels that are not vertices: 5 lies in the facets of 1, or in a
    # subset of them
    for facets, labels, vertices in (
            ([{1, 2, 5}, {2, 3}, {3, 4}, {4, 1, 5}], 5, 4),
            ([{1, 2, 5}, {2, 3}, {3, 4}, {4, 1}], 5, 4)):
        with pytest.raises(ValueError, match=r"^not a valid polytope "
                           r"incidence: a label is not a vertex \(%d labels, "
                           r"%d vertices\)$" % (labels, vertices)):
            pb.from_incidence(facets)


@pytest.mark.parametrize("facets", [[{1}], [{1}, {1}], [{1, 2}],
                                    [{1, 2, 3}]])
def test_incidence_refuses_a_facet_of_every_vertex(facets):
    """A facet is a proper face: one that holds every vertex is refused,
    where the closure once read [{1}] and [{1}, {1}] as the point."""
    with pytest.raises(ValueError, match=r"^not a valid polytope incidence: "
                       r"a facet contains every vertex$"):
        pb.from_incidence(facets)


@pytest.mark.parametrize("facets", [[set()], [set(), set()]])
def test_incidence_refuses_an_empty_facet(facets):
    """The empty face is no facet: [set()] was read as the empty
    polytope."""
    with pytest.raises(ValueError, match=r"^not a valid polytope incidence: "
                       r"an empty facet$"):
        pb.from_incidence(facets)


@pytest.mark.parametrize("facets", [[{1, 2}, {2, 3}, {1, 3}, {1, 3}],
                                    _cube_facets(3) + _cube_facets(3)[:1]])
def test_incidence_refuses_a_repeated_facet(facets):
    """A facet listed twice is refused, where the closure once merged
    the two into one facet of the triangle or the cube."""
    with pytest.raises(ValueError, match=r"^not a valid polytope incidence: "
                       r"a repeated facet$"):
        pb.from_incidence(facets)


def test_incidence_refuses_many_repeats_at_once():
    """The containment test runs over the distinct facets, so a list that
    repeats one facet many times, as a cache file may, is refused in time
    linear in its length; over every pair of the list, 40,000 repeats
    take minutes."""
    facets = [{1, 2}, {2, 3}, {1, 3}] + [{1, 2}] * 40_000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="a repeated facet$"):
        pb.from_incidence(facets)
    assert time.perf_counter() - start < 10


def test_incidence_cell24():
    q = pb.cell24()
    profile = [len(q.lattice.elements_of_rank(r))
               for r in range(q.lattice.height + 1)]
    assert profile == [1, 24, 96, 96, 24, 1]
    assert q.vertex_count == 24 and q.facet_count == 24
    assert pb.dual(q) == q
    assert all(f == pb.cross(3) for _, f in pb.faces(q, 3))


def test_product_join_cone_bipyramid():
    pt, seg = pb.point(), pb.segment()
    assert pb.product(pt, pb.simplex(3)) == pb.simplex(3)
    assert pb.product(seg, seg) == pb.cube(2)
    assert pb.product(seg, pb.cube(2)) == pb.cube(3)
    cube3 = pb.product(seg, pb.cube(2))
    assert cube3.vertex_count == 8 and cube3.facet_count == 6
    with pytest.raises(ValueError):
        pb.product(pb.empty(), pt)
    assert pb.join(pb.empty(), pb.simplex(2)) == pb.simplex(2)
    assert pb.join(pt, pt) == seg
    assert pb.join(pb.simplex(1), pb.simplex(1)) == pb.simplex(3)
    assert pb.cone(pb.empty()) == pt
    assert pb.bipyramid(pb.empty()) == pt
    assert pb.bipyramid(seg) == pb.cube(2)
    assert pb.bipyramid(pb.cube(2)) == pb.cross(3)
    # join adds vertex and facet counts
    a, b = pb.simplex(2), pb.cube(2)
    j = pb.join(a, b)
    assert j.vertex_count == a.vertex_count + b.vertex_count
    assert j.facet_count == a.facet_count + b.facet_count


def test_dual():
    assert pb.dual(pb.simplex(3)) == pb.simplex(3)
    assert pb.dual(pb.cube(3)) == pb.cross(3)
    assert pb.dual(pb.cube(3)) == pb.bipyramid(pb.bipyramid(pb.segment()))
    for p in (pb.cube(3), pb.cone(pb.cube(2)), pb.cell24()):
        assert pb.dual(pb.dual(p)) == p
    # join and dual commute
    a, b = pb.simplex(2), pb.cube(2)
    assert pb.dual(pb.join(a, b)) == pb.join(pb.dual(a), pb.dual(b))


def test_face_polytope_and_faces():
    d3 = pb.simplex(3)
    assert pb.face_polytope(d3, d3.lattice.bottom) == d3
    assert pb.face_polytope(d3, d3.lattice.top) == pb.empty()
    for v in d3.lattice.elements_of_rank(1):
        assert pb.face_polytope(d3, v) == pb.simplex(2)
    assert len(pb.faces(pb.simplex(2), 1)) == 3
    assert all(f == pb.segment() for _, f in pb.faces(pb.simplex(2), 1))
    assert pb.faces(d3, 3) == [(d3.lattice.top, d3)]
    assert pb.faces(d3, 9) == []
    assert pb.faces(d3, -1)[0][1] == pb.empty()
    with pytest.raises(ValueError):
        pb.face_polytope(d3, 99)


def test_flag_numbers_match_brute_force():
    cases = [pb.simplex(2), pb.cube(2), pb.simplex(3), pb.cube(3),
             pb.cone(pb.cube(2)), pb.bipyramid(pb.simplex(2)),
             pb.polygon(6), pb.cross(3)]
    for p in cases:
        n = p.dim
        for k in range(n + 1):
            for s in itertools.combinations(range(n), k):
                assert pb.flag_number(p, s) == brute_flag_number(p, s), \
                    (p, s)


def test_flag_conventions():
    sq = pb.cube(2)
    assert pb.flag_number(sq, (0, 1)) == 8
    assert pb.flag_number(sq, (-1, 0, 2)) == pb.flag_number(sq, (0,))
    with pytest.raises(ValueError):
        pb.flag_number(sq, (5,))
    d3 = pb.simplex(3)
    assert pb.flag_number(d3, (0, 1, 2)) == 24
    ci2 = pb.cone(pb.cube(2))
    assert pb.flag_number(ci2, (0, 2)) == 16


def test_euler_relation_catalogue(catalogue):
    for name, p in catalogue.items():
        if p.dim < 1:
            continue
        total = sum((-1) ** i * pb.flag_number(p, (i,))
                    for i in range(p.dim))
        assert total == 1 - (-1) ** p.dim, name


def test_eulerian_lattices(catalogue):
    for name, p in catalogue.items():
        assert p.lattice.is_eulerian(), name


def test_simple_polytope_flag_identity():
    for p in (pb.cube(2), pb.cube(3), pb.cube(4), pb.simplex(2),
              pb.simplex(3), pb.simplex(4)):
        assert 2 * pb.flag_number(p, (1,)) == p.dim * pb.flag_number(p, (0,))
    ci2 = pb.cone(pb.cube(2))
    assert 2 * pb.flag_number(ci2, (1,)) != ci2.dim * pb.flag_number(ci2, (0,))


def test_bipyramid_cone_exchange_lemma():
    """Exchanging the two outermost operators changes flag numbers over the
    sparse index sets only in the coordinates containing n-2, and there by
    the flag number of the base."""
    from polyqsym.transforms import sparse_index_sets
    bases = [pb.empty(), pb.point(), pb.segment(), pb.simplex(2),
             pb.cube(2), pb.simplex(3), pb.cube(3)]
    for p in bases:
        n = p.dim + 2
        bcp = pb.bipyramid(pb.cone(p))
        cbp = pb.cone(pb.bipyramid(p))
        for s in sparse_index_sets(n):
            lhs = pb.flag_number(bcp, s)
            rhs = pb.flag_number(cbp, s)
            if n - 2 in s:
                rest = tuple(x for x in s if x != n - 2)
                rhs += pb.flag_number(p, rest)
            assert lhs == rhs, (p, s)


def test_dual_flag_reversal(catalogue):
    for p in (pb.cube(3), pb.cone(pb.cube(2)), pb.cell24()):
        n = p.dim
        dp = pb.dual(p)
        for k in range(n + 1):
            for s in itertools.combinations(range(n), k):
                mirrored = tuple(sorted(n - 1 - a for a in s))
                assert pb.flag_number(dp, s) == pb.flag_number(p, mirrored)


def test_registry_dedup():
    a = pb.product(pb.segment(), pb.segment())
    b = pb.bipyramid(pb.segment())
    assert a is b  # same canonical object


def test_unique_factorization_extensional():
    gens = [pb.segment(), pb.simplex(2), pb.cube(2), pb.polygon(5)]
    prods = {}
    for i, p in enumerate(gens):
        for j, q in enumerate(gens):
            if i <= j:
                prods[(i, j)] = pb.product(p, q).key
    items = list(prods.items())
    for (pair1, k1) in items:
        for (pair2, k2) in items:
            assert (k1 == k2) == (pair1 == pair2)
    joins = {}
    for i, p in enumerate(gens):
        for j, q in enumerate(gens):
            if i <= j:
                joins[(i, j)] = pb.join(p, q).key
    items = list(joins.items())
    for (pair1, k1) in items:
        for (pair2, k2) in items:
            assert (k1 == k2) == (pair1 == pair2)


def test_concurrent_construction_is_consistent(empty_store):
    """Threads racing on an empty store agree on the registered object:
    every store insert is one `setdefault`, so no lock is needed.  Two
    prisms race, and so do the octahedron and the stacked bipyramid, two
    types of one dim and f-vector."""
    import sys
    import threading
    results = [[] for _ in range(8)]
    makers = [lambda: pb.product(pb.polygon(5), pb.segment()),
              lambda: pb.product(pb.polygon(6), pb.segment()),
              lambda: pb.from_incidence(_cross_facets(3)),
              lambda: pb.from_incidence(STACKED_BIPYRAMID)]

    def worker(i):
        p = makers[i % 4]()
        results[i].extend((p, p.key, pb.flag_number(p, (0, 1))))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(8):
        assert results[i][0] is results[i % 4][0]
        assert results[i][1:] == results[i % 4][1:]
        assert pb.canonical(results[i][0]) is results[i][0]
    octahedron, stacked = results[2][0], results[3][0]
    assert octahedron.invariant == stacked.invariant
    assert octahedron.key != stacked.key
    assert pb.cross(3) is octahedron


def _relabelled(rng, lat):
    perm = list(range(lat.n))
    rng.shuffle(perm)
    return relabel(lat, perm)


def _faces_and_quotients(lattices):
    """The lattices of every face and quotient of each face lattice, cut
    out with `GradedPoset.interval` so that no polytope key is involved."""
    out = []
    for lat in lattices:
        for x in range(lat.n):
            out += [lat.interval(lat.bottom, x), lat.interval(x, lat.top)]
    return out


def test_incidence_key_matches_lattice_key(catalogue, monkeypatch):
    """Oracle for the key: two keys are equal exactly when the whole-lattice
    oracle keys are, on the catalogue, polygons, simplices and their
    duals, every face and quotient of the catalogue and random
    constructions, each also under a random relabelling; polytopes of dim
    <= 2 and simplices are keyed with no canonical-labeling search."""
    rng = random.Random(7)
    lattices = [pb.empty().lattice] + [p.lattice for p in catalogue.values()]
    shapes = ([pb.polygon(m) for m in range(3, 13)]
              + [pb.simplex(n) for n in range(7)])
    lattices += [p.lattice for p in shapes]
    lattices += [p.lattice.dual() for p in shapes]
    faces = _faces_and_quotients(p.lattice for p in catalogue.values())
    # one lattice for each labelled face type keeps the run short
    lattices += list({(f.ranks, f.covers): f for f in faces}.values())
    lattices += random_lattices(rng, 60)
    lattices += [_relabelled(rng, lat) for lat in lattices]
    real = GradedPoset.canonical_key
    searched = []
    monkeypatch.setattr(GradedPoset, "canonical_key",
                        lambda lat: searched.append(lat) or real(lat))
    by_key, by_full, by_counts = {}, {}, {}
    unsearched = set()
    for lat in lattices:
        del searched[:]
        poly = pb.Polytope(lat)
        key = poly.key
        if not searched:
            unsearched.add(key)
        if poly.dim <= 2 or poly.vertex_count == poly.dim + 1:
            assert not searched, poly
        full = canonical_key_oracle(lat)
        assert by_key.setdefault(key, full) == full
        assert by_full.setdefault(full, key) == key
        counts = tuple(len(lat.elements_of_rank(r))
                       for r in range(lat.height + 1))
        by_counts.setdefault(counts, set()).add(key)
    # types that no face count tells apart are among them
    assert sum(len(keys) > 1 for keys in by_counts.values()) >= 3
    assert {pb.polygon(6).key, pb.simplex(5).key} <= unsearched


def _cycle_union(lengths):
    """Bottom, the vertices, the edges and top of disjoint cycles of the
    given lengths.  Every vertex and every edge has two covers, so
    refinement alone splits no rank, though cycles of different lengths lie
    in different orbits: only the search tells them apart."""
    ranks, covers = [0], []
    for m in lengths:
        first = len(ranks)
        ranks += [1] * m + [2] * m
        for i in range(m):
            covers += [(0, first + i), (first + i, first + m + i),
                       (first + (i + 1) % m, first + m + i)]
    top = len(ranks)
    covers += [(x, top) for x in range(top) if ranks[x] == 2]
    return GradedPoset(ranks + [3], covers)


def test_canonical_key_matches_oracle(catalogue):
    """Oracle for `GradedPoset.canonical_key`: two posets get equal keys
    exactly when `canonical_key_oracle` gives them equal keys.  The pool is
    the catalogue, 80 random products, joins, duals and B/C words, every
    face and quotient of those, the vertex-facet incidences of all of them,
    random graded posets and unions of cycles; each poset also under a
    random relabelling, and dualized under another."""
    rng = random.Random(17)
    lattices = ([p.lattice for p in catalogue.values()]
                + random_lattices(rng, 80))
    lattices += _faces_and_quotients(lattices)
    lattices = list({(lat.ranks, lat.covers): lat
                     for lat in lattices}.values())
    posets = lattices + [pb._incidence_poset(lat) for lat in lattices
                         if lat.height >= 3]
    posets += [random_graded_poset(rng, [rng.randint(1, 4) for _ in
                                         range(rng.randint(1, 3))])
               for _ in range(100)]
    posets += [_cycle_union(lengths) for lengths in
               ((9,), (6, 3), (5, 4), (3, 3, 3), (3, 4, 5), (6, 6), (4, 4, 4),
                (3, 3, 6), (12,))]
    by_key, by_oracle = {}, {}
    for p in posets:
        for case in (p, _relabelled(rng, p), _relabelled(rng, p.dual())):
            key, oracle = case.canonical_key(), canonical_key_oracle(case)
            assert by_key.setdefault(key, oracle) == oracle
            assert by_oracle.setdefault(oracle, key) == key
    assert len(by_key) > 150


def test_key_runs_one_route(monkeypatch):
    """Above dim 1 the key never searches the whole face lattice."""
    real = GradedPoset.canonical_key

    def guarded(lat):
        if lat.height >= 4:
            raise AssertionError("whole face lattice keyed")
        return real(lat)
    monkeypatch.setattr(GradedPoset, "canonical_key", guarded)
    for p in (pb.cube(3), pb.cell24()):
        fresh = GradedPoset(p.lattice.ranks, p.lattice.covers)
        assert pb.Polytope(fresh).key == p.key


def _rank_profile(lat):
    return [len(lat.elements_of_rank(r)) for r in range(lat.height + 1)]


def _assert_same_lattice(new, old):
    assert new.n == old.n
    assert _rank_profile(new) == _rank_profile(old)
    assert pb.Polytope(new).key == pb.Polytope(old).key


def test_face_product_matches_routes(catalogue):
    """Oracle for the diamond products of face lattices: with `drop`
    "top" and "bottom", `poset_product` builds the lattices that the
    bipyramid and product routes of `oracles` build, by element count,
    rank profile and key, on every pair of catalogue lattices up to dim
    3, the random pool, the folded prism and the point; the bipyramid of
    a point is the segment, and a product with a point keeps the type."""
    small = list({p.key: p.lattice for p in catalogue.values()
                  if 0 <= p.dim <= 3}.values())
    lattices = small + random_lattices(random.Random(5), 30)
    lattices.append(pb.from_incidence(FOLDED_PRISM).lattice)
    seg = pb.segment().lattice
    for a in lattices:
        _assert_same_lattice(poset_product(a, seg, drop="top"),
                             bipyramid_lattice_route(a))
    for a, b in itertools.product(small, repeat=2):
        _assert_same_lattice(poset_product(a, b, drop="bottom"),
                             product_lattice_route(a, b))
    pt = pb.point().lattice
    for a in lattices:
        _assert_same_lattice(poset_product(a, pt, drop="bottom"),
                             product_lattice_route(a, pt))
        _assert_same_lattice(poset_product(pt, a, drop="bottom"), a)
    _assert_same_lattice(poset_product(pt, seg, drop="top"), seg)
    _assert_same_lattice(bipyramid_lattice_route(pt), seg)
    assert pb.bipyramid(pb.point()) is pb.segment()
    assert pb.product(pb.point(), pb.cube(3)) is pb.cube(3)


def test_f_vector_matches_flag_numbers(catalogue):
    """The face counts read off the ranks are the flag numbers f_{i}."""
    for name, p in catalogue.items():
        assert pb.f_vector(p) == [pb.flag_number(p, (i,))
                                  for i in range(max(p.dim, 0))], name


def _all_flag_sets(p):
    dims = range(p.dim)
    return [s for k in range(max(p.dim, 0) + 1)
            for s in itertools.combinations(dims, k)]


def test_flag_vector_is_memoized_per_type(catalogue, empty_store,
                                          monkeypatch):
    """The flag vector equals the brute-force count on every set on the
    first call, on a second call, which walks the lattice no more, and
    after the store is cleared."""
    polys = flag_test_types(catalogue)
    wants = [{s: brute_flag_number(p, s) for s in _all_flag_sets(p)}
             for p in polys]
    assert wants[-2] == wants[-1] == {(): 1}
    assert [dict(pb.flag_vector(p)) for p in polys] == wants
    with monkeypatch.context() as patched:
        def rewalk(lat):
            raise AssertionError("flag vector computed again")
        patched.setattr(pb, "_flag_walk", rewalk)
        assert [dict(pb.flag_vector(p)) for p in polys] == wants
    empty_store()
    assert [dict(pb.flag_vector(p)) for p in polys] == wants


def test_flag_walk_matches_chain_count_route(catalogue):
    """The depth-first walk gives every flag set's chain count, in sorted
    order, on every catalogue type, random non-canonical lattices, the
    folded prism, the empty polytope and the point."""
    for p in flag_test_types(catalogue):
        sets = sorted(_all_flag_sets(p))
        assert list(pb._flag_walk(p.lattice)) == [
            (s, chain_count_route(p.lattice, s)) for s in sets], p


def test_flag_vector_is_read_only(catalogue, empty_store):
    for p in flag_test_types(catalogue):
        flags = pb.flag_vector(p)
        want = dict(flags)
        with pytest.raises(TypeError):
            flags[()] = 0
        with pytest.raises(TypeError):
            del flags[()]
        assert dict(pb.flag_vector(p)) == want


def _assert_identical(lat, want):
    """The same poset element by element: ranks, strata, both order masks
    and the cover pairs, with each element's up and down covers, which
    the canonical key reads."""
    assert (lat.n, lat.ranks, lat.height, lat.bottom, lat.top) == \
        (want.n, want.ranks, want.height, want.bottom, want.top)
    for r in range(-1, lat.height + 2):
        assert lat.elements_of_rank(r) == want.elements_of_rank(r)
        assert lat.rank_mask(r) == want.rank_mask(r)
    for x in range(lat.n):
        assert lat.downset_mask(x) == want.downset_mask(x)
        assert lat.upset_mask(x) == want.upset_mask(x)
    assert lat.covers == want.covers
    assert lat._up == want._up and lat._dn == want._dn


def test_mask_built_constructions_match_cover_routes(catalogue):
    """Oracle for the constructions that pass masks: the product, the
    join, the bipyramid, the dual, every interval and the boolean lattice
    of the catalogue types and their faces are, element by element, the
    poset that the validating constructor builds from their ranks and
    covers, and the one that the cover route of `oracles` builds."""
    types = list({p.key: p.lattice for p in catalogue.values()}.values())
    faces = {(f.ranks, f.covers): f for lat in types
             for f in map(lat.interval, [lat.bottom] * lat.n, range(lat.n))}
    pool = types + [f for f in faces.values() if f not in types]
    small = [lat for lat in pool if 2 <= lat.n <= 16]
    seg = pb.segment().lattice
    cases = [(boolean_lattice(n), boolean_lattice_cover_route(n))
             for n in range(7)]
    for lat in pool:
        cases.append((lat.dual(), dual_cover_route(lat)))
        cases += [(lat.interval(x, y), interval_cover_route(lat, x, y))
                  for x in (lat.bottom, *lat.elements_of_rank(1))
                  for y in (lat.top, *lat.elements_of_rank(lat.height - 1))
                  if lat.leq(x, y)]
        if lat.n >= 2:
            cases.append((poset_product(lat, seg, drop="top"),
                          face_product_cover_route(lat, seg, "top")))
    for a, b in itertools.product(small, repeat=2):
        cases.append((poset_product(a, b), poset_product_cover_route(a, b)))
        cases.append((poset_product(a, b, drop="bottom"),
                      face_product_cover_route(a, b, "bottom")))
    assert len(cases) > 1000
    for lat, want in cases:
        _assert_identical(lat, GradedPoset(lat.ranks, lat.covers))
        _assert_identical(lat, want)


def test_polytopes_leaves_the_order_masks_to_posets():
    """The mask format lives in `posets` alone: `polytopes` reads no mask
    field of a poset and hands none to one."""
    source = inspect.getsource(pb)
    for name in ("_upmask", "_dnmask", "_rankmask", "_hasse", "order="):
        assert name not in source, name


def test_each_construction_builds_one_poset(monkeypatch, empty_store):
    """The benchmark counts lattice elements at `GradedPoset.__init__`:
    each construction, the mask-built ones too, makes exactly one call,
    and the poset it returns is the one that call built."""
    cube, seg = pb.cube(3), pb.segment()
    lat = cube.lattice
    vertex = lat.elements_of_rank(1)[0]
    prism = pb.product(pb.polygon(3), seg)
    built = []
    real_init = GradedPoset.__init__

    def init(poset, *args, **kw):
        real_init(poset, *args, **kw)
        built.append(poset)
    monkeypatch.setattr(GradedPoset, "__init__", init)
    cases = {
        "boolean_lattice": lambda: boolean_lattice(3),
        "poset_product": lambda: poset_product(lat, seg.lattice),
        "dual": lat.dual,
        "interval": lambda: lat.interval(vertex, lat.top),
        "poset_product bottom": lambda: poset_product(
            lat, seg.lattice, drop="bottom"),
        "poset_product top": lambda: poset_product(
            lat, seg.lattice, drop="top"),
        "GradedPoset": lambda: GradedPoset(lat.ranks, lat.covers),
        "_incidence_poset": lambda: pb._incidence_poset(lat),
        "product": lambda: pb.product(cube, prism).lattice,
        "join": lambda: pb.join(cube, prism).lattice,
        "bipyramid": lambda: pb.bipyramid(prism).lattice,
        "dual of a type": lambda: pb.dual(prism).lattice,
        "simplex": lambda: pb.simplex(5).lattice,
        "polygon": lambda: pb.polygon(9).lattice,
        "from_incidence": lambda: pb.from_incidence(
            [{0, 1, 2, 3}, {0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {3, 0, 4}]
        ).lattice,
    }
    for name, make in cases.items():
        del built[:]
        result = make()
        assert len(built) == 1 and built[0] is result, name


def test_constructions_are_memoized(monkeypatch, empty_store):
    built, intervals = [], []
    real_product, real_interval = pb.poset_product, GradedPoset.interval
    monkeypatch.setattr(pb, "poset_product",
                        lambda a, b, **kw: built.append(1)
                        or real_product(a, b, **kw))
    monkeypatch.setattr(GradedPoset, "interval",
                        lambda lat, x, y: intervals.append(1)
                        or real_interval(lat, x, y))
    assert pb.empty() is pb.empty() and pb.point() is pb.point()
    seg = pb.segment()
    assert pb.segment() is seg
    sq = pb.product(seg, seg)
    assert pb.product(seg, seg) is sq and len(built) == 1
    tri = pb.from_incidence([{0, 1}, {1, 2}, {0, 2}])
    prism = pb.product(tri, seg)
    assert pb.product(tri, seg) is prism
    octahedron = pb.bipyramid(sq)
    assert pb.bipyramid(sq) is octahedron and len(built) == 3
    # cross(3) builds the bipyramids over the point and the segment, and
    # finds the one over the square
    assert pb.cross(3) is octahedron and len(built) == 5
    assert {p for request, p in store.memo.items()
            if request[0] in ("prod", "join", "bipyramid", "dual")} \
        == {seg, sq, prism, octahedron}
    # faces and quotients have no memo, but none of the prism's is cut
    # out: [bottom, top] is the prism, and every other one is a type that
    # its counts fix (empty, point, segment, polygon), found registered
    lat = prism.lattice
    before = len(intervals)
    firsts = [pb.face_as_polytope(prism, x) for x in range(lat.n)]
    quotients = [pb.face_polytope(prism, x) for x in range(lat.n)]
    assert len(intervals) == before
    assert firsts[lat.top] is prism and quotients[lat.bottom] is prism
    assert pb.polygon(3) is tri and pb.polygon(4) is sq
    assert [firsts[x] for x in lat.elements_of_rank(3)].count(tri) == 2
    assert {firsts[x] for x in lat.elements_of_rank(3)} == {tri, sq}
    short = (pb.empty(), pb.point(), pb.segment())
    assert all(firsts[x] is short[lat.ranks[x]]
               for x in range(lat.n) if lat.ranks[x] <= 2)
    assert all(quotients[x] is tri for x in lat.elements_of_rank(1))
    assert all(quotients[x] is short[lat.height - lat.ranks[x]]
               for x in range(lat.n) if lat.ranks[x] >= 2)
    # a type that its counts do not fix is cut out on every request: the
    # facets of prism x segment are four prisms and three cubes
    big, cube = pb.product(prism, seg), pb.cube(3)
    facets = big.lattice.elements_of_rank(big.lattice.height - 1)
    for _ in range(2):
        before = len(intervals)
        assert {pb.face_as_polytope(big, x) for x in facets} == {prism, cube}
        assert len(intervals) - before == 7
    # in an empty store the first face of each type is cut out and
    # registered, and the others are found: the empty face, a vertex, an
    # edge, a triangle and a square
    empty_store()
    before = len(intervals)
    again = [pb.face_as_polytope(prism, x) for x in range(lat.n)]
    assert len(intervals) - before == 5
    assert again == firsts
    assert all(pb.canonical(q) is q for q in again)


def test_registry_classes_are_key_classes(empty_store):
    """Oracle for the registry: over the `lattice-stream` expressions of
    seeds 1-3, shuffled and with no `store.clear()` between them, the
    types that `canonical` hands out fall into the same classes as under
    the registry by key, and the same as their keys."""
    exprs = lattice_stream_exprs((1, 2, 3))
    random.Random(5).shuffle(exprs)
    polys = [next(iter(parse_expression(e).terms)) for e in exprs]
    oracle = {}
    by_oracle = [register_by_key(p, oracle) for p in polys]

    def classes(items, label):
        first = {}
        return [first.setdefault(label(x), i) for i, x in enumerate(items)]
    assert classes(polys, id) == classes(by_oracle, id) \
        == classes(polys, lambda p: p.key)
    assert len(set(map(id, polys))) == len(oracle)


def test_products_and_joins_have_the_pairwise_key(empty_store):
    """Every product and join, however bracketed and ordered, is the type
    of the lattice built pair by pair with `poset_product`, with `drop`
    "bottom" for the product: over the lattice-stream operands of seeds
    1-2 and over random 3-factor products and joins of a small pool."""
    routes = {"prod": (pb.product,
                       lambda a, b: poset_product(a, b, drop="bottom")),
              "join": (pb.join, poset_product)}

    def pairwise(op, *polys):
        lat = polys[0].lattice
        for q in polys[1:]:
            lat = routes[op][1](lat, q.lattice)
        return pb.Polytope(lat)
    cases = []
    for e in lattice_stream_exprs((1, 2)):
        for op in routes:
            if e.startswith(op + "("):
                p = next(iter(parse_expression(e).terms))
                a, b = (next(iter(parse_expression(part).terms))
                        for part in _operands(e[len(op) + 1:-1]))
                cases.append((p, pairwise(op, a, b)))
    pool = [pb.point(), pb.segment(), pb.simplex(2), pb.polygon(4),
            pb.polygon(5), pb.cone(pb.polygon(4))]
    rng = random.Random(2)
    for _ in range(40):
        op, (a, b, c) = rng.choice(list(routes)), rng.sample(pool, 3)
        make = routes[op][0]
        left, right = make(make(a, b), c), make(a, make(c, b))
        assert left is right
        cases.append((left, pairwise(op, a, b, c)))
    assert len(cases) > 60
    for p, want in cases:
        assert p.key == want.key


def _operands(text):
    """The two comma-separated operands of an operator's argument text."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            return text[:i], text[i + 1:]
    raise ValueError(text)


def test_second_routes_to_a_type_compute_no_key(monkeypatch, empty_store):
    """Other routes to a type hit the memo before anything is keyed: ×
    and join by the multiset of their factors, and dual as an involution;
    a product with the point or a join with the empty polytope is the
    other operand, with no lattice built."""
    pent, seg, tri, sq = (pb.polygon(5), pb.segment(), pb.simplex(2),
                          pb.polygon(4))
    p, q = pb.product(pent, seg), pb.cone(sq)
    pq = pb.product(p, q)
    three = pb.product(pb.product(pent, tri), seg)
    joined = pb.join(pb.join(pent, tri), seg)
    x = pb.product(pent, tri)
    built = []
    real_init = GradedPoset.__init__
    monkeypatch.setattr(GradedPoset, "__init__", lambda lat, *args, **kw: (
        built.append(1), real_init(lat, *args, **kw))[1])

    def no_key(poset):
        raise AssertionError("a canonical key was computed")
    monkeypatch.setattr(GradedPoset, "canonical_key", no_key)
    assert pb.product(q, p) is pq
    assert pb.product(pent, pb.product(tri, seg)) is three
    assert pb.product(pb.product(seg, pent), tri) is three
    assert pb.join(pent, pb.join(tri, seg)) is joined
    assert pb.join(pb.join(seg, pent), tri) is joined
    assert pb.dual(pb.dual(x)) is x
    pt, empty = pb.point(), pb.empty()
    before = len(built)
    assert pb.product(pt, x) is x and pb.product(x, pt) is x
    assert pb.product(pt, pt) is pt
    assert pb.join(empty, x) is x and pb.join(x, empty) is x
    assert pb.join(empty, empty) is empty
    assert len(built) == before


def test_equal_invariants_register_two_types(empty_store):
    """The octahedron and the stacked triangular bipyramid share dim and
    f-vector, so the second to come keys both; each is its own type, in
    either order, and each is found again by a second route.  The dual of
    the bipyramid shares dim and f-vector with the cube."""
    relabelled = [{v.upper() for v in f} for f in STACKED_BIPYRAMID[::-1]]
    for stacked_first in (False, True):
        empty_store()
        if stacked_first:
            stacked = pb.from_incidence(STACKED_BIPYRAMID)
        octa = pb.cross(3)
        if not stacked_first:
            stacked = pb.from_incidence(STACKED_BIPYRAMID)
        assert pb.f_vector(stacked) == pb.f_vector(octa) == [6, 12, 8]
        assert stacked is not octa and stacked != octa
        # the vertex degrees: x has 3 neighbours and a, b 5
        lat = stacked.lattice
        degrees = sorted(len([e for e in lat.elements_of_rank(2)
                              if lat.leq(v, e)])
                         for v in lat.elements_of_rank(1))
        assert degrees == [3, 3, 4, 4, 5, 5]
        assert pb.from_incidence(_cross_facets(3)) is octa
        assert pb.bipyramid(pb.cube(2)) is octa
        assert pb.from_incidence(relabelled) is stacked
        dual = pb.dual(stacked)
        assert dual.invariant == pb.cube(3).invariant and dual != pb.cube(3)
        assert pb.dual(dual) is stacked
        # each type is registered once, under its invariant or its key
        registered = {id(p): p for p in store.types.values()}.values()
        assert len({p.key for p in registered}) == len(registered)


# Facet vertex sets of a square pyramid, a triangular prism, an octahedron
# and a 4-simplex, read through `from_incidence`.
INCIDENCES = (
    [{0, 1, 2, 3}] + [{4, i, (i + 1) % 4} for i in range(4)],
    [{0, 1, 2}, {3, 4, 5}, {0, 1, 4, 3}, {1, 2, 5, 4}, {2, 0, 3, 5}],
    FOLDED_PRISM,
    [{2 * i + bit for i, bit in enumerate(bits)}
     for bits in itertools.product((0, 1), repeat=3)],
    [set(range(5)) - {i} for i in range(5)],
)


def _cross_facets(n):
    """The facet vertex sets of the n-cross-polytope, its vertices 2i and
    2i + 1 the two on axis i."""
    return [{2 * i + bit for i, bit in enumerate(bits)}
            for bits in itertools.product((0, 1), repeat=n)]


def _lattice_incidence(lat):
    """The facet vertex sets of a face lattice of height >= 2."""
    return [{a for a in lat.elements_of_rank(1) if lat.leq(a, c)}
            for c in lat.elements_of_rank(lat.height - 1)]


def _perturbations(rng, facets):
    """A vertex dropped from one facet, a vertex (maybe a new one) added to
    one facet, and a random facet appended."""
    vertices = sorted(set().union(*facets))
    labels = vertices + [vertices[-1] + 1]
    dropped = [set(f) for f in facets]
    i = rng.randrange(len(facets))
    dropped[i].discard(rng.choice(sorted(dropped[i])))
    added = [set(f) for f in facets]
    i = rng.randrange(len(facets))
    added[i].add(rng.choice([v for v in labels if v not in added[i]]))
    appended = [set(f) for f in facets]
    appended.append(set(rng.sample(labels, rng.randint(1, len(vertices)))))
    return [dropped, added, appended]


def _incidence_outcome(build, facets):
    """The rank profile and key of the polytope built, or the message of
    the ValueError raised."""
    try:
        p = build(facets)
    except ValueError as exc:
        return str(exc)
    lat = p.lattice
    return ([len(lat.elements_of_rank(r)) for r in range(lat.height + 1)],
            p.key)


def _not_a_facet_list(facets):
    """The refusal of `from_incidence` for a list with an empty facet, a
    facet of every vertex or a repeated facet, or None."""
    sets = [frozenset(f) for f in facets]
    for bad, what in ((frozenset() in sets, "an empty facet"),
                      (frozenset().union(*sets) in sets,
                       "a facet contains every vertex"),
                      (len(set(sets)) < len(sets), "a repeated facet")):
        if bad:
            return "not a valid polytope incidence: " + what
    return None


def _route_comparison_inputs(catalogue):
    """The incidences of the route comparison: the small ones, the cubes
    and cross-polytopes of dims 2..5, the 24-cell, the incidence of every
    catalogue and random lattice of dim >= 1, and seeded perturbations of
    each."""
    bases = list(INCIDENCES) + [pb._cell24_incidence()]
    bases += [facets(n) for n in range(2, 6)
              for facets in (_cube_facets, _cross_facets)]
    lattices = [p.lattice for p in catalogue.values()]
    lattices += random_lattices(random.Random(3), 60)
    bases += [_lattice_incidence(lat) for lat in lattices if lat.height >= 2]
    rng = random.Random(7)
    return [variant for facets in bases
            for variant in [facets] + _perturbations(rng, facets)]


def test_from_incidence_matches_closure_route(catalogue):
    """Oracle for the top-down pass: on the small incidences (the folded
    prism among them), the cubes and cross-polytopes of dims 2..5, the
    24-cell, the incidence of every catalogue and random lattice of dim
    >= 1, and seeded perturbations of each, the pass and the intersection
    closure give the same rank profile and key, or refuse with the same
    message; where the closure has fewer vertices than labels, the pass
    refuses the labels, and a list that is not a facet list, which the
    closure reads as it can, is refused after the containment check."""
    inputs = _route_comparison_inputs(catalogue)
    outcomes = [_incidence_outcome(pb.from_incidence, facets)
                for facets in inputs]
    merged = improper = 0
    for facets, outcome in zip(inputs, outcomes):
        want = _incidence_outcome(incidence_lattice_route, facets)
        labels = len(set().union(*facets))
        refusal = _not_a_facet_list(facets)
        if refusal and want not in ("need at least one facet",
                                    "one facet contains another"):
            improper += 1
            want = refusal
        elif not isinstance(want, str) and want[0][1] < labels:
            # the closure route merges labels that are not vertices
            merged += 1
            want = ("not a valid polytope incidence: a label is not a vertex"
                    " (%d labels, %d vertices)" % (labels, want[0][1]))
        assert outcome == want, facets
    refusals = {o for o in outcomes if isinstance(o, str)}
    assert len(refusals) >= 3 and merged and improper, (refusals, merged)


def test_face_lattice_checks(catalogue, monkeypatch):
    """The three checks that `from_incidence` implies by construction hold
    on the lattices it builds: from the incidence of every catalogue type
    and of each of its faces and quotients of dim >= 1, and from every
    input of the route comparison that it accepts.  They hold on the
    catalogue's own lattices too, and refuse the two CW spheres, which are
    Eulerian and separated but not rebuilt by their incidences."""
    types = {}
    for p in catalogue.values():
        for x in range(p.lattice.n):
            for q in (p, pb.face_as_polytope(p, x), pb.face_polytope(p, x)):
                types[id(q)] = q
    inputs = [_lattice_incidence(q.lattice) for q in types.values()
              if q.dim >= 1]
    inputs += _route_comparison_inputs(catalogue)
    # the lattice that the pass builds, not the type registered before
    monkeypatch.setattr(pb, "canonical", lambda p: p)
    built = 0
    for facets in inputs:
        try:
            lat = pb.from_incidence(facets).lattice
        except ValueError:
            continue
        built += 1
        assert faces_are_separated(lat), facets
        assert order_is_atom_inclusion(lat), facets
        assert is_facet_closure(lat), facets
    assert built > 100, built
    for p in [pb.empty()] + list(catalogue.values()):
        assert checked_face_lattice(p.lattice) is p.lattice, p
    diagonal = cw_sphere_lattice(*DIAGONAL_SPHERE)
    merged = cw_sphere_lattice(*MERGED_OCTAHEDRON)
    for lat in (diagonal, merged):
        assert lat.is_eulerian() and faces_are_separated(lat)
        with pytest.raises(PosetError, match="not a polytope face lattice"):
            checked_face_lattice(lat)
    assert not order_is_atom_inclusion(diagonal)
    assert order_is_atom_inclusion(merged)
    assert not is_facet_closure(merged)


def _assert_intervals_match_cut_route(polys):
    for p in polys:
        lat = p.lattice
        for x in range(lat.n):
            above = lat.upset_mask(x)
            for y in range(lat.n):
                if above >> y & 1:
                    assert pb.interval_polytope(p, x, y) is \
                        interval_polytope_cut_route(p, x, y), (p, x, y)


def test_interval_polytope_matches_cut_route(catalogue, empty_store):
    """Oracle for faces and quotients: every interval [x, y] of the
    catalogue, of `from_incidence` lattices and of random constructions
    (unregistered) is the type that cutting it out registers, first in an
    empty store, where each type is registered when first met, and again
    once every type is registered."""
    polys = list(catalogue.values())
    polys += [pb.from_incidence(facets) for facets in INCIDENCES]
    polys += [pb.Polytope(lat)
              for lat in random_lattices(random.Random(11), 40)]
    empty_store()
    _assert_intervals_match_cut_route(polys)
    registered = dict(store.types)
    _assert_intervals_match_cut_route(polys)
    assert store.types == registered


def test_interval_polytope_bounds(empty_store):
    """x <= y is required, and [bottom, top] of an unregistered Polytope is
    that Polytope, registered."""
    sq = pb.cube(2)
    lat = sq.lattice
    v = lat.elements_of_rank(1)[0]
    edge = next(e for e in lat.elements_of_rank(2) if not lat.leq(v, e))
    for x, y in ((v, edge), (lat.top, lat.bottom), (edge, v)):
        with pytest.raises(PosetError):
            pb.interval_polytope(sq, x, y)
    lat = poset_product(pb.simplex(2).lattice, pb.segment().lattice,
                        drop="bottom")
    prism = pb.Polytope(lat)
    assert prism not in store.types.values()
    assert pb.interval_polytope(prism, lat.bottom, lat.top) is prism
    assert store.types[prism.invariant] is prism
