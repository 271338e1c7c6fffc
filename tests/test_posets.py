import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyqsym.posets import (GradedPoset, PosetError, boolean_lattice,
                             poset_product)
from conftest import random_graded_poset
from oracles import chain_poset, one_element_poset, poset_coproduct, relabel


def test_validation_rejects_bad_input():
    with pytest.raises(PosetError):
        GradedPoset([], [])
    with pytest.raises(PosetError):
        GradedPoset([0, 0], [])  # two bottoms, no covers
    with pytest.raises(PosetError):
        GradedPoset([0, 2], [(0, 1)])  # cover jumps two ranks
    with pytest.raises(PosetError):
        GradedPoset([0, 1, 1], [(0, 1)])  # dangling element
    # entries that int() would truncate or parse, and bools, are no
    # integers
    for ranks, covers in (([0, 1.9], [(0, 1)]), ([0, 1], [(0.7, 1)]),
                          ([0, 1.9], [(0.7, 1.2)]), (["0", "1"], [(0, 1)]),
                          ([0, 1], [("0", "1")]), ([False, True], [(0, 1)]),
                          ([0, 1], [(False, True)])):
        with pytest.raises(PosetError):
            GradedPoset(ranks, covers)
    # a diamond product drops an element of each factor, and only the
    # bottom or the top
    with pytest.raises(PosetError):
        poset_product(one_element_poset(), boolean_lattice(1), drop="top")
    with pytest.raises(PosetError):
        poset_product(boolean_lattice(1), boolean_lattice(1), drop="middle")


def test_validated_covers_read_back_from_the_masks():
    """The Hasse diagram of validated input is derived from the masks: the
    cover pairs given come back sorted and once each, and each element's
    up covers ascending."""
    covers = [(2, 3), (0, 2), (1, 3), (0, 1), (2, 3), (0, 1), (1, 3)]
    p = GradedPoset([0, 1, 1, 2], covers)
    assert p.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert [p.up_covers(x) for x in range(4)] == [(1, 2), (3,), (3,), ()]
    b2 = boolean_lattice(2)
    shuffled = list(b2.covers) * 2
    random.Random(1).shuffle(shuffled)
    q = GradedPoset(b2.ranks, shuffled)
    assert q.covers == b2.covers
    assert [q.up_covers(x) for x in range(4)] == \
        [b2.up_covers(x) for x in range(4)]


def test_interval_identity_and_degenerate():
    b2 = boolean_lattice(2)
    assert b2.interval(b2.bottom, b2.top).canonical_key() == b2.canonical_key()
    single = b2.interval(1, 1)
    assert single.n == 1
    # vertex up to top in the 2-cube lattice is a 2-chain
    v = b2.elements_of_rank(1)[0]
    assert b2.interval(v, b2.top).canonical_key() == \
        boolean_lattice(1).canonical_key()


def test_interval_requires_comparable():
    b2 = boolean_lattice(2)
    v, w = b2.elements_of_rank(1)
    with pytest.raises(PosetError):
        b2.interval(v, w)


def test_interval_rank():
    b4 = boolean_lattice(4)
    v = b4.elements_of_rank(1)[0]
    assert b4.interval(v, b4.top).height == 3


def test_dual_involution_and_chain():
    c = chain_poset(2)
    assert c.dual().canonical_key() == c.canonical_key()
    b3 = boolean_lattice(3)
    assert b3.dual().dual().canonical_key() == b3.canonical_key()
    assert b3.dual().canonical_key() == b3.canonical_key()


def test_product_unit_and_simplices():
    b1 = boolean_lattice(1)
    unit = one_element_poset()
    assert poset_product(b1, unit).canonical_key() == b1.canonical_key()
    assert poset_product(b1, b1).canonical_key() == \
        boolean_lattice(2).canonical_key()
    # join of segments is the 3-simplex on the lattice level
    b2 = boolean_lattice(2)
    assert poset_product(b2, b2).canonical_key() == \
        boolean_lattice(4).canonical_key()


def test_product_commutative_associative_up_to_iso():
    a, b, c = boolean_lattice(1), boolean_lattice(2), chain_poset(2)
    ab = poset_product(a, b)
    ba = poset_product(b, a)
    assert ab.canonical_key() == ba.canonical_key()
    left = poset_product(poset_product(a, b), c)
    right = poset_product(a, poset_product(b, c))
    assert left.canonical_key() == right.canonical_key()


def test_coproduct_counts_and_b1():
    unit = one_element_poset()
    pairs = poset_coproduct(unit)
    assert len(pairs) == 1 and pairs[0][0].n == 1 and pairs[0][1].n == 1
    b1 = boolean_lattice(1)
    pairs = poset_coproduct(b1)
    keys = sorted((p.canonical_key(), q.canonical_key()) for p, q in pairs)
    u, b = unit.canonical_key(), b1.canonical_key()
    assert keys == sorted([(u, b), (b, u)])


def test_coproduct_b2_grouping():
    b2 = boolean_lattice(2)
    pairs = poset_coproduct(b2)
    assert len(pairs) == b2.n == 4
    from collections import Counter
    cnt = Counter((p.canonical_key(), q.canonical_key()) for p, q in pairs)
    u = one_element_poset().canonical_key()
    b1 = boolean_lattice(1).canonical_key()
    b2k = b2.canonical_key()
    assert cnt[(u, b2k)] == 1 and cnt[(b2k, u)] == 1 and cnt[(b1, b1)] == 2


def test_coproduct_coassociative():
    from collections import Counter
    for poset in (boolean_lattice(2), boolean_lattice(3), chain_poset(3)):
        left = Counter()
        for p, q in poset_coproduct(poset):
            for p1, p2 in poset_coproduct(p):
                left[(p1.canonical_key(), p2.canonical_key(),
                      q.canonical_key())] += 1
        right = Counter()
        for p, q in poset_coproduct(poset):
            for q1, q2 in poset_coproduct(q):
                right[(p.canonical_key(), q1.canonical_key(),
                       q2.canonical_key())] += 1
        assert left == right


def test_eulerian():
    assert boolean_lattice(3).is_eulerian()
    assert not chain_poset(3).is_eulerian()
    assert one_element_poset().is_eulerian()
    assert chain_poset(1).is_eulerian()


def test_eulerian_matches_definition():
    """`is_eulerian` against its definition, summed element by element:
    every interval [x, y] with x < y has as many elements of even rank as
    of odd rank."""
    def by_definition(lat):
        return all(
            sum((-1) ** lat.ranks[z] for z in range(lat.n)
                if lat.leq(x, z) and lat.leq(z, y)) == 0
            for x in range(lat.n) for y in range(lat.n)
            if x != y and lat.leq(x, y))
    rng = random.Random(11)
    posets = [random_graded_poset(rng, [rng.randint(1, 3) for _ in
                                        range(rng.randint(1, 4))])
              for _ in range(400)]
    # every interval from the bottom is Eulerian, but [a3, top] has one
    # element in the middle
    lopsided = GradedPoset([0, 1, 1, 1, 2, 2, 2, 3], [
        (0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (1, 6),
        (3, 6), (4, 7), (5, 7), (6, 7)])
    posets += [boolean_lattice(4), lopsided,
               poset_product(chain_poset(2), boolean_lattice(2))]
    verdicts = [p.is_eulerian() for p in posets]
    assert verdicts == [by_definition(p) for p in posets]
    assert 10 < sum(verdicts) < len(posets) - 10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_canonical_invariant_under_relabeling(n, rng):
    p = boolean_lattice(n)
    perm = list(range(p.n))
    rng.shuffle(perm)
    assert relabel(p, perm).canonical_key() == p.canonical_key()


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.randoms(use_true_random=False))
def test_canonical_distinguishes_polygon_sizes(m, rng):
    from polyqsym.polytopes import polygon
    a = polygon(m).lattice
    b = polygon(m + 1).lattice
    perm = list(range(a.n))
    rng.shuffle(perm)
    assert relabel(a, perm).canonical_key() == a.canonical_key()
    assert a.canonical_key() != b.canonical_key()


def test_canonical_separates_same_profile():
    # triangle vs 2-cube lattices share dimensions but not flags
    from polyqsym.polytopes import cube, simplex
    assert simplex(2).lattice.canonical_key() != \
        cube(2).lattice.canonical_key()
    # BCI vs CBI: five vertices each, distinct lattices
    from polyqsym.polytopes import bipyramid, cone, segment
    bci = bipyramid(cone(segment())).lattice
    cbi = cone(bipyramid(segment())).lattice
    assert bci.canonical_key() != cbi.canonical_key()


def test_random_relabel_of_irregular_poset():
    random.seed(7)
    # a graded poset that is not a lattice: two bottles glued at top/bottom
    ranks = [0, 1, 1, 1, 2]
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    p = GradedPoset(ranks, covers)
    for _ in range(10):
        perm = list(range(p.n))
        random.shuffle(perm)
        assert relabel(p, perm).canonical_key() == p.canonical_key()


def test_relabelled_symmetric_incidences_keep_their_keys():
    """Random relabellings of vertex-facet incidences with large
    automorphism groups keep their keys, and the four types' keys differ.
    A relabelling reorders the candidates of every cell, so the orbit
    pruning meets the symmetric branches in another order."""
    from polyqsym import polytopes as pb
    rng = random.Random(43)
    keys = set()
    for poly in (pb.cube(5), pb.cross(5), pb.cell24(),
                 pb.product(pb.cube(2), pb.cross(3))):
        inc = pb._incidence_poset(poly.lattice)
        key = inc.canonical_key()
        for _ in range(4):
            perm = list(range(inc.n))
            rng.shuffle(perm)
            assert relabel(inc, perm).canonical_key() == key
        keys.add(key)
    assert len(keys) == 4


def _brute_isomorphic(p, q):
    import itertools
    if sorted(p.ranks) != sorted(q.ranks) or len(p.covers) != len(q.covers):
        return False
    strata_p = {}
    strata_q = {}
    for x in range(p.n):
        strata_p.setdefault(p.ranks[x], []).append(x)
    for x in range(q.n):
        strata_q.setdefault(q.ranks[x], []).append(x)
    if {r: len(v) for r, v in strata_p.items()} != \
            {r: len(v) for r, v in strata_q.items()}:
        return False
    ranks_sorted = sorted(strata_p)
    pools = [list(itertools.permutations(strata_q[r])) for r in ranks_sorted]
    qcovers = set(q.covers)
    for assignment in itertools.product(*pools):
        mapping = {}
        for r, perm in zip(ranks_sorted, assignment):
            for src, dst in zip(strata_p[r], perm):
                mapping[src] = dst
        if all((mapping[a], mapping[b]) in qcovers for a, b in p.covers):
            return True
    return False


def test_canonical_key_is_exact_on_random_posets():
    """Equal keys must mean isomorphic, and conversely, on a pool of small
    random graded posets (brute-force bijection search as the oracle)."""
    rng = random.Random(2024)
    pool = []
    for _ in range(18):
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        pool.append(random_graded_poset(rng, widths))
    for i, p in enumerate(pool):
        for q in pool[i + 1:]:
            same_key = p.canonical_key() == q.canonical_key()
            assert same_key == _brute_isomorphic(p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_canonical_key_random_relabel_fuzz(seed):
    rng = random.Random(seed)
    widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    p = random_graded_poset(rng, widths)
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabel(p, perm)
    assert q.canonical_key() == p.canonical_key()
    assert q.dual().canonical_key() == p.dual().canonical_key()


def test_rank_lists_match_the_scan():
    """`elements_of_rank` returns the tuples built once with the masks,
    equal to a scan of every element, and the same tuple on every call."""
    rng = random.Random(5)
    posets = [random_graded_poset(rng, [rng.randint(1, 4) for _ in
                                        range(rng.randint(0, 4))])
              for _ in range(100)]
    posets += [one_element_poset(), chain_poset(3), boolean_lattice(4)]
    for p in posets:
        for r in range(-1, p.height + 2):
            strata = p.elements_of_rank(r)
            assert strata == tuple(x for x in range(p.n) if p.ranks[x] == r)
            assert p.elements_of_rank(r) is strata


def test_canonical_key_fills_its_slot_once(monkeypatch):
    """The benchmark tracer wraps the method `GradedPoset.canonical_key`
    and reads `_key` to tell a computed key from a cached one: the first
    call fills `_key` once, and a second call returns those bytes without
    refining."""
    assert inspect.isfunction(vars(GradedPoset)["canonical_key"])
    assert "_key" in GradedPoset.__slots__
    writes = []

    class Watched(GradedPoset):
        __slots__ = ()

        def __setattr__(self, name, value):
            if name == "_key":
                writes.append(value)
            super().__setattr__(name, value)

    b3 = boolean_lattice(3)
    want = b3.canonical_key()
    p = Watched(b3.ranks, b3.covers)
    assert writes == [None] and p._key is None
    refined = []
    real = GradedPoset._refine
    monkeypatch.setattr(GradedPoset, "_refine",
                        lambda *args: refined.append(1) or real(*args))
    key = p.canonical_key()
    assert refined and isinstance(key, bytes)
    assert writes == [None, key] and p._key is key

    def fail(*args):
        raise AssertionError("a cached key was searched again")
    monkeypatch.setattr(GradedPoset, "_refine", fail)
    assert p.canonical_key() is key
    assert writes == [None, key] and key == want
