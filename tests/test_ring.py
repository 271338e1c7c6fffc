from collections import Counter

import pytest

from polyqsym import polytopes as pb
from polyqsym import ring, store
from polyqsym.polys import AlphaPoly
from polyqsym.ring import (FormalSum, JOIN_RING, PRODUCT_RING, a_op,
                           antipode_rp, apply_operator, bipyramid_op, coaction,
                           comodule_pairs, cone_op, counit, d_k,
                           delta_derivation, dual_sum, epsilon_alpha,
                           l_alpha, mul_join, mul_product, phi_poly,
                           xi_alpha)
from polyqsym.transforms import ehrenborg_F
from conftest import STACKED_BIPYRAMID, antipode_axiom_sums, fs
from oracles import (antipode_rp_chain_route, bigraded_piece, graded_piece,
                     negate_variable, shift)


def test_formal_sum_basics():
    tri = pb.simplex(2)
    s = fs(tri) + 2 * fs(pb.segment())
    assert graded_piece(s, 2) == fs(tri)
    assert s - s == FormalSum(PRODUCT_RING)
    with pytest.raises(ValueError):
        FormalSum(PRODUCT_RING, {pb.empty(): 1})
    with pytest.raises(ValueError):
        fs(tri) + fs(tri, JOIN_RING)
    assert bigraded_piece(fs(tri), 2, 3) == fs(tri)
    assert bigraded_piece(fs(tri), 2, 4).is_zero()


def test_ring_units():
    tri = pb.simplex(2)
    s = fs(tri) - 4 * fs(pb.cube(2))
    assert mul_product(fs(pb.point()), s) == s
    t = FormalSum(JOIN_RING, s.terms)
    assert mul_join(fs(pb.empty(), JOIN_RING), t) == t
    # join of points is a segment and distributes
    two_pt = 2 * fs(pb.point(), JOIN_RING) - fs(pb.segment(), JOIN_RING)
    out = mul_join(fs(pb.point(), JOIN_RING), two_pt)
    assert out == 2 * fs(pb.segment(), JOIN_RING) \
        - fs(pb.join(pb.point(), pb.segment()), JOIN_RING)


def test_d_k_values():
    tri = pb.simplex(2)
    assert d_k(fs(tri), 1) == 3 * fs(pb.segment())
    assert d_k(fs(pb.cone(pb.point())), 1) == 2 * fs(pb.point())
    q = pb.cell24()
    assert d_k(fs(q, JOIN_RING), 1) == 24 * fs(pb.cross(3), JOIN_RING)
    assert d_k(fs(q, JOIN_RING), 5) == fs(pb.empty(), JOIN_RING)
    assert d_k(fs(q), 5).is_zero()
    assert d_k(fs(pb.empty(), JOIN_RING), 1).is_zero()
    with pytest.raises(ValueError):
        d_k(fs(tri), 0)


def test_phi_poly():
    tri = pb.simplex(2)
    series = phi_poly(fs(tri))
    assert series[0] == fs(tri)
    assert series[1] == 3 * fs(pb.segment())
    assert series[2] == 3 * fs(pb.point())
    assert series[3].is_zero()
    rp = phi_poly(fs(pb.point(), JOIN_RING))
    assert rp[1] == fs(pb.empty(), JOIN_RING)
    assert phi_poly(fs(pb.empty(), JOIN_RING)) == \
        [fs(pb.empty(), JOIN_RING)]


def test_apply_operator():
    bd2 = pb.bipyramid(pb.simplex(2))
    assert xi_alpha(apply_operator((2, 1), fs(bd2))).coeff(0) == 18
    assert xi_alpha(apply_operator((3,), fs(bd2))).coeff(0) == 5
    for p in (pb.simplex(2), pb.cube(3), bd2):
        assert apply_operator((1, 1), fs(p)) == 2 * d_k(fs(p), 2)
    with pytest.raises(ValueError):
        apply_operator((0, 1), fs(bd2))


def test_characters():
    tri = pb.simplex(2)
    s = fs(tri) + 2 * fs(pb.segment())
    assert xi_alpha(s) == AlphaPoly({2: 1, 1: 2})
    assert epsilon_alpha(fs(pb.empty(), JOIN_RING)) == AlphaPoly({0: 1})
    assert counit(fs(pb.empty(), JOIN_RING)) == 1
    assert counit(fs(tri, JOIN_RING)) == 0
    with pytest.raises(ValueError):
        xi_alpha(fs(pb.empty(), JOIN_RING))


def test_euler_character_identities(catalogue):
    for name, p in catalogue.items():
        if p.is_empty() or p.dim > 4:
            continue
        s = fs(p)
        series = phi_poly(s)
        acc = AlphaPoly()
        for k, piece in enumerate(series):
            if piece.is_zero():
                continue
            acc = acc + shift(negate_variable(xi_alpha(piece)), k)
        assert acc == xi_alpha(s), name
        srp = fs(p, JOIN_RING)
        acc = AlphaPoly()
        for k, piece in enumerate(phi_poly(srp)):
            if piece.is_zero():
                continue
            acc = acc + shift(negate_variable(epsilon_alpha(piece)), k)
        assert acc == AlphaPoly(), name


def test_cone_bipyramid_a():
    seg = pb.segment()
    assert a_op(fs(seg)) == 2 * fs(pb.simplex(2)) - fs(pb.cube(2))
    assert cone_op(fs(pb.empty(), JOIN_RING)) == fs(pb.point(), JOIN_RING)
    assert bipyramid_op(fs(pb.empty(), JOIN_RING)) == \
        fs(pb.point(), JOIN_RING)
    # A pt = I
    assert a_op(fs(pb.point())) == fs(seg)


def test_delta_derivation():
    q = pb.cell24()
    assert delta_derivation(fs(q, JOIN_RING)) == \
        24 * fs(pb.cube(3), JOIN_RING)
    s = d_k(fs(q, JOIN_RING), 1) + delta_derivation(fs(q, JOIN_RING))
    assert dual_sum(s) == s  # (d+delta) of a self-dual stays *-fixed
    for n in (2, 3):
        p = pb.simplex(n)
        assert delta_derivation(fs(p, JOIN_RING)) == \
            d_k(fs(p, JOIN_RING), 1)
    with pytest.raises(ValueError):
        delta_derivation(fs(q))


def test_self_dual_sums_stay_self_dual():
    for p in (pb.cell24(), pb.simplex(3), pb.polygon(5)):
        s = fs(p, JOIN_RING)
        assert dual_sum(s) == s
        image = d_k(s, 1) + delta_derivation(s)
        assert dual_sum(image) == image, p


def test_antipode():
    pt, seg = pb.point(), pb.segment()
    assert antipode_rp(fs(pt, JOIN_RING)) == -fs(pt, JOIN_RING)
    assert antipode_rp(fs(seg, JOIN_RING)) == fs(seg, JOIN_RING)
    assert antipode_rp(fs(pb.empty(), JOIN_RING)) == \
        fs(pb.empty(), JOIN_RING)
    # direct chain sum on the segment: -I + 2 pt*pt = I
    # the memo stays private: clearing a result does not change the next
    out = antipode_rp(fs(seg, JOIN_RING))
    out.terms.clear()
    assert antipode_rp(fs(seg, JOIN_RING)) == fs(seg, JOIN_RING)
    # Hopf axiom at non-unit elements, on both sides
    for p in (pt, seg, pb.simplex(2), pb.cube(2), pb.simplex(3), pb.cube(3),
              pb.cross(3), pb.cone(pb.cube(2)), pb.bipyramid(pb.simplex(2)),
              pb.cube(4)):
        left, right = antipode_axiom_sums(p)
        assert left.is_zero() and right.is_zero(), p
    with pytest.raises(ValueError):
        antipode_rp(fs(pt))


def test_antipode_matches_chain_route(catalogue):
    for p in [pb.empty()] + [p for p in catalogue.values() if p.dim <= 3]:
        s = fs(p, JOIN_RING)
        assert antipode_rp(s) == antipode_rp_chain_route(s), p


def test_antipode_runs_one_route(empty_store):
    """The chain sum lives only in the test oracles; an empty memo makes the
    recursion run and memoize every type it reaches."""
    assert not hasattr(ring, "antipode_rp_chain_route")
    for p in (pb.cube(3), pb.cube(4)):
        antipode_rp(fs(p, JOIN_RING))
        # a vertex of a cube has a simplex as its quotient
        assert ("antipode", p) in store.memo
        assert ("antipode", pb.simplex(p.dim - 1)) in store.memo


# the request kinds that `store` documents for `store.memo`
_REQUEST_KINDS = {"simplex", "cube", "polygon", "cell24", "word", "prod",
                  "join", "bipyramid", "dual", "faces", "antipode", "F"}


def test_memo_holds_documented_requests(empty_store):
    """One memo store: every memoized request is a tuple of a documented
    kind, and a fresh store recomputes the same values."""
    def compute():
        atom = pb.build_named("cross", 3)
        word = pb.from_word("BCBCC")
        prism = pb.product(pb.simplex(2), pb.segment())
        s = fs(prism, JOIN_RING)
        return (atom, word, prism, d_k(s, 1), d_k(s, 2), antipode_rp(s),
                ehrenborg_F(s))
    first = compute()
    assert store.memo
    for request in store.memo:
        assert isinstance(request, tuple) and request[0] in _REQUEST_KINDS, \
            request
        # requests hold registered types and factor multisets, no keys
        assert not any(isinstance(part, bytes) for part in request[1:])
        assert all(pb.canonical(p) is p for part in request[1:]
                   for p in (part if isinstance(part, tuple) else (part,))
                   if isinstance(p, pb.Polytope)), request
    kinds = {request[0] for request in store.memo}
    assert {"word", "prod", "faces", "antipode", "F"} <= kinds
    empty_store()
    assert not store.memo and not store.types
    assert compute() == first


def test_printed_sums_key_only_ties(monkeypatch, empty_store):
    """A printed sum orders its types by dim and f-vector and keys only
    the types that share both: cube(3) and cross(3) differ in f-vector, so
    neither building nor printing this sum computes a key."""
    from polyqsym.exprs import parse_expression
    from polyqsym.posets import GradedPoset

    def no_key(poset):
        raise AssertionError("a canonical key was computed")
    monkeypatch.setattr(GradedPoset, "canonical_key", no_key)
    s = parse_expression("cube(3) + cross(3) + prod(polygon(5), cube(1))")
    assert repr(s) == ("<dim 3, f=[6, 12, 8]> + <dim 3, f=[8, 12, 6]> "
                       "+ <dim 3, f=[10, 15, 7]>")


def test_printed_ties_keep_their_order(empty_store):
    """Types of equal dim and f-vector print in the order of their keys,
    as before types were keyed only on ties, whichever is registered
    first: the octahedron before the stacked bipyramid, and the dual of
    the bipyramid before the cube."""
    for order in (0, 1):
        empty_store()
        if order:
            stacked = pb.from_incidence(STACKED_BIPYRAMID)
            octahedron = pb.cross(3)
        else:
            octahedron = pb.cross(3)
            stacked = pb.from_incidence(STACKED_BIPYRAMID)
        assert repr(FormalSum(PRODUCT_RING, {octahedron: 1, stacked: 2})) \
            == "<dim 3, f=[6, 12, 8]> + 2*<dim 3, f=[6, 12, 8]>"
        s = FormalSum(PRODUCT_RING, {stacked: 1, pb.cube(3): 5,
                                     pb.dual(stacked): 3, octahedron: 2})
        assert repr(s) == ("2*<dim 3, f=[6, 12, 8]> + <dim 3, f=[6, 12, 8]>"
                           " + 3*<dim 3, f=[8, 12, 6]>"
                           " + 5*<dim 3, f=[8, 12, 6]>")


def test_comodule_pairs():
    pt, seg = pb.point(), pb.segment()
    assert comodule_pairs(pt) == [(pt, pb.empty())]
    cnt = Counter((f.key, q.key) for f, q in comodule_pairs(seg))
    assert cnt[(seg.key, pb.empty().key)] == 1
    assert cnt[(pt.key, pt.key)] == 2
    with pytest.raises(ValueError):
        comodule_pairs(pb.empty())


def test_l_alpha():
    pt, seg = pb.point(), pb.segment()
    assert l_alpha(pt) == {0: fs(pb.empty(), JOIN_RING)}
    la = l_alpha(seg)
    assert la == {0: 2 * fs(pt, JOIN_RING), 1: fs(pb.empty(), JOIN_RING)}
    # simple polytope: quotients are simplices, counts are face numbers
    cube3 = pb.cube(3)
    la = l_alpha(cube3)
    assert la[0] == 8 * fs(pb.simplex(2), JOIN_RING)
    assert la[1] == 12 * fs(pb.segment(), JOIN_RING)
    assert la[2] == 6 * fs(pt, JOIN_RING)
    assert la[3] == fs(pb.empty(), JOIN_RING)


def test_coaction_words():
    pt, seg = pb.point(), pb.segment()
    assert dict(coaction(fs(pt))) == {(): fs(pt)}
    got = dict(coaction(fs(seg)))
    assert got == {(): fs(seg), (1,): 2 * fs(pt)}
    got = dict(coaction(fs(pt, JOIN_RING)))
    assert got == {(): fs(pt, JOIN_RING),
                   (1,): fs(pb.empty(), JOIN_RING)}


def test_milnor_module_law():
    pairs = [(pb.segment(), pb.simplex(2)), (pb.simplex(2), pb.cube(2))]
    for p, q in pairs:
        for k in range(1, p.dim + q.dim + 2):
            lhs = d_k(fs(pb.product(p, q)), k)
            rhs = FormalSum(PRODUCT_RING)
            for i in range(k + 1):
                a = fs(p) if i == 0 else d_k(fs(p), i)
                b = fs(q) if k == i else d_k(fs(q), k - i)
                if not (a.is_zero() or b.is_zero()):
                    rhs = rhs + mul_product(a, b)
            assert lhs == rhs, (p, q, k)
        for k in range(1, p.dim + q.dim + 4):
            lhs = d_k(fs(pb.join(p, q), JOIN_RING), k)
            rhs = FormalSum(JOIN_RING)
            for i in range(k + 1):
                a = fs(p, JOIN_RING) if i == 0 else d_k(fs(p, JOIN_RING), i)
                b = fs(q, JOIN_RING) if k == i else d_k(fs(q, JOIN_RING),
                                                        k - i)
                if not (a.is_zero() or b.is_zero()):
                    rhs = rhs + mul_join(a, b)
            assert lhs == rhs, (p, q, k)
