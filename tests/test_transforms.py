import functools
import itertools
import random

import pytest

from polyqsym import polytopes as pb
from polyqsym import transforms
from polyqsym.polys import MultiPoly
from polyqsym.qsym import QSym
from polyqsym.ring import (JOIN_RING, PRODUCT_RING, FormalSum, a_op,
                           antipode_rp, bipyramid_op, cone_op, l_alpha,
                           mul_join, mul_product)
from polyqsym.suites import omega_polytopes
from polyqsym.transforms import (FLAVOR_JOIN, FLAVOR_POSET, FLAVOR_PRODUCT,
                                 a0_qsym, a_rp_qsym, b0_qsym, b_qsym,
                                 b_rp_qsym, bb_basis, bb_coordinates,
                                 bb_det, bb_multiply, basis_word_strings,
                                 c0_qsym, c_rp_qsym,
                                 cone_qsym, dehn_sommerville_check,
                                 ehrenborg_F, f_of_F, f_poly, f_rp,
                                 flag_composition, phi_alpha, phi_zero,
                                 project_bb, sparse_index_sets,
                                 verify_image_equations)
from conftest import FOLDED_PRISM, STACKED_BIPYRAMID, flag_test_types, fs
from oracles import (basis_word_strings_recursion, bb_coordinates_flag_route,
                     ehrenborg_F_chain_route, f_poly_operator_route,
                     f_rp_coaction_route,
                     multipoly_alpha, multipoly_var, phi_image_law_holds,
                     theta_substitution_invariant)

M = QSym.monomial
alpha = QSym.alpha_power


def test_flag_set_composition():
    assert flag_composition(3, ()) == (4,)
    assert flag_composition(3, (0,)) == (1, 3)
    assert flag_composition(3, (0, 2)) == (1, 2, 1)
    assert flag_composition(5, (1, 2, 4)) == (2, 1, 2, 1)
    assert flag_composition(0, ()) == (1,)
    assert flag_composition(-1, ()) == ()
    # f relabels: M_(c_1, .., c_k) -> alpha^(c_1-1) M_(c_k, .., c_2)
    g = M((4,)) + 5 * M((2, 1, 2, 1)) - M((1, 3)) + 7 * QSym.one()
    assert f_of_F(g) == alpha(3) + 5 * M((1, 2, 1), alpha=1) - M((3,))


def test_f_poly_golden():
    assert f_poly(pb.point()) == QSym.one()
    assert f_poly(pb.segment()) == alpha(1) + 2 * M((1,))
    assert f_poly(pb.simplex(2)) == (alpha(2) + 3 * M((1,), alpha=1)
                                     + 3 * M((2,)) + 6 * M((1, 1)))
    with pytest.raises(ValueError):
        f_poly(fs(pb.empty(), JOIN_RING))


def test_f_poly_is_ring_homomorphism():
    pairs = [(pb.segment(), pb.segment()), (pb.segment(), pb.simplex(2)),
             (pb.simplex(2), pb.cube(2))]
    for p, q in pairs:
        prod = mul_product(fs(p), fs(q))
        assert f_poly(prod) == f_poly(p) * f_poly(q), (p, q)


def test_two_route_oracle(catalogue):
    for name, p in catalogue.items():
        if p.is_empty() or p.dim > 4:
            continue
        r = max(p.dim, 0)
        assert f_poly(p).expand(r) == f_poly_operator_route(p, r), name


def test_ehrenborg_golden():
    assert ehrenborg_F(pb.point()) == M((1,))
    assert ehrenborg_F(pb.segment()) == M((2,)) + 2 * M((1, 1))
    s12 = QSym.sigma(1) * QSym.sigma(2) - QSym.sigma(3)
    for m in (3, 4, 5):
        assert ehrenborg_F(pb.polygon(m)) == M((3,)) + m * s12
    assert ehrenborg_F(fs(pb.empty(), JOIN_RING)) == QSym.one()
    # test_c08 compares the chain route on the nonempty catalogue
    assert ehrenborg_F_chain_route(pb.empty()) == QSym.one()


def test_ehrenborg_antipode_identity():
    """F(S(P)) = (-1)^rank F(P)* on Eulerian posets (Ehrenborg 1996)."""
    for p in (pb.simplex(3), pb.cube(3), pb.cross(3), pb.cube(4),
              pb.cross(4)):
        s = antipode_rp(fs(p, JOIN_RING))
        assert ehrenborg_F(s) == (-1) ** (p.dim + 1) * ehrenborg_F(p).star()


def test_ehrenborg_multiplicative_and_star():
    a = fs(pb.segment(), JOIN_RING)
    b = fs(pb.simplex(2), JOIN_RING)
    assert ehrenborg_F(mul_join(a, b)) == \
        ehrenborg_F(a) * ehrenborg_F(b)
    for p in (pb.cube(3), pb.cone(pb.cube(2)), pb.bipyramid(pb.simplex(2))):
        assert ehrenborg_F(pb.dual(p)) == ehrenborg_F(p).star()


def test_ehrenborg_theta_invariance(catalogue):
    for name, p in catalogue.items():
        if p.is_empty() or p.dim > 3:
            continue
        F = ehrenborg_F(p)
        for k in range(1, p.dim + 2):
            assert theta_substitution_invariant(F, k, p.dim + 1), (name, k)


def test_coaction_route_equals_chain_route(catalogue):
    """The counit contraction of the word coaction rebuilds the chain
    transform."""
    from polyqsym.ring import coaction, counit
    for name, p in catalogue.items():
        if p.is_empty() or p.dim > 3:
            continue
        acc = QSym()
        for word, result in coaction(fs(p, JOIN_RING)):
            c = counit(result)
            if c:
                acc = acc + c * M(word)
        assert acc == ehrenborg_F(p), name


def test_ehrenborg_F_matches_chain_route(catalogue, empty_store):
    """F equals the chain-route oracle on every type, on the first call
    and again from its memo, and a sum whose terms cancel goes to zero."""
    polys = flag_test_types(catalogue)
    for _ in range(2):
        for p in polys:
            assert ehrenborg_F(p) == ehrenborg_F_chain_route(p), p
    # two 3-polytopes of equal f-vector have equal flag vectors
    folded, pyramid = pb.from_incidence(FOLDED_PRISM), pb.cone(pb.polygon(5))
    s = FormalSum(JOIN_RING, ((folded, 2), (pyramid, -2)))
    assert len(s.terms) == 2 and ehrenborg_F(s).is_zero()
    cube = fs(pb.cube(3), JOIN_RING)
    assert ehrenborg_F(s + cube) == ehrenborg_F(cube)


def test_flag_transforms_count_flags_once(catalogue, monkeypatch,
                                          empty_store):
    """After the first call on a type, the flag vector, F, f and f_RP count
    no chains: the walk that fills the type's flag vector does not run
    again."""
    polys = flag_test_types(catalogue)

    def reads(p):
        return (dict(pb.flag_vector(p)), ehrenborg_F(p), f_rp(p),
                None if p.is_empty() else f_poly(p))
    first = [reads(p) for p in polys]

    def recount(*args):
        raise AssertionError("flag numbers counted again")
    monkeypatch.setattr(pb, "_flag_walk", recount)
    assert [reads(p) for p in polys] == first


def test_f_rp():
    assert f_rp(fs(pb.empty(), JOIN_RING)) == QSym.one()
    assert f_rp(pb.point()) == alpha(1) + M((1,))
    a = fs(pb.point(), JOIN_RING)
    b = fs(pb.segment(), JOIN_RING)
    assert f_rp(mul_join(a, b)) == f_rp(a) * f_rp(b)
    # the decomposition identity f_rp is built from, termwise
    for p in (pb.simplex(2), pb.cube(2)):
        lhs = f_rp(p)
        rhs = ehrenborg_F(p).star() + QSym(
            {(a_ + 1, c): v for (a_, c), v in f_poly(p).terms.items()})
        assert lhs == rhs


def test_f_rp_coaction_route_oracle(catalogue):
    """The identity route equals the rank character of the word
    coaction."""
    for name, p in catalogue.items():
        if p.dim <= 4:
            assert f_rp_coaction_route(p) == f_rp(p), name


def test_flag_equivalence_kernel(catalogue):
    """Images coincide exactly when flag vectors do."""
    polys = [p for p in catalogue.values() if 0 <= p.dim <= 3]
    for p, q in itertools.combinations(polys, 2):
        same_flags = (p.dim == q.dim
                      and pb.flag_vector(p) == pb.flag_vector(q))
        assert (f_poly(p) == f_poly(q)) == same_flags, (p, q)
        assert (ehrenborg_F(p) == ehrenborg_F(q)) == same_flags
        assert (f_rp(p) == f_rp(q)) == same_flags


def test_image_equations():
    d3 = pb.simplex(3)
    g = f_poly_operator_route(d3, 3)
    assert verify_image_equations(g, 3, FLAVOR_PRODUCT)
    gF = ehrenborg_F(pb.cone(pb.cube(2))).expand(4)
    assert verify_image_equations(gF, 4, FLAVOR_POSET)
    grp = f_rp(pb.cone(pb.cube(2))).expand(4)
    assert verify_image_equations(grp, 4, FLAVOR_JOIN)
    bad = MultiPoly(3, {(1, (2, 0, 0)): 1, (0, (3, 0, 0)): 1})
    assert not verify_image_equations(bad, 3, FLAVOR_PRODUCT)
    with pytest.raises(ValueError):
        verify_image_equations(
            MultiPoly(2, {(0, (1, 0)): 1, (0, (2, 0)): 1}), 2,
            FLAVOR_PRODUCT)
    with pytest.raises(ValueError):
        verify_image_equations(bad, 3, "nope")


def test_dehn_sommerville(catalogue):
    for name, p in catalogue.items():
        if p.dim < 1:
            continue
        assert dehn_sommerville_check(p), name
    # the classical simple-polytope instance reduces to the Euler relation
    assert dehn_sommerville_check(pb.cube(3))


def test_sparse_sets_and_words():
    assert sparse_index_sets(2) == [(), (0,)]
    assert sparse_index_sets(4) == [(), (0,), (0, 2), (1,), (2,)]
    assert basis_word_strings(3) == ["CCCC", "CBCC", "BCCC"]
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    for n in range(1, 11):
        assert len(sparse_index_sets(n)) == fib[n]
        assert len(basis_word_strings(n)) == fib[n]
        for w in basis_word_strings(n):
            assert w.endswith("CC") and "BB" not in w and len(w) == n + 1


def test_basis_words_match_recursion():
    for n in range(-1, 14):
        assert basis_word_strings(n) == basis_word_strings_recursion(n), n


def test_bb_basis_size_bound(monkeypatch):
    """Past MAX_BB_DIM, and below 1, the basis is refused before any flag
    polynomial or index set is made."""
    def refuse(*args):
        raise AssertionError("work started")
    for name in ("cone_qsym", "a_qsym", "b_qsym", "sparse_index_sets",
                 "basis_word_strings"):
        monkeypatch.setattr(transforms, name, refuse)
    n = transforms.MAX_BB_DIM + 1
    with pytest.raises(ValueError, match="basis of dim %d too large" % n):
        bb_basis(n)
    for n in (0, -3):
        with pytest.raises(ValueError, match="needs n >= 1"):
            bb_basis(n)


def test_bb_matrix_golden():
    assert bb_basis(1).matrix == ((1,),)
    assert bb_basis(2).matrix == ((1, 3), (1, 4))
    b3 = bb_basis(3)
    assert b3.matrix == ((1, 4, 6), (1, 5, 8), (1, 5, 9))
    assert [bb_det(n) for n in (1, 2, 3)] == [1, 1, 1]
    for n in (4, 5, 6):
        assert abs(bb_det(n)) == 1


def test_project():
    penta = pb.polygon(5)
    got = project_bb(penta, 2)
    assert got == 2 * fs(pb.cube(2)) - fs(pb.simplex(2))
    for n in (1, 2, 3):
        for q in omega_polytopes(n):
            assert project_bb(q, n) == fs(q)
    with pytest.raises(ValueError):
        project_bb(fs(pb.segment()) + fs(pb.simplex(2)), 2)


def test_project_keeps_flag_polynomial():
    sums = [fs(pb.polygon(m)) for m in range(5, 9)]
    sums += [3 * fs(pb.cube(3)) - 2 * fs(pb.cross(3)),
             fs(pb.simplex(3)) + 4 * fs(pb.cone(pb.cube(2)))
             - fs(pb.bipyramid(pb.simplex(2)))]
    for s in sums:
        assert f_poly(project_bb(s, s.max_dim())) == f_poly(s)


def _types_of_dim(n):
    """The types of the words of dim n and their duals, and for n >= 2 a
    polygon times a cube, each type once, in a fixed order."""
    out = [pb.from_word("".join(w)) for w in itertools.product("BC",
                                                               repeat=n + 1)]
    out += [pb.dual(p) for p in out]
    if n >= 2:
        out += [functools.reduce(pb.product, [pb.cube(1)] * (n - 2),
                                 pb.polygon(m)) for m in (5, 6, 7)]
    return list(dict.fromkeys(out))


def test_bb_coordinates_match_flag_number_route():
    """The projection reads its flag numbers off F of the sum; the oracle
    sums `flag_number` over the terms set by set and solves by Cramer's
    rule.  Random homogeneous sums of dim 1..5, sums whose flag numbers
    cancel in full (a sum less its projection; the octahedron less a
    stacked bipyramid of its f-vector; the pentagon less 2 squares plus a
    triangle), and a sum whose flag numbers cancel in part (the cube less
    the octahedron, both with 12 edges)."""
    rng = random.Random(7)
    sums = []
    for n in range(1, 6):
        pool = _types_of_dim(n)
        for _ in range(6):
            terms = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            sums.append((n, FormalSum(PRODUCT_RING, (
                (p, rng.choice((-3, -2, -1, 1, 2, 3))) for p in terms))))
    zero = [(n, s - project_bb(s, n)) for n, s in sums[::5]]
    zero += [(3, fs(pb.cross(3)) - fs(pb.from_incidence(STACKED_BIPYRAMID))),
             (2, fs(pb.polygon(5)) - 2 * fs(pb.cube(2)) + fs(pb.simplex(2))),
             (4, fs(pb.cube(4)) - fs(pb.cube(4)))]
    for n, s in zero:
        assert bb_coordinates(s, n) == [] == bb_coordinates_flag_route(s, n)
    part = fs(pb.cube(3)) - fs(pb.cross(3))
    assert pb.flag_number(pb.cube(3), (1,)) == pb.flag_number(pb.cross(3),
                                                               (1,))
    assert bb_coordinates(part, 3) == bb_coordinates_flag_route(part, 3) != []
    for n, s in sums:
        assert bb_coordinates(s, n) == bb_coordinates_flag_route(s, n), s


def test_projection_reads_F(monkeypatch, empty_store):
    """On an empty store the projection makes one `flag_number` call per
    type, the one through which `flag_vector` fills the type's vector."""
    calls = []
    real = pb.flag_number
    monkeypatch.setattr(pb, "flag_number",
                        lambda p, subset: calls.append(p) or real(p, subset))
    s = fs(pb.cube(4)) - 2 * fs(pb.cross(4)) + fs(pb.simplex(4))
    bb_coordinates(s, 4)
    assert sorted(map(id, calls)) == sorted(map(id, s.terms))


def test_transforms_run_one_route(monkeypatch):
    """The second routes live only in the test oracles, and projection does
    not recompute the flag polynomial."""
    def oracle(*args):
        raise AssertionError("oracle route called")
    for name in ("f_poly_operator_route", "ehrenborg_F_chain_route",
                 "f_rp_coaction_route", "_alpha_to_slot", "_shift_up"):
        assert not hasattr(transforms, name), name
    monkeypatch.setattr(transforms, "f_poly", oracle)
    project_bb(pb.polygon(5), 2)
    bb_multiply(fs(pb.segment()), fs(pb.simplex(2)))


def test_bb_multiply():
    assert bb_multiply(fs(pb.point()), fs(pb.simplex(2))) == \
        fs(pb.simplex(2))
    assert bb_multiply(fs(pb.segment()), fs(pb.segment())) == \
        fs(pb.cube(2))
    out = bb_multiply(fs(pb.segment()), fs(pb.simplex(2)))
    assert f_poly(out) == f_poly(pb.segment()) * f_poly(pb.simplex(2))
    assert all(q in set(omega_polytopes(3)) for q in out.terms)


def test_qsym_operators_match_polytope_side():
    from polyqsym.transforms import a_qsym
    for p in (pb.point(), pb.segment(), pb.simplex(2), pb.cube(2),
              pb.simplex(3), pb.cube(3)):
        assert cone_qsym(f_poly(p)) == f_poly(pb.cone(p)), p
        assert b_qsym(f_poly(p)) == f_poly(pb.bipyramid(p)), p
        assert a_qsym(f_poly(p)) == f_poly(a_op(fs(p))), p
    for p in (pb.point(), pb.segment(), pb.simplex(2)):
        s = fs(p, JOIN_RING)
        assert c_rp_qsym(f_rp(p)) == f_rp(cone_op(s))
        assert a_rp_qsym(f_rp(p)) == f_rp(a_op(s))
        assert b_rp_qsym(f_rp(p)) == f_rp(bipyramid_op(s))
        Fst = ehrenborg_F(p).star()
        assert c0_qsym(Fst) == ehrenborg_F(cone_op(s)).star()
        assert a0_qsym(Fst) == ehrenborg_F(a_op(s)).star()
        assert b0_qsym(Fst) == ehrenborg_F(bipyramid_op(s)).star()


def test_qsym_operator_outputs_are_quasisymmetric():
    g = f_poly(pb.simplex(2))
    for out in (cone_qsym(g), b_qsym(g)):
        n = out.degree()
        from polyqsym.qsym import is_quasisymmetric
        assert is_quasisymmetric(out.expand(n + 1))


def test_join_and_cone_formulas():
    small = [pb.point(), pb.segment(), pb.simplex(2), pb.cube(2)]
    for p, q in itertools.combinations_with_replacement(small, 2):
        lhs = f_poly(pb.join(p, q))
        rhs = (f_poly(p) * ehrenborg_F(q).star()
               + ehrenborg_F(p).star() * f_poly(q)
               + alpha(1) * f_poly(p) * f_poly(q))
        assert lhs == rhs, (p, q)
    for p in small:
        assert f_poly(pb.cone(p)) == ehrenborg_F(p).star() \
            + (alpha(1) + QSym.sigma(1)) * f_poly(p)


def test_l_alpha_reconstruction():
    for p in (pb.point(), pb.segment(), pb.simplex(2), pb.cube(2),
              pb.simplex(3), pb.cone(pb.cube(2))):
        acc = QSym()
        for power, ssum in l_alpha(p).items():
            g = ehrenborg_F(ssum).star()
            acc = acc + QSym({(a + power, c): v
                              for (a, c), v in g.terms.items()})
        assert acc == f_poly(p), p


def test_simple_polytope_collapse():
    def one_variable_profile(p, r=2):
        n = p.dim
        t = MultiPoly.zero(r)
        for i in range(r):
            t = t + multipoly_var(r, i)
        acc = multipoly_alpha(r, n)
        powers = [MultiPoly.const(r, 1)]
        for _ in range(n):
            powers.append(powers[-1] * t)
        for i in range(n):
            acc = acc + pb.flag_number(p, (i,)) \
                * multipoly_alpha(r, i) * powers[n - i]
        return acc

    for p in (pb.cube(2), pb.cube(3), pb.simplex(3), pb.simplex(4)):
        assert f_poly(p).expand(2) == one_variable_profile(p), p
    ci2 = pb.cone(pb.cube(2))
    assert f_poly(ci2).expand(2) != one_variable_profile(ci2)


def test_phi_functionals_golden():
    assert phi_zero(pb.simplex(2)).value((2,)) == 3
    assert phi_zero(pb.cube(2)).value((2,)) == 4
    bd2 = pb.bipyramid(pb.simplex(2))
    ci2 = pb.cone(pb.cube(2))
    assert phi_zero(bd2).value((3,)) == 5
    assert phi_zero(bd2).value((2, 1)) == 18
    assert phi_zero(ci2).value((3,)) == 5
    assert phi_zero(ci2).value((2, 1)) == 16
    assert phi_zero(pb.simplex(3)).value((3,)) == 4
    assert phi_zero(pb.simplex(3)).value((2, 1)) == 12


def test_phi_kernels():
    ker2 = 3 * fs(pb.cube(2)) - 4 * fs(pb.simplex(2))
    assert phi_zero(ker2).is_zero()
    ker3 = (2 * fs(pb.bipyramid(pb.simplex(2)))
            - 6 * fs(pb.cone(pb.cube(2))) + 5 * fs(pb.simplex(3)))
    assert phi_zero(ker3).is_zero()
    # but these combinations are nonzero in the flag ring
    assert not f_poly(ker2).is_zero()
    assert not f_poly(ker3).is_zero()


def test_phi_ring_homomorphism_sample():
    from polyqsym.ncalg import coproduct, NCPoly
    p, q = pb.segment(), pb.simplex(2)
    lhs = phi_alpha(mul_product(fs(p), fs(q)))
    pp, pq = phi_alpha(p), phi_alpha(q)
    for n in range(0, p.dim + q.dim + 1):
        from polyqsym.ncalg import basis_words
        for w in (basis_words(n) if n else [()]):
            want = 0
            for (l, r), c in coproduct(NCPoly.word(w)).items():
                want = want + int(c) * pp.value(l) * pq.value(r)
            assert lhs.value(w) == want, w


def test_phi_image_law():
    for p in (pb.simplex(2), pb.cube(2), pb.simplex(3),
              pb.cone(pb.cube(2))):
        assert phi_image_law_holds(p), p


def test_phi_alpha_low_coefficient_relation():
    # the first consequence of the image law: value on the doubled
    # derivation equals twice the linear coefficient on the derivation
    pa = phi_alpha(pb.simplex(2))
    assert pa.value((1, 1)).coeff(0) == 2 * pa.value((1,)).coeff(1) == 6
