"""Acceptance criteria, one test per numbered item.

Every check is exact integer or rational arithmetic; there are no
tolerances anywhere.  Each test prints a single PASS line on success (run
pytest with -s to see them); a failure surfaces as an ordinary assertion.
"""

from polyqsym import lyndon, polytopes as pb
from polyqsym.ncalg import (NCPoly, basis_words, coproduct, d_even_formula,
                            normal_form, s_series)
from polyqsym.qsym import QSym
from polyqsym.ring import (FormalSum, JOIN_RING, PRODUCT_RING,
                           apply_operator, coaction, comodule_pairs, counit,
                           d_k, delta_derivation, hopf_coproduct_pairs,
                           l_alpha)
from polyqsym.suites import run_suite
from polyqsym.transforms import (bb_basis, bb_det, basis_word_strings,
                                 dehn_sommerville_check, ehrenborg_F, f_poly,
                                 phi_zero, sparse_index_sets)
from conftest import antipode_axiom_sums, fs
from oracles import ehrenborg_F_chain_route, f_poly_operator_route, rank

M = QSym.monomial
FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def _report(num, text):
    print("[criterion %2d] PASS  %s" % (num, text))


def _suite_green(name):
    checks = run_suite(name)
    failed = [c for c in checks if not c.ok]
    assert not failed, "suite %s: %s" % (
        name, "; ".join("%s: %s" % (c.name, c.detail) for c in failed))
    return len(checks)


def test_c01_phi_unitality(catalogue):
    n = _suite_green("phi-unit")
    _report(1, "face-series convolution vanishes: %d polytope/ring checks"
            % n)


def test_c02_basis_matrix_and_counts():
    assert bb_basis(2).matrix == ((1, 3), (1, 4))
    dets = [bb_det(n) for n in range(1, 7)]
    assert all(abs(d) == 1 for d in dets), dets
    for n in range(1, 11):
        assert len(sparse_index_sets(n)) == FIB[n], n
        assert len(basis_word_strings(n)) == FIB[n], n
        assert lyndon.fibonacci(n) == FIB[n], n
    _report(2, "K2 = [[1,3],[1,4]], |det K^n| = 1 for n <= 6, "
               "counts follow 1,1,2,3,5,8,13,21,34,55,89")


def test_c03_vertex_functional_golden_values():
    tri, sq = pb.simplex(2), pb.cube(2)
    d3 = pb.simplex(3)
    bd2 = pb.bipyramid(tri)
    ci2 = pb.cone(sq)
    assert phi_zero(tri).value((2,)) == 3
    assert phi_zero(sq).value((2,)) == 4
    assert phi_zero(bd2).value((3,)) == 5
    assert phi_zero(bd2).value((2, 1)) == 18
    assert phi_zero(ci2).value((3,)) == 5
    assert phi_zero(ci2).value((2, 1)) == 16
    assert phi_zero(d3).value((3,)) == 4
    assert phi_zero(d3).value((2, 1)) == 12
    assert phi_zero(3 * fs(sq) - 4 * fs(tri)).is_zero()
    assert phi_zero(2 * fs(bd2) - 6 * fs(ci2) + 5 * fs(d3)).is_zero()
    _report(3, "degree-2 and degree-3 functional values and both kernels "
               "match exactly")


def test_c04_golden_images():
    n = _suite_green("appendix-c")
    _report(4, "all %d low-dimension transform images exact" % n)


def test_c05_shuffle_goldens():
    assert M((1,)) * M((1,)) == M((2,)) + 2 * M((1, 1))
    assert M((1,)) * M((1, 1)) == M((2, 1)) + M((1, 2)) + 3 * M((1, 1, 1))
    assert M((1, 1)) * M((1, 1)) == (M((2, 2)) + 2 * M((2, 1, 1))
                                     + 2 * M((1, 2, 1)) + 2 * M((1, 1, 2))
                                     + 6 * M((1, 1, 1, 1)))
    assert lyndon.shuffle((1,), (1,)) == {(1, 1): 2}
    assert lyndon.shuffle((1,), (2, 3)) == {(1, 2, 3): 1, (2, 1, 3): 1,
                                            (2, 3, 1): 1}
    assert lyndon.shuffle((1, 2), (1, 2)) == {(1, 2, 1, 2): 2,
                                              (1, 1, 2, 2): 4}
    assert lyndon.cfl_factorize((1, 1, 1, 1)) == [(1,)] * 4
    assert lyndon.cfl_factorize((1, 2, 1, 2)) == [(1, 2), (1, 2)]
    assert lyndon.cfl_factorize((2, 1)) == [(2,), (1,)]
    _report(5, "overlapping-shuffle, shuffle and factorization goldens "
               "exact")


def test_c06_lyndon_fibonacci_counting():
    n = _suite_green("lyndon-counts")
    _report(6, "generator counts from three routes, closed forms, bounds "
               "and product expansions (%d checks)" % n)


def test_c07_image_equations():
    n = _suite_green("image-equations")
    _report(7, "image equations hold on the basis polytopes and every "
               "single-flag perturbation is rejected (%d checks)" % n)


def test_c08_two_route_oracles(catalogue):
    count = 0
    for name, p in catalogue.items():
        if p.is_empty() or p.dim > 4:
            continue
        r = max(p.dim, 0)
        assert f_poly(p).expand(r) == f_poly_operator_route(p, r), name
        # the flag route against the chain route; the counit of the word
        # coaction is the third route
        F = ehrenborg_F(p)
        assert ehrenborg_F_chain_route(p) == F, name
        acc = QSym()
        for word, result in coaction(fs(p, JOIN_RING)):
            c = counit(result)
            if c:
                acc = acc + c * M(word)
        assert acc == F, name
        count += 1
    _report(8, "flag and operator routes agree for f and for the chain "
               "transform on %d polytopes" % count)


def test_c09_hopf_comodule_laws():
    from collections import Counter
    pt, seg, tri, sq = pb.point(), pb.segment(), pb.simplex(2), pb.cube(2)
    d3 = pb.simplex(3)
    for p in (pt, seg, tri, sq):
        left, right = antipode_axiom_sums(p)
        assert left.is_zero() and right.is_zero(), p
    for p in (tri, sq, d3):
        left = Counter()
        for f, quot in comodule_pairs(p):
            for g, mid in comodule_pairs(f):
                left[(g.key, mid.key, quot.key)] += 1
        right = Counter()
        for f, quot in comodule_pairs(p):
            for g, h in hopf_coproduct_pairs(quot):
                right[(f.key, g.key, h.key)] += 1
        assert left == right, p
    for p, q in [(seg, seg), (seg, tri), (tri, sq)]:
        left = Counter()
        for f, quot in comodule_pairs(pb.product(p, q)):
            left[(f.key, quot.key)] += 1
        right = Counter()
        for f1, q1 in comodule_pairs(p):
            for f2, q2 in comodule_pairs(q):
                right[(pb.product(f1, f2).key, pb.join(q1, q2).key)] += 1
        assert left == right, (p, q)
    for p in (tri, d3):
        left = {}
        for f, quot in comodule_pairs(p):
            left[f.key] = left.get(f.key, QSym()) + ehrenborg_F(quot)
        right = {}
        for word, result in coaction(fs(p)):
            for poly, c in result.terms.items():
                right[poly.key] = right.get(poly.key, QSym()) \
                    + c * M(word)
        assert {k: v for k, v in left.items() if not v.is_zero()} == \
            {k: v for k, v in right.items() if not v.is_zero()}, p
    for p in (pt, seg, tri, sq, d3, pb.cone(sq), pb.bipyramid(tri)):
        acc = QSym()
        for power, ssum in l_alpha(p).items():
            g = ehrenborg_F(ssum).star()
            acc = acc + QSym({(a + power, c): v
                              for (a, c), v in g.terms.items()})
        assert acc == f_poly(p), p
    _report(9, "antipode axiom, coaction coassociativity and "
               "multiplicativity, chain-transform compatibility, and the "
               "quotient reconstruction identity")


def test_c10_operator_identities():
    n = _suite_green("operators")
    _report(10, "commutators and series identities for cone/bipyramid on "
                "both rings and on the quasi-symmetric side (%d groups)"
            % n)


def test_c11_operator_algebra_structure():
    s = s_series(4)
    assert normal_form(s[2]).is_zero()
    assert normal_form(s[4]).is_zero()
    for k in (1, 2, 3):
        assert normal_form(d_even_formula(k) - NCPoly.gen(2 * k)).is_zero()
    # operator action of the even formula, denominators cleared
    import math
    targets = [pb.bipyramid(pb.simplex(2)), pb.cell24()]
    for k in (1, 2, 3):
        rhs = d_even_formula(k)
        denom = 1
        for c in rhs.terms.values():
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        for p in targets:
            for ambient in (PRODUCT_RING, JOIN_RING):
                base = fs(p, ambient)
                want = denom * apply_operator((2 * k,), base)
                acc = FormalSum(ambient)
                for word, c in rhs.terms.items():
                    acc = acc + int(c * denom) * apply_operator(word, base)
                assert acc == want, (k, p, ambient)
    for n in range(1, 9):
        assert len(basis_words(n)) == FIB[n - 1], n
    # exact-rank independence of the basis action on flag vectors
    from polyqsym.suites import omega_polytopes

    def flag_set(word, n):
        partial = n - sum(word)
        dims = [partial]
        for j in word[:-1]:
            partial += j
            dims.append(partial)
        return tuple(d for d in dims if d >= 0)

    for n in range(1, 6):
        polys = omega_polytopes(n)
        for k in range(1, n + 1):
            words = basis_words(k)
            mat = [[pb.flag_number(q, flag_set(w, n)) for q in polys]
                   for w in words]
            assert rank(mat) == len(words), (n, k)
    _report(11, "log-series vanishing, even-generator formula by rewriting "
                "and by action, Fibonacci basis counts, full basis rank")


def test_c12_24cell():
    q = pb.cell24()
    profile = [len(q.lattice.elements_of_rank(r))
               for r in range(q.lattice.height + 1)]
    assert profile == [1, 24, 96, 96, 24, 1]
    assert pb.dual(q) == q
    assert d_k(fs(q, JOIN_RING), 1) == 24 * fs(pb.cross(3), JOIN_RING)
    assert delta_derivation(fs(q, JOIN_RING)) == \
        24 * fs(pb.cube(3), JOIN_RING)
    assert dehn_sommerville_check(q)
    _report(12, "incidence closure profile (1,24,96,96,24,1), self-dual, "
                "facet sums 24*BI^2 and 24*I^3, relations hold")
