"""Named verification suites: each check recomputes one published identity
or table from first principles and reports pass/fail.

The catalogue is the desk-scale polytope collection every suite draws on:
point, segment, small polygons, simplices, cubes, cross-polytopes, the
square pyramid and triangular bipyramid, the 24-cell, and the sparse-flag
basis polytopes through dimension five.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

from . import lyndon, polytopes as pb
from .qsym import QSym
from .ring import (FormalSum, JOIN_RING, PRODUCT_RING, a_op, antipode_rp,
                   bipyramid_op, comodule_pairs, cone_op, coaction, counit,
                   d_k, hopf_coproduct_pairs, l_alpha, mul_join, phi_poly)
from .transforms import (FLAVOR_JOIN, FLAVOR_POSET, FLAVOR_PRODUCT,
                         a0_qsym, a_rp_qsym, b0_qsym, b_qsym, b_rp_qsym,
                         bb_basis, bb_det, bb_multiply, basis_word_strings,
                         c0_qsym, c_rp_qsym, cone_qsym, dehn_sommerville_check,
                         ehrenborg_F, f_poly, f_rp, project_bb,
                         sparse_index_sets, verify_image_equations)


class Check:
    __slots__ = ("name", "ok", "detail", "elapsed")

    def __init__(self, name, ok, detail="", elapsed=0.0):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail
        self.elapsed = elapsed


def execute_check(name, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
        if isinstance(detail, tuple):
            ok, detail = detail
    except AssertionError as exc:
        ok, detail = False, str(exc)
    except Exception as exc:  # surface as a failed check, not a crash
        ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
    return Check(name, ok, detail or "", time.perf_counter() - t0)


def omega_polytopes(n):
    return [pb.from_word(w) for w in basis_word_strings(n)]


def catalogue():
    """name -> Polytope for the desk-scale collection (dims -1..5)."""
    out = {"empty": pb.empty(), "pt": pb.point(), "I": pb.segment()}
    for m in range(3, 9):
        out["polygon(%d)" % m] = pb.polygon(m)
    for n in range(1, 5):
        out["simplex(%d)" % n] = pb.simplex(n)
        out["cube(%d)" % n] = pb.cube(n)
        out["cross(%d)" % n] = pb.cross(n)
    out["CI2"] = pb.cone(pb.cube(2))
    out["BD2"] = pb.bipyramid(pb.simplex(2))
    out["cell24"] = pb.cell24()
    for n in range(1, 6):
        for w in basis_word_strings(n):
            out.setdefault("word(%s)" % w, pb.from_word(w))
    return out


def nonempty_catalogue():
    return {k: v for k, v in catalogue().items() if not v.is_empty()}


def fs(poly, ambient=PRODUCT_RING, coeff=1):
    return FormalSum.of(poly, ambient, coeff)


# -- suites -------------------------------------------------------------------


def suite_phi_unit():
    """Convolution of the face-operator series with its sign twist is the
    identity, in both rings."""
    checks = []
    for name, poly in nonempty_catalogue().items():
        for ambient in (PRODUCT_RING, JOIN_RING):
            def check(poly=poly, ambient=ambient):
                s = fs(poly, ambient)
                series = phi_poly(s)
                top = len(series)
                for k in range(1, top + 2):
                    # sum over i + j = k of (-1)^i d_i d_j s, with d_0 = 1
                    acc = FormalSum(ambient, (
                        (q, -c if i % 2 else c)
                        for i in range(k + 1) if k - i < top
                        for q, c in (d_k(series[k - i], i) if i
                                     else series[k]).terms.items()))
                    assert acc.is_zero(), \
                        "degree %d residue %r" % (k, acc)
                return "degrees 1..%d" % (top + 1)
            checks.append(("phi-unit[%s,%s]" % (name, ambient), check))
    return checks


def suite_dehn_sommerville():
    checks = []
    polys = {name: p for name, p in nonempty_catalogue().items()
             if p.dim >= 1}
    for name, poly in polys.items():
        checks.append(("dehn-sommerville[%s]" % name,
                       lambda poly=poly: (dehn_sommerville_check(poly), "")))
    return checks


def suite_image_equations():
    """Transform images satisfy the substitution identities; perturbing any
    one flag number violates at least one of them."""
    checks = []
    for n in range(1, 5):
        for word, poly in zip(basis_word_strings(n), omega_polytopes(n)):
            def check(poly=poly, n=n):
                r = n
                g = f_poly(poly).expand(r)
                assert verify_image_equations(g, n, FLAVOR_PRODUCT), \
                    "product-ring equations fail"
                grp = f_rp(poly).expand(r + 1)
                assert verify_image_equations(grp, n + 1, FLAVOR_JOIN), \
                    "join-ring equations fail"
                gF = ehrenborg_F(poly).expand(r + 1)
                assert verify_image_equations(gF, n + 1, FLAVOR_POSET), \
                    "poset equations fail"
                return "3 flavors"
            checks.append(("image[%s]" % word, check))

    def mutation():
        # f_empty = alpha^n stays fixed: in even dimension no relation pins
        # it (and rescaling it stays inside the image anyway)
        count = 0
        for n in (2, 3):
            for poly in omega_polytopes(n):
                g = f_poly(poly)
                for a, comp in g.terms:
                    if not comp:
                        continue
                    bad = g + QSym.monomial(comp, alpha=a)
                    assert not verify_image_equations(
                        bad.expand(n), n, FLAVOR_PRODUCT), \
                        "perturbing alpha^%d M%r went undetected" % (a, comp)
                    count += 1
        return "%d mutations rejected" % count
    checks.append(("image[mutation]", mutation))
    return checks


def suite_join_cone():
    checks = []
    pt = pb.point()
    small = [pb.point(), pb.segment(), pb.simplex(2), pb.cube(2)]

    def join_is_lattice_product():
        for p in nonempty_catalogue().values():
            if p.dim > 3:
                continue
            assert pb.cone(p) == pb.join(pt, p)
        return ""
    checks.append(("cone-is-point-join", join_is_lattice_product))

    def bipyramid_cross_check():
        # the dual route: suspension equals dual(prod(I, dual(P)))
        for p in small + [pb.simplex(3)]:
            via_dual = pb.dual(pb.product(pb.segment(), pb.dual(p)))
            assert pb.bipyramid(p) == via_dual, p
        return ""
    checks.append(("bipyramid-dual-route", bipyramid_cross_check))

    def join_formula():
        alpha = QSym.alpha_power(1)
        for p, q in itertools.combinations_with_replacement(small, 2):
            lhs = f_poly(pb.join(p, q))
            rhs = (f_poly(p) * ehrenborg_F(q).star()
                   + ehrenborg_F(p).star() * f_poly(q)
                   + alpha * f_poly(p) * f_poly(q))
            assert lhs == rhs, (p, q)
        return ""
    checks.append(("join-flag-formula", join_formula))

    def cone_formula():
        alpha = QSym.alpha_power(1)
        for p in small + [pb.cube(3), pb.simplex(3)]:
            lhs = f_poly(pb.cone(p))
            rhs = ehrenborg_F(p).star() + (alpha + QSym.sigma(1)) * f_poly(p)
            assert lhs == rhs, p
        return ""
    checks.append(("cone-flag-formula", cone_formula))
    return checks


def suite_comodule():
    checks = []
    pt, seg = pb.point(), pb.segment()
    tri, sq, d3 = pb.simplex(2), pb.cube(2), pb.simplex(3)

    def antipode_axiom():
        # antipode_rp is built from the left-sided sum; the right-sided one
        # checks it
        for p in (pt, seg, tri, sq):
            pairs = [(fs(f, JOIN_RING), fs(quot, JOIN_RING))
                     for f, quot in hopf_coproduct_pairs(p)]
            left = FormalSum(JOIN_RING, (
                t for f, quot in pairs
                for t in mul_join(f, antipode_rp(quot)).terms.items()))
            right = FormalSum(JOIN_RING, (
                t for f, quot in pairs
                for t in mul_join(antipode_rp(f), quot).terms.items()))
            assert left.is_zero(), p
            assert right.is_zero(), p
        return ""
    checks.append(("antipode-axiom", antipode_axiom))

    def coassociativity():
        for p in (tri, sq, d3):
            left = Counter()
            for f, quot in comodule_pairs(p):
                for g, mid in comodule_pairs(f):
                    left[(g, mid, quot)] += 1
            right = Counter()
            for f, quot in comodule_pairs(p):
                for g, h in hopf_coproduct_pairs(quot):
                    right[(f, g, h)] += 1
            assert left == right, p
        return ""
    checks.append(("coaction-coassociative", coassociativity))

    def ring_homomorphism():
        for p, q in [(seg, seg), (seg, tri), (tri, sq)]:
            left = Counter()
            for f, quot in comodule_pairs(pb.product(p, q)):
                left[(f, quot)] += 1
            right = Counter()
            for f1, q1 in comodule_pairs(p):
                for f2, q2 in comodule_pairs(q):
                    right[(pb.product(f1, f2), pb.join(q1, q2))] += 1
            assert left == right, (p, q)
        return ""
    checks.append(("coaction-multiplicative", ring_homomorphism))

    def ehrenborg_compatibility():
        for p in (tri, d3):
            left = _qsym_by_type((f, t) for f, quot in comodule_pairs(p)
                                 for t in ehrenborg_F(quot).terms.items())
            right = _qsym_by_type((poly, ((0, word), c))
                                  for word, result in coaction(fs(p))
                                  for poly, c in result.terms.items())
            assert left == right, p
        return ""
    checks.append(("coaction-vs-word-coaction", ehrenborg_compatibility))

    def l_alpha_identity():
        for p in (pt, seg, tri, sq, d3, pb.cone(sq)):
            acc = QSym(((a + power, c), v)
                       for power, ssum in l_alpha(p).items()
                       for (a, c), v in ehrenborg_F(ssum).star().terms.items())
            assert acc == f_poly(p), p
        return ""
    checks.append(("l-alpha-reconstruction", l_alpha_identity))
    return checks


def _qsym_by_type(pairs):
    """{type: QSym} from (type, (monomial key, coefficient)) pairs, the
    types whose sum is zero left out."""
    grouped = {}
    for poly, term in pairs:
        grouped.setdefault(poly, []).append(term)
    sums = {poly: QSym(terms) for poly, terms in grouped.items()}
    return {poly: q for poly, q in sums.items() if not q.is_zero()}


def suite_operators():
    checks = []
    pt, seg = pb.point(), pb.segment()
    small = [pt, seg, pb.simplex(2), pb.cube(2), pb.simplex(3),
             pb.cone(pb.cube(2))]

    def commutator_dc():
        for p in small:
            s = fs(p)
            lhs = d_k(cone_op(s), 1) - cone_op(d_k(s, 1))
            want = s + (fs(pt) if p.dim == 0 else FormalSum(PRODUCT_RING))
            assert lhs == want, "product ring at %s" % p
            s = fs(p, JOIN_RING)
            lhs = d_k(cone_op(s), 1) - cone_op(d_k(s, 1))
            assert lhs == s, "join ring at %s" % p
        return ""
    checks.append(("commutator-[d,C]", commutator_dc))

    def phi_c_identity():
        for p in small:
            n = p.dim
            s = fs(p)
            lhs = phi_poly(cone_op(s))
            for k in range(len(lhs)):
                rhs = FormalSum(PRODUCT_RING)
                if k == 0:
                    rhs = cone_op(s)
                else:
                    rhs = cone_op(d_k(s, k)) + (s if k == 1 else
                                                d_k(s, k - 1))
                    if k == n + 1:
                        rhs = rhs + fs(pt)
                assert lhs[k] == rhs, (p, k)
            s = fs(p, JOIN_RING)
            lhs = phi_poly(cone_op(s))
            for k in range(1, len(lhs)):
                rhs = cone_op(d_k(s, k)) + (s if k == 1 else d_k(s, k - 1))
                assert lhs[k] == rhs, (p, k, "join")
        return ""
    checks.append(("phi-cone-identity", phi_c_identity))

    def phi_b_identity():
        for p in small:
            n = p.dim
            s = fs(p)
            lhs = phi_poly(bipyramid_op(s))
            for k in range(len(lhs)):
                if k == 0:
                    rhs = bipyramid_op(s)
                else:
                    rhs = 2 * cone_op(d_k(s, k)) + (s if k == 1
                                                    else d_k(s, k - 1))
                    if k == 1:
                        rhs = rhs - s
                    if k == n + 1:
                        rhs = rhs + 2 * fs(pt)
                assert lhs[k] == rhs, (p, k)
            s = fs(p, JOIN_RING)
            lhs = phi_poly(bipyramid_op(s))
            for k in range(1, len(lhs)):
                rhs = 2 * cone_op(d_k(s, k)) + (s if k == 1
                                                else d_k(s, k - 1))
                if k == 1:
                    rhs = rhs - s + counit(s) * fs(pb.empty(), JOIN_RING)
                assert lhs[k] == rhs, (p, k, "join")
        return ""
    checks.append(("phi-bipyramid-identity", phi_b_identity))

    def phi_bc_commutator():
        for p in small:
            s = fs(p)
            br = bipyramid_op(cone_op(s)) - cone_op(bipyramid_op(s))
            series = phi_poly(br)
            for k in range(1, len(series)):
                want = FormalSum(PRODUCT_RING)
                if k == 1:
                    want = a_op(s)
                elif k == 2:
                    want = s
                assert series[k] == want, (p, k)
        for p in small + [pb.empty()]:
            s = fs(p, JOIN_RING)
            br = bipyramid_op(cone_op(s)) - cone_op(bipyramid_op(s))
            series = phi_poly(br)
            eps = counit(s)
            for k in range(1, len(series)):
                want = FormalSum(JOIN_RING)
                if k == 1:
                    want = a_op(s) - eps * fs(pt, JOIN_RING)
                elif k == 2:
                    want = s - eps * fs(pb.empty(), JOIN_RING)
                assert series[k] == want, (p, k, "join")
        return ""
    checks.append(("phi-[B,C]-identity", phi_bc_commutator))

    def qsym_side():
        for p in (pt, seg, pb.simplex(2), pb.cube(2), pb.simplex(3),
                  pb.cube(3)):
            assert cone_qsym(f_poly(p)) == f_poly(pb.cone(p)), p
            assert b_qsym(f_poly(p)) == f_poly(pb.bipyramid(p)), p
        for p in (pt, seg, pb.simplex(2)):
            s = fs(p, JOIN_RING)
            assert c_rp_qsym(f_rp(p)) == f_rp(cone_op(s))
            assert b_rp_qsym(f_rp(p)) == f_rp(bipyramid_op(s))
            assert a_rp_qsym(f_rp(p)) == f_rp(a_op(s))
            Fst = ehrenborg_F(p).star()
            assert c0_qsym(Fst) == ehrenborg_F(cone_op(s)).star()
            assert b0_qsym(Fst) == ehrenborg_F(bipyramid_op(s)).star()
            assert a0_qsym(Fst) == ehrenborg_F(a_op(s)).star()
        return ""
    checks.append(("qsym-side-operators", qsym_side))
    return checks


def suite_lyndon_counts():
    checks = []

    def k_table():
        ks = lyndon.series_exponents(lyndon.fibonacci_series(12), 12)
        assert ks[:7] == [1, 1, 1, 1, 2, 2, 4], ks[:7]
        for n in range(1, 8):
            assert lyndon.count_lyndon((1, 2), n) == ks[n - 1], n
        for n in list(range(3, 8)) + [1]:
            assert lyndon.count_lyndon(lyndon.ODD, n) == ks[n - 1], n
        # degree 2 over the odd alphabet: the missing generator is the
        # grading-square, so the word count sits one below
        assert lyndon.count_lyndon(lyndon.ODD, 2) == ks[1] - 1
        for n in range(1, 13):
            assert lyndon.k_via_moebius(n) == ks[n - 1], n
        assert lyndon.k_prime(5) == 2 and lyndon.k_prime(7) == 4
        assert lyndon.k_prime(11) == 18
        assert lyndon.odd_partition_count(6) == 4
        for n in range(1, 12):
            assert ks[n] >= ks[n - 1]
        for n in range(1, 13):
            assert ks[n - 1] >= lyndon.odd_partition_count(n) - 2
        return "k = %s" % (ks,)
    checks.append(("k-table", k_table))

    def counts_match_fibonacci():
        for n in range(3, 13):
            a = lyndon.count_lyndon((1, 2), n)
            b = lyndon.count_lyndon(lyndon.ODD, n)
            c = lyndon.k_via_moebius(n)
            assert a == b == c, n
        return ""
    checks.append(("three-routes", counts_match_fibonacci))

    def truncated_products():
        cases = [
            ([(1, 1), (2, 1)], [1, -1, -1, 1]),
            ([(1, 1), (2, 1), (3, 1)], [1, -1, -1, 0, 1, 1, -1]),
            ([(1, 1), (2, 1), (3, 1), (4, 1)],
             [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1]),
        ]
        for factors, want in cases:
            got = lyndon.product_expansion(factors, len(want) - 1)
            assert got == want, (factors, got)
        want = [0] * 21
        for c, e in [(1, 0), (-1, 1), (-1, 2), (2, 6), (2, 7), (-1, 8),
                     (-1, 9), (-2, 10), (-1, 11), (-1, 12), (2, 13), (2, 14),
                     (-1, 18), (-1, 19), (1, 20)]:
            want[e] = c
        got = lyndon.product_expansion([(1, 1), (2, 1), (3, 1), (4, 1),
                                        (5, 2)], 20)
        assert got == want, got
        return "4 products"
    checks.append(("truncated-products", truncated_products))
    return checks


def suite_bb():
    checks = []

    def k2_exact():
        b = bb_basis(2)
        assert b.matrix == ((1, 3), (1, 4)), b.matrix
        assert b.det() == 1
        return ""
    checks.append(("K2", k2_exact))

    def dets():
        vals = [bb_det(n) for n in range(1, 7)]
        assert all(abs(v) == 1 for v in vals), vals
        return "dets %s" % (vals,)
    checks.append(("unimodular", dets))

    def counts():
        want = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        for n in range(1, 11):
            assert len(sparse_index_sets(n)) == want[n], n
            assert len(basis_word_strings(n)) == want[n], n
            assert lyndon.fibonacci(n) == want[n]
        return ""
    checks.append(("fibonacci-counts", counts))

    def projections():
        penta = pb.polygon(5)
        got = project_bb(penta, 2)
        want = 2 * fs(pb.cube(2)) - fs(pb.simplex(2))
        assert got == want, got
        for n in (1, 2, 3):
            for q in omega_polytopes(n):
                assert project_bb(q, n) == fs(q)
        prod = bb_multiply(fs(pb.segment()), fs(pb.simplex(2)))
        assert f_poly(prod) == f_poly(pb.segment()) * f_poly(pb.simplex(2))
        assert bb_multiply(fs(pb.segment()), fs(pb.segment())) \
            == fs(pb.cube(2))
        return ""
    checks.append(("projection", projections))
    return checks


def suite_appendix_c():
    """Golden transform images in dimensions 0..3."""
    checks = []
    M = QSym.monomial
    pt, seg = pb.point(), pb.segment()
    tri, sq = pb.simplex(2), pb.cube(2)
    d3, ci2, bd2 = pb.simplex(3), pb.cone(pb.cube(2)), \
        pb.bipyramid(pb.simplex(2))
    sigma = QSym.sigma
    cases = [
        ("F(pt)", fs(pt, JOIN_RING), M((1,))),
        ("F(I)", fs(seg, JOIN_RING), M((2,)) + 2 * M((1, 1))),
        ("F(4D2-3I2)", 4 * fs(tri, JOIN_RING) - 3 * fs(sq, JOIN_RING),
         M((3,))),
        ("F(I2-D2)", fs(sq, JOIN_RING) - fs(tri, JOIN_RING),
         sigma(1) * sigma(2) - sigma(3)),
        ("F(5D3-6CI2+2BD2)",
         5 * fs(d3, JOIN_RING) - 6 * fs(ci2, JOIN_RING)
         + 2 * fs(bd2, JOIN_RING), M((4,)) + 2 * M((3, 1))),
        ("F(-D3+3CI2-2BD2)",
         -1 * fs(d3, JOIN_RING) + 3 * fs(ci2, JOIN_RING)
         - 2 * fs(bd2, JOIN_RING), M((1, 3)) - M((3, 1))),
        ("F(-CI2+BD2)", -1 * fs(ci2, JOIN_RING) + fs(bd2, JOIN_RING),
         M((2, 2)) + M((3, 1)) + 2 * (sigma(1) * sigma(3) - 2 * sigma(4))),
    ]
    for m in (3, 4, 5):
        cases.append(("F(polygon(%d))" % m, fs(pb.polygon(m), JOIN_RING),
                      M((3,)) + m * (sigma(1) * sigma(2) - sigma(3))))
    for name, s, want in cases:
        checks.append((name, lambda s=s, want=want: (ehrenborg_F(s) == want,
                                                     repr(want))))
    return checks


SUITES = {
    "phi-unit": suite_phi_unit,
    "dehn-sommerville": suite_dehn_sommerville,
    "image-equations": suite_image_equations,
    "join-cone": suite_join_cone,
    "comodule": suite_comodule,
    "operators": suite_operators,
    "lyndon-counts": suite_lyndon_counts,
    "bb": suite_bb,
    "appendix-c": suite_appendix_c,
}


def run_suite(name):
    """Execute one named suite; returns the list of Check results."""
    if name not in SUITES:
        raise KeyError(name)
    return [execute_check(n, f) for n, f in SUITES[name]()]
