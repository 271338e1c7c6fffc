"""The closed forms of the quasi-symmetric cone operators, the free-algebra
antipode and the series exponents, the free-algebra coproduct summed by
split multiplicities (also on integral inputs, where both run on ints),
the one-pass deconcatenation of `QSym.coproduct`, and the one-elimination
exact solve, against the routes they replaced, kept in `oracles`, each on
at least 300 seeded random inputs; the sparse-flag matrix read off flag
polynomials against the flag numbers of the built basis polytopes; and
the flag transforms, read off F through one flag map, against the flag
routes they replaced, on the catalogue and on random constructions."""

import random
from fractions import Fraction

import pytest

import oracles
from polyqsym import polytopes as pb
from polyqsym.lyndon import fibonacci_series, series_exponents
from polyqsym.intlinalg import solve_exact
from polyqsym.ncalg import NCPoly, antipode, coproduct
from polyqsym.qsym import QSym, compositions
from polyqsym.ring import FormalSum, JOIN_RING, PRODUCT_RING
from polyqsym.transforms import (a_qsym, bb_basis, cone_qsym, ehrenborg_F,
                                 f_poly, f_rp, sparse_index_sets)

CASES = 300


def _random_qsym(rng):
    """A few terms alpha^a M_c with small parts, empty c included."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        terms.append(((rng.randint(0, 2), comp), rng.randint(-4, 4)))
    return QSym(terms)


def _qsym_inputs():
    rng = random.Random(20100)
    out = [QSym(), QSym.one(), QSym.alpha_power(1), QSym.alpha_power(3, -2),
           QSym.alpha_power(2) + QSym.monomial((1, 2), 3, alpha=1)]
    out += [f_poly(p) for p in (pb.point(), pb.segment(), pb.simplex(2),
                                pb.cube(2), pb.simplex(3), pb.cross(3))]
    while len(out) < CASES:
        out.append(_random_qsym(rng))
    return out


def test_cone_qsym_matches_expansion_route():
    gs = _qsym_inputs()
    # alpha powers on the empty composition, the unit and zero are inputs
    assert any(a and not c for g in gs for (a, c) in g.terms)
    assert any(g.is_zero() for g in gs)
    for g in gs:
        assert cone_qsym(g) == oracles.cone_qsym(g), g


def test_a_qsym_matches_expansion_route():
    for g in _qsym_inputs():
        assert a_qsym(g) == oracles.a_qsym(g), g


def _random_ncpoly(rng):
    """A few words in letters 1..5, the empty word included."""
    terms = []
    for _ in range(rng.randint(0, 3)):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
        terms.append((word, Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
    return NCPoly(terms)


def _ncpoly_inputs():
    rng = random.Random(1995)
    out = [NCPoly(), NCPoly.one(), NCPoly.gen(5), NCPoly.word((5, 5, 5)),
           NCPoly.word((1, 2, 3, 4, 5)) - 2 * NCPoly.one()]
    while len(out) < CASES:
        out.append(_random_ncpoly(rng))
    return out


def test_antipode_matches_generator_route():
    polys = _ncpoly_inputs()
    assert sum(() in a.terms for a in polys) > 1
    for a in polys:
        assert antipode(a) == oracles.antipode(a), a


def _coproduct_inputs():
    """Words of weight at most 10 with signed non-integral coefficients,
    the empty word and words that share coproduct keys included."""
    rng = random.Random(1994)
    out = [NCPoly.word((), Fraction(-1, 2)),
           NCPoly.word((1, 2), Fraction(1, 3))
           - NCPoly.word((2, 1), Fraction(1, 3))]
    while len(out) < CASES:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = rng.choice(compositions(rng.randint(0, 10)))
            den = rng.randint(2, 5)
            num = rng.choice((-1, 1)) * rng.choice(
                [n for n in range(1, 12) if n % den])
            terms[word] = Fraction(num, den)
        out.append(NCPoly(terms))
    return out


def test_coproduct_matches_split_route():
    polys = _coproduct_inputs()
    assert sum(() in a.terms for a in polys) > 1
    assert all(v.denominator > 1 for a in polys[2:]
               for v in a.terms.values())
    merged = 0
    for a in polys:
        cp = coproduct(a)
        assert cp == oracles.coproduct_split_route(a), a
        merged += len(cp) < sum(len(coproduct(NCPoly({w: v})))
                                for w, v in a.terms.items())
    # keys shared by two words of one input occur
    assert merged > 10


def test_antipode_matches_generator_route_on_coproduct_inputs():
    for a in _coproduct_inputs():
        assert antipode(a) == oracles.antipode(a), a


def _integral_ncpoly_inputs():
    """Words of weight at most 10 with signed integer coefficients, some
    given as integral Fractions or floats, the empty word included."""
    rng = random.Random(2001)
    out = [NCPoly.one(), NCPoly.word((), -3), NCPoly.word((10,), 2),
           NCPoly.word((1,) * 10, -1)]
    while len(out) < CASES:
        terms = []
        for _ in range(rng.randint(1, 4)):
            word = rng.choice(compositions(rng.randint(0, 10)))
            v = rng.choice((-3, -2, -1, 1, 2, 5))
            terms.append((word, rng.choice((v, Fraction(2 * v, 2),
                                            float(v)))))
        out.append(NCPoly(terms))
    return out


def test_kernels_match_oracles_on_integral_inputs():
    """The int fast path: on integral inputs the coproduct and the
    antipode are all ints and equal their oracles."""
    polys = _integral_ncpoly_inputs()
    assert sum(() in a.terms for a in polys) > 1
    assert max(sum(w) for a in polys for w in a.terms) == 10
    for a in polys:
        assert all(type(v) is int for v in a.terms.values()), a
        cp, s = coproduct(a), antipode(a)
        assert all(type(v) is int for v in cp.values()), a
        assert all(type(v) is int for v in s.terms.values()), a
        assert cp == oracles.coproduct_split_route(a), a
        assert s == oracles.antipode(a), a


def _plain_qsym_inputs():
    """Plain-ring QSyms: the zero, multiples of the unit M_(), and random
    sums with the empty composition among their terms."""
    rng = random.Random(1998)
    out = [QSym(), QSym.one(), QSym.monomial((), -4),
           QSym.monomial((3, 1, 2)) + QSym.monomial(()) - QSym.monomial((1,))]
    while len(out) < CASES:
        terms = []
        for _ in range(rng.randint(0, 6)):
            comp = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
            terms.append(((0, comp), rng.randint(-4, 4)))
        out.append(QSym(terms))
    return out


def test_qsym_coproduct_matches_merge_route():
    qs = _plain_qsym_inputs()
    assert sum(((0, ()) in q.terms for q in qs)) > 10
    for q in qs:
        assert q.coproduct() == oracles.qsym_coproduct_merge_route(q), q
    for q in (QSym.alpha_power(1),
              QSym.monomial((2,)) + QSym.monomial((1, 2), 3, alpha=1)):
        for route in (QSym.coproduct, oracles.qsym_coproduct_merge_route):
            with pytest.raises(ValueError, match="plain ring"):
                route(q)


def _series_inputs():
    """(target, nmax) pairs with nmax from 0 to 100: random integer series,
    some shorter than nmax + 1 and some longer, and the series of
    1/(1 - sum t^a)."""
    rng = random.Random(2010)
    out = [([1], 0), ([1], 5), ([1] + [0] * 10, 10), ([1, 4, -2], 0),
           ([1], 1), ([1, -3], 1), ([1, 2, 7], 1),
           (fibonacci_series(40), 40), (fibonacci_series(20), 30),
           (fibonacci_series(100), 100), (fibonacci_series(60), 100)]
    while len(out) < CASES:
        nmax = rng.randint(0, 40) if len(out) % 5 else rng.randint(41, 100)
        if rng.random() < 0.5:
            letters = rng.sample(range(1, 8), rng.randint(1, 4))
            target = [1] + [0] * nmax
            for n in range(1, nmax + 1):
                target[n] = sum(target[n - a] for a in letters if a <= n)
            target = target[:rng.randint(1, nmax + 1)]
        else:
            target = [1] + [rng.randint(-3, 5)
                            for _ in range(rng.randint(0, nmax + 5))]
        out.append((target, nmax))
    return out


def test_series_exponents_match_degreewise_route():
    cases = _series_inputs()
    assert any(len(t) < n + 1 for t, n in cases)
    assert any(len(t) < n + 1 for t, n in cases if n > 90)
    assert {0, 1, 100} <= {n for _, n in cases}
    for target, nmax in cases:
        assert series_exponents(target, nmax) == \
            oracles.series_exponents(target, nmax), (target, nmax)


@pytest.mark.parametrize("target", [[], [0, 1], [2, 1], [-1], [0]])
def test_series_exponents_need_constant_term_one(target):
    for solve in (series_exponents, oracles.series_exponents):
        with pytest.raises(ValueError):
            solve(target, 3)


def test_bb_matrix_matches_lattice_route():
    for n in range(1, 8):
        assert bb_basis(n).matrix == oracles.bb_matrix_lattice_route(n), n


def _unimodular(rng, n):
    """A product of random elementary integer matrices and a signed
    permutation: determinant +-1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * (n - 1)):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in a]


def _systems():
    """Seeded square systems (matrix, rhs), by turns unimodular, general
    (Fraction answers), with a zero right-hand side, and singular (one row
    a multiple of another); and the 0 x 0 system."""
    rng = random.Random(1968)
    out = [([], [])]
    while len(out) < CASES:
        kind = len(out) % 4
        n = rng.randint(2 if kind == 3 else 1, 7)
        a = (_unimodular(rng, n) if kind == 0 else
             [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if kind == 3:
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            a[i] = [k * x for x in a[j]]
        b = [0 if kind == 2 else rng.randint(-20, 20) for _ in range(n)]
        out.append((a, b))
    return out


def test_solve_exact_matches_cramer():
    solved = fractional = singular = 0
    for a, b in _systems():
        try:
            want = oracles.solve_exact_cramer(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                solve_exact(a, b)
            singular += 1
            continue
        got = solve_exact(a, b)
        assert got == want, (a, b)
        assert all(isinstance(x, Fraction) for x in got)
        solved += 1
        fractional += any(x.denominator != 1 for x in got)
    assert solve_exact([], []) == []
    assert solved > CASES // 2 and fractional and singular >= CASES // 4, \
        (solved, fractional, singular)


# -- the flag transforms against their flag routes ----------------------------


def _f_rp_flag_route(s):
    """F* + alpha f, each read off the flag vector by its own route."""
    f = oracles.f_poly_flag_route(FormalSum(PRODUCT_RING, (
        (poly, c) for poly, c in s.terms.items() if not poly.is_empty())))
    return (oracles.ehrenborg_F_chain_sum(s).star()
            + QSym.alpha_power(1) * f)


def _assert_flag_routes_agree(s, label):
    assert ehrenborg_F(s) == oracles.ehrenborg_F_chain_sum(s), label
    assert f_rp(s) == _f_rp_flag_route(s), label
    if not any(poly.is_empty() for poly in s.terms):
        assert f_poly(s) == oracles.f_poly_flag_route(s), label


def test_flag_transforms_match_flag_routes_on_catalogue(catalogue):
    for name, p in catalogue.items():
        _assert_flag_routes_agree(FormalSum.of(p, JOIN_RING), name)


MAX_RANDOM_FACES = 400


def _random_constructions(rng, count):
    """Seeded `prod`, `join`, `dual` and `word` results of at most
    MAX_RANDOM_FACES faces, each built from earlier ones or small atoms."""
    pool = [pb.point(), pb.segment(), pb.simplex(2), pb.cube(2),
            pb.polygon(5)]
    out = []
    while len(out) < count:
        op = rng.choice(("prod", "join", "dual", "word"))
        p, q = rng.choice(pool), rng.choice(pool)
        if op == "word":
            made = pb.from_word("".join(rng.choice("BC")
                                        for _ in range(rng.randint(1, 5))))
        elif op == "dual":
            made = pb.dual(p)
        elif op == "prod":
            if (p.lattice.n - 1) * (q.lattice.n - 1) + 1 > MAX_RANDOM_FACES:
                continue
            made = pb.product(p, q)
        else:
            if p.lattice.n * q.lattice.n > MAX_RANDOM_FACES:
                continue
            made = pb.join(p, q)
        if made.lattice.n <= MAX_RANDOM_FACES:
            pool.append(made)
            out.append((op, made))
    return out


def test_flag_transforms_match_flag_routes_on_random_constructions():
    rng = random.Random(1981)
    made = _random_constructions(rng, 80)
    assert {op for op, _ in made} == {"prod", "join", "dual", "word"}
    for op, p in made:
        _assert_flag_routes_agree(FormalSum.of(p, JOIN_RING), (op, p))
    # linear combinations, the empty polytope and cancelling terms included
    polys = [p for _, p in made] + [pb.empty()]
    for _ in range(40):
        terms = [(rng.choice(polys), rng.randint(-3, 3)) for _ in range(3)]
        s = FormalSum(JOIN_RING, terms)
        _assert_flag_routes_agree(s, terms)
        s = FormalSum(PRODUCT_RING, [(p, c) for p, c in terms
                                     if not p.is_empty()])
        assert f_poly(s) == oracles.f_poly_flag_route(s), terms


def test_sparse_index_sets_match_subset_filter():
    for n in range(1, 15):
        assert sparse_index_sets(n) == oracles.sparse_index_sets_filter(n), n
