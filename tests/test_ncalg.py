import random
from fractions import Fraction

import pytest

from polyqsym import polytopes as pb, store
from polyqsym.ncalg import (DualFunctional, NCPoly, antipode, basis_words,
                            coproduct, counit, d_even_formula,
                            euler_relation, is_normal_word, normal_form,
                            pairing, s_series)
from polyqsym.polys import AlphaPoly
from polyqsym.qsym import QSym, compositions
from polyqsym.ring import JOIN_RING, PRODUCT_RING, apply_operator
from polyqsym.lyndon import fibonacci
from conftest import fs
from oracles import (d_even_formula_length_route,
                     dual_functional_from_word_values,
                     normal_form_rewriting, normal_form_word_rewriting,
                     theta_substitution_invariant)

Z = NCPoly.gen
W = NCPoly.word


def test_free_algebra_basics():
    assert W((1, 2)) != W((2, 1))
    assert (Z(1) * Z(2)).terms == {(1, 2): 1}
    assert counit(NCPoly.one()) == 1
    assert counit(Z(3)) == 0
    with pytest.raises(ValueError):
        NCPoly.gen(0)
    assert NCPoly.word((2.0, Fraction(1))) == W((2, 1))


def test_coproduct():
    cp = coproduct(Z(2))
    assert cp == {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1}
    cp = coproduct(W((1, 1)))
    assert cp == {((), (1, 1)): 1, ((1,), (1,)): 2, ((1, 1), ()): 1}
    # multiplicative on words
    cp = coproduct(W((2, 1)))
    expected = {}
    for (l1, r1), v1 in coproduct(Z(2)).items():
        for (l2, r2), v2 in coproduct(Z(1)).items():
            k = (l1 + l2, r1 + r2)
            expected[k] = expected.get(k, 0) + v1 * v2
    assert cp == expected


def test_coproduct_and_antipode_cancel_across_words():
    a = W((1, 2)) - W((2, 1))
    before = dict(a.terms)
    assert ((1, 1), (1,)) not in coproduct(a)
    s = antipode(a)
    assert (1, 1, 1) not in s.terms
    rebuilt = NCPoly(dict(s.terms))
    assert s == rebuilt and hash(s) == hash(rebuilt)
    assert a.terms == before


def test_values_are_nonzero_ints_or_fractions():
    """Every value of `coproduct`, `antipode` and `normal_form` is a
    nonzero int or Fraction.  On an input whose coefficients are all
    integral every value is an int, so the kernels run on machine integers;
    a value with a denominator stays a Fraction."""
    integral = [NCPoly.one(), W((1, 1)), W((2, 1)) + 3 * W((1, 2)),
                W((1, 2)) - W((2, 1)), euler_relation(5) * W((1, 1)),
                NCPoly({(3, 1, 1): Fraction(4, 2), (4,): 2.0, (1, 2): "-3",
                        (2,): True})]
    fractional = [Fraction(1, 2) * W((3, 1, 1)) - Z(4), s_series(4)[4],
                  d_even_formula(2)]
    assert all(type(v) is int for a in integral for v in a.terms.values())
    for a in integral + fractional:
        for values in (coproduct(a).values(), antipode(a).terms.values(),
                       normal_form(a).terms.values()):
            values = list(values)
            assert all(type(v) in (int, Fraction) and v for v in values), a
            if a in integral:
                assert all(type(v) is int for v in values), a
    half = coproduct(fractional[0])[((3, 1, 1), ())]
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(antipode(fractional[0]).terms[(1, 1, 3)]) is Fraction
    # an integral Fraction left by arithmetic equals, hashes and prints as
    # the int
    whole = Fraction(1, 2) * W((2, 1)) + Fraction(1, 2) * W((2, 1))
    assert type(whole.terms[(2, 1)]) is Fraction
    assert whole == W((2, 1)) and hash(whole) == hash(W((2, 1)))
    assert repr(3 * whole) == repr(3 * W((2, 1))) == "3*Z2 Z1"


@pytest.mark.parametrize("word", [(2.5, 1), ("3",), (1, Fraction(3, 2)),
                                  (True, 2), (2, False)])
def test_letters_must_be_integers(word):
    with pytest.raises(ValueError):
        NCPoly.word(word)
    with pytest.raises(ValueError):
        NCPoly({word: 1})


def test_antipode_generators():
    assert antipode(Z(1)) == -Z(1)
    assert antipode(Z(2)) == -Z(2) + W((1, 1))
    assert antipode(Z(3)) == -Z(3) + W((1, 2)) + W((2, 1)) - W((1, 1, 1))


def test_antipode_convolution_identity():
    for n in range(1, 7):
        acc = NCPoly()
        for i in range(n + 1):
            left = NCPoly.one() if i == 0 else antipode(Z(i))
            right = NCPoly.one() if n == i else Z(n - i)
            acc = acc + left * right
        assert acc.is_zero(), n


def test_antipode_axiom_on_words():
    for n in range(1, 7):
        for w in compositions(n):
            acc = NCPoly()
            for (l, r), c in coproduct(W(w)).items():
                acc = acc + c * (W(l) * antipode(W(r)))
            assert acc.is_zero(), w


def test_normal_form_golden():
    assert normal_form(W((1, 1))) == 2 * Z(2)
    assert normal_form(euler_relation(4)).is_zero()
    assert normal_form(W((1, 3))) == W((1, 3))
    # the rewriting rule for d d_3 as an ideal identity
    assert normal_form(W((1, 3)) + W((3, 1)) - W((2, 2))
                       - 2 * Z(4)).is_zero()


def test_normal_form_kills_ideal():
    for n in range(2, 6):
        rel = euler_relation(n)
        for pre in [(), (2,), (1,), (3, 2)]:
            for post in [(), (1,), (2, 1), (1, 1)]:
                assert normal_form(W(pre) * rel * W(post)).is_zero(), \
                    (n, pre, post)


def test_normal_form_idempotent_and_shape():
    for n in range(1, 7):
        for w in compositions(n):
            nf = normal_form(W(w))
            assert normal_form(nf) == nf
            assert all(is_normal_word(u) for u in nf.terms)


def _random_nf_words(count, seed):
    """Words with parts 1-3 of degree 12-16, each with one 1 inserted
    after its first letter or later."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        left, word = rng.randint(12, 16), []
        while left:
            part = rng.randint(1, min(3, left))
            word.append(part)
            left -= part
        word.insert(rng.randrange(1, len(word) + 1), 1)
        out.append(tuple(word))
    return out


def test_normal_form_fold_matches_rewriting():
    """The left-to-right fold equals the memoized whole-word rewriting, in
    `normal_form` and in the values of a functional."""
    words = [w for n in range(11) for w in compositions(n)]
    words += _random_nf_words(500, seed=44)
    words += [(3, 1) * k for k in range(1, 6)]
    words += [(1, 3) * k for k in range(1, 6)]
    for w in words:
        assert normal_form(W(w)) == normal_form_rewriting(W(w)), w
    a = 3 * W((2, 1, 1, 3)) - W((1, 2, 1)) + Fraction(1, 2) * W((4, 1))
    assert normal_form(a) == normal_form_rewriting(a)
    rng = random.Random(7)
    f = DualFunctional({w: rng.randint(-5, 5) for n in range(9)
                        for w in basis_words(n)}, 8)
    for w in words:
        want = sum(c * f.values.get(u, 0)
                   for u, c in normal_form_word_rewriting(w).items())
        assert f.value(w) == (want if sum(w) <= 8 else 0), w


def test_normal_form_work_is_bounded():
    """Two words that the memoized whole-word rewriting took seconds on,
    leaving 234,909 and 1,184,222 memo entries, fold into normal words
    and leave every table of the store as it was."""
    sizes = [table.cache_info().currsize for table in store.TABLES]
    for word, count in (((5, 1) * 6, 6765), ((7, 1, 1, 1) * 3, 265)):
        nf = normal_form(W(word))
        assert len(nf.terms) == count
        assert all(is_normal_word(u) for u in nf.terms)
        assert normal_form(nf) == nf
    assert [table.cache_info().currsize for table in store.TABLES] == sizes


def test_operator_action_oracle():
    """Words that rewrite to zero act as zero on polytopes, in both rings."""
    polys = [pb.simplex(2), pb.cube(2), pb.simplex(3),
             pb.cone(pb.cube(2)), pb.cube(4)]
    elements = [euler_relation(3), euler_relation(4),
                W((2,)) * euler_relation(2),
                euler_relation(2) * W((1,)),
                W((1, 3)) + W((3, 1)) - W((2, 2)) - 2 * Z(4)]
    for a in elements:
        assert normal_form(a).is_zero()
        for p in polys:
            for ambient in (PRODUCT_RING, JOIN_RING):
                acc = None
                for word, c in a.terms.items():
                    assert c.denominator == 1
                    term = int(c) * apply_operator(word, fs(p, ambient))
                    acc = term if acc is None else acc + term
                assert acc.is_zero(), (p, ambient)


def test_normal_form_agrees_with_action():
    """normal_form(a) and a act identically on catalogue polytopes."""
    polys = [pb.simplex(3), pb.bipyramid(pb.simplex(2))]
    for n in range(2, 5):
        for w in compositions(n):
            nf = normal_form(W(w))
            for p in polys:
                direct = apply_operator(w, fs(p))
                via = None
                for word, c in nf.terms.items():
                    term = int(c) * apply_operator(word, fs(p))
                    via = term if via is None else via + term
                assert direct == via, (w, p)


def test_basis_counts_fibonacci():
    assert basis_words(0) == ((),)
    for n in range(1, 9):
        assert len(basis_words(n)) == fibonacci(n - 1), n


def test_basis_action_rank():
    """Basis words of one degree act independently on the sparse-basis
    polytopes: the flag-number matrix has full row rank."""
    from oracles import rank
    from polyqsym.suites import omega_polytopes

    def flag_set_for_word(word, n):
        dims, total = [], sum(word)
        a = n - total
        partial = a
        dims.append(partial)
        for j in word[:-1]:
            partial += j
            dims.append(partial)
        return tuple(d for d in dims if d >= 0)

    for n in range(1, 6):
        for k in range(1, n + 1):
            words = basis_words(k)
            polys = omega_polytopes(n)
            mat = [[pb.flag_number(q, flag_set_for_word(w, n))
                    for q in polys] for w in words]
            assert rank(mat) == len(words), (n, k)


def test_basis_action_rank_matches_operator_route():
    """Spot-check that the flag-set shortcut equals the character of the
    operator action."""
    from polyqsym.ring import epsilon_alpha
    q = pb.bipyramid(pb.simplex(2))
    for w in [(2,), (1, 2), (2, 1), (3,), (1, 1)]:
        s = apply_operator(w, fs(q, JOIN_RING))
        val = epsilon_alpha(s).coeff(q.dim - sum(w) + 1)
        dims, partial = [], q.dim - sum(w)
        sset = []
        acc = partial
        sset.append(acc)
        for j in w[:-1]:
            acc += j
            sset.append(acc)
        sset = tuple(d for d in sset if d >= 0)
        assert val == pb.flag_number(q, sset), w


def test_pairing():
    assert pairing(QSym.monomial((2, 1)), W((2, 1))) == 1
    assert pairing(QSym.monomial((2, 1)), W((1, 2))) == 0
    # identity pairing matrix between dual monomial bases, weight <= 5
    for n in range(6):
        words = compositions(n)
        for u in words:
            for v in words:
                want = 1 if u == v else 0
                assert pairing(QSym.monomial(u), W(v)) == want


def test_pairing_hopf_duality():
    comps = [(), (1,), (2,), (1, 1), (2, 1), (3,)]
    for c1 in comps:
        for c2 in comps:
            if sum(c1) + sum(c2) > 5:
                continue
            prod = QSym.monomial(c1) * QSym.monomial(c2)
            for n in range(6):
                for w in compositions(n):
                    lhs = pairing(prod, W(w))
                    rhs = sum(c * pairing(QSym.monomial(c1), W(l))
                              * pairing(QSym.monomial(c2), W(r))
                              for (l, r), c in coproduct(W(w)).items())
                    assert lhs == rhs, (c1, c2, w)


def test_coproduct_pairing_duality_against_quasi_shuffle():
    from polyqsym.qsym import quasi_shuffle
    for n in range(0, 7):
        for w in compositions(n):
            for i in range(len(w) + 1):
                sigma, tau = w[:i], w[i:]
                # <Delta M_w, Z_sigma x Z_tau> = <M_w, Z_sigma Z_tau>
                lhs = QSym.monomial(w).coproduct().get((sigma, tau), 0)
                rhs = pairing(QSym.monomial(w), W(sigma) * W(tau))
                assert lhs == rhs


def _log_series_by_powers(nmax):
    """Oracle for s_series: log(1 + u) with u = Z_1 t + Z_2 t^2 + ..,
    multiplied out power by power of u."""
    out = [NCPoly() for _ in range(nmax + 1)]
    power = {0: NCPoly.one()}
    for m in range(1, nmax + 1):
        nxt = {}
        for d1, poly in power.items():
            for k in range(1, nmax - d1 + 1):
                nxt[d1 + k] = nxt.get(d1 + k, NCPoly()) + poly * Z(k)
        power = nxt
        for d, poly in power.items():
            out[d] = out[d] + Fraction((-1) ** (m + 1), m) * poly
    return out


def test_s_series_matches_power_expansion():
    assert s_series(7) == _log_series_by_powers(7)


def test_s_series():
    s = s_series(6)
    assert s[1] == Z(1)
    assert s[2] == Z(2) - Fraction(1, 2) * W((1, 1))
    for k in (2, 4, 6):
        assert normal_form(s[k]).is_zero(), k
    assert normal_form(s[3] - (Z(3) - Fraction(1, 6)
                               * W((1, 1, 1)))).is_zero()
    # primitivity
    for k in (1, 3, 5):
        cp = coproduct(s[k])
        expected = {((), w): c for w, c in s[k].terms.items()}
        for w, c in s[k].terms.items():
            expected[(w, ())] = expected.get((w, ()), 0) + c
        assert cp == expected, k


def test_d_even_formula():
    assert d_even_formula(1) == Fraction(1, 2) * W((1, 1))
    assert d_even_formula(2) == (Fraction(1, 2) * (W((1, 3)) + W((3, 1)))
                                 - Fraction(1, 8) * W((1, 1, 1, 1)))
    for k in (1, 2, 3):
        assert normal_form(d_even_formula(k) - Z(2 * k)).is_zero(), k


def test_d_even_formula_matches_length_route():
    for k in range(1, 11):
        assert d_even_formula(k) == d_even_formula_length_route(k), k


def test_d_even_action():
    """Both sides of the even-generator formula act identically after
    clearing denominators."""
    targets = [pb.bipyramid(pb.simplex(2)), pb.cell24()]
    for k in (1, 2, 3):
        rhs = d_even_formula(k)
        denom = 1
        for c in rhs.terms.values():
            denom = denom * c.denominator // __import__("math").gcd(
                denom, c.denominator)
        for p in targets:
            for ambient in (PRODUCT_RING, JOIN_RING):
                base = fs(p, ambient)
                lhs = denom * apply_operator((2 * k,), base)
                acc = None
                for word, c in rhs.terms.items():
                    scaled = int(c * denom)
                    term = scaled * apply_operator(word, base)
                    acc = term if acc is None else acc + term
                assert acc == lhs, (k, p, ambient)


def test_dual_functional():
    with pytest.raises(ValueError):
        DualFunctional({(1, 1): 1}, 2)  # not a basis word
    with pytest.raises(ValueError):
        dual_functional_from_word_values({(1, 1): 1, (2,): 0}, 2)
    psi = dual_functional_from_word_values({(1, 1): 2, (2,): 1}, 2)
    assert psi.value((1, 1)) == 2
    q = psi.to_qsym(2)
    assert q == QSym.monomial((2,)) + 2 * QSym.monomial((1, 1))
    zero = DualFunctional({}, 4)
    assert zero.to_qsym(4).is_zero()


def test_dual_functional_values_are_ints_or_alpha_polys():
    """A value `to_qsym` cannot carry is refused: a negative alpha power
    (it printed as 1) and a Fraction (AttributeError in `to_qsym`)."""
    for value in (AlphaPoly({-1: 1}), AlphaPoly({2: 1, -1: 3}),
                  Fraction(1, 2), 0.5):
        with pytest.raises(ValueError, match="values must be"):
            DualFunctional({(2,): value}, 2)
    with pytest.raises(ValueError, match="values must be"):
        DualFunctional({(): AlphaPoly({-1: 1})}, 0)
    psi = DualFunctional({(): AlphaPoly({0: 1, 2: 3}), (2,): 5}, 2)
    assert repr(psi.to_qsym(0)) == "1 + 3*a^2"
    assert repr(psi.to_qsym(2)) == "5*M[2] + 10*M[1,1]"


def test_dual_functional_images_are_invariant():
    from polyqsym.transforms import phi_zero
    for p in (pb.cube(2), pb.simplex(3), pb.cone(pb.cube(2))):
        psi = phi_zero(p)
        q = psi.to_qsym(p.dim)
        for k in range(1, p.dim + 2):
            assert theta_substitution_invariant(q, k, p.dim), (p, k)
