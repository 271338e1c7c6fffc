import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polyqsym.polys import MultiPoly
from polyqsym.qsym import (QSym, compositions, is_quasisymmetric,
                           quasi_shuffle)
from oracles import (lift_from_expansion, multipoly_var,
                     theta_substitution_invariant)

M = QSym.monomial


def compositions_up_to(weight):
    out = [()]
    for n in range(1, weight + 1):
        def rec(remaining):
            if remaining == 0:
                return [()]
            res = []
            for first in range(1, remaining + 1):
                res.extend((first,) + rest for rest in rec(remaining - first))
            return res
        out.extend(rec(n))
    return out


def test_golden_products():
    assert M((1,)) * M((1,)) == M((2,)) + 2 * M((1, 1))
    assert M((1,)) * M((1, 1)) == M((2, 1)) + M((1, 2)) + 3 * M((1, 1, 1))
    assert M((1, 1)) * M((1, 1)) == (M((2, 2)) + 2 * M((2, 1, 1))
                                     + 2 * M((1, 2, 1)) + 2 * M((1, 1, 2))
                                     + 6 * M((1, 1, 1, 1)))


def test_compositions():
    for n in range(6):
        assert compositions(n) == sorted(c for c in compositions_up_to(5)
                                         if sum(c) == n)
    assert compositions(6, (2, 4)) == [(2, 2, 2), (2, 4), (4, 2)]
    # an empty part set still admits the empty composition of 0
    assert compositions(0, ()) == [()]
    assert compositions(3, ()) == []
    with pytest.raises(ValueError):
        compositions(3, (0, 1))


def test_quasi_shuffle_memo_is_read_only():
    table = quasi_shuffle((1,), (1,))
    with pytest.raises(TypeError):
        table[(1, 1)] = 0
    assert M((1,)) * M((1,)) == M((2,)) + 2 * M((1, 1))


def test_unit_and_sigma():
    assert M(()) * M((3, 1)) == M((3, 1))
    assert QSym.sigma(1) == M((1,))
    sig12 = QSym.sigma(1) * QSym.sigma(2) - QSym.sigma(3)
    assert sig12 == M((2, 1)) + M((1, 2)) + 2 * M((1, 1, 1))
    with pytest.raises(ValueError):
        QSym.sigma(0)


comp_strategy = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(comp_strategy, comp_strategy)
def test_quasi_shuffle_commutative(c1, c2):
    assert M(c1) * M(c2) == M(c2) * M(c1)


@settings(max_examples=60, deadline=None)
@given(comp_strategy, comp_strategy, comp_strategy)
def test_quasi_shuffle_associative(c1, c2, c3):
    assert (M(c1) * M(c2)) * M(c3) == M(c1) * (M(c2) * M(c3))


def test_quasi_shuffle_exhaustive_weight3():
    """Either order of a pair gives the product that the expansion into as
    many variables as the degree multiplies out."""
    comps = compositions_up_to(3)
    for c1, c2 in itertools.product(comps, repeat=2):
        n = sum(c1) + sum(c2)
        product = QSym({(0, c): k for c, k in quasi_shuffle(c2, c1).items()})
        assert product.expand(n) == M(c1).expand(n) * M(c2).expand(n), \
            (c1, c2)


def test_quasi_shuffle_pairs_share_one_entry():
    """A pair out of order answers from its swap's entry."""
    comps = compositions_up_to(5)
    for c1, c2 in itertools.product(comps, repeat=2):
        if sum(c1) + sum(c2) <= 5:
            assert quasi_shuffle(c2, c1) is quasi_shuffle(c1, c2), (c1, c2)


def test_coproduct():
    assert M(()).coproduct() == {((), ()): 1}
    assert M((2, 1)).coproduct() == {((), (2, 1)): 1, ((2,), (1,)): 1,
                                     ((2, 1), ()): 1}
    with pytest.raises(ValueError):
        (QSym.alpha_power(1) * M((1,))).coproduct()


def test_coproduct_coassociative_and_multiplicative():
    comps = [c for c in compositions_up_to(4) if c]
    for comp in comps:
        left = {}
        for (a, b), v in M(comp).coproduct().items():
            for (a1, a2), w in M(a).coproduct().items():
                k = (a1, a2, b)
                left[k] = left.get(k, 0) + v * w
        right = {}
        for (a, b), v in M(comp).coproduct().items():
            for (b1, b2), w in M(b).coproduct().items():
                k = (a, b1, b2)
                right[k] = right.get(k, 0) + v * w
        assert left == right, comp
    # Hopf compatibility with the product on small pairs
    small = [c for c in compositions_up_to(2)]
    for c1, c2 in itertools.product(small, repeat=2):
        prod_cop = (M(c1) * M(c2)).coproduct()
        expected = {}
        for (l1, r1), v1 in M(c1).coproduct().items():
            for (l2, r2), v2 in M(c2).coproduct().items():
                for lc, lv in quasi_shuffle(l1, l2).items():
                    for rc, rv in quasi_shuffle(r1, r2).items():
                        k = (lc, rc)
                        expected[k] = expected.get(k, 0) + v1 * v2 * lv * rv
        assert prod_cop == expected, (c1, c2)


def test_star():
    assert M((2, 1)).star() == M((1, 2))
    assert QSym.sigma(3).star() == QSym.sigma(3)
    a = M((2,)) + 3 * M((1, 2))
    b = M((1, 1)) - M((3,))
    assert (a * b).star() == a.star() * b.star()
    assert a.star().star() == a


def test_star_coproduct_twist():
    for comp in [(2, 1), (1, 1, 2), (3,), (1, 2, 1)]:
        lhs = M(comp).star().coproduct()
        rhs = {}
        for (l, r), v in M(comp).coproduct().items():
            rhs[(r[::-1], l[::-1])] = v
        assert lhs == rhs, comp


def test_expand():
    assert M((1, 1)).expand(2) == MultiPoly(2, {(0, (1, 1)): 1})
    assert M((2,)).expand(3) == MultiPoly(3, {(0, (2, 0, 0)): 1,
                                              (0, (0, 2, 0)): 1,
                                              (0, (0, 0, 2)): 1})
    t1, t2 = multipoly_var(2, 0), multipoly_var(2, 1)
    assert (M((1,)) * M((1,))).expand(2) == (t1 + t2) * (t1 + t2)
    # ring homomorphism
    x = M((2, 1)) + 2 * M((1,))
    y = M((1, 1))
    assert (x * y).expand(4) == x.expand(4) * y.expand(4)
    # restriction after extension is the identity
    assert x.expand(5).drop_var(4) == x.expand(4)
    # a negative variable count is refused, not read as no variables
    assert QSym.one().expand(0) == MultiPoly.const(0, 1)
    for r in (-1, -2):
        with pytest.raises(ValueError, match="r >= 0"):
            QSym.one().expand(r)
        with pytest.raises(ValueError, match="r >= 0"):
            MultiPoly(r)


def test_expand_injective_at_degree():
    comps = [c for c in compositions_up_to(3) if sum(c) == 3]
    seen = {}
    for c in comps:
        key = M(c).expand(3)
        assert key not in seen.values()
        seen[c] = key


def test_lift_round_trip():
    q = 3 * M((2, 1)) - M((1, 1, 1)) + QSym.alpha_power(2) * M((1,))
    assert lift_from_expansion(q.expand(3)) == q
    with pytest.raises(ValueError):
        lift_from_expansion(MultiPoly(3, {(0, (1, 2, 0)): 1}))


def test_is_quasisymmetric():
    assert is_quasisymmetric(M((2, 1)).expand(3))
    assert is_quasisymmetric((M((2,)) + M((1, 1))).expand(4))
    # alone among three variables this monomial misses its siblings
    assert not is_quasisymmetric(MultiPoly(3, {(0, (1, 2, 0)): 1}))
    assert not is_quasisymmetric(MultiPoly(2, {(0, (1, 0)): 1,
                                               (0, (0, 1)): 2}))
    # in exactly two variables the same exponents are a full restriction
    assert is_quasisymmetric(MultiPoly(2, {(0, (1, 2)): 1}))
    assert is_quasisymmetric(QSym.alpha_power(3).expand(2))


def test_theta_substitution():
    for k in (1, 2, 3, 4):
        assert theta_substitution_invariant(M((3,)), k, 3)
    assert not theta_substitution_invariant(M((2,)), 1, 2)
    assert not theta_substitution_invariant(M((4,)), 2, 4)
    assert theta_substitution_invariant(M((3, 1)) - M((1, 3)), 1, 4)
    assert theta_substitution_invariant(M((3, 1)) - M((1, 3)), 2, 4)
    assert not theta_substitution_invariant(M((3, 1)), 1, 4)
    # odd single-row monomials pass every insertion point
    for k in (1, 2, 3, 4, 5, 6):
        assert theta_substitution_invariant(M((5,)), k, 5)
    with pytest.raises(ValueError):
        theta_substitution_invariant(M((3,)), 0, 3)


def test_signed_odd_sums_are_invariant():
    # alternating sums over permutations of distinct odd rows
    comp = (1, 3)
    q = M((1, 3)) - M((3, 1))
    for k in (1, 2, 3):
        assert theta_substitution_invariant(q, k, 4)
    q6 = (M((1, 5)) - M((5, 1)))
    for k in (1, 2, 3):
        assert theta_substitution_invariant(q6, k, 6)


def _from_json(data):
    """The QSym that `QSym.to_json_obj` wrote as `data`."""
    return QSym(((entry.get("alpha", 0), entry["comp"]), entry["coeff"])
                for entry in data)


def test_json_and_repr():
    q = 3 * M((2, 1)) - M((1, 1, 1)) + QSym.alpha_power(2) * M((1,))
    assert _from_json(q.to_json_obj()) == q
    text = repr(q)
    assert "M[2,1]" in text and "a^2" in text


@pytest.mark.parametrize("key", [(0, (2, 0)), (0, (2.5, 1)), (0, (-1,)),
                                 (0, ("2",)), (0, (1, None)), (2.5, (1,)),
                                 (-1, (1,)), ("1", ()), (None, (1,))])
def test_keys_must_be_valid(key):
    """A part is a positive int and an alpha power a non-negative int; the
    constructor refuses the key instead of keeping or truncating it."""
    with pytest.raises(ValueError):
        QSym({key: 1})
    a, comp = key
    entry = {"comp": list(comp), "coeff": 1, "alpha": a}
    with pytest.raises(ValueError):
        _from_json([entry])
    assert QSym([((0, [2, 1]), 1)]) == M((2, 1))
