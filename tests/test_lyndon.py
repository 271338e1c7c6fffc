import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import moebius
from polyqsym import lyndon, store
from polyqsym.lyndon import (ODD, cfl_factorize, count_lyndon, fibonacci,
                             fibonacci_series, is_lyndon, k_prime,
                             k_via_moebius, lyndon_words,
                             odd_partition_count, product_expansion,
                             series_exponents, shuffle)


def test_is_lyndon_golden():
    assert is_lyndon((1, 1, 2))
    assert is_lyndon((1, 2, 1, 2, 2))
    assert is_lyndon((1, 3, 1, 5))
    assert not is_lyndon((1, 1, 1, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert not is_lyndon((2, 1))
    assert is_lyndon((3,))
    with pytest.raises(ValueError):
        is_lyndon(())


def test_cfl_golden():
    assert cfl_factorize((2, 1)) == [(2,), (1,)]
    assert cfl_factorize((1, 2, 1, 2)) == [(1, 2), (1, 2)]
    assert cfl_factorize((1, 1, 1, 1)) == [(1,)] * 4


word_strategy = st.lists(st.integers(1, 3), min_size=1, max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(word_strategy)
def test_cfl_round_trip(w):
    factors = cfl_factorize(w)
    assert tuple(x for f in factors for x in f) == w
    assert all(is_lyndon(f) for f in factors)
    assert all(factors[i] >= factors[i + 1] for i in range(len(factors) - 1))


def test_cfl_round_trip_exhaustive():
    for length in range(1, 9):
        for w in itertools.product((1, 2, 3), repeat=length):
            factors = cfl_factorize(w)
            assert tuple(x for f in factors for x in f) == w
            assert all(is_lyndon(f) for f in factors)
            assert all(factors[i] >= factors[i + 1]
                       for i in range(len(factors) - 1))


def test_shuffle_golden():
    assert shuffle((1,), (1,)) == {(1, 1): 2}
    assert shuffle((1,), (2, 3)) == {(1, 2, 3): 1, (2, 1, 3): 1, (2, 3, 1): 1}
    assert shuffle((1, 2), (1, 2)) == {(1, 2, 1, 2): 2, (1, 1, 2, 2): 4}


def test_shuffle_matches_the_recursion():
    """The suffix grid gives the memoized recursion's shuffle, with its
    multiplicities, on empty words and on words that repeat letters."""
    rng = random.Random(45)
    pairs = [((), ()), ((), (1, 1)), ((2,), ()), ((1, 1, 1), (1, 1))]
    for _ in range(300):
        pairs.append(tuple(
            tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 6)))
            for _ in range(2)))
    for u, v in pairs:
        assert shuffle(u, v) == oracles.shuffle_recursive(u, v), (u, v)
    assert shuffle([1, 2], iter([3])) == {(1, 2, 3): 1, (1, 3, 2): 1,
                                          (3, 1, 2): 1}


def test_shuffle_keeps_no_table():
    sizes = [t.cache_info().currsize for t in store.TABLES]
    memo = dict(store.memo)
    assert len(shuffle((1, 2) * 4, (2, 1) * 4)) > 1
    assert [t.cache_info().currsize for t in store.TABLES] == sizes
    assert store.memo == memo


def test_shuffle_leading_term_exhaustive():
    for length in range(1, 7):
        for w in itertools.product((1, 2), repeat=length):
            prod = oracles.shuffle_many(cfl_factorize(w))
            assert prod.get(w, 0) != 0, w
            assert max(prod) == w, w


def test_enumeration_golden():
    assert lyndon_words((1, 2), 5) == [(1, 1, 1, 2), (1, 2, 2)]
    assert count_lyndon((1, 2), 5) == 2
    assert lyndon_words(ODD, 7) == [(1, 1, 1, 1, 3), (1, 1, 5), (1, 3, 3),
                                    (7,)]
    assert count_lyndon(ODD, 7) == 4
    assert lyndon_words((1, 2), 1) == [(1,)]


def test_count_words_of_weight():
    for alphabet in ((1, 2), ODD, (2, 3, 7), (1,), (3,)):
        for weight in range(-1, 16):
            assert lyndon.count_words_of_weight(alphabet, weight) == \
                len(oracles.words_of_weight(alphabet, weight)), \
                (alphabet, weight)


def test_lyndon_words_match_filter():
    """The prenecklace walk lists the same words, in the same order, as
    the filter over every composition of the weight."""
    for alphabet in ((1,), (3,), (1, 2), (2, 1, 2), (1, 3), (2, 3, 7),
                     (1, 4, 5), (1, 2, 3, 4, 5), (1, 30), ODD, range(2, 6)):
        for weight in range(1, 19):
            assert lyndon_words(alphabet, weight) == \
                oracles.lyndon_words(alphabet, weight), (alphabet, weight)
        for weight in (-1, 0):
            assert lyndon_words(alphabet, weight) == []
    for alphabet in ((0, 1), (-2, 3), (1, 1, 0)):
        for weight in (-1, 0, 3):
            with pytest.raises(ValueError, match="must be positive"):
                lyndon_words(alphabet, weight)


def test_lyndon_counts_match_series_exponents():
    """Words over an alphabet factor uniquely into Lyndon words, so the
    Lyndon words of weight n number the n-th exponent of
    1/(1 - sum of t^a over the letters a)."""
    rng = random.Random(14)
    nmax = 24
    for _ in range(12):
        alphabet = tuple(rng.sample(range(1, 11), rng.randint(1, 3)))
        ks = series_exponents(
            [lyndon.count_words_of_weight(alphabet, n)
             for n in range(nmax + 1)], nmax)
        assert [count_lyndon(alphabet, n) for n in range(1, nmax + 1)] == \
            ks, alphabet


def test_fibonacci_and_partitions():
    assert [fibonacci(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert odd_partition_count(6) == 4
    assert odd_partition_count(2) == 1
    assert odd_partition_count(0) == 1


def test_series_exponents():
    ks = series_exponents(fibonacci_series(12), 12)
    assert ks[:7] == [1, 1, 1, 1, 2, 2, 4]
    assert ks == [1, 1, 1, 1, 2, 2, 4, 5, 8, 11, 18, 25]
    betas = series_exponents([1] + [2 ** (n - 1) for n in range(1, 9)], 8)
    assert betas[:3] == [1, 1, 2]
    assert series_exponents([1] + [0] * 10, 10) == [0] * 10
    with pytest.raises(ValueError):
        series_exponents([2, 1], 1)


def test_exponent_reconstruction():
    """Expanding the finite product with the solved exponents reproduces
    the Fibonacci series through the bound."""
    nmax = 10
    ks = series_exponents(fibonacci_series(nmax), nmax)
    acc = [1] + [0] * nmax
    for i, k in enumerate(ks, start=1):
        acc = oracles.poly_mul_trunc(
            acc, oracles._one_minus_power_series(i, k, nmax), nmax)
    assert acc == fibonacci_series(nmax)


def test_moebius_sieve_matches_trial_division():
    mu = lyndon._moebius_table(300)
    assert mu[0] == 0 and len(mu) == 301
    assert mu[1:] == [moebius(n) for n in range(1, 301)]


def test_moebius_and_prime_forms():
    assert [moebius(n) for n in range(1, 11)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    ks = series_exponents(fibonacci_series(12), 12)
    for n in range(1, 13):
        assert k_via_moebius(n) == ks[n - 1], n
    assert k_via_moebius(6) == 2
    assert k_prime(5) == 2
    assert k_prime(7) == 4
    assert k_prime(11) == 18
    with pytest.raises(ValueError):
        k_prime(9)


def test_count_reconciliation():
    ks = series_exponents(fibonacci_series(12), 12)
    for n in range(3, 13):
        assert count_lyndon((1, 2), n) == ks[n - 1]
        assert count_lyndon(ODD, n) == ks[n - 1]
        assert k_via_moebius(n) == ks[n - 1]


def test_bounds():
    ks = series_exponents(fibonacci_series(13), 13)
    for n in range(1, 13):
        assert ks[n] >= ks[n - 1]
    for n in range(1, 13):
        assert ks[n - 1] >= odd_partition_count(n) - 2


def test_product_expansions_exact():
    assert product_expansion([(1, 1), (2, 1)], 3) == [1, -1, -1, 1]
    assert product_expansion([(1, 1), (2, 1), (3, 1)], 6) == \
        [1, -1, -1, 0, 1, 1, -1]
    assert product_expansion([(1, 1), (2, 1), (3, 1), (4, 1)], 10) == \
        [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1]
    want = [0] * 21
    for c, e in [(1, 0), (-1, 1), (-1, 2), (2, 6), (2, 7), (-1, 8), (-1, 9),
                 (-2, 10), (-1, 11), (-1, 12), (2, 13), (2, 14), (-1, 18),
                 (-1, 19), (1, 20)]:
        want[e] = c
    assert product_expansion([(1, 1), (2, 1), (3, 1), (4, 1), (5, 2)],
                             20) == want
    assert product_expansion([(5, 3)], 4) == [1, 0, 0, 0, 0]
    assert product_expansion([], 2) == [1, 0, 0]


def test_product_expansion_divides_by_negative_powers():
    assert product_expansion([(1, -1)], 3) == [1, 1, 1, 1]
    ks = series_exponents(fibonacci_series(20), 20)
    assert product_expansion([(i, -k) for i, k in enumerate(ks, 1)], 20) == \
        fibonacci_series(20)


def test_product_expansion_matches_truncated_products():
    rng = random.Random(7)
    for _ in range(50):
        nmax = rng.randint(0, 12)
        factors = [(rng.randint(1, 8), rng.randint(-3, 3))
                   for _ in range(rng.randint(0, 4))]
        want = [1] + [0] * nmax
        for i, mult in factors:
            want = oracles.poly_mul_trunc(
                want, oracles._one_minus_power_series(i, -mult, nmax), nmax)
        assert product_expansion(factors, nmax) == want, (factors, nmax)


def test_product_expansion_refuses_exponents_below_one():
    for factors in ([(0, 1)], [(1, 1), (-2, 1)], [(0, -1)]):
        with pytest.raises(ValueError, match="must be positive"):
            product_expansion(factors, 3)
