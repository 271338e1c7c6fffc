"""Lyndon words, Chen-Fox-Lyndon factorization, shuffles and the counting
identities that tie generator numbers to the Fibonacci series.

Words are tuples over a totally ordered integer alphabet; the order is the
lexicographic one in which a proper prefix is smaller than the word.  The
weight of a word is the sum of its letters.  Series exponents are read off
the logarithmic derivative by Moebius inversion; the degree-by-degree solve
is their test oracle in `tests/oracles.py`.  Lyndon words of a weight are
generated by a walk over prenecklaces; the filter that tests every
composition of the weight with `is_lyndon` is their oracle there.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from . import store


def is_lyndon(word):
    """A word is Lyndon when every proper tail is strictly larger."""
    w = tuple(word)
    if not w:
        raise ValueError("the empty word is not classified")
    return all(w[i:] > w for i in range(1, len(w)))


def cfl_factorize(word):
    """Duval's algorithm: the unique weakly decreasing factorization into
    Lyndon words."""
    w = tuple(word)
    if not w:
        raise ValueError("cannot factor the empty word")
    out = []
    k = 0
    n = len(w)
    while k < n:
        i, j = k, k + 1
        while j < n and w[i] <= w[j]:
            i = k if w[i] < w[j] else i + 1
            j += 1
        step = j - i
        while k <= i:
            out.append(w[k:k + step])
            k += step
    return out


@store.cached
def _shuffle(u, v):
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in _shuffle(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in _shuffle(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


def shuffle(u, v):
    """All order-preserving interleavings, with multiplicity."""
    return dict(_shuffle(tuple(u), tuple(v)))


ODD = "odd"


def count_words_of_weight(alphabet, weight):
    """The number of words over the alphabet with letter sum equal to
    weight, without listing them."""
    if alphabet == ODD:
        alphabet = range(1, weight + 1, 2)
    letters = sorted({a for a in alphabet if 0 < a <= weight})
    counts = [1] + [0] * max(weight, 0)
    for n in range(1, weight + 1):
        counts[n] = sum(counts[n - a] for a in letters if a <= n)
    return counts[weight] if weight >= 0 else 0


def lyndon_words(alphabet, weight):
    """The Lyndon words over the alphabet with letter sum equal to weight,
    in lexicographic order.  A depth-first walk over the prenecklaces of
    weight at most `weight`, letters in increasing order (Fredricksen,
    Kessler and Maiorana; Cattell, Ruskey, Sawada, Serra and Miers,
    J. Algorithms 37, 2000): a next letter equal to the one a period back
    keeps the period p, a larger one makes the whole prefix its period, and
    a word of the full weight is Lyndon when p is its length.  Letters above
    the weight are never used; a letter below 1 raises."""
    if alphabet == ODD:
        alphabet = range(1, weight + 1, 2)
    letters = sorted(set(alphabet))
    if letters and letters[0] < 1:
        raise ValueError("composition parts must be positive")
    letters = [a for a in letters if a <= weight]
    if not letters:
        return []
    # the next larger letter; past the largest, one the weight cannot take
    larger = dict(zip(letters, letters[1:] + [weight + 1]))
    out = []
    word = []
    a, p, s = letters[0], 1, 0    # next letter, its period, weight of word
    while True:
        if s + a < weight:
            word.append(a)
            s += a
            a = word[-p]
            continue
        if s + a == weight and p == len(word) + 1:
            out.append(tuple(word) + (a,))
        # a larger letter here would pass the weight: step back
        if not word:
            return out
        b = word.pop()
        s -= b
        a, p = larger[b], len(word) + 1


def count_lyndon(alphabet, weight):
    return len(lyndon_words(alphabet, weight))


def fibonacci(n):
    """c_0 = c_1 = 1, c_n = c_{n-1} + c_{n-2}."""
    if n < 0:
        raise ValueError("n >= 0")
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def odd_partition_count(n):
    """Number of decompositions of n into unordered odd summands."""
    if n < 0:
        raise ValueError("n >= 0")
    counts = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


# -- integer power series helpers -------------------------------------------


def poly_mul_trunc(a, b, nmax):
    out = [0] * (nmax + 1)
    for i, x in enumerate(a[:nmax + 1]):
        if not x:
            continue
        for j, y in enumerate(b[:nmax + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def series_exponents(target, nmax):
    """Exponents k_i with product over i of (1 - t^i)^(-k_i) matching the
    target series through degree nmax, by the logarithmic derivative: the
    coefficients c_n = n a_n - sum_{0<j<n} c_j a_{n-j} of t A'/A satisfy
    c_n = sum_{d|n} d k_d, so n k_n = sum_{d|n} mu(n/d) c_d.  The Moebius
    function is sieved once up to nmax, and each c_d, once known, is added
    as mu(q) c_d into the sum of every multiple q d <= nmax; by degree n
    every divisor of n has been added."""
    if not target or target[0] != 1:
        raise ValueError("target series must have constant term 1")
    a = list(target[:nmax + 1]) + [0] * max(0, nmax + 1 - len(target))
    mu = _moebius_table(nmax)
    c = [0] * (nmax + 1)
    acc = [0] * (nmax + 1)
    ks = []
    for n in range(1, nmax + 1):
        c[n] = cn = n * a[n] - sum(map(mul, c[1:n], a[n - 1:0:-1]))
        for q in range(1, nmax // n + 1):
            if mu[q]:
                acc[q * n] += mu[q] * cn
        k, rest = divmod(acc[n], n)
        if rest:
            raise AssertionError("exponent of degree %d is not integral" % n)
        ks.append(k)
    return ks


def fibonacci_series(nmax):
    """Coefficients of 1/(1 - t - t^2)."""
    return [fibonacci(n) for n in range(nmax + 1)]


def product_expansion(factors, nmax):
    """Expand a finite product of (1 - t^i)^mult factors."""
    out = [1] + [0] * nmax
    for i, mult in factors:
        base = [0] * (nmax + 1)
        base[0] = 1
        if i <= nmax:
            base[i] = -1
        for _ in range(mult):
            out = poly_mul_trunc(out, base, nmax)
    return out


# -- explicit generator counts ----------------------------------------------


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _moebius_table(nmax):
    """[mu(0) = 0, mu(1), .., mu(nmax)], sieved from sum_{d|n} mu(d) = 0
    for every n > 1."""
    mu = [0, 1] + [0] * (nmax - 1)
    for d in range(1, nmax // 2 + 1):
        if mu[d]:
            for m in range(2 * d, nmax + 1, d):
                mu[m] -= mu[d]
    return mu


def moebius(n):
    if n < 1:
        raise ValueError("n >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def _dilogarithm_sum(d):
    """d * sum_j binom(d-j, j) / (d-j): the degree-d coefficient of the
    logarithmic derivative data for the Fibonacci series."""
    return sum(Fraction(comb(d - j, j), d - j) for j in range(0, d // 2 + 1))


def k_via_moebius(n):
    """Number of degree-n free generators via Moebius inversion."""
    if n < 1:
        raise ValueError("n >= 1")
    total = Fraction(0)
    for d in _divisors(n):
        total += d * _dilogarithm_sum(d) * moebius(n // d)
    k = total / n
    if k.denominator != 1:
        raise AssertionError("generator count came out non-integral")
    return int(k)


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def k_prime(p):
    """Closed form at a prime: sum_j binom(p-j, j)/(p-j)."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    total = Fraction(0)
    for j in range(1, p // 2 + 1):
        total += Fraction(comb(p - j, j), p - j)
    if total.denominator != 1:
        raise AssertionError("prime-case count came out non-integral")
    return int(total)
