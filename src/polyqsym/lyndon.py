"""Lyndon words, Chen-Fox-Lyndon factorization, shuffles and the counting
identities that tie generator numbers to the Fibonacci series.

Words are tuples over a totally ordered integer alphabet; the order is the
lexicographic one in which a proper prefix is smaller than the word.  The
weight of a word is the sum of its letters.  Each quantity has one route
here, and no table outlives a call; the second routes are test oracles in
`tests/oracles.py`.  The shuffle is built over a grid of suffix pairs; the
memoized recursion on the first letters is its oracle.  Series exponents
are read off the logarithmic derivative by Moebius inversion, and k_n sums
over the divisors of n; both read the Moebius function off one sieve,
whose oracle is trial division, and the degree-by-degree solve is the
oracle of the exponents.  Lyndon words of a weight are generated by a walk
over prenecklaces; the filter that tests every composition of the weight
with `is_lyndon` is their oracle.  Truncated products of (1 - t^i) powers
are expanded one factor at a time, in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul


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


def shuffle(u, v):
    """All order-preserving interleavings, with multiplicity.  Entry j of
    row i of a grid is the shuffle of u[i:] with v[j:]: a word there starts
    with u[i], followed by a word of entry j of row i + 1, or with v[j],
    followed by a word of entry j + 1 of row i.  The rows are built from
    the ends of the words, each entry from the right, so two rows are alive
    and no table outlives the call."""
    u, v = tuple(u), tuple(v)
    n = len(v)
    row = [{v[j:]: 1} for j in range(n + 1)]
    for i in range(len(u) - 1, -1, -1):
        a, below = (u[i],), row
        row = [None] * n + [{u[i:]: 1}]
        for j in range(n - 1, -1, -1):
            out = {a + w: c for w, c in below[j].items()}
            b = (v[j],)
            for w, c in row[j + 1].items():
                key = b + w
                out[key] = out.get(key, 0) + c
            row[j] = out
    return row[0]


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
    """Expand a finite product of (1 - t^i)^mult factors through degree
    nmax, one factor (1 - t^i) at a time and in place: multiplying by it
    subtracts from each coefficient the one i degrees below, from the top
    down, and a negative multiplicity divides by it, adding from the
    bottom up."""
    out = [1] + [0] * nmax
    for i, mult in factors:
        if i < 1:
            raise ValueError("factor exponents must be positive")
        for _ in range(abs(mult)):
            if mult > 0:
                for k in range(nmax, i - 1, -1):
                    out[k] -= out[k - i]
            else:
                for k in range(i, nmax + 1):
                    out[k] += out[k - i]
    return out


# -- explicit generator counts ----------------------------------------------


def _moebius_table(nmax):
    """[mu(0) = 0, mu(1), .., mu(nmax)], sieved from sum_{d|n} mu(d) = 0
    for every n > 1."""
    mu = [0, 1] + [0] * (nmax - 1)
    for d in range(1, nmax // 2 + 1):
        if mu[d]:
            for m in range(2 * d, nmax + 1, d):
                mu[m] -= mu[d]
    return mu


def _dilogarithm_sum(d):
    """d * sum_j binom(d-j, j) / (d-j): the degree-d coefficient of the
    logarithmic derivative data for the Fibonacci series."""
    return sum(Fraction(comb(d - j, j), d - j) for j in range(0, d // 2 + 1))


def k_via_moebius(n):
    """Number of degree-n free generators via Moebius inversion."""
    if n < 1:
        raise ValueError("n >= 1")
    mu = _moebius_table(n)
    total = sum(d * _dilogarithm_sum(d) * mu[n // d]
                for d in range(1, n + 1) if n % d == 0)
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
