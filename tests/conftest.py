import pytest

from polyqsym.ring import (FormalSum, JOIN_RING, PRODUCT_RING, antipode_rp,
                           hopf_coproduct_pairs, mul_join)


@pytest.fixture(scope="session")
def catalogue():
    from polyqsym.suites import catalogue as build
    return build()


def fs(poly, ambient=PRODUCT_RING, coeff=1):
    return FormalSum.of(poly, ambient, coeff)


def antipode_axiom_sums(poly):
    """Both sides of the antipode axiom at `poly`, summed over all faces F:
    F * S(P/F) and S(F) * P/F.  Each is zero for a nonempty polytope.  The
    first is how `antipode_rp` is computed; the second checks it."""
    left = right = FormalSum(JOIN_RING)
    for f, quot in hopf_coproduct_pairs(poly):
        f, quot = fs(f, JOIN_RING), fs(quot, JOIN_RING)
        left = left + mul_join(f, antipode_rp(quot))
        right = right + mul_join(antipode_rp(f), quot)
    return left, right


def brute_flag_number(poly, subset):
    """Independent oracle: enumerate strictly increasing face chains by
    direct recursion over the order relation."""
    lat = poly.lattice
    subset = tuple(sorted(set(subset) - {-1, poly.dim}))
    ranks = [a + 1 for a in subset]
    if not ranks:
        return 1
    strata = [lat.elements_of_rank(r) for r in ranks]

    def count(i, below):
        if i == len(strata):
            return 1
        total = 0
        for x in strata[i]:
            if below is None or lat.leq(below, x):
                total += count(i + 1, x)
        return total

    return count(0, None)


def omega_words(n):
    from polyqsym.transforms import basis_word_strings
    return basis_word_strings(n)
