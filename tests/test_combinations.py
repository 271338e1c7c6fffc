"""The sparse-combination base shared by FormalSum, QSym, AlphaPoly,
MultiPoly and NCPoly: construction from pairs, the module operations,
equality and hashing, and the refusal to mix types or spaces."""

import itertools
from fractions import Fraction

import pytest

from polyqsym import polytopes as pb
from polyqsym.ncalg import NCPoly
from polyqsym.polys import AlphaPoly, MultiPoly, format_terms
from polyqsym.qsym import QSym
from polyqsym.ring import JOIN_RING, PRODUCT_RING, FormalSum
from oracles import multipoly_var

# type name -> (constructor from terms, three distinct valid keys, terms
# it refuses with TypeError: an integer combination takes no float,
# fraction or string)
TYPES = {
    "FormalSum": (lambda terms: FormalSum(PRODUCT_RING, terms),
                  lambda: [pb.point(), pb.segment(), pb.cube(2)],
                  lambda: [{pb.cube(2): 1.7}, {pb.cube(2): Fraction(5, 2)},
                           {pb.cube(2): "3"}]),
    "QSym": (QSym, lambda: [(0, (1,)), (1, (2, 1)), (0, ())],
             lambda: [{(0, (1,)): 0.5}, {(0, (1,)): Fraction(6, 2)}]),
    "AlphaPoly": (AlphaPoly, lambda: [0, 1, 3],
                  lambda: [{1.9: 1}, {1: 1.9}, {1: "1"}]),
    "MultiPoly": (lambda terms: MultiPoly(2, terms),
                  lambda: [(0, (1, 0)), (1, (0, 2)), (0, (0, 0))],
                  lambda: [{(0, (1, 0)): 2.5}]),
    "NCPoly": (NCPoly, lambda: [(1,), (2, 1), ()], lambda: []),
}


def _value(name):
    make, keys, _ = TYPES[name]
    k0, k1, _ = keys()
    return make({k0: 2, k1: -3})


@pytest.mark.parametrize("name", TYPES)
def test_integer_combinations_refuse_other_numbers(name):
    """3 and -2 are kept as they are; a float, a fraction or a string is
    refused, not truncated, parsed or kept.  NCPoly stays rational."""
    make, keys, refused = TYPES[name]
    k0, k1, _ = keys()
    assert make({k0: 3, k1: -2}).terms == {k0: 3, k1: -2}
    for terms in refused():
        with pytest.raises(TypeError):
            make(terms)


@pytest.mark.parametrize("name", TYPES)
def test_combination_laws(name):
    make, keys, _ = TYPES[name]
    k0, k1, k2 = keys()
    x = make({k0: 2, k1: -3})
    assert (x + (-x)).is_zero()
    assert x + (-x) == make({}) == make(())
    assert x - x == make(None)
    assert 3 * x - x == x + x == x * 2
    assert (0 * x).is_zero()
    # equal values hash equal, whatever order built them
    y = make([(k1, -3), (k0, 2)])
    assert x == y and hash(x) == hash(y)
    assert x != make({k0: 2})
    # a pair iterable merges repeated keys and drops zeros
    z = make([(k0, 1), (k1, 2), (k0, -1), (k2, 0), (k1, 1)])
    assert z.terms == {k1: 3}
    assert z == make({k1: 3})


@pytest.mark.parametrize("left, right",
                         list(itertools.permutations(TYPES, 2)))
def test_mixed_types_raise(left, right):
    x, y = _value(left), _value(right)
    with pytest.raises(TypeError, match="cannot combine"):
        x + y
    with pytest.raises(TypeError, match="cannot combine"):
        x - y
    assert x != y


def test_mixed_spaces_raise():
    p = FormalSum.of(pb.point(), PRODUCT_RING)
    with pytest.raises(ValueError, match="cannot combine"):
        p + FormalSum.of(pb.point(), JOIN_RING)
    with pytest.raises(ValueError, match="cannot combine"):
        MultiPoly.const(2, 1) + MultiPoly.const(3, 1)
    with pytest.raises(ValueError, match="cannot combine"):
        multipoly_var(2, 0) * multipoly_var(3, 0)
    assert p != FormalSum.of(pb.point(), JOIN_RING)
    assert MultiPoly.zero(2) != MultiPoly.zero(3)


def test_alpha_poly_takes_ints():
    a = AlphaPoly.term(1)
    assert AlphaPoly.const(1) + 2 == 3 == 2 + AlphaPoly.const(1)
    assert a - 1 == AlphaPoly({1: 1, 0: -1})
    assert 1 - a == AlphaPoly({0: 1, 1: -1})
    assert sum([a, a], 0) == 2 * a
    assert AlphaPoly() == 0 and not AlphaPoly()


def test_signed_sums_print_through_one_formatter():
    """QSym, NCPoly and FormalSum print through `format_terms`: a leading
    negative coefficient, coefficients of 1 and -1, Fraction coefficients
    and the zero value, byte for byte as each printed on its own; a
    constant term prints as its signed coefficient alone."""
    q = QSym({(0, (2,)): -3, (1, (1,)): 1, (0, (1, 1)): -1, (2, ()): 2,
              (0, ()): 5})
    assert repr(q) == "5 - 3*M[2] - M[1,1] + a*M[1] + 2*a^2"
    assert repr(NCPoly({(): 3})) == "3"
    assert repr(QSym({(0, (1,)): -1, (0, (2,)): 1})) == "-M[1] + M[2]"
    n = NCPoly({(1,): Fraction(-1, 2), (2, 1): 1, (): -1, (3,): Fraction(4),
                (1, 1): Fraction(-3, 2)})
    assert repr(n) == "-1 - 1/2*Z1 - 3/2*Z1 Z1 + 4*Z3 + Z2 Z1"
    assert repr(NCPoly({(2,): -1, (1,): 1})) == "Z1 - Z2"
    s = FormalSum(JOIN_RING, [(pb.cube(2), -2), (pb.empty(), 1),
                              (pb.simplex(2), -1), (pb.point(), 3)])
    assert repr(s) == ("<dim -1, f=[]> + 3*<dim 0, f=[]> - <dim 2, f=[3, 3]>"
                       " - 2*<dim 2, f=[4, 4]>")
    assert repr(FormalSum(PRODUCT_RING, [(pb.segment(), -1)])) == \
        "-<dim 1, f=[2]>"
    for zero in (QSym(), NCPoly(), FormalSum(PRODUCT_RING)):
        assert repr(zero) == "0"
    assert format_terms([]) == "0"
    assert format_terms([("x", Fraction(-1, 2)), ("y", 1), ("z", -1)]) == \
        "-1/2*x + y - z"
