"""The process-wide memo store.

Two dicts.  `types` is the registry of polytope types.  The first type
of each invariant, its (dim, f-vector), is stored under the invariant,
unkeyed; when a second type shares that invariant, both are keyed and
each is stored under its key too (see `polytopes.canonical`).  `memo`
holds every other quantity that depends on polytope types, made and kept
by `memoized(request, make)` under a request tuple whose first entry names
it; its operands are registered types, compared by identity and, between
two types of one invariant, by key:

    (name, *params)         the generators, such as ("cube", 3); the empty
                            polytope, the point and the segment are
                            ("simplex", n) for n = -1, 0, 1
    ("word", w)             the polytope of an operator word over {B, C};
                            cross(n) is ("word", "B" * n + "C")
    (op, factors)           op "prod" or "join": the sorted multiset of the
                            factors, the ring unit left out
    (op, p)                 op "bipyramid" or "dual"; the dual of the dual
                            is stored with the dual
    ("faces", p, k)         codimension-k faces ((face, multiplicity), ..)
    ("antipode", p)         join-ring antipode ((polytope, coeff), ..)
    ("F", p)                the terms of F, (((0, composition), f_S), ..)

A polytope key is the dim and the vertex count up to dim 2, the dim alone
for a simplex, and otherwise the dim and the canonical key of the
vertex-facet incidence (see `polytopes`).  The flag vector is not here:
it lives on the type, in `Polytope._flags`, filled by one walk of the
lattice, and F is computed once per type from it.  Faces and quotients
have no memo: a registered type whose counts fix it is found in `types`
by its invariant, and any other is cut out.

`TABLES` holds one memo of a recursive algebra function, made by
`cached`, an unbounded `functools.lru_cache` whose lookups stay in C:

    qsym.quasi_shuffle          the overlapping shuffle of two compositions;
                                the pairs are unordered, so a pair out of
                                order holds its swap's mapping

It is recursive and hit many times per request.  The
`itertools.combinations` call in `QSym.expand` and `ncalg.basis_words`
have no memo: one timed the same as the plain call, and no workload hit
the other.  `ncalg.normal_form` has none either: its fold from the left
keeps no table, nor does `lyndon.shuffle`, built over a grid of suffix
pairs of which two rows are alive at a time.  `clear()` empties `types`,
`memo` and every table, so a long-lived process or a test can start from
a fresh store.
"""

from __future__ import annotations

import functools

types = {}
memo = {}
TABLES = []


def memoized(request, make):
    """`memo[request]`, stored from `make()` on a miss."""
    hit = memo.get(request)
    if hit is None:
        hit = memo.setdefault(request, make())
    return hit


def cached(fn):
    """`fn` memoized in an unbounded table that `clear` empties."""
    table = functools.lru_cache(maxsize=None)(fn)
    TABLES.append(table)
    return table


def clear():
    """Empty `types`, `memo` and every table in `TABLES`."""
    types.clear()
    memo.clear()
    for table in TABLES:
        table.cache_clear()
