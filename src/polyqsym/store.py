"""The process-wide memo store.

Two dicts.  `types` is the registry: polytope key -> the registered
Polytope of that type.  `memo` holds every other quantity that depends on
polytope types, keyed by a request tuple whose first entry names it:

    (name, *params)         the generators and catalogue requests, such as
                            ("pt",) or ("cube", 3); `segment()` is ("cube", 1)
    ("word", w)             the polytope of an operator word over {B, C}
    (op, *operand keys)     op one of "prod", "join", "bipyramid", "dual"
    ("faces", key, k)       codimension-k faces ((face, multiplicity), ..)
    ("antipode", key)       join-ring antipode ((polytope, coeff), ..)

A polytope key is the dim and the vertex count up to dim 2, the dim alone
for a simplex, and otherwise the dim and the canonical key of the
vertex-facet incidence (see `polytopes`).

`MEMOS` names both, so a caller that needs a fresh store (a test) can
empty them.  Flag numbers, by flag set, and interval polytopes, by pairs
of lattice elements, belong to one Polytope and are memoized on it, in
`_flags` and `_intervals`; they go through `memoized` too.
"""

from __future__ import annotations

types = {}
memo = {}

MEMOS = ("types", "memo")


def memoized(table, request, make):
    """`table[request]`, stored from `make()` on a miss."""
    hit = table.get(request)
    if hit is None:
        hit = table.setdefault(request, make())
    return hit
