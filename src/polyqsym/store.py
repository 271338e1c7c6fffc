"""The process-wide memo store.

Plain dicts, one per memoized quantity that depends on a polytope type.
A polytope key is the dim and the vertex count up to dim 2, the dim
alone for a simplex, and otherwise the dim and the canonical key of the
vertex-facet incidence (see `polytopes`).

    types          polytope key -> the registered Polytope of that type
    names          catalogue request text -> Polytope (the generators
                   empty, pt and cube(1), named atoms, operator words)
    constructions  (operation, operand keys) -> Polytope, for product,
                   join, bipyramid and dual
    face_classes   (polytope key, codimension) -> ((face, multiplicity), ..)
    antipodes      polytope key -> join-ring antipode ((polytope, coeff), ..)

`MEMOS` names every one of them, so a caller that needs a fresh store
(a test) can empty them all.  Interval polytopes are memoized on each
Polytope, not here, and the sparse-flag basis, cheap to rebuild, nowhere.
Every access is a single dict operation (`get` or `setdefault`), so
threads that race on a key agree on the stored value.
"""

from __future__ import annotations

types = {}
names = {}
constructions = {}
face_classes = {}
antipodes = {}

MEMOS = ("types", "names", "constructions", "face_classes", "antipodes")
