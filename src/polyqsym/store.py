"""The process-wide memo store.

Plain dicts, one per memoized quantity that depends on a polytope type:

    types          canonical key -> the registered Polytope of that type
    names          catalogue request text -> Polytope
    face_classes   (canonical key, codimension) -> ((face, multiplicity), ..)
    antipodes      canonical key -> join-ring antipode ((polytope, coeff), ..)
    bb             dimension n -> sparse-flag basis

`lock` guards the check-and-insert that makes the first Polytope seen for
a key the shared one; every other access is a single dict operation.
"""

from __future__ import annotations

import threading

lock = threading.Lock()
types = {}
names = {}
face_classes = {}
antipodes = {}
bb = {}
