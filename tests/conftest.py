import os
import random
import subprocess
import sys

import pytest

from polyqsym.ring import (FormalSum, JOIN_RING, PRODUCT_RING, antipode_rp,
                           hopf_coproduct_pairs, mul_join)


@pytest.fixture
def empty_store(monkeypatch):
    """An empty memo store (`store.clear()`), so that results do not depend
    on which tests ran earlier in the process; calling it empties the store
    again.  The old `types` and `memo` dicts come back after the test."""
    from polyqsym import store

    def empty():
        monkeypatch.setattr(store, "types", {})
        monkeypatch.setattr(store, "memo", {})
        store.clear()
    empty()
    return empty


def cli_process(argv, unbuffered=False, **kwargs):
    """`python -m polyqsym.cli` in a fresh process, stderr piped."""
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "polyqsym.cli"] + argv,
                          stderr=subprocess.PIPE, env=env, timeout=120,
                          **kwargs)


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


def cw_sphere_lattice(verts, faces):
    """Face poset of a regular cell decomposition of the 2-sphere: each
    face is a cycle of vertex letters, each consecutive pair an edge.  Such
    a poset is Eulerian, but need not be a polytope face lattice."""
    from polyqsym.posets import GradedPoset

    def cycle(f):
        return [frozenset((f[i], f[(i + 1) % len(f)])) for i in range(len(f))]
    edges = sorted({e for f in faces for e in cycle(f)}, key=sorted)
    elems = [()] + list(verts) + edges + list(faces) + ["top"]
    index = {e: i for i, e in enumerate(elems)}
    ranks = ([0] + [1] * len(verts) + [2] * len(edges) + [3] * len(faces)
             + [4])
    covers = [(0, index[v]) for v in verts]
    covers += [(index[v], index[e]) for e in edges for v in e]
    covers += [(index[e], index[f]) for f in faces for e in cycle(f)]
    covers += [(index[f], index["top"]) for f in faces]
    return GradedPoset(ranks, covers)


def random_graded_poset(rng, widths):
    """Random bottom/top graded poset with the given middle layer widths."""
    ranks = [0] + sum(([r + 1] * w for r, w in enumerate(widths)), []) \
        + [len(widths) + 1]
    layers = [[0]]
    idx = 1
    for w in widths:
        layers.append(list(range(idx, idx + w)))
        idx += w
    layers.append([idx])
    covers = set()
    for lo, hi in zip(layers, layers[1:]):
        for y in hi:
            covers.add((rng.choice(lo), y))
        for x in lo:
            if not any(a == x for a, _ in covers):
                covers.add((x, rng.choice(hi)))
        # sprinkle extra edges
        for _ in range(len(lo)):
            covers.add((rng.choice(lo), rng.choice(hi)))
    from polyqsym.posets import GradedPoset
    return GradedPoset(ranks, sorted(covers))


# Square abdc whose diagonal ad is an edge outside it, each half of the
# other hemisphere coned from a new vertex: the atoms of ad lie below the
# square, but ad does not.
DIAGONAL_SPHERE = ("abcdef", ("abdc", "abe", "bde", "aed", "adf", "dcf",
                              "caf"))
# Octahedron with two pairs of triangles merged into quadrilaterals N123
# and S341: ordered by inclusion of vertex sets, but those two facets meet
# in the two vertices 1 and 3, which span no face.
MERGED_OCTAHEDRON = ("NS1234", ("N123", "N34", "N41", "S12", "S23", "S341"))


# A triangular bipyramid (apexes n and s over the triangle abc) with a
# vertex x stacked on its facet nab: 6 vertices, 12 edges and 8 facets,
# the f-vector of the octahedron, but another type.
STACKED_BIPYRAMID = [set("xna"), set("xnb"), set("xab"), set("nbc"),
                     set("nca"), set("sab"), set("sbc"), set("sca")]


# A triangular prism with one square folded along a diagonal: 6 vertices,
# 10 edges and 6 facets, like the pentagonal pyramid, but another type.
FOLDED_PRISM = [{0, 1, 2}, {3, 4, 5}, {0, 1, 4}, {0, 4, 3}, {1, 2, 5, 4},
                {2, 0, 3, 5}]


def random_lattices(rng, count):
    """Face lattices of random products, joins, duals and B/C words of
    dim <= 4, built by the lattice constructions alone, so that no
    registry lookup or key is involved.  The pool starts with two 3-
    polytopes of equal f-vector, so equal counts do not imply equal keys."""
    from polyqsym import polytopes as pb
    from polyqsym.posets import poset_product
    pool = [pb.point().lattice, pb.segment().lattice, pb.simplex(2).lattice,
            pb.polygon(5).lattice, pb.cone(pb.polygon(5)).lattice,
            pb.from_incidence(FOLDED_PRISM).lattice]
    out = []
    while len(out) < count:
        op = rng.choice(("prod", "join", "dual", "B", "C"))
        a, b = rng.choice(pool), rng.choice(pool)
        if op == "prod":
            lat = poset_product(a, b, drop="bottom")
        elif op == "join":
            lat = poset_product(a, b)
        elif op == "dual":
            lat = a.dual()
        elif op == "B":
            lat = poset_product(a, pb.segment().lattice, drop="top")
        else:
            lat = poset_product(pb.point().lattice, a)
        if lat.height <= 5 and lat.n <= 120:
            pool.append(lat)
            out.append(lat)
    return out


def lattice_stream_exprs(seeds):
    """The expressions of the benchmark's `lattice-stream` workload at its
    20-second length, for each seed; the generator is plain stdlib, read
    from `perfbench/workloads.py` by path."""
    import importlib.util
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [req["expr"] for seed in seeds
            for req in workloads.lattice_stream(seed, 20)]


def flag_test_types(catalogue):
    """The types the flag memos are tested on: every catalogue type, a
    random pool, the folded prism, the empty polytope and the point."""
    from polyqsym import polytopes as pb
    return (list(catalogue.values())
            + [pb.Polytope(lat) for lat in random_lattices(
                random.Random(7), 40)]
            + [pb.from_incidence(FOLDED_PRISM), pb.empty(), pb.point()])
