"""Seeded request generators for the four benchmark workloads.

Everything here is plain stdlib: the generators never import polyqsym, so
the program under test sees only the generated inputs.  Each generator
takes the seed and the run length and returns the full request list of a
run.  The list length is a fixed function of the run length (a nominal
request rate per workload), never of how fast the machine happens to be,
so every run of a seed does the same work and reports percentiles over the
same number of samples.

Face counts are computed arithmetically from the constructions so that the
generators can cap request size without building anything.
"""

from __future__ import annotations

import random

SUITES = ("phi-unit", "dehn-sommerville", "image-equations", "join-cone",
          "comodule", "operators", "lyndon-counts", "bb", "appendix-c")

# Nominal request rates, in requests per second of run length.  They size
# the request lists; they are not measurements and never change per run.
LATTICE_RATE = 5.0
ALGEBRA_RATE = 150.0
CLI_COLD_LIGHT_RATE = 2.4
CLI_CACHE_RATE = 2.0


class Poly:
    """A generated expression with its dimension and face count."""

    __slots__ = ("text", "dim", "faces")

    def __init__(self, text, dim, faces):
        self.text = text
        self.dim = dim
        self.faces = faces

    def __repr__(self):
        return "Poly(%r, dim=%d, faces=%d)" % (self.text, self.dim,
                                               self.faces)


def simplex(n):
    return Poly("simplex(%d)" % n, n, 2 ** (n + 1))


def cube(n):
    return Poly("cube(%d)" % n, n, 3 ** n + 1)


def cross(n):
    return Poly("cross(%d)" % n, n, 3 ** n + 1)


def polygon(m):
    return Poly("polygon(%d)" % m, 2, 2 * m + 2)


def word(letters):
    faces = 1
    for ch in reversed(letters):
        faces = 2 * faces if ch == "C" else 3 * faces - 2
    return Poly("word(%s)" % letters, len(letters) - 1, faces)


def prod(a, b):
    return Poly("prod(%s,%s)" % (a.text, b.text), a.dim + b.dim,
                (a.faces - 1) * (b.faces - 1) + 1)


def join(a, b):
    return Poly("join(%s,%s)" % (a.text, b.text), a.dim + b.dim + 1,
                a.faces * b.faces)


def dual(a):
    return Poly("dual(%s)" % a.text, a.dim, a.faces)


def cone(a):
    return Poly("C %s" % a.text, a.dim + 1, 2 * a.faces)


def bipyramid(a):
    return Poly("B %s" % a.text, a.dim + 1, 3 * a.faces - 2)


def random_named(rng, dim):
    """A named generator or operator word of exactly this dimension."""
    if dim == 0:
        return Poly("pt", 0, 2)
    if dim == 2:
        choice = rng.randrange(4)
        if choice == 0:
            return polygon(rng.randint(3, 12))
    else:
        choice = rng.randrange(1, 4)
    if choice == 1:
        return simplex(dim)
    if choice == 2:
        return cube(dim) if rng.random() < 0.5 else cross(dim)
    letters = "".join(rng.choice("BC") for _ in range(dim)) + "C"
    return word(letters)


def random_polytope(rng, dim, max_faces):
    """A random expression of exactly `dim` with at most `max_faces`
    faces, mixing named generators, products, joins, duals and cone or
    bipyramid prefixes."""
    for _ in range(200):
        p = _random_shape(rng, dim)
        if p.faces <= max_faces:
            return p
    return simplex(dim)


def _random_shape(rng, dim):
    kind = rng.randrange(5) if dim >= 2 else 0
    if kind == 0:
        return random_named(rng, dim)
    if kind == 1:
        da = rng.randint(1, dim - 1)
        return prod(random_named(rng, da), random_named(rng, dim - da))
    if kind == 2 and dim >= 3:
        da = rng.randint(1, dim - 2)
        return join(random_named(rng, da), random_named(rng, dim - 1 - da))
    if kind == 3:
        return dual(_random_shape(rng, dim))
    inner = _random_shape(rng, dim - 1)
    return cone(inner) if rng.random() < 0.5 else bipyramid(inner)


# -- lattice-stream -----------------------------------------------------------

# (kind, dim, max faces) strata with fixed shares, so that pools drawn from
# different seeds cost about the same.  dim <= 4 and the face caps keep any
# single request well under a second; the antipode only runs at dim <= 3,
# where its chain sum stays small.
LATTICE_STRATA = (
    ("prod", 3, 60), ("prod", 4, 100),
    ("join", 3, 48), ("join", 4, 80),
    ("named", 3, 40), ("named", 4, 90),
    ("other", 3, 36), ("other", 4, 90),
)


def lattice_request(rng, kind, dim, max_faces):
    for _ in range(200):
        if kind == "prod":
            da = rng.randint(1, dim - 1)
            a = random_polytope(rng, da, max_faces)
            b = random_polytope(rng, dim - da, max_faces)
            p = prod(a, b)
            parts = [a.text, b.text]
        elif kind == "join":
            da = rng.randint(0, dim - 1)
            a = random_polytope(rng, da, max_faces)
            b = random_polytope(rng, dim - 1 - da, max_faces)
            p = join(a, b)
            parts = [a.text, b.text]
        elif kind == "named":
            p = random_named(rng, dim)
            parts = []
        else:
            p = random_polytope(rng, dim, max_faces)
            parts = []
        if p.faces <= max_faces:
            return {"kind": kind, "expr": p.text, "dim": p.dim,
                    "parts": parts}
    raise RuntimeError("no request fits %s/%d/%d" % (kind, dim, max_faces))


def lattice_stream(seed, seconds):
    rng = random.Random("lattice-stream:%d" % seed)
    total = max(len(LATTICE_STRATA), round(LATTICE_RATE * seconds))
    out, seen = [], set()
    i = 0
    while len(out) < total:
        kind, dim, cap = LATTICE_STRATA[i % len(LATTICE_STRATA)]
        req = lattice_request(rng, kind, dim, cap)
        if req["expr"] in seen and rng.random() < 0.9:
            continue
        seen.add(req["expr"])
        out.append(req)
        i += 1
    rng.shuffle(out)
    return out


# -- algebra ------------------------------------------------------------------


def random_composition(rng, total):
    parts, left = [], total
    while left:
        k = rng.randint(1, min(left, 3))
        parts.append(k)
        left -= k
    return parts


def random_qsym(rng, degree, terms):
    return [{"comp": random_composition(rng, degree),
             "coeff": rng.choice((-3, -2, -1, 1, 2, 3))}
            for _ in range(terms)]


ALGEBRA_OPS = ("qsym-mul", "qsym-coproduct", "qsym-expand", "nc-normal-form",
               "nc-antipode", "nc-coproduct", "lyndon-words",
               "series-exponents")


# The heaviest algebra requests set the tail, so their sizes cycle through
# fixed lists instead of being drawn: every seed gets the same multiset.
LYNDON_SIZES = (((1, 2), 12), ((1, 2), 13), ((1, 2), 14), ("odd", 17),
                ("odd", 18), ("odd", 19), ("odd", 20))
SERIES_SIZES = (60, 70, 80, 90)


def algebra_request(rng, op, k):
    """The k-th request of kind `op`."""
    if op == "qsym-mul":
        return {"op": op, "a": random_qsym(rng, rng.randint(4, 6), 6),
                "b": random_qsym(rng, rng.randint(4, 6), 6)}
    if op == "qsym-coproduct":
        return {"op": op, "a": random_qsym(rng, rng.randint(10, 14), 150)}
    if op == "qsym-expand":
        return {"op": op, "a": random_qsym(rng, rng.randint(6, 8), 5),
                "r": rng.randint(6, 8)}
    if op in ("nc-normal-form", "nc-antipode", "nc-coproduct"):
        size = {"nc-normal-form": (12, 16), "nc-antipode": (8, 10),
                "nc-coproduct": (9, 11)}[op]
        words = [random_composition(rng, rng.randint(*size))
                 for _ in range(3)]
        if op == "nc-normal-form":
            # make sure the rewriting has work to do
            for w in words:
                w.insert(rng.randrange(1, len(w) + 1), 1)
        return {"op": op, "words": words,
                "coeffs": [rng.choice((-2, -1, 1, 2)) for _ in words]}
    if op == "lyndon-words":
        alphabet, weight = LYNDON_SIZES[k % len(LYNDON_SIZES)]
        return {"op": op, "alphabet": alphabet if alphabet == "odd"
                else list(alphabet), "weight": weight}
    # series-exponents of 1/(1 - sum t^a) over a random small alphabet
    letters = sorted(rng.sample(range(1, 6), rng.randint(2, 3)))
    return {"op": op, "alphabet": letters,
            "nmax": SERIES_SIZES[k % len(SERIES_SIZES)]}


def algebra(seed, seconds):
    rng = random.Random("algebra:%d" % seed)
    total = max(len(ALGEBRA_OPS), round(ALGEBRA_RATE * seconds))
    n = len(ALGEBRA_OPS)
    out = [algebra_request(rng, ALGEBRA_OPS[i % n], i // n)
           for i in range(total)]
    rng.shuffle(out)
    return out


# -- CLI sessions ---------------------------------------------------------------


def light_cli_request(rng, verb, k, max_faces):
    """argv (after the program name) for the k-th light invocation of
    `verb`.  Dimensions and sizes cycle through fixed lists, so only the
    shapes of the expressions depend on the seed."""
    def expr(cap):
        return random_polytope(rng, 2 + k % 3, min(cap, max_faces))

    if verb in ("build", "flag", "fpoly"):
        return [verb, expr(90).text, "--json"]
    if verb == "ehrenborg":
        return [verb, expr(60).text, "--json"]
    if verb == "frp":
        return [verb, expr(50).text, "--json"]
    if verb == "project":
        p = expr(60)
        return ["project", p.text, "--dim", str(p.dim), "--json"]
    if verb == "bb-matrix":
        return ["bb-matrix", str(2 + k % 3), "--det", "--json"]
    if k % 2:
        return ["lyndon", "--k-table", str(10 + k % 7)]
    return ["lyndon", "--weight", str(8 + k % 5)]


LIGHT_VERBS = ("build", "flag", "fpoly", "ehrenborg", "frp", "project",
               "bb-matrix", "lyndon")


def light_cli_requests(rng, count, max_faces):
    """`count` light invocations cycling through the verbs, distinct where
    the verb has enough distinct inputs."""
    out, seen = [], set()
    n = len(LIGHT_VERBS)
    for i in range(count):
        for _ in range(20):
            argv = light_cli_request(rng, LIGHT_VERBS[i % n], i // n,
                                     max_faces)
            if tuple(argv) not in seen:
                break
        seen.add(tuple(argv))
        out.append(argv)
    return out


def cli_cold(seed, seconds):
    """Every suite once per round, plus generated light invocations.  One
    round of suites is about 9 s of nominal work; at 20 s, two rounds put
    the tail percentile inside the suites, and more than twice as many
    light invocations as suite runs put the median inside the light ones,
    away from the step between the two."""
    rng = random.Random("cli-cold:%d" % seed)
    rounds = max(1, round(seconds / 10))
    out = [["verify", s, "--json"] for s in SUITES for _ in range(rounds)]
    out += light_cli_requests(rng, max(len(LIGHT_VERBS),
                                       round(CLI_COLD_LIGHT_RATE * seconds)),
                              90)
    rng.shuffle(out)
    return out


def cli_cache(seed, seconds):
    """Light invocations and the two cheap suites, all sharing one cache.
    The heavy suites stay out: their catalogue would make every cache load
    re-key hundreds of lattices, seconds per invocation."""
    rng = random.Random("cli-cache:%d" % seed)
    count = max(len(LIGHT_VERBS), round(CLI_CACHE_RATE * seconds))
    out = [["verify", "appendix-c", "--json"],
           ["verify", "lyndon-counts", "--json"]]
    out += light_cli_requests(rng, count - len(out), 50)
    rng.shuffle(out)
    return out


GENERATORS = {
    "cli-cold": cli_cold,
    "cli-cache": cli_cache,
    "lattice-stream": lattice_stream,
    "algebra": algebra,
}


def generate(workload, seed, seconds):
    return GENERATORS[workload](seed, seconds)
