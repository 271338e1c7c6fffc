"""Fuzz the trust boundaries of the CLI, expression text, integer
arguments and cache files: every input exits 0, 2 or 3 and prints no
traceback.

Generated expressions use atoms of at most 5 faces and nest at most two
operators deep, so none builds a lattice of more than a few hundred faces
(the largest, join(join(a, b), join(c, d)), has 5^4 = 625).  The
integer-argument fuzz may build `polygon(m)` for m up to 4,999 (10,000
faces), so each of its examples starts from an empty store.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from polyqsym.cli import main

SMALL_ATOMS = ("empty", "pt", "cube(1)", "simplex(0)", "simplex(1)",
               "cross(1)", "word(C)", "word(CC)", "word(BC)")


def _operators(inner):
    unary = st.tuples(st.sampled_from(("C %s", "B %s", "dual(%s)", "(%s)",
                                       "-%s", "2*%s", "0*%s")), inner)
    binary = st.tuples(st.sampled_from(("prod(%s,%s)", "join(%s,%s)",
                                        "%s + %s", "%s - %s")), inner, inner)
    return st.one_of(unary, binary).map(lambda t: t[0] % t[1:])


_atom = st.sampled_from(SMALL_ATOMS)
_level1 = st.one_of(_atom, _operators(_atom))
EXPRESSIONS = st.one_of(_level1, _operators(_level1))

# Grammar tokens glued at random: mostly syntax errors, and every atom or
# operator name with a one-digit argument at most.
_TOKENS = ("(", ")", "+", "-", "*", ",", " ", "0", "1", "2", "3", "pt",
           "empty", "cube", "simplex", "cross", "polygon", "word", "cell",
           "C", "B", "BC", "dual", "prod", "join", "x", "#", "é")
TOKEN_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)


def _assert_clean_exit(argv, codes):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=150, deadline=None)
@given(st.one_of(EXPRESSIONS, TOKEN_SOUP, st.text(max_size=12)))
def test_fuzz_build_exits_cleanly(text):
    _assert_clean_exit(["--json", "build", text], (0, 2))


# every integer slot of the CLI: atom arguments, coefficients and options
INTEGER_SLOTS = (
    lambda n: ["build", "simplex(%d)" % n],
    lambda n: ["flag", "cube(%d)" % n],
    lambda n: ["flag", "cross(%d)" % n],
    lambda n: ["build", "polygon(%d)" % n],
    lambda n: ["build", "%d*cube(2)" % n],
    lambda n: ["flag", "prod(%d*pt, simplex(1))" % n],
    lambda n: ["fpoly", "cube(2)", "--r", str(n)],
    lambda n: ["lyndon", "--weight", str(n)],
    lambda n: ["lyndon", "--k-table", str(n)],
    lambda n: ["project", "cube(2)", "--dim", str(n)],
    lambda n: ["bb-matrix", str(n)],
)
# magnitudes from 2^10 to 2^70, of either sign
HUGE = st.tuples(st.integers(10, 69).flatmap(
    lambda e: st.integers(2 ** e, 2 ** (e + 1))), st.sampled_from((1, -1))
).map(lambda t: t[0] * t[1])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(INTEGER_SLOTS), HUGE)
def test_fuzz_integer_arguments_exit_cleanly(empty_store, slot, n):
    empty_store()
    _assert_clean_exit(slot(n), (0, 2))


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                          st.floats(), st.text(max_size=3))
_JSON = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=8)
# a registry entry is a list of facets, each a list of vertex indices
_VERTEX = st.one_of(st.integers(0, 5), _JSON_SCALARS, st.sampled_from(
    (float("inf"), float("nan"), 1e300, 2 ** 70, -1, "1", [0])))
_ENTRY = st.one_of(
    st.lists(st.one_of(st.lists(_VERTEX, max_size=5), _JSON), max_size=7),
    _JSON)
CACHES = st.one_of(
    st.fixed_dictionaries({"schema": st.sampled_from((1, 2, 2.0, True, 3)),
                           "registry": st.one_of(st.lists(_ENTRY, max_size=3),
                                                 _JSON)}),
    _JSON)


@settings(max_examples=150, deadline=None)
@given(st.one_of(CACHES.map(lambda d: json.dumps(d).encode()),
                 st.binary(max_size=20)))
def test_fuzz_cache_load_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-cache.json"
    path.write_bytes(data)
    _assert_clean_exit(["cache", "load", str(path)], (0, 2, 3))
