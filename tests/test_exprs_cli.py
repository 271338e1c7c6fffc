import json
import operator
import os

import pytest

from polyqsym import exprs
from polyqsym import polytopes as pb
from polyqsym import store
from polyqsym import transforms
from polyqsym.cli import main
from polyqsym.exprs import ExprError, parse_expression
from polyqsym.posets import GradedPoset
from polyqsym.ring import FormalSum, JOIN_RING, PRODUCT_RING, d_k
from conftest import DIAGONAL_SPHERE, MERGED_OCTAHEDRON, cli_process, fs


def test_parse_atoms_and_words():
    assert parse_expression("pt").terms == {pb.point(): 1}
    assert parse_expression("B C C empty").terms == {pb.cube(2): 1}
    assert parse_expression("word(BCC)").terms == {pb.cube(2): 1}
    s = parse_expression("2*join(pt,pt) - cube(1)")
    assert s.terms == {pb.segment(): 1}
    assert parse_expression("prod(simplex(2), cube(1))").terms == \
        {pb.product(pb.simplex(2), pb.segment()): 1}
    assert parse_expression("dual(cube(3))").terms == {pb.cross(3): 1}
    assert parse_expression("3*simplex(2) - 4*cube(2)").terms == \
        {pb.simplex(2): 3, pb.cube(2): -4}


def test_parse_precedence():
    # unary operators bind tighter than scalar multiplication
    s = parse_expression("2*C pt")
    assert s.terms == {pb.segment(): 2}
    s = parse_expression("2*B C C empty - cube(2)")
    assert s.terms == {pb.cube(2): 1}


def test_parse_ambient_inference():
    assert parse_expression("pt").ambient == PRODUCT_RING
    assert parse_expression("empty").ambient == JOIN_RING
    assert parse_expression("pt", ambient=JOIN_RING).ambient == JOIN_RING
    with pytest.raises(ValueError):
        parse_expression("empty", ambient=PRODUCT_RING)


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as err:
        parse_expression("prod(simplex(2)")
    assert err.value.position == 15
    with pytest.raises(ExprError):
        parse_expression("frobnicate(3)")
    with pytest.raises(ExprError):
        parse_expression("simplex(x)")
    with pytest.raises(ExprError):
        parse_expression("pt pt")
    with pytest.raises(ExprError):
        parse_expression("polygon(2)")
    with pytest.raises(ExprError):
        parse_expression("prod(empty, pt)")


def test_parse_depth_limit(capsys, monkeypatch):
    assert main(["build", "(" * 400 + "pt" + ")" * 400]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err
    # the limit is met while descending, before any cone is built
    built = []
    monkeypatch.setattr(exprs, "cone_op", lambda s: built.append(s))
    monkeypatch.setattr(pb, "build_named", lambda *a: built.append(a))
    assert main(["build", "C " * 400 + "pt"]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert built == []
    monkeypatch.undo()
    assert parse_expression("(" * 50 + "pt" + ")" * 50).terms == \
        {pb.point(): 1}


def test_expression_size_limit(capsys, monkeypatch, empty_store):
    for text in ("simplex(30)", "cube(1000000000)", "prod(cube(6),cube(6))",
                 "join(simplex(7),simplex(7))", "word(%s)" % ("C" * 14)):
        assert main(["build", text]) == 2
        err = capsys.readouterr().err
        assert "too large" in err and "Traceback" not in err
    assert main(["build", "cube(4)"]) == 0
    capsys.readouterr()
    # cone and bipyramid are checked on their built operand
    monkeypatch.setattr(pb, "MAX_FACES", 10)
    for text in ("C cube(2)", "B cube(2)", "cube(3)", "polygon(5)"):
        with pytest.raises(ExprError, match="too large"):
            parse_expression(text)
    assert parse_expression("dual(cube(2))").terms == {pb.cube(2): 1}


@pytest.mark.parametrize("verb", ["build", "flag", "fpoly"])
def test_coefficients_past_the_digit_bound_exit_2(verb, capsys):
    """A literal past MAX_DIGITS digits is refused at its token, an atom's
    argument too, and a coefficient of the parsed sum past it at offset 0,
    in one line: a value the verb would print must convert to text."""
    bound = exprs.MAX_DIGITS
    big, huge, half = "7" * 3000, "3" * 5000, "9" * (bound // 2 + 100)
    for text, offset in (("%s*(%s*pt)" % (big, big), 0),
                         ("pt + %s*pt" % huge, 5),
                         ("%s*(%s*pt)" % (half, half), 0),
                         ("cube(%s)" % ("2" * (bound + 1)), 5)):
        assert main([verb, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("syntax error: ")
        assert captured.err.endswith(" at offset %d\n" % offset)
        assert captured.err.count("\n") == 1 and "digits" in captured.err
    assert main([verb, "%s*pt" % ("1" * bound)]) == 0
    assert capsys.readouterr().err == ""


def test_refusal_is_reported_at_its_own_factor():
    with pytest.raises(ExprError, match="nonempty polytopes") as err:
        parse_expression("C prod(empty, pt)")
    assert err.value.position == 2
    with pytest.raises(ExprError, match="too large") as err:
        parse_expression("pt + join(pt, B cube(8))")
    assert err.value.position == 14


def test_bad_atoms_exit_2_at_their_name(capsys):
    """An atom is a catalogue request: a name or parameter that
    `build_named` refuses is a syntax error at the atom's name."""
    for text in ("pt(3)", "simplex", "frobnicate(3)", "simplex(BC)",
                 "word(12)"):
        assert main(["build", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("syntax error: ") and err.endswith(
            " at offset 0\n") and "Traceback" not in err, (text, err)


def test_named_atoms_are_memoized(monkeypatch):
    """Each catalogue generator memoizes itself: once a name is built,
    neither parsing it again nor calling its generator directly builds a
    poset, for a lattice or for a key."""
    monkeypatch.setattr(store, "memo", {})
    built = []
    real_init = GradedPoset.__init__

    def init(lat, *args, **kw):
        real_init(lat, *args, **kw)
        built.append(lat)
    monkeypatch.setattr(GradedPoset, "__init__", init)
    names = ["cell24", "simplex(3)", "polygon(7)", "cube(3)", "cross(3)",
             "word(BCB)"]
    first = [next(iter(parse_expression(e).terms)) for e in names]
    assert built
    del built[:]
    again = [next(iter(parse_expression(e).terms)) for e in names]
    direct = [pb.cell24(), pb.simplex(3), pb.polygon(7), pb.cube(3),
              pb.cross(3), pb.from_word("BCB")]
    assert built == []
    assert all(map(operator.is_, first, again))
    assert all(map(operator.is_, first, direct))


def test_cli_build_and_flag(capsys):
    assert main(["build", "B C C empty"]) == 0
    out = capsys.readouterr().out
    assert "4 vertices" in out
    assert main(["--json", "flag", "simplex(2)"]) == 0
    rows = json.loads(capsys.readouterr().out)
    table = {tuple(r["S"]): r["value"] for r in rows}
    assert table[(0, 1)] == 6
    # a sum whose terms cancel is zero, which is homogeneous: its flag
    # table is empty; a sum of two dims is refused
    assert main(["--json", "flag", "cube(2) - polygon(4)"]) == 0
    assert capsys.readouterr().out == "[]\n"
    assert main(["flag", "cube(2) - polygon(4)"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["flag", "2*empty - pt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "flag vectors need a homogeneous sum" in captured.err


def test_cli_fpoly_routes(capsys):
    assert main(["--json", "fpoly", "simplex(2)"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert {"comp": [1, 1], "coeff": 6} in got
    assert main(["fpoly", "simplex(2)", "--r", "2"]) == 0
    assert "t1" in capsys.readouterr().out


def test_cli_ehrenborg_frp(capsys):
    assert main(["ehrenborg", "polygon(3)"]) == 0
    assert "M[3]" in capsys.readouterr().out
    assert main(["frp", "pt"]) == 0
    assert "M[1] + a" in capsys.readouterr().out
    # a constant term prints as its signed coefficient alone
    for argv, text in ((["fpoly", "2*pt"], "2"), (["frp", "3*empty"], "3"),
                       (["ehrenborg", "2*empty - pt"], "2 - M[1]")):
        assert main(argv) == 0
        assert capsys.readouterr().out == text + "\n"


def test_cli_lyndon(capsys):
    assert main(["lyndon", "--alphabet", "odd", "--weight", "7"]) == 0
    words = json.loads(capsys.readouterr().out)
    assert [7] in words and len(words) == 4
    assert main(["lyndon", "--k-table", "12"]) == 0
    ks = json.loads(capsys.readouterr().out)
    assert ks == [1, 1, 1, 1, 2, 2, 4, 5, 8, 11, 18, 25]
    # a zero letter admits infinitely many words of each weight
    assert main(["lyndon", "--alphabet", "0,1", "--weight", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: composition parts must be positive\n"
    for alphabet in ("a", "1,,2", ""):
        assert main(["lyndon", "--alphabet", alphabet, "--weight", "3"]) == 2
        assert capsys.readouterr().err == ("error: --alphabet takes odd or "
                                           "comma-separated integers\n")


def test_cli_lyndon_at_the_weight_bound(capsys):
    # one letter of the full weight; then the deepest walk, 499 ones
    assert main(["lyndon", "--alphabet", "1,500", "--weight", "500"]) == 0
    assert capsys.readouterr().out == "[[500]]\n"
    assert main(["lyndon", "--alphabet", "1", "--weight", "500"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_cli_bb_and_project(capsys):
    assert main(["bb-matrix", "2"]) == 0
    assert "1      4" in capsys.readouterr().out
    assert main(["--json", "bb-matrix", "3", "--det"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 3, "det": 1}
    assert main(["project", "polygon(5)", "--dim", "2"]) == 0
    out = capsys.readouterr().out.strip()
    reparsed = parse_expression(out)
    assert reparsed.terms == {pb.cube(2): 2, pb.simplex(2): -1}


def test_cli_project_ignores_history(capsys, empty_store):
    # cube(2) is the basis polytope word(BCC); naming it first changes
    # nothing
    assert main(["build", "cube(2)"]) == 0
    capsys.readouterr()
    for text in ("polygon(5)", "polygon(5) + cube(2) - cube(2)"):
        assert main(["project", text, "--dim", "2"]) == 0
        assert capsys.readouterr().out == "2*word(BCC) - word(CCC)\n"


def test_cli_verify(capsys):
    assert main(["verify", "appendix-c"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert main(["verify", "nope"]) == 2
    capsys.readouterr()
    assert main(["--json", "verify", "lyndon-counts"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_cli_usage_and_syntax_errors(capsys):
    assert main(["build", "prod(simplex(2)"]) == 2
    err = capsys.readouterr().err
    assert "offset 15" in err
    assert main(["nope"]) == 2
    capsys.readouterr()
    # options that no longer exist are usage errors, not crashes
    for argv in (["--jobs", "2", "verify", "lyndon-counts"],
                 ["fpoly", "simplex(2)", "--route", "operator"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


def test_build_order_ignores_input_order(capsys, empty_store):
    """Rows and sum text come in (dim, f-vector) order, with the key only
    as the last tiebreak, whatever order the terms were written in."""
    terms = ["cube(3)", "cross(3)", "prod(simplex(2),cube(1))", "simplex(3)",
             "C cube(2)", "2*polygon(5)", "cell24", "pt", "B simplex(2)",
             "-polygon(6)"]
    outputs, texts = [], []
    for order in (terms, terms[::-1]):
        expr = " + ".join(order).replace("+ -", "- ")
        for argv in (["build", expr], ["--json", "build", expr]):
            empty_store()
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        texts.append(repr(parse_expression(expr)))
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    assert texts[0] == texts[1]
    rows = [(r["dim"], r["f_vector"]) for r in json.loads(outputs[1])]
    assert rows == sorted(rows) and len(rows) == len(terms)


def test_output_ignores_history(capsys, empty_store):
    """Printed text is a function of the request alone, not of what the
    process built before it."""
    outputs = []
    # the second request after the first, then again in a fresh store
    for text, fresh in (("cube(2) + cross(2)", False),
                        ("cross(2) + cube(2)", False),
                        ("cross(2) + cube(2)", True)):
        if fresh:
            empty_store()
        assert main(["--json", "build", text]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    assert all("expr" not in row for row in json.loads(outputs[0]))
    empty_store()
    before = repr(d_k(FormalSum.of(pb.cube(3)), 1))
    parse_expression("cube(2)")
    assert repr(d_k(FormalSum.of(pb.cube(3)), 1)) == before
    assert before == "6*<dim 2, f=[4, 4]>"


def test_sum_repr_tells_types_apart():
    # cube(3) and cross(3) both have 28 faces
    s = parse_expression("cube(3) - cross(3) + 2*polygon(5)")
    assert repr(s) == ("2*<dim 2, f=[5, 5]> - <dim 3, f=[6, 12, 8]> "
                       "+ <dim 3, f=[8, 12, 6]>")
    assert repr(FormalSum.zero()) == "0"


@pytest.mark.parametrize("argv, message", [
    (["project", "0*pt", "--dim", "12"], "basis of dim 12 too large"),
    (["bb-matrix", "14", "--det"], "basis of dim 14 too large"),
    (["bb-matrix", "12"], "basis of dim 12 too large"),
    (["lyndon", "--weight", "60"], "more than 200000"),
    (["lyndon", "--alphabet", "odd", "--weight", "40"], "more than 200000"),
    (["lyndon", "--alphabet", "2", "--weight", "1000000000000"],
     "--weight is at most 500"),
    (["lyndon", "--k-table", "3000"], "--k-table is at most 300"),
    (["fpoly", "cube(3)", "--r", "400"], "more than 1000000"),
    (["fpoly", "pt", "--r", "1000000000"], "more than 1000000"),
    (["fpoly", "cube(2)", "--r", "-1"], "--r must be >= 0"),
    (["lyndon", "--weight", "0"], "--weight must be >= 1"),
    (["lyndon", "--weight", "-3"], "--weight must be >= 1"),
    (["lyndon", "--k-table", "-5"], "--k-table must be >= 1"),
    (["lyndon", "--k-table", "0"], "--k-table must be >= 1"),
])
def test_cli_integer_bounds(argv, message, capsys, monkeypatch,
                            empty_store):
    """Integer arguments past their bound exit 2 before the work they
    size: no basis polytope or flag polynomial, enumeration, series or
    expansion is made."""
    from polyqsym import lyndon, qsym

    def refuse(*args):
        raise AssertionError("work started")
    monkeypatch.setattr(pb, "from_word", refuse)
    monkeypatch.setattr(transforms, "cone_qsym", refuse)
    monkeypatch.setattr(lyndon, "lyndon_words", refuse)
    monkeypatch.setattr(lyndon, "fibonacci_series", refuse)
    monkeypatch.setattr(qsym.QSym, "expand", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_basis_verbs_build_no_basis_polytope(capsys, monkeypatch,
                                             empty_store):
    """`bb-matrix` reads the basis off flag polynomials and `project` prints
    the words of its solution: neither builds or registers a basis
    polytope."""
    def refuse(*args):
        raise AssertionError("basis polytope built")
    monkeypatch.setattr(pb, "from_word", refuse)
    assert main(["bb-matrix", "9", "--det"]) == 0
    assert capsys.readouterr().out == "det K^9 = 1\n"
    assert not store.types
    parse_expression("simplex(9)")
    types = set(store.types)
    assert main(["project", "simplex(9)", "--dim", "9"]) == 0
    assert capsys.readouterr().out == "word(CCCCCCCCCC)\n"
    assert set(store.types) == types


def test_cli_bounds_keep_documented_values(capsys):
    for argv in (["bb-matrix", "2"], ["lyndon", "--k-table", "16"],
                 ["lyndon", "--weight", "12"],
                 ["lyndon", "--alphabet", "odd", "--weight", "12"],
                 ["fpoly", "cube(3)", "--r", "3"]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""


def _registered_keys():
    """The keys of the registered types that a cache saves, those of dim
    >= 1, each type once."""
    types = {id(p): p for p in store.types.values() if p.dim >= 1}
    return sorted(p.key for p in types.values())


def _entry_keys(entries):
    """The keys of the types of saved registry entries."""
    return sorted(pb.from_incidence(facets).key for facets in entries)


def test_cli_cache_round_trip(tmp_path, capsys, empty_store):
    path = str(tmp_path / "cache.json")
    assert main(["build", "prod(cube(2),simplex(2)) + cross(3)"]) == 0
    registered = _registered_keys()
    assert main(["cache", "save", path]) == 0
    # each entry is a facet list of vertex indices
    data = json.loads(open(path).read())
    assert set(data) == {"schema", "registry"}
    assert data["schema"] == 2
    assert len(data["registry"]) == len(registered)
    assert all(type(v) is int for facets in data["registry"]
               for facet in facets for v in facet)
    # a reload numbers the vertices as it meets them, so it gives the same
    # types, each once, though not the same bytes
    empty_store()
    capsys.readouterr()
    assert main(["cache", "load", path]) == 0
    assert capsys.readouterr().out == "loaded %d lattices from %s\n" % (
        len(registered), path)
    assert _registered_keys() == registered
    # wrong schema rejected
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"schema": 99}, fh)
    assert main(["cache", "load", bad]) == 3
    # a warm cache gives the same bases
    assert main(["--cache", path, "bb-matrix", "4", "--det"]) == 0
    capsys.readouterr()
    assert main(["--cache", path, "bb-matrix", "4", "--det"]) == 0
    out = capsys.readouterr().out
    assert "det K^4 = 1" in out


def test_cli_cache_save_merges_with_the_file(tmp_path, capsys, empty_store):
    """The README's two commands, each in a fresh store as in a fresh
    process: `cache save` keeps the types that `--cache` saved, and an
    invalid file is an I/O error that leaves the file as it was."""
    path = str(tmp_path / "lattices.json")
    assert main(["--cache", path, "build", "prod(cube(2),simplex(3))"]) == 0
    saved = json.loads(open(path).read())["registry"]
    assert saved
    empty_store()
    capsys.readouterr()
    assert main(["cache", "save", path]) == 0
    assert capsys.readouterr().out == "saved %d lattices to %s\n" % (
        len(saved), path)
    merged = json.loads(open(path).read())["registry"]
    empty_store()
    assert _entry_keys(merged) == _entry_keys(saved)
    empty_store()
    assert main(["cache", "load", path]) == 0
    assert capsys.readouterr().out == "loaded %d lattices from %s\n" % (
        len(saved), path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 99}')
    assert main(["cache", "save", str(bad)]) == 3
    assert "schema 99" in capsys.readouterr().err
    assert bad.read_text() == '{"schema": 99}'


def test_cli_cache_does_not_change_output(tmp_path, capsys, empty_store):
    path = str(tmp_path / "cache.json")
    assert main(["--cache", path, "build", "cube(2)"]) == 0
    argv = ["--json", "build", "prod(cube(1),cube(1))"]
    outputs = []
    for extra in ([], ["--cache", path]):
        empty_store()
        capsys.readouterr()
        assert main(extra + argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _sphere_incidence(verts, faces):
    """The facet vertex sets of a cell decomposition of the 2-sphere, as
    vertex indices."""
    return [sorted(map(verts.index, face)) for face in faces]


_TRIANGLE = [[0, 1], [1, 2], [0, 2]]


def _cache(*entries):
    return {"schema": 2, "registry": list(entries)}


# case: (file contents, a fragment of the one line on stderr)
_BAD_CACHES = {
    "not-utf8": (b"\xff\xfe", "cannot read"),
    "not-json": (b'{"schema": 2, ', "cannot read"),
    "top-level-list": ([], "not a JSON object"),
    # the lattice files of earlier versions, here with the sparse-flag
    # matrices and names that older ones held
    "schema-1": ({"schema": 1, "registry": [
        {"name": 7, "dim": 0, "ranks": [0, 1], "covers": [[0, 1]]}],
        "bb": [{"n": 2, "psi": [[], [0]], "omega": ["CCC", "BCC"],
                "matrix": [[1, 3], [1, 5]]}]}, "schema 1, expected 2"),
    "registry-not-a-list": ({"schema": 2, "registry": {"facets": [[0]]}},
                            "registry must be a list"),
    "registry-entry-not-a-list": (_cache(5), "integer vertex indices"),
    "facet-not-a-list": (_cache([5]), "integer vertex indices"),
    "vertex-string": (_cache([[0, "1"], [1, 2], [0, 2]]),
                      "integer vertex indices"),
    "vertex-float": (_cache([[0, 1.0], [1, 2], [0, 2]]),
                     "integer vertex indices"),
    "vertex-bool": (_cache([[0, True], [1, 2], [0, 2]]),
                    "integer vertex indices"),
    "vertex-nested-list": (_cache([[0, [1]], [1, 2], [0, 2]]),
                           "integer vertex indices"),
    "empty-facet": (_cache(_TRIANGLE + [[]]), "contains another"),
    "repeated-facet": (_cache(_TRIANGLE + [[0, 1]]), "a repeated facet"),
    "nested-facets": (_cache(_TRIANGLE + [[0, 1, 3]]), "contains another"),
    # both edges lie on both vertices
    "digon": (_cache([[0, 1], [0, 1]]), "every vertex"),
    "non-eulerian": (_cache([[0, 1], [1, 2]]), "not an Eulerian lattice"),
    # the incidences of two CW spheres whose face posets are Eulerian but
    # are not rebuilt by their incidences, one not ordered by inclusion of
    # vertex sets and one not their facet closure (see conftest); the
    # closure of each incidence is not Eulerian
    "not-atom-inclusion": (_cache(_sphere_incidence(*DIAGONAL_SPHERE)),
                           "not an Eulerian lattice"),
    "not-facet-closure": (_cache(_sphere_incidence(*MERGED_OCTAHEDRON)),
                          "not an Eulerian lattice"),
    # labels 0 and 3 lie in the same facets
    "label-not-a-vertex": (_cache([[0, 1, 3], [1, 2], [0, 2, 3]]),
                           "a label is not a vertex"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CACHES))
def test_cli_cache_rejects_invalid(case, tmp_path, capsys, empty_store):
    """Each file is refused on load with one line on stderr, registers
    nothing, and is left as it was by `cache save`, which loads it first."""
    path = tmp_path / "cache.json"
    data, fragment = _BAD_CACHES[case]
    path.write_bytes(data if isinstance(data, bytes)
                     else json.dumps(data).encode())
    before = path.read_bytes()
    assert main(["cache", "load", str(path)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "cache" in err and fragment in err and "Traceback" not in err
    assert not store.types
    assert main(["cache", "save", str(path)]) == 3
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == before


def test_cli_io_error(capsys):
    assert main(["cache", "load", "/nonexistent/nope.json"]) == 3


def test_cli_cache_rejects_two_triangles(tmp_path, capsys, empty_store):
    # as a type, two triangles would share the key of the hexagon
    two_triangles = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(_cache(two_triangles)))
    assert main(["--cache", str(path), "build", "polygon(6)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "polygon" in captured.err and "Traceback" not in captured.err
    assert not store.types
    with pytest.raises(ValueError, match="polygon"):
        pb.from_incidence(two_triangles)


def test_cli_cache_rejects_lattice_past_face_bound(tmp_path, capsys,
                                                  monkeypatch, empty_store):
    """The incidence of simplex(13), whose closure has 16,384 faces, is
    refused on load as `simplex(13)` is in an expression: before any
    lattice is built."""
    n = 14
    entry = [[v for v in range(n) if v != i] for i in range(n)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_cache(entry)))
    built = []
    real_init = GradedPoset.__init__
    monkeypatch.setattr(GradedPoset, "__init__", lambda lat, *args, **kw: (
        built.append(1), real_init(lat, *args, **kw))[1])
    assert main(["--cache", str(path), "build", "pt"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "too large" in captured.err
    assert "more than %d faces" % pb.MAX_FACES in captured.err
    assert not built and not store.types


def test_cache_reloads_catalogue_and_faces(tmp_path, capsys, catalogue,
                                           empty_store):
    """Every catalogue polytope and every face and quotient of one of dim
    >= 1 is saved as its incidence, passes `from_incidence` on load, and
    keeps its key."""
    polys = {}
    for p in catalogue.values():
        for x in range(p.lattice.n):
            for q in (pb.face_as_polytope(p, x), pb.face_polytope(p, x)):
                polys[q.key] = q
    # faces and quotients come back registered in this store, although
    # the session's catalogue was built in an earlier one
    assert all(pb.canonical(q) is q for q in polys.values())
    path = tmp_path / "cache.json"
    assert main(["cache", "save", str(path)]) == 0
    empty_store()
    assert main(["cache", "load", str(path)]) == 0
    capsys.readouterr()
    assert _registered_keys() == sorted(
        key for key, q in polys.items() if q.dim >= 1)


# A buffered stdout fails when it is flushed, an unbuffered one at the
# first print; a small output and a large one each take both ways.
_OUTPUT_CASES = [(argv, unbuffered)
                 for argv in (["build", "cube(2)"],
                              ["lyndon", "--k-table", "300"])
                 for unbuffered in (False, True)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, unbuffered", _OUTPUT_CASES)
def test_cli_full_device_exits_3(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = cli_process(argv, unbuffered, stdout=full)
    err = proc.stderr.decode()
    assert proc.returncode == 3
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err and "No space" in err


@pytest.mark.parametrize("argv, unbuffered", _OUTPUT_CASES + [
    (["verify", "dehn-sommerville", "--json"], False)])
def test_cli_closed_pipe_exits_quietly(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(argv, unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b""
