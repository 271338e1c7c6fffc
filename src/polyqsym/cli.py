"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
An output error, such as a full device, is an I/O error too, reported in
one line; a write to a pipe whose reader has gone exits 3 without a
message.
All numeric output is exact; rationals cross the JSON boundary as strings.
Integer arguments are bounded, as constructions are by
`polytopes.MAX_FACES` (`transforms.MAX_BB_DIM` bounds `bb-matrix` and
`project --dim`, which build no basis polytope): past a bound a command
exits 2 before the work.  A cache entry, a vertex-facet incidence, whose
closure passes `polytopes.MAX_FACES` faces exits 3 as soon as it passes,
before its lattice is built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import polytopes as pb
from .exprs import ExprError, parse_expression
from .polys import format_terms
from .ring import JOIN_RING, PRODUCT_RING
from .suites import SUITES, run_suite
from .transforms import bb_basis, ehrenborg_F, f_poly, f_rp
from . import lyndon
from . import transforms

CACHE_SCHEMA = 2
# exponents in an `fpoly --r` expansion: r per monomial
MAX_EXPANDED = 1_000_000
# compositions of the weight over the alphabet that `lyndon --weight` admits,
# which bounds the input and so its Lyndon words, and the weight itself,
# which bounds the depth of their walk
MAX_WORDS = 200_000
MAX_WEIGHT = 500
MAX_K_TABLE = 300


class CliIOError(RuntimeError):
    pass


def _load_cache(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliIOError("cannot read cache %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise CliIOError("cache %s is not a JSON object" % path)
    if data.get("schema") != CACHE_SCHEMA:
        raise CliIOError("cache %s has schema %r, expected %r"
                         % (path, data.get("schema"), CACHE_SCHEMA))
    try:
        return pb.registry_restore(data.get("registry", []))
    except ValueError as exc:
        raise CliIOError("invalid cache %s: %s" % (path, exc)) from None


def _save_cache(path):
    data = {"schema": CACHE_SCHEMA,
            "registry": pb.registry_snapshot()}
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliIOError("cannot write cache %s: %s" % (path, exc)) from None
    return len(data["registry"])


def _qsym_out(q, as_json):
    if as_json:
        return json.dumps(q.to_json_obj())
    return repr(q)


def _cmd_build(args):
    s = parse_expression(args.expr)
    rows = []
    for poly, coeff in pb.in_output_order(s.terms):
        entry = {"coeff": coeff, "dim": poly.dim,
                 "vertices": poly.vertex_count, "facets": poly.facet_count,
                 "faces": poly.lattice.n,
                 "f_vector": pb.f_vector(poly)}
        rows.append(entry)
    if args.json:
        print(json.dumps(rows))
    else:
        for e in rows:
            print("%+d * dim %d: %d vertices, %d facets, f = %s"
                  % (e["coeff"], e["dim"], e["vertices"], e["facets"],
                     e["f_vector"]))
    return 0


def _cmd_flag(args):
    s = parse_expression(args.expr)
    if len(s.dims()) > 1:
        print("flag vectors need a homogeneous sum", file=sys.stderr)
        return 2
    table = {}
    for poly, coeff in s.terms.items():
        for subset, value in pb.flag_vector(poly).items():
            table[subset] = table.get(subset, 0) + coeff * value
    if args.json:
        print(json.dumps([{"S": list(k), "value": v}
                          for k, v in sorted(table.items())]))
    else:
        for k, v in sorted(table.items()):
            print("f_%s = %d" % ("{" + ",".join(map(str, k)) + "}", v))
    return 0


def _cmd_fpoly(args):
    if args.r is not None and args.r < 0:
        raise ValueError("--r must be >= 0")
    q = f_poly(parse_expression(args.expr, ambient=PRODUCT_RING))
    if args.r is not None:
        size = args.r * sum(math.comb(args.r, len(comp))
                            for _, comp in q.terms)
        if size > MAX_EXPANDED:
            raise ValueError("expansion in %d variables too large: %d "
                             "exponents, more than %d"
                             % (args.r, size, MAX_EXPANDED))
        print(json.dumps(_multipoly_json(q.expand(args.r))) if args.json
              else repr(q.expand(args.r)))
    else:
        print(_qsym_out(q, args.json))
    return 0


def _multipoly_json(p):
    return [{"alpha": a, "exps": list(e), "coeff": v}
            for (a, e), v in sorted(p.terms.items())]


def _cmd_ehrenborg(args):
    s = parse_expression(args.expr, ambient=JOIN_RING)
    print(_qsym_out(ehrenborg_F(s), args.json))
    return 0


def _cmd_frp(args):
    s = parse_expression(args.expr, ambient=JOIN_RING)
    print(_qsym_out(f_rp(s), args.json))
    return 0


def _cmd_lyndon(args):
    for name, value in (("--weight", args.weight),
                        ("--k-table", args.k_table)):
        if value is not None and value < 1:
            raise ValueError("%s must be >= 1" % name)
    if args.k_table is not None:
        if args.k_table > MAX_K_TABLE:
            raise ValueError("--k-table is at most %d" % MAX_K_TABLE)
        ks = lyndon.series_exponents(
            lyndon.fibonacci_series(args.k_table), args.k_table)
        print(json.dumps(ks))
        return 0
    if args.weight is None:
        print("lyndon needs --weight or --k-table", file=sys.stderr)
        return 2
    try:
        alphabet = lyndon.ODD if args.alphabet == "odd" \
            else tuple(int(a) for a in args.alphabet.split(","))
    except ValueError:
        raise ValueError("--alphabet takes odd or comma-separated integers")
    if args.weight > MAX_WEIGHT:
        raise ValueError("--weight is at most %d" % MAX_WEIGHT)
    count = lyndon.count_words_of_weight(alphabet, args.weight)
    if count > MAX_WORDS:
        raise ValueError("--weight %d spans %d words, more than %d"
                         % (args.weight, count, MAX_WORDS))
    words = lyndon.lyndon_words(alphabet, args.weight)
    print(json.dumps([list(w) for w in words]))
    return 0


def _cmd_bb_matrix(args):
    basis = bb_basis(args.n)
    if args.det:
        print(json.dumps({"n": args.n, "det": basis.det()}) if args.json
              else "det K^%d = %d" % (args.n, basis.det()))
        return 0
    if args.json:
        print(json.dumps(basis.to_json_obj()))
    else:
        print("rows:", " ".join(basis.omega_words))
        print("cols:", " ".join("{" + ",".join(map(str, s)) + "}"
                                for s in basis.psi_sets))
        for row in basis.matrix:
            print(" ".join("%6d" % v for v in row))
    return 0


def _cmd_project(args):
    s = parse_expression(args.expr, ambient=PRODUCT_RING)
    terms = [("word(%s)" % w, c)
             for w, c in transforms.bb_coordinates(s, args.dim)]
    if args.json:
        print(json.dumps([{"expr": w, "coeff": c} for w, c in terms]))
    else:
        print(format_terms(sorted(terms)))
    return 0


def _cmd_verify(args):
    if args.suite not in SUITES:
        print("unknown suite %r; available: %s"
              % (args.suite, ", ".join(sorted(SUITES))), file=sys.stderr)
        return 2
    checks = run_suite(args.suite)
    failed = sum(1 for c in checks if not c.ok)
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "checks": [{"name": c.name,
                        "status": "pass" if c.ok else "fail",
                        "detail": c.detail} for c in checks],
            "failed": failed}))
    else:
        for c in checks:
            mark = "ok  " if c.ok else "FAIL"
            line = "%s %s (%.0f ms)" % (mark, c.name, c.elapsed * 1000)
            if c.detail and not c.ok:
                line += " :: " + c.detail
            print(line)
        print("suite %s: %d checks, %d failed"
              % (args.suite, len(checks), failed))
    return 1 if failed else 0


def _cmd_cache(args):
    if args.action == "save":
        # merge with the file: this process has built nothing of its own
        if os.path.exists(args.path):
            _load_cache(args.path)
        n = _save_cache(args.path)
        print("saved %d lattices to %s" % (n, args.path))
    else:
        n = _load_cache(args.path)
        print("loaded %d lattices from %s" % (n, args.path))
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--cache", metavar="PATH",
                        default=argparse.SUPPRESS,
                        help="load this lattice cache before the command "
                             "and save it afterwards")
    ap = argparse.ArgumentParser(
        prog="polyqsym",
        description="Exact flag-vector and quasi-symmetric function "
                    "calculator for combinatorial polytopes")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--cache", metavar="PATH")
    sub = ap.add_subparsers(dest="verb", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    p = sub.add_parser("build", help="materialize a polytope expression")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("flag", help="flag numbers of a homogeneous sum")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_flag)

    p = sub.add_parser("fpoly", help="generalized flag polynomial")
    p.add_argument("expr")
    p.add_argument("--r", type=int, default=None,
                   help="expand in this many variables")
    p.set_defaults(fn=_cmd_fpoly)

    p = sub.add_parser("ehrenborg", help="chain transform of the lattice")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_ehrenborg)

    p = sub.add_parser("frp", help="join-ring transform")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_frp)

    p = sub.add_parser("lyndon", help="Lyndon word enumeration")
    p.add_argument("--alphabet", default="1,2",
                   help="'odd' or comma-separated letters")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--k-table", dest="k_table", type=int, default=None,
                   help="emit generator counts up to this degree")
    p.set_defaults(fn=_cmd_lyndon)

    p = sub.add_parser("bb-matrix", help="sparse flag basis matrix")
    p.add_argument("n", type=int)
    p.add_argument("--det", action="store_true")
    p.set_defaults(fn=_cmd_bb_matrix)

    p = sub.add_parser("project", help="project onto the basis polytopes")
    p.add_argument("expr")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cache", help="save or load the lattice registry")
    p.add_argument("action", choices=("save", "load"))
    p.add_argument("path")
    p.set_defaults(fn=_cmd_cache)
    return ap


def _drop_stdout():
    """Point stdout at the null device, so that the flush at exit does not
    fail again on what is left in its buffer."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):
        pass


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cache and args.verb != "cache" and os.path.exists(args.cache):
            _load_cache(args.cache)
        code = args.fn(args)
        sys.stdout.flush()
        if args.cache and args.verb != "cache" and code == 0:
            _save_cache(args.cache)
        return code
    except ExprError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    except CliIOError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout has gone: nobody is left to tell
        _drop_stdout()
        return 3
    except OSError as exc:
        _drop_stdout()
        print("I/O error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
