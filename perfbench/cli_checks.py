"""Checks on the text a CLI invocation printed.

`check_output` needs the library (it runs in a worker process);
`strip_names` does not, so the parent can tell a cached invocation whose
output differs from the cold one only in polytope names from one that
differs in value.
"""

from __future__ import annotations

import json

from perfbench import checks


def strip_names(argv, text):
    """The output with every polytope name removed, in a canonical order;
    None when the output is not JSON of the expected shape."""
    try:
        data = json.loads(text)
    except ValueError:
        return None
    verb = argv[0]
    if verb == "build" and isinstance(data, list):
        return sorted(json.dumps({k: v for k, v in row.items()
                                  if k != "expr"}, sort_keys=True)
                      for row in data)
    if verb == "project" and isinstance(data, list):
        return sorted(row.get("coeff") for row in data)
    return data


def check_output(argv, text):
    from polyqsym.exprs import parse_expression
    from polyqsym.ring import JOIN_RING, PRODUCT_RING
    from polyqsym.transforms import ehrenborg_F, f_poly, f_rp

    try:
        data = json.loads(text)
    except ValueError:
        return "output is not JSON"
    verb = argv[0]
    if verb == "verify":
        if data.get("failed") != 0 or any(
                c.get("status") != "pass" for c in data.get("checks", ())):
            return "suite %s reports failures" % argv[1]
        if not data.get("checks"):
            return "suite %s ran no checks" % argv[1]
        return None
    if verb == "lyndon":
        if "--weight" in argv:
            weight = int(argv[argv.index("--weight") + 1])
            words = [tuple(w) for w in data]
            if len(words) != checks.lyndon_count((1, 2), weight) or not all(
                    checks.is_lyndon_word(w) and sum(w) == weight
                    and set(w) <= {1, 2} for w in words):
                return "wrong Lyndon words of weight %d" % weight
            return None
        n = int(argv[argv.index("--k-table") + 1])
        if len(data) != n or [checks.lyndon_count((1, 2), k)
                              for k in range(1, n + 1)] != data:
            return "wrong generator counts"
        return None
    if verb == "bb-matrix":
        if abs(data.get("det", 0)) != 1:
            return "sparse-flag matrix is not unimodular"
        return None
    poly = checks.single(parse_expression(argv[1]))
    if verb == "build":
        if len(data) != 1:
            return "build printed %d rows" % len(data)
        row = data[0]
        f = row["f_vector"]
        flags = {(i,): v for i, v in enumerate(f)}
        if (row["dim"], row["coeff"], row["vertices"], row["facets"]) != \
                (poly.dim, 1, f[0], f[-1]) or \
                row["faces"] != poly.lattice.n or \
                row["faces"] != 2 + sum(f) or \
                checks.euler_relation(poly.dim, flags):
            return "build row is inconsistent"
        return None
    if verb == "flag":
        flags = {tuple(row["S"]): row["value"] for row in data}
        return checks.check_flag_table(poly.dim, flags)
    if verb == "fpoly":
        want = f_poly(parse_expression(argv[1], ambient=PRODUCT_RING))
        return None if data == want.to_json_obj() else "f_poly differs"
    if verb == "ehrenborg":
        want = ehrenborg_F(parse_expression(argv[1], ambient=JOIN_RING))
        return None if data == want.to_json_obj() else "ehrenborg_F differs"
    if verb == "frp":
        want = f_rp(parse_expression(argv[1], ambient=JOIN_RING))
        return None if data == want.to_json_obj() else "f_rp differs"
    if verb == "project":
        got = None
        for row in data:
            term = row["coeff"] * f_poly(
                parse_expression(row["expr"], ambient=PRODUCT_RING))
            got = term if got is None else got + term
        want = f_poly(parse_expression(argv[1], ambient=PRODUCT_RING))
        return None if got == want else "projection changes f_poly"
    return "no check for verb %r" % verb
