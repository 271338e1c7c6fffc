"""Run one in-process request against the library and keep its outputs.

The timed part of a request is `run_*`; the outputs it returns are checked
afterwards by perfbench.checks, outside the timed region.  Library
functions are looked up through their modules at call time, so that the
tracer's wrappers see these calls.
"""

from __future__ import annotations

from polyqsym import exprs, lyndon, ncalg, polytopes as pb, ring, transforms
from polyqsym.qsym import QSym
from polyqsym.ring import JOIN_RING, PRODUCT_RING, FormalSum


def run_lattice(req):
    """Parse and build (which keys the lattice), then the flag vector,
    f_poly and ehrenborg_F; f_rp at dim <= 4, the antipode at dim <= 3."""
    s = exprs.parse_expression(req["expr"])
    (poly, coeff), = s.terms.items()
    out = {"poly": poly, "coeff": coeff,
           "flags": pb.flag_vector(poly),
           "fpoly": transforms.f_poly(FormalSum.of(poly, PRODUCT_RING)),
           "F": transforms.ehrenborg_F(FormalSum.of(poly, JOIN_RING))}
    if poly.dim <= 4:
        out["frp"] = transforms.f_rp(FormalSum.of(poly, JOIN_RING))
    if poly.dim <= 3:
        out["antipode"] = ring.antipode_rp(FormalSum.of(poly, JOIN_RING))
    return out


def qsym_of(terms):
    out = {}
    for t in terms:
        key = (0, tuple(t["comp"]))
        out[key] = out.get(key, 0) + t["coeff"]
    return QSym(out)


def ncpoly_of(req):
    return ncalg.NCPoly({tuple(w): c
                         for w, c in zip(req["words"], req["coeffs"])})


def series_target(alphabet, nmax):
    """Coefficients of 1 / (1 - sum_a t^a) through degree nmax."""
    out = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        out[n] = sum(out[n - a] for a in alphabet if a <= n)
    return out


def run_algebra(req):
    op = req["op"]
    if op == "qsym-mul":
        return qsym_of(req["a"]) * qsym_of(req["b"])
    if op == "qsym-coproduct":
        return qsym_of(req["a"]).coproduct()
    if op == "qsym-expand":
        return qsym_of(req["a"]).expand(req["r"])
    if op == "nc-normal-form":
        return ncalg.normal_form(ncpoly_of(req))
    if op == "nc-antipode":
        return ncalg.antipode(ncpoly_of(req))
    if op == "nc-coproduct":
        return ncalg.coproduct(ncpoly_of(req))
    if op == "lyndon-words":
        alphabet = lyndon.ODD if req["alphabet"] == "odd" \
            else tuple(req["alphabet"])
        return lyndon.lyndon_words(alphabet, req["weight"])
    if op == "series-exponents":
        return lyndon.series_exponents(
            series_target(req["alphabet"], req["nmax"]), req["nmax"])
    raise ValueError("unknown algebra op %r" % op)
