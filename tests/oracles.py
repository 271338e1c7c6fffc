"""Second routes kept as test oracles.

Each quantity has one production route in `polyqsym`; the independent
routes that check it live here, unchanged apart from their imports and from
`relabel`, `_refine`, `dual_cover_route` and `interval_cover_route`, which
were `GradedPoset` methods.  No module under `src` imports this file.

- `f_poly_operator_route`, `ehrenborg_F_chain_route` and
  `f_rp_coaction_route` check the flag-vector transforms;
- `f_poly_flag_route` (with `composition_of_flag_set` and
  `f_poly_from_flags`) assembles f from each term's flag vector, and
  `ehrenborg_F_chain_sum` sums F over flag sets with its own spelling of
  the composition; they check the one flag map `flag_composition` and the
  relabelling `f_of_F` in `polyqsym.transforms`;
- `antipode_rp_chain_route` (Takeuchi's chain sum) checks the memoized
  join-ring antipode;
- `cone_qsym` and `a_qsym` expand into t-variables, multiply and lift back,
  and check the monomial-basis closed forms in `polyqsym.transforms`;
- `antipode` multiplies the generator antipodes out word by word, and
  checks the composition closed form in `polyqsym.ncalg`;
- `coproduct_split_route` adds each word's coefficient once per split, and
  checks `polyqsym.ncalg.coproduct`, which sums multiplicities;
- `normal_form_rewriting` rewrites each word whole, moving its leftmost
  misplaced 1 and recursing on every word that the move gives, memoized
  in `normal_form_word_rewriting`, and checks the left-to-right fold of
  `polyqsym.ncalg.normal_form`, which keeps no table;
- `qsym_coproduct_merge_route` adds each term's coefficient into the
  entry of each of its splits, and checks `QSym.coproduct`, which writes
  every split once, since no two splits share a key;
- `d_even_formula_length_route` lists the odd words of each length 2i by
  recursion (`odd_words`), and checks the one sum over compositions of 2k
  into odd parts in `polyqsym.ncalg.d_even_formula`;
- `series_exponents` solves degree by degree with `_one_minus_power_series`,
  and checks the logarithmic-derivative form in `polyqsym.lyndon`;
- `lyndon_words` lists every composition of the weight (`words_of_weight`)
  and keeps the Lyndon ones, and checks the prenecklace walk in
  `polyqsym.lyndon`;
- `canonical_key_oracle` (with `_compress` and `_refine`) re-sorts a
  signature of every element in every refinement round, and checks the
  splitter-queue refinement of `GradedPoset.canonical_key`;
- `register_by_key` keys every type it is given and registers it under
  its key, and checks the registry of `polyqsym.polytopes.canonical`,
  which keys a type only when it shares its dim and f-vector with
  another;
- `interval_polytope_cut_route` cuts every face and quotient out as a
  fresh lattice and registers it, and checks `interval_polytope`, which
  finds the types that its counts fix among the registered ones;
- `boolean_lattice_cover_route`, `poset_product_cover_route`,
  `dual_cover_route`, `interval_cover_route` and
  `face_product_cover_route` build each construction's lattice from its
  cover pairs through the validating `GradedPoset(ranks, covers)`, with
  the production numbering, and check `polyqsym.posets.boolean_lattice`,
  `GradedPoset.dual`, `GradedPoset.interval` and the three modes of
  `poset_product` (the join's product, and with `drop` "bottom" or
  "top" the direct product's and the bipyramid's), which pass the masks
  that follow from their operands' masks;
- `product_lattice_route` and `bipyramid_lattice_route` build the face
  lattices of the direct product and of the bipyramid each from its own
  description, and check `polyqsym.posets.poset_product` with `drop`
  "bottom" and "top";
- `incidence_lattice_route` closes the facet vertex sets under
  intersection, tests every pair of faces for a cover and ranks by the
  longest chain, and checks the one top-down pass of
  `polyqsym.polytopes.from_incidence`; `checked_face_lattice` refuses
  its lattice as `from_incidence` must, with three checks that the pass
  implies by construction, `faces_are_separated`,
  `order_is_atom_inclusion` and `is_facet_closure`, which the tests also
  run on the lattices of `from_incidence`;
- `chain_count_route` counts the chains of one flag set by its own DP
  over the ranks, and checks the depth-first walk over all flag sets in
  `polyqsym.polytopes.flag_vector`;
- `relabel`, `one_element_poset`, `chain_poset` and `poset_coproduct` are
  poset helpers only the tests call;
- `lift_from_expansion` reads a quasi-symmetric function back off its
  expansion, and `multipoly_alpha` and `multipoly_var` build the monomials
  alpha^k and t_i^k, for the expand-and-lift routes and the tests;
- `bb_matrix_lattice_route` builds every basis polytope and runs one flag
  DP per index set, and checks the flag-polynomial route of `bb_basis`;
- `bb_coordinates_flag_route` sums each sparse flag number over the terms,
  one `flag_number` call per set and term, solves by Cramer's rule, and
  checks `polyqsym.transforms.bb_coordinates`, which reads the flag
  numbers off F of the sum;
- `sparse_index_sets_filter` keeps the subsets of {0..n-2} with no two
  consecutive members, and checks `sparse_index_sets`, which reads them
  off the compositions into parts 1 and 2;
- `basis_word_strings_recursion` prepends C and BC to shorter words and
  sorts, and checks the composition route of
  `polyqsym.transforms.basis_word_strings`;
- `solve_exact_cramer` solves by Cramer's rule, one Bareiss determinant a
  column, and checks the one-elimination `solve_exact`; `rank` is the
  fraction-free rank the tests read off flag-number matrices;
- `theta_substitution_invariant` (the (t, -t) insertion law of
  quasi-symmetric functions) and `phi_image_law_holds` (the image law of
  `phi_alpha`) are laws that only the tests check;
- `shuffle_many`, `dual_functional_from_word_values`, `shift`,
  `negate_variable`, `graded_piece` and `bigraded_piece` are helpers only
  the tests call.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import comb

from polyqsym import polytopes as pb
from polyqsym.intlinalg import det_bareiss
from polyqsym.lyndon import ODD, is_lyndon, poly_mul_trunc, shuffle
from polyqsym.ncalg import (DualFunctional, NCPoly, basis_words,
                           is_normal_word)
from polyqsym.polys import AlphaPoly, MultiPoly, merge_terms
from polyqsym.posets import GradedPoset, PosetError
from polyqsym.qsym import QSym, compositions
from polyqsym.ring import (FormalSum, JOIN_RING, PRODUCT_RING, apply_operator,
                           d_k, epsilon_alpha, mul_join, xi_alpha)
from polyqsym.transforms import (basis_word_strings, bb_basis, phi_alpha,
                                 sparse_index_sets)


# -- flag-vector transforms ---------------------------------------------------


def f_poly_operator_route(poly, r):
    """Operator route: the dimension character of the r-fold iterated
    face-operator series, one fresh variable per application."""
    state = {(0,) * r: FormalSum.of(poly, PRODUCT_RING)}
    for step in range(r):
        nxt = {}
        for exps, s in state.items():
            pieces = [s]
            for k in range(1, s.max_dim() + 2):
                pieces.append(d_k(s, k))
            for k, piece in enumerate(pieces):
                if piece.is_zero():
                    continue
                e = list(exps)
                e[step] = k
                key = tuple(e)
                nxt[key] = nxt.get(key, FormalSum(PRODUCT_RING)) + piece
        state = nxt
    return MultiPoly(r, (((power, exps), c) for exps, s in state.items()
                         for power, c in xi_alpha(s).terms.items()))


def composition_of_flag_set(n, s):
    """Composition attached to a flag set {a_1 < .. < a_k} in dimension n:
    (n - a_k, a_k - a_{k-1}, .., a_2 - a_1)."""
    s = tuple(sorted(s))
    if not s:
        return ()
    gaps = [n - s[-1]]
    for i in range(len(s) - 1, 0, -1):
        gaps.append(s[i] - s[i - 1])
    return tuple(gaps)


def f_poly_from_flags(n, flags):
    """Assemble the flag polynomial from a dimension and a full flag-number
    table {subset: value}."""
    return QSym(((s[0] if s else n, composition_of_flag_set(n, s)), value)
                for s, value in flags.items() if value)


def f_poly_flag_route(s):
    """Oracle for `f_poly`: the flag polynomial of each term assembled from
    its own flag vector, not relabelled from F."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, PRODUCT_RING)
    if any(poly.is_empty() for poly in s.terms):
        raise ValueError("flag polynomial is defined on the product ring")
    return QSym((k, coeff * v) for poly, coeff in s.terms.items()
                for k, v in f_poly_from_flags(
                    poly.dim, pb.flag_vector(poly)).terms.items())


def ehrenborg_F_chain_sum(s):
    """Oracle for `ehrenborg_F`: the chain sum over flag sets, each
    composition spelled as (a_1+1) followed by the reversed
    `composition_of_flag_set`; the empty polytope gives 1."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, JOIN_RING)
    out = []
    for poly, coeff in s.terms.items():
        n = poly.dim
        if n < 0:
            out.append(((0, ()), coeff))
            continue
        for subset, value in pb.flag_vector(poly).items():
            comp = ((subset[0] + 1,)
                    + composition_of_flag_set(n, subset)[::-1]
                    if subset else (n + 1,))
            out.append(((0, comp), coeff * value))
    return QSym(out)


def ehrenborg_F_chain_route(poly):
    """Oracle for `ehrenborg_F`: one monomial per maximal chain of the face
    lattice, enumerated one by one."""
    lat = poly.lattice
    chains = []
    stack = [(lat.bottom, ())]
    while stack:
        x, gaps = stack.pop()
        if x == lat.top:
            chains.append(((0, gaps), 1))
            continue
        for y in range(lat.n):
            if y != x and lat.leq(x, y):
                stack.append((y, gaps + (lat.ranks[y] - lat.ranks[x],)))
    return QSym(chains)


def f_rp_coaction_route(poly):
    """Oracle for `f_rp`: the rank character of every word's action on the
    polytope."""
    base = FormalSum.of(poly, JOIN_RING)
    return QSym(((power, word[::-1]), c) for total in range(poly.dim + 3)
                for word in compositions(total)
                for power, c in epsilon_alpha(
                    apply_operator(word, base)).terms.items())


# -- join-ring antipode -------------------------------------------------------


def antipode_rp_chain_route(s):
    """Chain-sum antipode of the join ring: alternating sum over strictly
    increasing flags from the empty face to the top, each contributing the
    join of its interval quotients (Takeuchi's formula).  The test oracle
    of `antipode_rp`; no production call reaches it."""
    if s.ambient != JOIN_RING:
        raise ValueError("the antipode lives in the join ring")

    def chi(poly):
        lat = poly.lattice
        if lat.n == 1:
            return FormalSum.of(pb.empty(), JOIN_RING)

        def walk(x, acc, length):
            if x == lat.top:
                sign = -1 if length % 2 else 1
                term = FormalSum.of(pb.empty(), JOIN_RING, sign)
                for piece in acc:
                    term = mul_join(term, FormalSum.of(piece, JOIN_RING))
                yield from term.terms.items()
                return
            for y in range(lat.n):
                if y != x and lat.leq(x, y):
                    yield from walk(
                        y, acc + [pb.interval_polytope(poly, x, y)],
                        length + 1)

        return FormalSum(JOIN_RING, walk(lat.bottom, [], 0))

    return s.map_terms(chi)


# -- cone and bipyramid on the quasi-symmetric side, through t-variables ------


def _alpha_to_slot(g, m):
    """g with the grading slot read as t_m and the variables t_m, t_{m+1},
    .. set to zero: the m-th summand of the cone formula."""
    return MultiPoly(g.r, (((0, e[:m - 1] + (a,) + e[m:]), v)
                           for (a, e), v in g.terms.items()
                           if not any(e[m - 1:])))


def _shift_up(g, m):
    """g(alpha, t_m, t_{m+1}, ..): the j-th variable of g reads t_{m-1+j};
    terms that overflow the variable window drop (they sit at zero)."""
    keep = g.r - m + 1
    return MultiPoly(g.r, (((a, (0,) * (m - 1) + e[:keep]), v)
                           for (a, e), v in g.terms.items()
                           if not any(e[keep:])))


def multipoly_alpha(r, power=1, coeff=1):
    """coeff * alpha^power in r variables."""
    return MultiPoly(r, {(power, (0,) * r): coeff})


def multipoly_var(r, i, power=1, coeff=1):
    """coeff * t_(i+1)^power in r variables."""
    e = [0] * r
    e[i] = power
    return MultiPoly(r, {(0, tuple(e)): coeff})


def lift_from_expansion(poly):
    """Inverse of expand on quasi-symmetric input: read coefficients off
    the prefix-supported monomials, then verify by re-expanding."""
    r = poly.r
    terms = {}
    for (a, e), v in poly.terms.items():
        support = [i for i, p in enumerate(e) if p]
        if support == list(range(len(support))):
            terms[(a, tuple(e[i] for i in support))] = v
    q = QSym(terms)
    if q.expand(r) != poly:
        raise ValueError("polynomial is not quasi-symmetric in %d variables"
                         % r)
    return q


def cone_qsym(g):
    """Quasi-symmetric counterpart of the cone operator."""
    n = g.degree() + 1
    r = n + 2
    gx = g.expand(r)
    sigma1 = QSym.sigma(1).expand(r) + multipoly_alpha(r)
    return lift_from_expansion(_sum_of(r, [sigma1 * gx] + [
        multipoly_var(r, m - 1) * _alpha_to_slot(gx, m)
        for m in range(1, r + 1)]))


def a_qsym(g):
    """Quasi-symmetric counterpart of twice-cone-minus-bipyramid on the
    product-ring side."""
    n = g.degree() + 1
    r = n + 2
    gx = g.expand(r)
    g0 = MultiPoly(r, {(a, e): v for (a, e), v in gx.terms.items()
                       if not any(e)})
    parts = [multipoly_alpha(r) * g0, multipoly_var(r, 0) * gx]
    parts += [(multipoly_var(r, m - 1) + multipoly_var(r, m - 2))
              * _shift_up(gx, m) for m in range(2, r + 1)]
    # the tail m = r+1 contributes t_r * g(alpha, 0, 0, ..)
    parts.append(multipoly_var(r, r - 1) * g0)
    return lift_from_expansion(_sum_of(r, parts))


def _sum_of(r, polys):
    return MultiPoly(r, (t for p in polys for t in p.terms.items()))


# -- free-algebra antipode, generator by generator ----------------------------


@functools.lru_cache(maxsize=None)
def _antipode_gen(n):
    """Closed form: alternating sum over all compositions of n."""
    return NCPoly({w: -1 if len(w) % 2 else 1 for w in compositions(n)})


def antipode(a):
    """Antihomomorphic extension of the generator formula."""
    return NCPoly((w, v * c) for word, v in a.terms.items()
                  for w, c in _antipode_word(word).terms.items())


def _antipode_word(word):
    return functools.reduce(operator.mul, map(_antipode_gen, reversed(word)),
                            NCPoly.one())


# -- free-algebra coproduct, split by split -----------------------------------


def coproduct_split_route(a):
    """Leibnitz coproduct: each generator splits as the full convolution
    with index 0 acting as the unit.  Returns {(left, right): coeff}."""
    out = {}
    for word, v in a.terms.items():
        splits = [((), ())]
        for k in word:
            splits = [(l + ((i,) if i else ()), r + ((k - i,) if k - i else ()))
                      for (l, r) in splits for i in range(k + 1)]
        for l, r in splits:
            out[(l, r)] = out.get((l, r), Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


# -- the Euler quotient, whole-word rewriting ---------------------------------


@functools.lru_cache(maxsize=None)
def normal_form_word_rewriting(w):
    """Integer expansion of a word in the normal-form basis.

    Rewrites with the consequences of the alternating relations: a doubled
    leading 1 contracts to the next generator, any other 1 moves left past
    its >= 2 neighbour, shedding words with strictly fewer 1-letters."""
    if is_normal_word(w):
        return {w: 1}
    ones = [i for i, x in enumerate(w) if x == 1]
    if ones[0] == 0 and ones[1] == 1:
        # Z1 Z1 = 2 Z2 applied at the front
        rewrites = {(2,) + w[2:]: 2}
    else:
        p = ones[0] if ones[0] >= 1 else ones[1]
        i = w[p - 1]
        head, tail = w[:p - 1], w[p + 1:]
        # Z_i Z_1 = (-1)^i [ Z_1 Z_i - (1 + (-1)^(i+1)) Z_{i+1}
        #                    - sum_{a=2}^{i-1} (-1)^a Z_a Z_{i+1-a} ]
        sign = -1 if i % 2 else 1
        rewrites = {head + (1, i) + tail: sign}
        euler = 1 + (-1 if (i + 1) % 2 else 1)
        if euler:
            key = head + (i + 1,) + tail
            rewrites[key] = rewrites.get(key, 0) - sign * euler
        for a in range(2, i):
            s2 = -1 if a % 2 else 1
            key = head + (a, i + 1 - a) + tail
            rewrites[key] = rewrites.get(key, 0) - sign * s2
    return merge_terms((w3, c * c3) for w2, c in rewrites.items() if c
                       for w3, c3 in normal_form_word_rewriting(w2).items())


def normal_form_rewriting(a):
    """Canonical representative modulo the Euler-relation ideal, each word
    rewritten whole."""
    return NCPoly((w, v * c) for word, v in a.terms.items()
                  for w, c in normal_form_word_rewriting(word).items())


# -- quasi-symmetric deconcatenation, split by split --------------------------


def qsym_coproduct_merge_route(q):
    """Deconcatenation coproduct; defined on the plain ring only.
    Returns {(left comp, right comp): coeff}."""
    if not q.alpha_free():
        raise ValueError("coproduct is defined on the plain ring")
    out = {}
    for (_, comp), v in q.terms.items():
        for i in range(len(comp) + 1):
            k = (comp[:i], comp[i:])
            out[k] = out.get(k, 0) + v
    return out


# -- the even generator, one word length at a time ----------------------------


def d_even_formula_length_route(k):
    """Oracle for `d_even_formula(k)`: for i = 1..k, the odd words of
    length 2i whose indices 2 j_l - 1 have the j_l summing to i + k."""
    return NCPoly((word, Fraction((-1) ** (i - 1) * comb(2 * i - 2, i - 1),
                                  i * 2 ** (2 * i - 1)))
                  for i in range(1, k + 1)
                  for word in odd_words(2 * i, i + k))


def odd_words(length, half_sum):
    """Words of fixed length in odd generators with (sum+length)/2 fixed:
    indices 2 j_l - 1 with the j_l summing to half_sum."""
    def rec(slots, remaining):
        if slots == 0:
            return [()] if remaining == 0 else []
        out = []
        for j in range(1, remaining - slots + 2):
            for rest in rec(slots - 1, remaining - j):
                out.append((2 * j - 1,) + rest)
        return out

    return rec(length, half_sum)


# -- series exponents, degree by degree ---------------------------------------


def _one_minus_power_series(i, k, nmax):
    """(1 - t^i)^(-k) truncated; k may be negative (then the finite
    binomial expansion)."""
    out = [0] * (nmax + 1)
    if k >= 0:
        for m in range(0, nmax // i + 1):
            out[i * m] = comb(k + m - 1, m) if k > 0 else (1 if m == 0 else 0)
    else:
        j = -k
        for m in range(0, min(j, nmax // i) + 1):
            out[i * m] = (-1) ** m * comb(j, m)
    return out


def series_exponents(target, nmax):
    """Exponents k_i with product over i of (1 - t^i)^(-k_i) matching the
    target series through degree nmax, solved degree by degree."""
    if not target or target[0] != 1:
        raise ValueError("target series must have constant term 1")
    want = list(target) + [0] * max(0, nmax + 1 - len(target))
    partial = [1] + [0] * nmax
    ks = [0] * (nmax + 1)
    for i in range(1, nmax + 1):
        k = want[i] - partial[i]
        ks[i] = k
        if k:
            partial = poly_mul_trunc(partial,
                                     _one_minus_power_series(i, k, nmax), nmax)
    if partial != want[:nmax + 1]:
        raise AssertionError("degreewise solve failed to reproduce target")
    return ks[1:]


# -- Lyndon words by filtering every composition ------------------------------


def words_of_weight(alphabet, weight):
    """All words over the alphabet with letter sum equal to weight, in
    lexicographic order."""
    if alphabet == ODD:
        alphabet = range(1, weight + 1, 2)
    return compositions(weight, alphabet)


def lyndon_words(alphabet, weight):
    return [w for w in words_of_weight(alphabet, weight) if is_lyndon(w)]


# -- the registry, keyed throughout -------------------------------------------


def register_by_key(poly, types):
    """The type of `poly` registered in the dict `types` by its canonical
    key: the first Polytope seen for a key is the shared one."""
    return types.setdefault(poly.key, poly)


# -- faces and quotients, always cut out --------------------------------------


def interval_polytope_cut_route(p, x, y):
    """The interval [x, y] of the face lattice of p as a fresh lattice,
    registered."""
    return pb.canonical(pb.Polytope(p.lattice.interval(x, y)))


# -- lattice constructions from cover pairs ----------------------------------


def boolean_lattice_cover_route(n):
    """The lattice of subsets of an n-set from its cover pairs, subset s
    as element s."""
    ranks = [bin(s).count("1") for s in range(1 << n)]
    covers = [(s, s | (1 << i))
              for s in range(1 << n) for i in range(n) if not s >> i & 1]
    return GradedPoset(ranks, covers)


def poset_product_cover_route(p, q):
    """Cartesian product from cover pairs, pair (x, y) as element
    x * q.n + y; ranks add, covers change one coordinate."""
    qn = q.n
    ranks = [p.ranks[x] + q.ranks[y] for x in range(p.n) for y in range(qn)]
    covers = []
    for a, b in p.covers:
        for y in range(qn):
            covers.append((a * qn + y, b * qn + y))
    for x in range(p.n):
        for a, b in q.covers:
            covers.append((x * qn + a, x * qn + b))
    return GradedPoset(ranks, covers)


def dual_cover_route(p):
    """The opposite poset from the reversed cover pairs."""
    h = p.height
    return GradedPoset([h - r for r in p.ranks],
                       [(b, a) for a, b in p.covers])


def interval_cover_route(p, x, y):
    """The interval [x, y] from the cover pairs among its members,
    reranked so x sits at rank 0, members numbered in ascending order."""
    if not p.leq(x, y):
        raise PosetError("interval requires x <= y")
    mask = p.upset_mask(x) & p.downset_mask(y)
    elems = [e for e in range(p.n) if mask >> e & 1]
    index = {e: i for i, e in enumerate(elems)}
    base = p.ranks[x]
    ranks = [p.ranks[e] - base for e in elems]
    covers = [(index[a], index[b]) for a in elems for b in p.up_covers(a)
              if mask >> b & 1]
    return GradedPoset(ranks, covers)


def face_product_cover_route(lp, lq, drop):
    """`posets.poset_product(lp, lq, drop)`, drop "bottom" or "top", from
    cover pairs, with its numbering: the pairs of nonempty faces (drop
    "top": of proper faces) and element 0, a new bottom (a new top)
    covering the pairs of atoms (covered by the pairs of coatoms)."""
    at_top = drop == "top"
    if at_top:
        drop_p, drop_q, shift = lp.top, lq.top, 0
    else:
        drop_p, drop_q, shift = lp.bottom, lq.bottom, 1
    xs = [x for x in range(lp.n) if x != drop_p]
    ys = [y for y in range(lq.n) if y != drop_q]
    row = {x: 1 + i * len(ys) for i, x in enumerate(xs)}
    col = {y: j for j, y in enumerate(ys)}
    ranks = [lp.height + lq.height - 1 if at_top else 0]
    ranks += [lp.ranks[x] + lq.ranks[y] - shift for x in xs for y in ys]
    covers = [(row[a] + j, row[b] + j) for a, b in lp.covers
              if drop_p not in (a, b) for j in col.values()]
    covers += [(r + col[a], r + col[b]) for a, b in lq.covers
               if drop_q not in (a, b) for r in row.values()]
    covers += [(i, 0) if at_top else (0, i) for i in range(1, len(ranks))
               if abs(ranks[i] - ranks[0]) == 1]
    return GradedPoset(ranks, covers)


# -- products and bipyramids, each from its own description -------------------


def product_lattice_route(lp, lq):
    """The face lattice of the direct product: a new bottom, and the pairs
    of nonempty faces, with covers from the pairs of atoms and from one
    coordinate at a time."""
    nonp = [x for x in range(lp.n) if x != lp.bottom]
    nonq = [y for y in range(lq.n) if y != lq.bottom]
    index = {}
    ranks = [0]
    for x in nonp:
        for y in nonq:
            index[(x, y)] = len(ranks)
            ranks.append(lp.ranks[x] + lq.ranks[y] - 1)
    covers = []
    for v in lp.up_covers(lp.bottom):
        for w in lq.up_covers(lq.bottom):
            covers.append((0, index[(v, w)]))
    for a, b in lp.covers:
        if a == lp.bottom:
            continue
        for y in nonq:
            covers.append((index[(a, y)], index[(b, y)]))
    for x in nonp:
        for a, b in lq.covers:
            if a == lq.bottom:
                continue
            covers.append((index[(x, a)], index[(x, b)]))
    return GradedPoset(ranks, covers)


def bipyramid_lattice_route(lat):
    """The face lattice of the bipyramid, built from the face-lattice
    description: proper faces F of P survive, each acquires two cones, and
    a new top is added."""
    proper = [x for x in range(lat.n) if x != lat.top]
    base = {x: i for i, x in enumerate(proper)}
    m = len(proper)
    conei = {(s, x): m + 2 * base[x] + s for x in proper for s in (0, 1)}
    newtop = 3 * m
    ranks = [0] * (3 * m + 1)
    for x in proper:
        ranks[base[x]] = lat.ranks[x]
        ranks[conei[(0, x)]] = lat.ranks[x] + 1
        ranks[conei[(1, x)]] = lat.ranks[x] + 1
    ranks[newtop] = lat.height + 1
    covers = []
    for a, b in lat.covers:
        if b == lat.top:
            covers.append((conei[(0, a)], newtop))
            covers.append((conei[(1, a)], newtop))
            continue
        covers.append((base[a], base[b]))
        covers.append((conei[(0, a)], conei[(0, b)]))
        covers.append((conei[(1, a)], conei[(1, b)]))
    for x in proper:
        covers.append((base[x], conei[(0, x)]))
        covers.append((base[x], conei[(1, x)]))
    return GradedPoset(ranks, covers)


# -- face lattices from vertex-facet incidences -------------------------------


def faces_are_separated(lat):
    """No two elements share the atoms below them or the coatoms above
    them, as in every face lattice (faces are fixed by their vertices and
    by their facets)."""
    if lat.height == 0:
        return True
    atoms, coatoms = lat.rank_mask(1), lat.rank_mask(lat.height - 1)
    below = {lat.downset_mask(x) & atoms for x in range(lat.n)}
    above = {lat.upset_mask(x) & coatoms for x in range(lat.n)}
    return len(below) == len(above) == lat.n


def order_is_atom_inclusion(lat):
    """x <= y exactly when the atoms below x are all below y."""
    if lat.height == 0:
        return True
    atoms = lat.rank_mask(1)
    everything = (1 << lat.n) - 1
    for x in range(lat.n):
        above = everything
        m = lat.downset_mask(x) & atoms
        while m:
            low = m & -m
            above &= lat.upset_mask(low.bit_length() - 1)
            m ^= low
        if above != lat.upset_mask(x):
            return False
    return True


def is_facet_closure(lat):
    """The atom sets of the elements are exactly the intersections of
    facet (coatom) atom sets, with the empty set and all atoms.  With
    `faces_are_separated` and `order_is_atom_inclusion` this says the
    vertex-facet incidence rebuilds the lattice, as `Polytope.key`
    assumes."""
    if lat.height < 2:
        return True
    atoms = lat.rank_mask(1)
    faces = {lat.downset_mask(x) & atoms for x in range(lat.n)}
    facets = [lat.downset_mask(c) & atoms
              for c in lat.elements_of_rank(lat.height - 1)]
    closure = {0, atoms}
    work = set(facets)
    while work:
        closure |= work
        work = {f & g for f in work for g in facets} - closure
        if not work <= faces:
            return False
    return len(closure) == lat.n


def checked_face_lattice(lat):
    """Return `lat` after checking that `Polytope.key` keys it exactly: it
    is Eulerian, its intervals of height 3 are polygons, and its elements
    are separated by atoms and by coatoms, ordered by inclusion of atom
    sets, and rebuilt by their vertex-facet incidence.  Raises PosetError
    otherwise, with the messages of `pb.from_incidence`."""
    if not lat.is_eulerian():
        raise PosetError("not an Eulerian lattice")
    if not lat.height3_intervals_are_cycles():
        raise PosetError("not a polytope face lattice: an interval of "
                         "height 3 is not a polygon")
    if not (faces_are_separated(lat) and order_is_atom_inclusion(lat)
            and is_facet_closure(lat)):
        raise PosetError("not a polytope face lattice")
    return lat


def incidence_lattice_route(facet_vertex_sets):
    """Face lattice from facet vertex sets, by intersection closure, a
    cover test over every pair of faces and longest-chain ranks, as an
    unregistered Polytope; raises ValueError where `pb.from_incidence`
    must.  Vertex labels must sort."""
    facets = [frozenset(f) for f in facet_vertex_sets]
    if not facets:
        raise ValueError("need at least one facet")
    allv = frozenset().union(*facets)
    faces = {frozenset(), allv, *facets}
    pb._check_faces(len(faces), "the incidence closure")
    for f in facets:
        for g in facets:
            if f < g:
                raise ValueError("one facet contains another")
    work = list(facets)
    while work:
        nxt = []
        for a in work:
            for b in facets:
                c = a & b
                if c not in faces:
                    faces.add(c)
                    pb._check_faces(len(faces), "the incidence closure")
                    nxt.append(c)
        work = nxt
    faces = sorted(faces, key=lambda f: (len(f), tuple(sorted(f))))
    index = {f: i for i, f in enumerate(faces)}
    covers = []
    for i, f in enumerate(faces):
        subs = [g for g in faces if len(g) < len(f) and g < f]
        maxsubs = [g for g in subs if not any(g < h for h in subs)]
        covers.extend((index[g], i) for g in maxsubs)
    # longest-chain ranks; gradedness means every cover then raises by one
    ranks = [0] * len(faces)
    up = [[] for _ in faces]
    for a, b in covers:
        up[a].append(b)
    for i in range(len(faces)):
        for b in up[i]:
            ranks[b] = max(ranks[b], ranks[i] + 1)
    if any(ranks[b] != ranks[a] + 1 for a, b in covers):
        raise ValueError("not a valid polytope incidence: closure not graded")
    try:
        lattice = checked_face_lattice(GradedPoset(ranks, covers))
    except PosetError as exc:
        raise ValueError("not a valid polytope incidence: %s" % exc) from None
    return pb.Polytope(lattice)


# -- flag numbers -------------------------------------------------------------


def chain_count_route(lat, s):
    """The number of chains of `lat` with one element of each rank a + 1,
    a in the sorted tuple `s`: a DP over the ranks, bottom up."""
    count_vec = None
    prev_rank = None
    for r in (a + 1 for a in s):
        stratum = lat.elements_of_rank(r)
        if count_vec is None:
            count_vec = {x: 1 for x in stratum}
        else:
            nxt = {}
            prev_mask = lat.rank_mask(prev_rank)
            for y in stratum:
                m = lat.downset_mask(y) & prev_mask
                total = 0
                while m:
                    lsb = m & -m
                    total += count_vec[lsb.bit_length() - 1]
                    m ^= lsb
                nxt[y] = total
            count_vec = nxt
        prev_rank = r
    return 1 if count_vec is None else sum(count_vec.values())


# -- poset helpers ------------------------------------------------------------


def relabel(poset, perm):
    """Rename element i to perm[i]; used to test invariance."""
    n = poset.n
    if sorted(perm) != list(range(n)):
        raise PosetError("not a permutation")
    ranks = [0] * n
    for i in range(n):
        ranks[perm[i]] = poset.ranks[i]
    covers = [(perm[a], perm[b]) for a, b in poset.covers]
    return GradedPoset(ranks, covers)


def one_element_poset():
    return GradedPoset([0], [])


def chain_poset(length):
    """Chain with `length` cover steps, i.e. length+1 elements."""
    return GradedPoset(range(length + 1), [(i, i + 1) for i in range(length)])


def poset_coproduct(p):
    """Rota coproduct: one ([bottom,z], [z,top]) pair per element z."""
    return [(p.interval(p.bottom, z), p.interval(z, p.top))
            for z in range(p.n)]


# -- the canonical key by whole-signature colour refinement -------------------


def _compress(signatures):
    """Replace signatures by dense ids assigned in sorted-signature order.

    Sorting makes the ids invariant under any relabeling of the elements,
    which is what the canonical-form search relies on.
    """
    order = {}
    for s in sorted(set(signatures)):
        order[s] = len(order)
    return [order[s] for s in signatures], len(order)


def _refine(poset, colors, ncolors):
    up, dn = poset._up, poset._dn
    n = poset.n
    while ncolors < n:
        sigs = [(colors[x],
                 tuple(sorted(colors[y] for y in up[x])),
                 tuple(sorted(colors[y] for y in dn[x])))
                for x in range(n)]
        colors2, k = _compress(sigs)
        if k == ncolors:
            return colors2, k
        colors, ncolors = colors2, k
    return colors, ncolors


def canonical_key_oracle(poset):
    """Byte string identifying the isomorphism class exactly.

    Individualization-refinement search for the lexicographically least
    (ranks, covers) encoding over all rank-respecting labelings.
    Automorphisms discovered at leaves prune symmetric branches, so
    highly regular lattices stay tractable.  Every refinement round
    re-sorts a signature of every element.  Checks the splitter-queue
    refinement of `GradedPoset.canonical_key`: equal keys exactly when
    equal oracle keys (the bytes of the two differ).
    """
    n = poset.n
    ranks = poset.ranks
    cover_pairs = poset.covers
    colors, k = _compress(list(ranks))
    colors, k = _refine(poset, colors, k)

    best = None
    best_label = None
    autos = []

    def leaf(lab):
        nonlocal best, best_label
        enc_ranks = [0] * n
        for x in range(n):
            enc_ranks[lab[x]] = ranks[x]
        enc = (tuple(enc_ranks),
               tuple(sorted((lab[a], lab[b]) for a, b in cover_pairs)))
        if best is None or enc < best:
            best, best_label = enc, lab
        elif enc == best:
            inv = [0] * n
            for x in range(n):
                inv[best_label[x]] = x
            sigma = tuple(inv[lab[x]] for x in range(n))
            if any(sigma[i] != i for i in range(n)):
                autos.append(sigma)

    def orbit_contains(gens, fixed, seed, target):
        valid = [g for g in gens if all(g[f] == f for f in fixed)]
        if not valid:
            return False
        orb = {seed}
        stack = [seed]
        while stack:
            z = stack.pop()
            for g in valid:
                w = g[z]
                if w == target:
                    return True
                if w not in orb:
                    orb.add(w)
                    stack.append(w)
        return False

    def search(colors, k, fixed):
        if k == n:
            leaf(colors)
            return
        cells = {}
        for x in range(n):
            cells.setdefault(colors[x], []).append(x)
        target = min(c for c, mem in cells.items() if len(mem) > 1)
        members = cells[target]
        tried = []
        for x in members:
            if any(orbit_contains(autos, fixed, y, x) for y in tried):
                continue
            tried.append(x)
            sig = [(c, 1) for c in colors]
            sig[x] = (colors[x], 0)
            c2, k2 = _compress(sig)
            c2, k2 = _refine(poset, c2, k2)
            search(c2, k2, fixed + (x,))

    search(colors, k, ())
    return repr((n,) + best).encode("ascii")


# -- the sparse-flag basis, through its polytopes -----------------------------


def sparse_index_sets_filter(n):
    """Oracle for `sparse_index_sets(n)`: every subset of {0..n-2}, kept
    when no two members are consecutive."""
    out = []
    for size in range(n):
        for s in itertools.combinations(range(n - 1), size):
            if all(s[i + 1] - s[i] >= 2 for i in range(len(s) - 1)):
                out.append(s)
    return sorted(out)


def bb_matrix_lattice_route(n):
    """Oracle for `bb_basis(n).matrix`: the flag numbers f_S of every built
    basis polytope, one flag DP per sparse index set S."""
    psi = sparse_index_sets(n)
    polys = [pb.from_word(w) for w in basis_word_strings(n)]
    return tuple(tuple(pb.flag_number(q, s) for s in psi) for q in polys)


def bb_coordinates_flag_route(s, n):
    """Oracle for `bb_coordinates(s, n)`: each sparse flag number of the
    homogeneous sum s summed over its terms, set by set, and the system
    solved by Cramer's rule; the nonzero (word, coefficient) pairs."""
    basis = bb_basis(n)
    rhs = [sum(coeff * pb.flag_number(poly, subset)
               for poly, coeff in s.terms.items())
           for subset in basis.psi_sets]
    coeffs = solve_exact_cramer([list(row) for row in zip(*basis.matrix)],
                                rhs)
    assert all(c.denominator == 1 for c in coeffs)
    return [(w, int(c)) for w, c in zip(basis.omega_words, coeffs) if c]


def basis_word_strings_recursion(n):
    """Oracle for `basis_word_strings(n)`: C before each word of dimension
    n - 1 and BC before each of dimension n - 2, sorted with C before B."""
    if n < 0:
        return []
    if n == 0:
        return ["C"]
    if n == 1:
        return ["CC"]
    words = ["C" + w for w in basis_word_strings_recursion(n - 1)]
    words += ["BC" + w for w in basis_word_strings_recursion(n - 2)]
    return sorted(words, key=lambda w: [0 if ch == "C" else 1 for ch in w])


# -- exact linear algebra -----------------------------------------------------


def solve_exact_cramer(matrix, rhs):
    """Oracle for `solve_exact`: Cramer's rule, one Bareiss determinant for
    each unknown; Fractions, ValueError on a singular system."""
    n = len(matrix)
    d = det_bareiss(matrix)
    if d == 0:
        raise ValueError("singular system")
    out = []
    for j in range(n):
        col = [[matrix[i][k] if k != j else rhs[i] for k in range(n)]
               for i in range(n)]
        out.append(Fraction(det_bareiss(col), d))
    return out


def rank(matrix):
    """Rank over the rationals via fraction-free elimination."""
    a = [list(map(int, row)) for row in matrix]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


# -- laws that only the tests check -------------------------------------------


def theta_substitution_invariant(q, k, n):
    """True iff inserting (t, -t) in front of the k-th variable leaves q
    unchanged: the expansion in n+2 variables must lose every monomial that
    touches the inserted pair and reproduce the n-variable expansion."""
    if k < 1 or k > n + 1:
        raise ValueError("insertion position out of range")
    if q.degree() > n:
        raise ValueError("degree exceeds the stated bound")
    g = q.expand(n + 2)
    sfree = {}
    p, pn = k - 1, k  # 0-based slots of the inserted pair
    for (a, e), v in g.terms.items():
        s_exp = e[p] + e[pn]
        sign = -1 if e[pn] % 2 else 1
        rest = e[:p] + e[p + 2:]
        if s_exp:
            key = (a, s_exp, rest)
            sfree[key] = sfree.get(key, 0) + sign * v
        else:
            key = (a, 0, rest)
            sfree[key] = sfree.get(key, 0) + v
    residue = {k2: v for k2, v in sfree.items() if v}
    expected = q.expand(n)
    want = {(a, 0, e): v for (a, e), v in expected.terms.items()}
    return residue == want


def phi_image_law_holds(s):
    """psi(-alpha) shifted by the operator series equals psi(alpha)."""
    if isinstance(s, pb.Polytope):
        s = FormalSum.of(s, PRODUCT_RING)
    psi = phi_alpha(s)
    n = psi.max_degree
    for deg in range(0, n + 1):
        for sigma in (basis_words(deg) if deg else [()]):
            acc = AlphaPoly(
                (p + k, -c if p % 2 else c) for k in range(n - deg + 1)
                for p, c in AlphaPoly.coerce(psi.value(
                    ((k,) + sigma) if k else sigma)).terms.items())
            if acc != psi.value(sigma):
                return False
    return True


# -- test-only helpers --------------------------------------------------------


def shuffle_many(words):
    """The shuffle product of several words, with multiplicity."""
    acc = {(): 1}
    for w in words:
        nxt = {}
        for done, c in acc.items():
            for res, c2 in shuffle(done, w).items():
                nxt[res] = nxt.get(res, 0) + c * c2
        acc = nxt
    return acc


def dual_functional_from_word_values(word_values, max_degree):
    """A DualFunctional from values on arbitrary words, checking consistency
    with the quotient relations."""
    basis_vals = {}
    for w, v in word_values.items():
        if is_normal_word(tuple(w)):
            basis_vals[tuple(w)] = v
    psi = DualFunctional(basis_vals, max_degree)
    for w, v in word_values.items():
        if psi.value(tuple(w)) != v:
            raise ValueError("not a functional on the quotient: value on "
                             "%r conflicts with the relations" % (w,))
    return psi


def shift(p, k):
    """An AlphaPoly multiplied by the k-th power of its variable."""
    return AlphaPoly({e + k: v for e, v in p.terms.items()})


def negate_variable(p):
    """An AlphaPoly at minus its variable."""
    return AlphaPoly({e: (v if e % 2 == 0 else -v)
                      for e, v in p.terms.items()})


def graded_piece(s, dim):
    """The terms of a FormalSum of one dimension."""
    return FormalSum(s.ambient, ((p, c) for p, c in s.terms.items()
                                 if p.dim == dim))


def bigraded_piece(s, dim, facets):
    """Piece of the product-ring bigrading (dimension, facet count)."""
    return FormalSum(s.ambient, ((p, c) for p, c in s.terms.items()
                                 if p.dim == dim and p.facet_count == facets))
