"""Finite graded posets with a bottom and a top element.

Elements are the integers 0..n-1.  The order relation is the primary data:
one downset and one upset bitmask per element, with the rank strata,
built and read here alone (other modules use accessors such as
`downset_mask`).  Data from outside comes as integer ranks and cover
pairs, which the constructor validates before it derives the masks,
cover by cover.  The constructions (`poset_product`, which
builds the face lattices of the join, the direct product and the free
sum, `boolean_lattice`, `dual` and `interval`) pass the masks of their
result, which follow from their operands' masks, through the keyword
`order`, trusted: nothing is checked and no cover pair is built.  Masks
re-indexed to a convex set of elements (`restrict`: an interval, or a
product's factor spread over its blocks) are rebuilt in rank order, one
OR per cover.  The Hasse diagram (each element's up and down covers,
which `covers` lists) and the canonical key are derived on first use,
at most once per instance; values are immutable after construction.
"""

from __future__ import annotations


class PosetError(ValueError):
    pass


def bit_indices(m):
    """The indices of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _checked_order(ranks, covers):
    """Validate ranks and cover pairs, integers all; return the order
    (downset masks, upset masks), built bottom up and top down."""
    n = len(ranks)
    if n == 0:
        raise PosetError("a graded poset needs at least one element")
    # bool is an int subclass, and no integer
    if not all(type(r) is int for r in ranks):
        raise PosetError("ranks and cover pairs must be integers")
    pairs = set()
    for entry in covers:
        # unpacked and checked before it is hashed
        try:
            a, b = entry
        except (TypeError, ValueError):
            a = b = None
        if type(a) is not int or type(b) is not int:
            raise PosetError("ranks and cover pairs must be integers: "
                             "cover entry %r" % (entry,))
        pairs.add((a, b))
    if min(ranks) != 0:
        raise PosetError("minimal rank must be 0")
    height = max(ranks)
    if ranks.count(0) != 1 or ranks.count(height) != 1:
        raise PosetError("poset must have a unique bottom and top")
    up = [[] for _ in range(n)]
    dn = [[] for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise PosetError("cover pair out of range")
        if ranks[b] != ranks[a] + 1:
            raise PosetError("cover pairs must raise rank by exactly 1")
        up[a].append(b)
        dn[b].append(a)
    for x in range(n):
        if ranks[x] < height and not up[x]:
            raise PosetError("element %d has no upper cover" % x)
        if ranks[x] > 0 and not dn[x]:
            raise PosetError("element %d has no lower cover" % x)
    order = sorted(range(n), key=ranks.__getitem__)
    dnmask = [0] * n
    for x in order:
        m = 1 << x
        for y in dn[x]:
            m |= dnmask[y]
        dnmask[x] = m
    upmask = [0] * n
    for x in reversed(order):
        m = 1 << x
        for y in up[x]:
            m |= upmask[y]
        upmask[x] = m
    return dnmask, upmask


class GradedPoset:
    __slots__ = (
        "n", "ranks", "height", "bottom", "top",
        "_upmask", "_dnmask", "_rankmask", "_strata", "_hasse", "_key",
    )

    def __init__(self, ranks, covers=(), *, order=None):
        """The poset of these ranks and cover pairs, validated; or, with
        `order`, the pair (downset masks, upset masks) of a library
        construction, trusted as given, and no covers."""
        ranks = tuple(ranks)
        if order is None:
            order = _checked_order(ranks, covers)
        # every rank 0..height is taken: checked covers give every element
        # below the top an upper cover one rank up, and constructions
        # give ranks that their operands fill
        height = max(ranks)
        strata = [[] for _ in range(height + 1)]
        for x, r in enumerate(ranks):
            strata[r].append(x)
        self.n = len(ranks)
        self.ranks = ranks
        self.height = height
        self.bottom, self.top = strata[0][0], strata[height][0]
        self._dnmask, self._upmask = map(tuple, order)
        self._rankmask = tuple(sum(1 << x for x in s) for s in strata)
        self._strata = tuple(map(tuple, strata))
        self._hasse = None
        self._key = None

    # -- the Hasse diagram, derived on first read -------------------------

    def _hasse_diagram(self):
        """(up covers, down covers): an up cover of x is an element of rank
        r(x) + 1 in x's upset, and x is a down cover of each of its up
        covers; of validated input, the pairs given, each of which raises
        rank by one.  Filled in one assignment, so a racing reader sees
        all of it or none."""
        hasse = self._hasse
        if hasse is None:
            rank, height = self._rankmask, self.height
            up = [bit_indices(m & rank[r + 1]) if r < height else []
                  for m, r in zip(self._upmask, self.ranks)]
            dn = [[] for _ in up]
            for a, bs in enumerate(up):
                for b in bs:
                    dn[b].append(a)
            self._hasse = hasse = (tuple(map(tuple, up)),
                                   tuple(map(tuple, dn)))
        return hasse

    @property
    def covers(self):
        """The cover pairs (a, b), a covered by b, sorted."""
        return tuple((a, b) for a, bs in enumerate(self._up) for b in bs)

    @property
    def _up(self):
        return self._hasse_diagram()[0]

    @property
    def _dn(self):
        return self._hasse_diagram()[1]

    # -- order relation -------------------------------------------------

    def up_covers(self, x):
        return self._up[x]

    def leq(self, x, y):
        return bool(self._dnmask[y] >> x & 1)

    def downset_mask(self, x):
        return self._dnmask[x]

    def upset_mask(self, x):
        return self._upmask[x]

    def rank_mask(self, r):
        return self._rankmask[r] if 0 <= r <= self.height else 0

    def elements_of_rank(self, r):
        if r < 0 or r > self.height:
            return ()
        return self._strata[r]

    # -- constructions ---------------------------------------------------

    def interval(self, x, y):
        """The induced subposet [x, y], reranked so x sits at rank 0, its
        members numbered in ascending order."""
        if not self.leq(x, y):
            raise PosetError("interval requires x <= y")
        elems = bit_indices(self._upmask[x] & self._dnmask[y])
        bits = {e: 1 << i for i, e in enumerate(elems)}
        base = self.ranks[x]
        return GradedPoset([self.ranks[e] - base for e in elems], order=(
            self.restrict(bits), self.restrict(bits, up=True)))

    def restrict(self, bits, up=False):
        """The order on the keys of `bits`, a dict from elements to masks:
        for each key, in the dict's order, the OR of the masks of the keys
        below it (above it, with `up`).  The keys must be convex: every
        element between two keys is a key.  So a key's value holds its own
        mask and the values of its covers among the keys, and the values
        are built in rank order, one OR per cover."""
        masks, step = (self._upmask, 1) if up else (self._dnmask, -1)
        ranks = self.ranks
        inside = sum(1 << e for e in bits)
        # the keys of each rank; the last entry, 0, stands for the ranks
        # -1 and height + 1
        near = [m & inside for m in self._rankmask] + [0]
        out = {}
        for e in sorted(bits, key=ranks.__getitem__, reverse=up):
            m = bits[e]
            for c in bit_indices(masks[e] & near[ranks[e] + step]):
                m |= out[c]
            out[e] = m
        return [out[e] for e in bits]

    def dual(self):
        """The opposite order: the masks swap and the ranks reverse."""
        h = self.height
        return GradedPoset([h - r for r in self.ranks],
                           order=(self._upmask, self._dnmask))

    # -- tests ------------------------------------------------------------

    def is_eulerian(self):
        """Every interval of rank >= 1 has equally many odd and even
        rank elements."""
        even = odd = 0
        for r, m in enumerate(self._rankmask):
            if r % 2:
                odd |= m
            else:
                even |= m
        dn = self._dnmask
        for x in range(self.n):
            ux = self._upmask[x]
            ex, ox = ux & even, ux & odd
            above = ux ^ (1 << x)
            while above:
                low = above & -above
                above ^= low
                below = dn[low.bit_length() - 1]
                if (ex & below).bit_count() != (ox & below).bit_count():
                    return False
        return True

    def height3_intervals_are_cycles(self):
        """The proper part of every interval of height 3 is one cycle, as
        in a face lattice, where it is a polygon.  Assumes the poset is
        Eulerian, so each proper part is a union of cycles: the walk from
        its lowest atom must reach all of its atoms."""
        up, dn, rank = self._upmask, self._dnmask, self._rankmask
        for x in range(self.n):
            r = self.ranks[x]
            if r + 3 > self.height:
                continue
            ux = up[x]
            atoms, mids, tops = (ux & rank[r + 1], ux & rank[r + 2],
                                 ux & rank[r + 3])
            while tops:
                z = tops & -tops
                tops ^= z
                below = dn[z.bit_length() - 1]
                cycle_atoms, cycle_mids = atoms & below, mids & below
                a = cycle_atoms & -cycle_atoms
                b = seen = 0
                while a and not seen & a:
                    seen |= a
                    b = up[a.bit_length() - 1] & cycle_mids & ~b
                    b &= -b
                    a = dn[b.bit_length() - 1] & cycle_atoms & ~a
                if seen != cycle_atoms:
                    return False
        return True

    # -- canonical form ----------------------------------------------------

    def _refine(self, part, queue, ncells):
        """Refine `part` (elements by position, each element's cell start,
        each start's cell end) from the splitter cells queued by start until
        it is equitable or discrete; return the cell count.  A touched cell
        splits by its members' covers in the splitter, ascending (ranks
        separate the cells, so one count is enough); every fragment but the
        first largest is queued, or all if the cell was queued."""
        elems, cell, end = part
        up, dn, n = self._up, self._dn, self.n
        queued = set(queue)
        for w in queue:
            if ncells == n:
                break
            queued.discard(w)
            count = {}
            for x in elems[w:end[w]]:
                for y in up[x]:
                    count[y] = count.get(y, 0) + 1
                for y in dn[x]:
                    count[y] = count.get(y, 0) + 1
            for c in sorted({cell[y] for y in count}):
                e = end[c]
                if e - c == 1:
                    continue
                members = elems[c:e]
                counts = [count.get(y, 0) for y in members]
                if min(counts) == max(counts):
                    continue
                order = sorted(range(e - c), key=counts.__getitem__)
                elems[c:e] = [members[i] for i in order]
                frags, lo = [], c
                for p in range(c + 1, e):
                    if counts[order[p - c]] != counts[order[p - c - 1]]:
                        frags.append((lo, p))
                        lo = p
                frags.append((lo, e))
                for a, b in frags:
                    end[a] = b
                    for y in elems[a:b]:
                        cell[y] = a
                ncells += len(frags) - 1
                if c not in queued:
                    frags.remove(max(frags, key=lambda f: f[1] - f[0]))
                queue += [a for a, _ in frags if a not in queued]
                queued.update(a for a, _ in frags)
        return ncells

    def canonical_key(self):
        """Byte string identifying the isomorphism class exactly.

        Individualization-refinement with the ranks as initial cells and a
        splitter queue (`_refine`; McKay & Piperno, J. Symb. Comput. 60,
        2014): a node individualizes each member of its first non-singleton
        cell in turn and refines from that singleton, skipping the orbit of
        the members already tried under the automorphisms found at leaves
        that fix its path; the least tuple of up-cover bitmasks by position
        over the leaves wins.  Only key equality classes are stable.
        """
        if self._key is not None:
            return self._key
        n, up, ranks, strata = self.n, self._up, self.ranks, self._strata
        elems = [x for stratum in strata for x in stratum]
        starts = [elems.index(stratum[0]) for stratum in strata]
        cell = [starts[r] for r in ranks]
        end = [cell[x] + len(strata[ranks[x]]) for x in elems]
        part = (elems, cell, end)
        ncells = self._refine(part, starts, len(starts))
        best, best_elems, autos = None, None, []

        def leaf(elems):
            nonlocal best, best_elems
            bit = [0] * n
            for p, x in enumerate(elems):
                bit[x] = 1 << p
            enc = tuple([sum(map(bit.__getitem__, up[x])) for x in elems])
            if best is None or enc < best:
                best, best_elems = enc, elems
            elif enc == best:
                autos.append(tuple(best_elems[bit[x].bit_length() - 1]
                                   for x in range(n)))

        def search(part, ncells, fixed):
            elems, cell, end = part
            if ncells == n:
                leaf(elems)
                return
            s = 0
            while end[s] == s + 1:
                s += 1
            orb = set()
            for x in elems[s:end[s]]:
                if x in orb:
                    continue
                child = (elems[:], cell[:], end[:])
                p, e = elems.index(x, s), end[s]
                child[0][p], child[0][s] = child[0][s], x
                child[2][s], child[2][s + 1] = s + 1, e
                for y in child[0][s + 1:e]:
                    child[1][y] = s + 1
                search(child, self._refine(child, [s], ncells + 1),
                       fixed + (x,))
                # skip the orbit of the tried elements under the
                # automorphisms found so far that fix the path
                gens = [g for g in autos if all(g[f] == f for f in fixed)]
                orb.add(x)
                stack = list(orb)
                while stack:
                    z = stack.pop()
                    new = {g[z] for g in gens} - orb
                    orb |= new
                    stack += new

        search(part, ncells, ())
        self._key = repr((n,) + best).encode("ascii")
        return self._key

    def __repr__(self):
        return "GradedPoset(n=%d, height=%d)" % (self.n, self.height)


def boolean_lattice(n):
    """The lattice of subsets of an n-set, subset s as element s.  The
    subsets of s are the product of (1 + 2^(2^i)) over i in s, as a mask
    with no carries, built here one factor at a time; the supersets of s
    are s plus the subsets of its complement."""
    size = 1 << n
    dn = [1] * size
    for s in range(1, size):
        low = s & -s
        d = dn[s ^ low]
        dn[s] = d | d << low
    up = [dn[(size - 1) ^ s] << s for s in range(size)]
    return GradedPoset([s.bit_count() for s in range(size)], order=(dn, up))


def poset_product(p, q, drop=None):
    """The Cartesian product, pair (x, y) numbered x * q.n + y, with rank
    r(x) + r(y): the face lattice of the join.  With `drop`, a diamond
    product (Ehrenborg & Readdy, J. Algebraic Combin. 8, 1998), pair
    (xs[i], ys[j]) numbered 1 + i * len(ys) + j, and element 0 new: drop
    "bottom" keeps the pairs of non-bottom elements, at rank
    r(x) + r(y) - 1, under a new bottom (the face lattice of the direct
    product), and "top" the pairs of non-top elements under a new top
    (that of the free sum).  The pairs below (x, y) are those of an
    element below x and one below y: x's mask with bit i widened to the
    block of row i, cut by y's mask copied into every block; one AND per
    pair.  Element 0 lies on one side of all pairs, so those masks all
    hold bit 0."""
    below, above = drop == "bottom", drop == "top"
    if drop is None:
        xs, ys = range(p.n), range(q.n)
        qmasks = q._dnmask, q._upmask
    elif below or above:
        if min(p.n, q.n) < 2:
            raise PosetError("a diamond product needs two elements a factor")
        xs = [x for x in range(p.n) if x != (p.bottom if below else p.top)]
        ys = [y for y in range(q.n) if y != (q.bottom if below else q.top)]
        kept = {y: 1 << j for j, y in enumerate(ys)}
        qmasks = q.restrict(kept), q.restrict(kept, up=True)
    else:
        raise PosetError("drop must be None, 'bottom' or 'top'")
    first, width = int(drop is not None), len(ys)
    full = (1 << width) - 1
    copies = int(("0" * (width - 1) + "1") * len(xs), 2)
    spread = {x: 1 << i * width for i, x in enumerate(xs)}

    def pair_masks(up, common):
        blocks = [s * full << first | common for s in p.restrict(spread, up)]
        tiles = [m * copies << first | common for m in qmasks[up]]
        return [b & t for b in blocks for t in tiles]
    dn, up = pair_masks(False, int(below)), pair_masks(True, int(above))
    qranks = [q.ranks[y] for y in ys]
    ranks = [r + s for r in (p.ranks[x] - below for x in xs) for s in qranks]
    every = (1 << len(ranks) + 1) - 1
    if below:
        ranks, dn, up = [0] + ranks, [1] + dn, [every] + up
    elif above:
        ranks = [p.height + q.height - 1] + ranks
        dn, up = [every] + dn, [1] + up
    return GradedPoset(ranks, order=(dn, up))
