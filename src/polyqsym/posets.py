"""Finite graded posets with a bottom and a top element.

Elements are the integers 0..n-1.  The Hasse diagram (cover pairs) is the
primary data; the constructor validates it and derives the rank strata and
the full order relation as bitsets, one integer mask per element.  Values
are immutable after construction; only the canonical key is computed on
first use, at most once per instance.
"""

from __future__ import annotations


class PosetError(ValueError):
    pass


class GradedPoset:
    __slots__ = (
        "n", "ranks", "covers", "height", "bottom", "top",
        "_up", "_dn", "_upmask", "_dnmask", "_rankmask", "_strata", "_key",
    )

    def __init__(self, ranks, covers):
        ranks = tuple(int(r) for r in ranks)
        covers = tuple(sorted({(int(a), int(b)) for a, b in covers}))
        n = len(ranks)
        if n == 0:
            raise PosetError("a graded poset needs at least one element")
        if min(ranks) != 0:
            raise PosetError("minimal rank must be 0")
        height = max(ranks)
        if ranks.count(0) != 1 or ranks.count(height) != 1:
            raise PosetError("poset must have a unique bottom and top")
        up = [[] for _ in range(n)]
        dn = [[] for _ in range(n)]
        for a, b in covers:
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
        # every element below the top has an upper cover one rank up, so
        # every rank 0..height is taken and the strata number height + 1
        strata = [[] for _ in range(height + 1)]
        for x in range(n):
            strata[ranks[x]].append(x)
        order = [x for stratum in strata for x in stratum]
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
        self.n = n
        self.ranks = ranks
        self.covers = covers
        self.height = height
        self.bottom, self.top = strata[0][0], strata[height][0]
        self._up = tuple(tuple(v) for v in up)
        self._dn = tuple(tuple(v) for v in dn)
        self._upmask = tuple(upmask)
        self._dnmask = tuple(dnmask)
        self._rankmask = tuple(sum(1 << x for x in s) for s in strata)
        self._strata = tuple(map(tuple, strata))
        self._key = None

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
        return self._rankmask[r]

    def elements_of_rank(self, r):
        if r < 0 or r > self.height:
            return ()
        return self._strata[r]

    # -- constructions ---------------------------------------------------

    def interval(self, x, y):
        """The induced subposet [x, y], reranked so x sits at rank 0."""
        if not self.leq(x, y):
            raise PosetError("interval requires x <= y")
        mask = self._upmask[x] & self._dnmask[y]
        elems = []
        m = mask
        while m:
            lsb = m & -m
            elems.append(lsb.bit_length() - 1)
            m ^= lsb
        index = {e: i for i, e in enumerate(elems)}
        base = self.ranks[x]
        ranks = [self.ranks[e] - base for e in elems]
        covers = [(index[a], index[b]) for a in elems for b in self._up[a]
                  if mask >> b & 1]
        return GradedPoset(ranks, covers)

    def dual(self):
        h = self.height
        return GradedPoset([h - r for r in self.ranks],
                           [(b, a) for a, b in self.covers])

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
        cell in turn and refines from that singleton; the least tuple of
        up-cover bitmasks by position over the leaves wins, and automorphisms
        found at leaves prune symmetric branches.  Only the equality classes
        of keys are stable, not their bytes.
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

        def orbit_contains(gens, fixed, seed, target):
            valid = [g for g in gens if all(g[f] == f for f in fixed)]
            orb, stack = {seed}, [seed]
            while stack and target not in orb:
                z = stack.pop()
                new = {g[z] for g in valid} - orb
                orb |= new
                stack += new
            return target in orb

        def search(part, ncells, fixed):
            elems, cell, end = part
            if ncells == n:
                leaf(elems)
                return
            s = 0
            while end[s] == s + 1:
                s += 1
            tried = []
            for x in elems[s:end[s]]:
                if any(orbit_contains(autos, fixed, y, x) for y in tried):
                    continue
                tried.append(x)
                child = (elems[:], cell[:], end[:])
                p, e = elems.index(x, s), end[s]
                child[0][p], child[0][s] = child[0][s], x
                child[2][s], child[2][s + 1] = s + 1, e
                for y in child[0][s + 1:e]:
                    child[1][y] = s + 1
                search(child, self._refine(child, [s], ncells + 1),
                       fixed + (x,))

        search(part, ncells, ())
        self._key = repr((n,) + best).encode("ascii")
        return self._key

    def __repr__(self):
        return "GradedPoset(n=%d, height=%d)" % (self.n, self.height)


def boolean_lattice(n):
    """The lattice of subsets of an n-set."""
    ranks = [bin(s).count("1") for s in range(1 << n)]
    covers = [(s, s | (1 << i))
              for s in range(1 << n) for i in range(n) if not s >> i & 1]
    return GradedPoset(ranks, covers)


def poset_product(p, q):
    """Cartesian product; ranks add, covers change one coordinate."""
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
