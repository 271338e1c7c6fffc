"""Finite graded posets with a bottom and a top element.

Elements are the integers 0..n-1.  The Hasse diagram (cover pairs) is the
primary data; the full order relation is derived lazily as bitsets, one
integer mask per element.  Values are immutable after construction; the
lazily cached masks and the canonical key are computed at most once per
instance.
"""

from __future__ import annotations


class PosetError(ValueError):
    pass


def _compress(signatures):
    """Replace signatures by dense ids assigned in sorted-signature order.

    Sorting makes the ids invariant under any relabeling of the elements,
    which is what the canonical-form search relies on.
    """
    order = {}
    for s in sorted(set(signatures)):
        order[s] = len(order)
    return [order[s] for s in signatures], len(order)


class GradedPoset:
    __slots__ = (
        "n", "ranks", "covers", "height", "bottom", "top",
        "_up", "_dn", "_upmask", "_dnmask", "_rankmask", "_key",
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
        bottoms = [x for x in range(n) if ranks[x] == 0]
        tops = [x for x in range(n) if ranks[x] == height]
        if len(bottoms) != 1 or len(tops) != 1:
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
        self.n = n
        self.ranks = ranks
        self.covers = covers
        self.height = height
        self.bottom = bottoms[0]
        self.top = tops[0]
        self._up = tuple(tuple(v) for v in up)
        self._dn = tuple(tuple(v) for v in dn)
        self._upmask = None
        self._dnmask = None
        self._rankmask = None
        self._key = None

    # -- order relation -------------------------------------------------

    def up_covers(self, x):
        return self._up[x]

    def _ensure_masks(self):
        if self._upmask is not None:
            return
        n = self.n
        order = sorted(range(n), key=lambda x: self.ranks[x])
        dnmask = [0] * n
        for x in order:
            m = 1 << x
            for y in self._dn[x]:
                m |= dnmask[y]
            dnmask[x] = m
        upmask = [0] * n
        for x in reversed(order):
            m = 1 << x
            for y in self._up[x]:
                m |= upmask[y]
            upmask[x] = m
        rankmask = [0] * (self.height + 1)
        for x in range(n):
            rankmask[self.ranks[x]] |= 1 << x
        self._dnmask = tuple(dnmask)
        self._upmask = tuple(upmask)
        self._rankmask = tuple(rankmask)

    def leq(self, x, y):
        self._ensure_masks()
        return bool(self._dnmask[y] >> x & 1)

    def downset_mask(self, x):
        self._ensure_masks()
        return self._dnmask[x]

    def upset_mask(self, x):
        self._ensure_masks()
        return self._upmask[x]

    def rank_mask(self, r):
        self._ensure_masks()
        return self._rankmask[r]

    def elements_of_rank(self, r):
        if r < 0 or r > self.height:
            return ()
        return tuple(x for x in range(self.n) if self.ranks[x] == r)

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
        covers = [(index[a], index[b]) for a, b in self.covers
                  if (mask >> a & 1) and (mask >> b & 1)]
        return GradedPoset(ranks, covers)

    def dual(self):
        h = self.height
        return GradedPoset([h - r for r in self.ranks],
                           [(b, a) for a, b in self.covers])

    # -- tests ------------------------------------------------------------

    def is_eulerian(self):
        """Every interval of rank >= 1 has equally many odd and even
        rank elements."""
        self._ensure_masks()
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

    def _refine(self, colors, ncolors):
        up, dn = self._up, self._dn
        n = self.n
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

    def canonical_key(self):
        """Byte string identifying the isomorphism class exactly.

        Individualization-refinement search for the lexicographically least
        (ranks, covers) encoding over all rank-respecting labelings.
        Automorphisms discovered at leaves prune symmetric branches, so
        highly regular lattices stay tractable.
        """
        if self._key is not None:
            return self._key
        n = self.n
        ranks = self.ranks
        cover_pairs = self.covers
        colors, k = _compress(list(ranks))
        colors, k = self._refine(colors, k)

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
                c2, k2 = self._refine(c2, k2)
                search(c2, k2, fixed + (x,))

        search(colors, k, ())
        key = repr((n,) + best).encode("ascii")
        self._key = key
        return key

    # -- serialization ------------------------------------------------------

    def to_json_obj(self):
        return {"ranks": list(self.ranks),
                "covers": [list(c) for c in self.covers]}

    @classmethod
    def from_json_obj(cls, obj):
        try:
            return cls(obj["ranks"], obj["covers"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise PosetError("bad poset object: %s" % exc) from None

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
