"""Finite posets and bounded lattices over bitmask carriers.

Elements are indexed densely by their position in the declared name list.
Every subset of the carrier is an int bitmask: bit i set means element i is
in the subset.  The order relation is stored as a tuple of "up" masks,
``up[i]`` being the mask of all j with i <= j.
"""

from __future__ import annotations

from array import array

from .errors import (
    DuplicateName,
    NoBottom,
    NoJoin,
    NotAntisymmetric,
    SizeGuardExceeded,
    UnknownName,
)

DEFAULT_SIZE_GUARD = 100_000_000


def size_bound(guard):
    """The bound a search guard sets: DEFAULT_SIZE_GUARD for None, else the guard.

    Raises ValueError unless the guard is None or a positive int (a bool is none).
    """
    if guard is None:
        return DEFAULT_SIZE_GUARD
    if type(guard) is not int or guard < 1:
        raise ValueError(f"size guard must be None or a positive int, got {guard!r}")
    return guard


def _bit_table(width):
    """t[m]: the set bit positions of m, ascending, for every m below 2^width."""
    table = [()]
    for i in range(width):
        table += [t + (i,) for t in table]  # the masks whose highest bit is i
    return tuple(table)


_BITS = _bit_table(10)  # every subset of a carrier or space of up to 10 elements
_BITS_LIMIT = len(_BITS)


def bits(mask):
    """The set bit positions of mask, ascending, as a tuple; ValueError if mask < 0."""
    if 0 <= mask < _BITS_LIMIT:
        return _BITS[mask]
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def transpose(rows, width):
    """The transposed bit matrix: bit i of out[j] is set iff bit j of rows[i] is, j < width."""
    out = [0] * width
    for i, row in enumerate(rows):
        if row:
            bit = 1 << i
            for j in bits(row):
                out[j] |= bit
    return tuple(out)


def preimage(f, mask):
    """The mask of the i with f[i] in mask, for an image tuple f."""
    return sum(1 << i for i, v in enumerate(f) if mask >> v & 1)


def image(f, mask):
    """The mask of the f[a] with a in mask, for an image tuple f."""
    out = 0
    for a in bits(mask):
        out |= 1 << f[a]
    return out


def set_label(names, mask):
    """The members of mask, named by ``names``, in braces: {0,a}."""
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


class Poset:
    """Immutable finite poset; validates the order axioms on construction."""

    def __init__(self, elements, up):
        elements = tuple(elements)
        up = tuple(up)
        n = len(elements)
        if len(set(elements)) != n:
            raise DuplicateName("element names must be pairwise distinct")
        if any(not isinstance(e, str) or not e for e in elements):
            raise DuplicateName("element names must be nonempty strings")
        if len(up) != n:
            raise ValueError("up must have one mask per element")
        full = (1 << n) - 1
        for i in range(n):
            if up[i] & ~full:
                raise ValueError("up mask references unknown element index")
            if not up[i] >> i & 1:
                raise ValueError(f"order is not reflexive at {elements[i]!r}")
        for i in range(n):
            for j in bits(up[i]):
                if up[j] & ~up[i]:
                    raise ValueError(
                        f"order is not transitive at {elements[i]!r} <= {elements[j]!r}"
                    )
                if i != j and up[j] >> i & 1:
                    raise NotAntisymmetric(
                        f"{elements[i]!r} and {elements[j]!r} form a 2-cycle"
                    )
        self.elements = elements
        self.up = up
        self.n = n
        self.full = full
        self.down = transpose(up, n)

    def index(self, name):
        try:
            return self.elements.index(name)
        except ValueError:
            raise UnknownName(f"unknown element {name!r}") from None

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def covers(self, i):
        """Mask of upper covers of i (j > i with nothing strictly between)."""
        strict = self.up[i] & ~(1 << i)
        out = 0
        for j in bits(strict):
            if not strict & self.down[j] & ~(1 << j):
                out |= 1 << j
        return out

    def linear_extension(self):
        """Element indices sorted bottom-up, ties broken by declaration order."""
        return sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))

    def subset_names(self, mask):
        return [self.elements[i] for i in bits(mask)]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)!r})"


def maximal_extension(p, d, name):
    """p with a new maximal element ``name`` over the down-set d, built from p's tables.

    ValueError unless d is a down-set of p (an int mask on p's carrier, a
    bool being none, with ↓i ⊆ d for each i in d) and name is a nonempty
    string that p does not use.  The order is not checked again, as nothing
    can fail: the new relation adds the pairs i <= e for i in d and e <= e.
    It is reflexive, as p is and e <= e.  It is antisymmetric: each new pair
    i <= e with i != e has no reverse, since e is below no old element.  It
    is transitive: for a <= b <= c with a new pair, either c = e and b in d,
    so a in ↓b ⊆ d and a <= e, or b = e, so c = e and a <= e already.  So
    up[i] gains e's bit for i in d, the old down-sets stay, and ↓e is
    d with e.
    """
    if not (type(d) is int and 0 <= d <= p.full):
        raise ValueError(f"down-set mask {d!r} is off the carrier")
    for i in bits(d):
        if p.down[i] & ~d:
            raise ValueError(f"mask {d:b} is not a down-set: it holds {p.elements[i]!r}")
    if not isinstance(name, str) or not name or name in p.elements:
        raise ValueError(f"new element name {name!r} must be a fresh nonempty string")
    e = 1 << p.n
    q = Poset.__new__(Poset)
    q.elements = (*p.elements, name)
    q.up = (*(u | e if d >> i & 1 else u for i, u in enumerate(p.up)), e)
    q.n = p.n + 1
    q.full = p.full | e
    q.down = (*p.down, d | e)
    return q


def build_poset(names, leq_pairs):
    """Build a poset as the reflexive-transitive closure of the given pairs."""
    names = list(names)
    if not names:
        raise UnknownName("names must be nonempty")
    n = len(names)
    if len(set(names)) != n:
        raise DuplicateName("element names must be pairwise distinct")
    idx = {name: i for i, name in enumerate(names)}
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if a not in idx:
            raise UnknownName(f"unknown element {a!r}")
        if b not in idx:
            raise UnknownName(f"unknown element {b!r}")
        up[idx[a]] |= 1 << idx[b]
    # Warshall-style transitive closure on the up masks.
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return Poset(names, up)


class BoundedLattice(Poset):
    """The bounded lattice on a validated poset's order, which is shared, not checked again.

    Raises NoBottom, or NoJoin for the first pair without a join.  Each
    up-set and each down-set names its element, by antisymmetry.  The
    bottom is the element whose up-set is the carrier, and a ∨ b is the k
    with ↑k = ↑a ∩ ↑b: the common upper bounds have a least member k iff
    they form ↑k.  A finite poset with a bottom and all binary joins is a
    bounded lattice: 1 is the join of all elements, and a ∧ b is the join of
    the common lower bounds, nonempty as they hold the bottom.  So ↓1 is the
    carrier and ↓a ∩ ↓b = ↓(a ∧ b), since x <= a and x <= b iff x <= a ∧ b.
    """

    def __init__(self, poset):
        self.elements, self.up, self.down = poset.elements, poset.up, poset.down
        self.n, self.full = poset.n, poset.full
        of_up = {u: i for i, u in enumerate(self.up)}
        of_down = {d: i for i, d in enumerate(self.down)}
        if self.full not in of_up:
            raise NoBottom("poset has no minimum element")
        join = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(i, self.n):
                k = of_up.get(self.up[i] & self.up[j])
                if k is None:
                    raise NoJoin(self.elements[i], self.elements[j])
                join[i][j] = join[j][i] = k
        self.bottom = of_up[self.full]
        self.join = tuple(map(tuple, join))
        self.top = of_down[self.full]
        self.meet = tuple(tuple(of_down[di & dj] for dj in self.down) for di in self.down)
        self._join_pairs = None
        self._meet_pairs = None
        self._spectra = {}  # topology.spectrum_for, keyed by flavor
        self._morphisms = {}  # enumerate_morphisms from self, keyed by (kind, tgt.up, bound)

    def join_pairs(self):
        """(a, b, a ∨ b) for every pair a < b, in the order of a, then b; built on first use."""
        if self._join_pairs is None:
            self._join_pairs = _pairs_with(self.join)
        return self._join_pairs

    def join_of_mask(self, mask):
        """Join of a subset; the empty join is the bottom element."""
        acc = self.bottom
        for i in bits(mask):
            acc = self.join[acc][i]
        return acc

    def meet_pairs(self):
        """(a, b, a ∧ b) for every pair a < b, in the order of a, then b; built on first use."""
        if self._meet_pairs is None:
            self._meet_pairs = _pairs_with(self.meet)
        return self._meet_pairs


def _pairs_with(table):
    """(a, b, table[a][b]) for every pair a < b."""
    n = len(table)
    return tuple((a, b, table[a][b]) for a in range(n) for b in range(a + 1, n))


def as_bounded_lattice(p):
    """The bounded lattice on p: BoundedLattice(p)."""
    return BoundedLattice(p)


def sorted_by_size(masks):
    """The masks sorted by (size, mask): the one order of every family of sets."""
    return sorted(masks, key=lambda m: (m.bit_count(), m))


class SetLattice(BoundedLattice):
    """A bounded lattice of subsets (int masks) ordered by inclusion.

    The masks are sorted by sorted_by_size; element k is ``masks[k]``, named
    ``label(masks[k])``.  BoundedLattice reads the bounds and tables off the
    inclusion order, so the family must have a least member and a join for
    every pair.
    """

    def __init__(self, masks, label):
        masks = sorted_by_size(masks)
        up = [sum(1 << j for j, b in enumerate(masks) if not a & ~b) for a in masks]
        super().__init__(Poset([label(m) for m in masks], up))
        self.masks = tuple(masks)
        self._index = {m: k for k, m in enumerate(masks)}

    def index_of_mask(self, mask):
        try:
            return self._index[mask]
        except KeyError:
            raise ValueError(f"no element with mask {mask:b}") from None

    def __len__(self):
        return len(self.masks)


def inclusion_isomorphism_failure(src, tgt, forward, backward):
    """Why ``forward`` is no isomorphism of the families src -> tgt, or None.

    Both families are sets of masks ordered by inclusion.  Checked literally,
    in this order: ``forward`` maps src bijectively onto tgt; forward ∘
    backward is the identity on tgt; backward ∘ forward is the identity on
    src; and a ⊆ b iff forward(a) ⊆ forward(b) for every pair of src.  When
    both families are lattices, such an order isomorphism is a lattice
    isomorphism.
    """
    images = [forward(s) for s in src]
    if len(set(images)) != len(images) or set(images) != set(tgt):
        return "map is not a bijection onto the target"
    for t in tgt:
        if forward(backward(t)) != t:
            return "inverse roundtrip fails"
    for s, t in zip(src, images):
        if backward(t) != s:
            return "forward roundtrip fails"
    for a, fa in zip(src, images):
        for b, fb in zip(src, images):
            if not a & ~b and fa & ~fb:
                return "order is not preserved"
            if a & ~b and not fa & ~fb:
                return "order is not reflected"
    return None


class Certificate:
    """The verdict of a check with its detail, serialized as {"ok": ok, **detail}."""

    def __init__(self, ok, detail):
        self.ok = ok
        self.detail = detail

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, **self.detail}


def dual(l):
    """The dual lattice: same carrier, order reversed, so join/meet and 0/1 swap."""
    return BoundedLattice(Poset(l.elements, l.down))


def distributivity_witness(l):
    """The first triple (a, b, c), b < c, with a ∧ (b ∨ c) ≠ (a ∧ b) ∨ (a ∧ c), or None.

    The scan runs over a, then c, then b < c, so for the first failing a the
    pair mask (1 << b) | (1 << c) is the least one that fails.  A pair with
    b = c never fails, and the law is symmetric in b and c.
    """
    for a in range(l.n):
        for c in range(l.n):
            for b in range(c):
                if l.meet[a][l.join[b][c]] != l.join[l.meet[a][b]][l.meet[a][c]]:
                    return (a, b, c)
    return None


def is_distributive(l):
    """True iff a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) for all triples."""
    return distributivity_witness(l) is None


def two():
    """The two-element lattice with 0 < 1."""
    return as_bounded_lattice(build_poset(["0", "1"], [("0", "1")]))


MORPHISM_KINDS = ("jsl", "blat")


def is_morphism(src, tgt, mapping, kind):
    """Check the kind's laws on an image tuple; ValueError unless one tgt index per src element.

    An index is an int: a float, a str or a bool is none.

    The join and meet laws are tested at the pairs a < b of ``join_pairs()``
    and ``meet_pairs()``: a pair a = b never fails, and a pair a > b repeats
    b < a, as the join and meet tables are symmetric and idempotent.
    """
    if kind not in MORPHISM_KINDS:
        raise ValueError(f"unknown morphism kind {kind!r}")
    f = mapping
    if len(f) != src.n:
        raise ValueError("mapping must have one image per source element")
    if not {int}.issuperset(map(type, f)) or not 0 <= min(f) <= max(f) < tgt.n:
        raise ValueError("mapping must send every element to an element of the target")
    if f[src.bottom] != tgt.bottom:
        return False
    for a, b, j in src.join_pairs():
        if f[j] != tgt.join[f[a]][f[b]]:
            return False
    if kind == "blat":
        if f[src.top] != tgt.top:
            return False
        for a, b, m in src.meet_pairs():
            if f[m] != tgt.meet[f[a]][f[b]]:
                return False
    return True


def scheduled_search(order, width, start, pairs, triples, bound=None):
    """Yield every assignment of values 0..width-1 to the variables 0..n-1.

    ``order`` is a permutation of range(n): the variables are assigned one
    per depth in that order, and each result is a tuple indexed by variable.
    Every constraint is attached to the depth s where its last participant
    ``order[s]`` is assigned, and narrows the candidate mask of that variable
    from ``start[s]``:

    - ``(p, table)`` in ``pairs[s]`` keeps the values in ``table[img[p]]``;
    - ``(p, q, table)`` in ``triples[s]`` keeps those in ``table[img[p]][img[q]]``.

    Candidates are tried in ascending value order, so results come out in
    lexicographic order of the assignment sequence; a caller that stops
    early expands no further node.  With a ``bound`` (the morphism search's
    size guard), every expanded node counts ``width`` attempts, one per
    value as a try-every-value search would, and SizeGuardExceeded is raised
    once the count passes the bound.
    """
    n = len(order)
    img = [0] * n
    cands = [0] * n  # cands[s]: the values not yet tried at depth s
    attempts = 0
    s = 0  # the depth of the node to expand
    while True:
        if s == n:
            yield tuple(img)
            s -= 1
        else:
            if bound is not None:
                attempts += width
                if attempts > bound:
                    raise SizeGuardExceeded(
                        f"morphism search exceeded {bound} candidate extensions"
                    )
            cand = start[s]
            for p, table in pairs[s]:
                cand &= table[img[p]]
            for p, q, table in triples[s]:
                cand &= table[img[p]][img[q]]
            cands[s] = cand
        while s >= 0 and not cands[s]:
            s -= 1
        if s < 0:
            return
        low = cands[s] & -cands[s]
        cands[s] ^= low
        img[order[s]] = low.bit_length() - 1
        s += 1


def enumerate_morphisms(src, tgt, kind, guard=None):
    """All morphisms src -> tgt of the given kind, as sorted image tuples, a new list each call.

    A morphism φ is the tuple of its images: φ[a] is the target index of
    source element a, as for the continuous maps of enumerate_continuous.
    ValueError for an unknown kind or a guard size_bound rejects, before
    anything else.

    The search's result is kept on src, keyed by the kind, tgt.up and
    size_bound(guard), as its sorted image tuples, laid end to end in one
    array.  The key is exact.  Besides src's own tables, the search reads
    only n, bottom, top, up, join and meet of the target, and
    BoundedLattice(poset), the one constructor of a lattice, derives each of
    those from the up-sets: n is their count, the bottom is the element
    whose up-set is the carrier, a ∨ b is the k with ↑k = ↑a ∩ ↑b, and the
    down-sets, hence the top and the meets, are the up-sets transposed.  So
    two targets with equal up-sets run the same search, with the same tuples.

    The guard rule is that of a fresh search: SizeGuardExceeded is raised
    iff the search's attempts, tgt.n per expanded node, pass the guard.
    Two calls with equal keys run the same search, so both raise
    SizeGuardExceeded or neither does, and a search that raises keeps
    nothing.
    """
    if kind not in MORPHISM_KINDS:
        raise ValueError(f"unknown morphism kind {kind!r}")
    bound = size_bound(guard)
    key = (kind, tgt.up, bound)
    images = src._morphisms.get(key)
    if images is None:
        images = src._morphisms[key] = _search_morphisms(src, tgt, kind, bound)
    return list(zip(*[iter(images)] * src.n))


def _search_morphisms(src, tgt, kind, bound):
    """The search's sorted image tuples, laid end to end in one array.

    A scheduled_search assigns images in a linear extension of src.  Each
    preservation law is tested once, at the depth where its last
    participant is assigned:

    - the bottom (and, for blat, the top) at its own depth;
    - monotonicity along each cover a < b at b's depth (the prefixes of a
      linear extension are down-sets, so covers imply every pair);
    - the join of an incomparable pair a, b at the depth of a ∨ b;
    - for blat, the meet of an incomparable pair at the later of a, b.

    For a comparable pair the join and meet equations say no more than
    monotonicity.  The search therefore prunes exactly the partial
    extensions on which some already-determined equation fails.  It raises
    SizeGuardExceeded once its attempts pass the bound.  Of the target it
    reads only n, bottom, top, up, join and meet, and builds its candidate
    rows from the last two: join_to[x][y] is the one-bit mask of x ∨ y and,
    for blat, meet_to[x][y] the mask of the v with x ∧ v = y, x's one-hot
    meet row transposed.
    """
    need_meet = kind == "blat"
    order = src.linear_extension()
    pos = [0] * src.n
    for s, e in enumerate(order):
        pos[e] = s
    join_to = [[1 << v for v in row] for row in tgt.join]
    start = [(1 << tgt.n) - 1] * src.n
    start[pos[src.bottom]] &= 1 << tgt.bottom
    if need_meet:
        meet_to = [transpose([1 << y for y in row], tgt.n) for row in tgt.meet]
        start[pos[src.top]] &= 1 << tgt.top
    pairs = [[] for _ in order]
    triples = [[] for _ in order]
    for a in range(src.n):
        for c in bits(src.covers(a)):
            pairs[pos[c]].append((a, tgt.up))
        for b in range(a + 1, src.n):
            if src.leq(a, b) or src.leq(b, a):
                continue
            j = src.join[a][b]
            triples[pos[j]].append((a, b, join_to))
            if need_meet:
                first, last = (a, b) if pos[a] < pos[b] else (b, a)
                triples[pos[last]].append((first, src.meet[a][b], meet_to))
    found = sorted(scheduled_search(order, tgt.n, start, pairs, triples, bound))
    return array("I", [v for f in found for v in f])


def _refine_classes(p, twins):
    """Iterated invariant refinement; returns a class id per element.

    Each round ranks the elements by (class, classes below, classes above),
    reading the up- and down-set bits, listed once if a round runs.  It
    stops when a round splits no class, or at once when the classes are the
    twin groups: when their count is p.n - len(twins), for the twin_pairs
    ``twins`` of p.  Twins have equal signatures in every round, so they
    share a class and no round splits a group of them; every class is a
    union of groups, and at that count each class is one group.  Each
    signature starts with the element's own class, and twins agree on the
    rest, so a further round would rank them the same and return the same
    ids.  With no twins this is the discrete partition.
    """
    raw = [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]
    ranks = {s: r for r, s in enumerate(sorted(set(raw)))}
    cls = [ranks[s] for s in raw]
    groups = p.n - len(twins)
    if len(ranks) == groups:
        return cls
    below = [bits(d) for d in p.down]
    above = [bits(u) for u in p.up]
    while len(ranks) < groups:
        get = cls.__getitem__
        sig = [
            (c, tuple(sorted(map(get, b))), tuple(sorted(map(get, a))))
            for c, b, a in zip(cls, below, above)
        ]
        count = len(ranks)
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        if len(ranks) == count:
            return cls  # no class split, so each keeps its rank
        cls = [ranks[s] for s in sig]
    return cls


def _encode(rows, perm, n):
    """The code of a relabelling perm: bit perm[i]·n + perm[j] is set iff i <= j."""
    code = 0
    for i, row in enumerate(rows):
        image = 0  # the relabelled up[i]: bit perm[j] for each j >= i
        for j in row:
            image |= 1 << perm[j]
        code |= image << (perm[i] * n)
    return code


def twin_pairs(p):
    """(a, b) for each element b with a twin before it, a the last such twin.

    Two elements are twins if they have the same strict up-set and the same
    strict down-set.  Twins are incomparable, and swapping two of them is an
    automorphism of p.  Each group of twins, in index order, gives its
    consecutive pairs.
    """
    last = {}
    out = []
    for i, (u, d) in enumerate(zip(p.up, p.down)):
        strict = (u & ~(1 << i), d & ~(1 << i))
        if strict in last:
            out.append((last[strict], i))
        last[strict] = i
    return out


def canonical_key(p):
    """A label-independent key: minimal relation encoding over admissible relabelings.

    Elements are first partitioned by an iterated order invariant; only
    permutations mapping each class onto its block of positions (classes
    taken in rank order) are tried, and twins (see twin_pairs) take
    ascending positions.  A relabelling perm is encoded row by row: bit
    perm[i]·n + perm[j] is set iff i <= j.

    When every class is one group of twins, exactly one admissible perm is
    twin-sorted, i ↦ the rank of (cls[i], i): an admissible perm maps each
    class onto its block, and a twin-sorted one gives the members of a
    group ascending positions in index order.  The search would yield that
    perm alone, so its code is the key; a discrete partition is the case
    with no twins.  Otherwise a scheduled_search assigns the positions class
    by class, each variable starting from its class's block, with
    injectivity as the pair constraint, and ascending positions for each
    twin and the twin before it.

    The twin order keeps the least code.  Twins have equal signatures in
    every round of the refinement, so they share a class.  Given any
    admissible perm, let τ permute each group of twins so that perm ∘ τ
    sends the group's members, in index order, to its positions in
    ascending order.  perm ∘ τ sets the bits perm[τ(i)]·n + perm[τ(j)] for
    i <= j, and τ is an automorphism, so τ(i) <= τ(j) iff i <= j: these are
    the bits perm[x]·n + perm[y] for x <= y, the code of perm.  perm ∘ τ
    keeps each class on its block, so it is admissible and twin-sorted, and
    the search yields it.
    """
    twins = twin_pairs(p)
    cls = _refine_classes(p, twins)
    rows = [bits(u) for u in p.up]
    order = sorted(range(p.n), key=cls.__getitem__)  # stable: by (cls[i], i)
    if len(set(cls)) == p.n - len(twins):
        perm = [0] * p.n
        for s, i in enumerate(order):
            perm[i] = s
        return (p.n, _encode(rows, perm, p.n))
    block = transpose([1 << cls[i] for i in order], p.n)  # block[c]: the positions of class c
    distinct = [p.full & ~(1 << v) for v in range(p.n)]
    after = [p.full & -(2 << v) for v in range(p.n)]  # after[v]: the positions above v
    twin_before = {b: a for a, b in twins}
    start = [block[cls[i]] for i in order]
    pairs = [
        [(k, after if twin_before.get(i) == k else distinct) for k in order[:s] if cls[k] == cls[i]]
        for s, i in enumerate(order)
    ]
    search = scheduled_search(order, p.n, start, pairs, [[]] * p.n)
    return (p.n, min(_encode(rows, perm, p.n) for perm in search))
