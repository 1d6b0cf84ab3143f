"""Named standard lattices plus exhaustive corpora of lattices and topologies."""

from __future__ import annotations

from .errors import BoundExceeded
from .order import (
    Poset,
    as_bounded_lattice,
    build_poset,
    canonical_key,
    maximal_extension,
    scheduled_search,
    transpose,
    twin_pairs,
)
from .topology import FiniteSpace, _union_closure

MAX_CORPUS_N = 10

# Number of bounded lattices on n elements up to isomorphism, n = 1..10
# (OEIS A006966).  Re-derived by all_lattices() below; frozen here as the
# expectation table.
LATTICE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994,
}


def _check_size(what, name, n, low, high=None):
    """BoundExceeded unless n is an int (a bool is none) with low <= n, and n <= high if given."""
    if type(n) is not int or n < low or high is not None and n > high:
        if high is None:
            span = f"needs an int {name} >= {low}"
        else:
            span = f"is bounded at an int {low} <= {name} <= {high}"
        raise BoundExceeded(f"{what} {span}, got {n!r}")


def chain(n):
    """The n-element chain c0 < c1 < ... (named 0, m1, ..., 1 for readability)."""
    _check_size("chain", "n", n, 1)
    names = ["0", *(f"m{i}" for i in range(1, n - 1)), "1"][:n]
    pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
    return as_bounded_lattice(build_poset(names, pairs))


def b2():
    """The four-element Boolean lattice (diamond)."""
    return as_bounded_lattice(
        build_poset(
            ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        )
    )


def m3():
    """The diamond with three incomparable atoms; modular, not distributive."""
    return as_bounded_lattice(
        build_poset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
    )


def n5():
    """The pentagon 0 < a < 1, 0 < b < c < 1; not modular."""
    return as_bounded_lattice(
        build_poset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
        )
    )


def _extend(p, d):
    """p with a new maximal element e<p.n> over the down-set d."""
    return maximal_extension(p, d, f"e{p.n}")


def _grow(max_n, downsets):
    """Levels 0..max_n of posets grown one new maximal element at a time.

    Level 0 is the empty poset.  Level n extends every poset p of level n-1,
    in level order, by each mask of ``downsets(p)`` in turn.  The first
    extension seen of each isomorphism class is its representative; a level
    is sorted by canonical key.

    A down-set d that holds a twin b of p (see ``twin_pairs``) but not the
    twin a before it is skipped: an isomorphic extension comes earlier from
    the same parent, so the first extension seen of a class is never
    skipped, and every representative stays.  The twins have the same
    strict up-set, so an element of d above b would put a in d; thus b is in
    the antichain A of d's maximal elements.  Swapping a and b is an
    automorphism of p, so it sends d to the down-set d' with the antichain
    A - {b} + {a}, whose extension is isomorphic to d's.  ``downsets(p)``
    lists d' too: ``_downset_masks`` lists every down-set, and
    ``_meet_downsets`` keeps those whose extension is a meet-semilattice,
    which isomorphic extensions are or are not alike.  As a < b and a is not
    in A, A - {b} + {a} is lexicographically smaller than A, and
    ``_downset_masks`` visits antichains in lexicographic order, so d' comes
    before d.  Each such swap lowers the sum of the indices in d, so
    repeating it ends at a down-set that holds each group of twins as a
    prefix in index order, which is kept and comes before d.
    """
    levels = [[Poset([], [])]]
    for _ in range(max_n):
        seen = {}
        for p in levels[-1]:
            twins = twin_pairs(p)
            for d in downsets(p):
                if any(d >> b & 1 > d >> a & 1 for a, b in twins):
                    continue
                q = _extend(p, d)
                seen.setdefault(canonical_key(q), q)
        levels.append([seen[k] for k in sorted(seen)])
    return levels


def _downset_masks(p):
    """All down-sets, one per antichain of maximal elements, antichains in lexicographic order.

    A DFS over the antichains, each listed before its extensions; no dedup needed.
    """
    out = []

    def extend(start, chosen_mask, downset):
        out.append(downset)
        for i in range(start, p.n):
            if chosen_mask & (p.up[i] | p.down[i]):
                continue  # comparable to an already chosen element
            extend(i + 1, chosen_mask | 1 << i, downset | p.down[i])

    extend(0, 0, 0)
    return out


def all_posets(max_n):
    """All posets up to isomorphism with 1..max_n elements, grouped by size.

    Built by extension: every poset arises from a smaller one by adding a new
    maximal element whose down-set is any down-set of the smaller poset.
    Canonical keys deduplicate at each level.
    """
    _check_size("poset generation", "max_n", max_n, 1)
    return _grow(max_n, _downset_masks)[1:]


def _meet_downsets(p):
    """Down-sets d of the meet-semilattice p whose extension is one as well.

    The new element m has glb(m, x) for every x iff d ∩ ↓x is a principal
    down-set ↓k.
    """
    principal = set(p.down)
    return [d for d in _downset_masks(p) if all(d & dx in principal for dx in p.down)]


def all_lattices(max_n):
    """All bounded lattices up to isomorphism with 1..max_n elements.

    Returns a list of lists, index n-1 holding the lattices of size n in a
    deterministic canonical order.

    A lattice's top is its only maximal element, and a finite
    meet-semilattice with a top adjoined is a lattice: a ∨ b is the meet of
    the upper bounds of a and b.  So L ↦ L - top is a bijection from the
    n-element lattices onto the (n-1)-element meet-semilattices, and level n
    is level n-1 of ``_grow(max_n - 1, _meet_downsets)`` with a top
    adjoined to each, neither keyed nor deduplicated.

    Those levels are the meet-semilattices of the ``all_posets`` levels, with
    the same representatives and order: a meet-semilattice minus a maximal
    element is one as well, and ``_meet_downsets`` keeps exactly the d that
    give one.  There L is built only from the representative P of L - top,
    as P + top, and adjoining a top keeps the key order.  For P on n elements:

    1. ``_refine_classes(P + top)`` restricted to P is ``_refine_classes(P)``,
       with the same ranks, and the top sits alone in the last class.  Its
       start invariant (n+1, 1) is the largest.  Every other element gains
       the top's class at the end of its ``above`` tuple, and elements of
       one class have ``above`` tuples of one length.
    2. So the admissible relabellings of P + top are exactly those of P,
       with the top sent to position n.  The twin order of
       ``canonical_key`` is the same on both: the top is never a twin, as
       no other element has all of P strictly below it, and two elements
       of P are twins in P + top iff they are in P, as each strict up-set
       gains the top and each strict down-set is unchanged.
    3. Under such a relabelling, the code of P + top is P's code with bit
       r·n + c moved to r·(n+1) + c, plus the bits r·(n+1) + n for r <= n,
       which do not depend on the relabelling.  The move is increasing on
       bit positions, so the least codes, and the keys of equal-size P,
       compare as before.
    """
    _check_size("corpus generation", "max_n", max_n, 1, MAX_CORPUS_N)
    return [
        [as_bounded_lattice(_extend(p, p.full)) for p in level]
        for level in _grow(max_n - 1, _meet_downsets)
    ]


def lattice_corpus(max_n):
    """Flat deterministic list of all corpus lattices with at most max_n elements."""
    flat = []
    for level in all_lattices(max_n):
        flat.extend(level)
    return flat


def all_topologies(n_points):
    """All (labeled) topologies on n points, as FiniteSpaces.

    A finite topology is determined by its minimal opens U_0, ..., U_{n-1}:
    they are the tuples with i in U_i and j in U_i ⇒ U_j ⊆ U_i, and the opens
    are their unions.  A scheduled_search assigns U_i over the masks that
    contain i and tests each pair k < i once, at i.  The spaces are sorted by
    (number of opens, opens).  Bounded at 4 points.
    """
    _check_size("topology enumeration", "n_points", n_points, 0, 4)
    points = [f"p{i}" for i in range(n_points)]
    masks = range(1 << n_points)

    def table(k, i):
        # per U_k, the U_i with i in U_k ⇒ U_i ⊆ U_k and k in U_i ⇒ U_k ⊆ U_i
        return [
            sum(
                1 << ui
                for ui in masks
                if (not uk >> i & 1 or not ui & ~uk) and (not ui >> k & 1 or not uk & ~ui)
            )
            for uk in masks
        ]

    start = transpose(masks, n_points)  # start[i]: the candidate U_i, the masks holding i
    pairs = [[(k, table(k, i)) for k in range(i)] for i in range(n_points)]
    search = scheduled_search(range(n_points), len(masks), start, pairs, [[]] * n_points)
    spaces = [FiniteSpace(points, _union_closure(u)) for u in search]
    spaces.sort(key=lambda s: (len(s.opens), s.opens))
    return spaces


def space_corpus(max_points):
    """All topologies on 0..max_points points, deterministically ordered."""
    _check_size("space corpus", "max_points", max_points, 0)
    out = []
    for n in range(max_points + 1):
        out.extend(all_topologies(n))
    return out
