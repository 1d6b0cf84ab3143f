"""Corpus generation: counts, canonicity, and determinism."""

from itertools import combinations, permutations, product

import pytest

from lattik import corpus
from lattik.corpus import (
    LATTICE_COUNTS,
    _downset_masks,
    _extend,
    _grow,
    _meet_downsets,
    all_lattices,
    all_posets,
    all_topologies,
    chain,
    lattice_corpus,
    space_corpus,
)
from lattik.errors import BoundExceeded, NoBottom, NoJoin
from lattik.order import Poset, as_bounded_lattice, canonical_key, maximal_extension
from lattik.topology import FiniteSpace


def is_lattice(p):
    try:
        as_bounded_lattice(p)
    except (NoBottom, NoJoin):
        return False
    return True


def filtered_topologies(n):
    """Every family of subsets of n points closed under union and intersection."""
    points = [f"p{i}" for i in range(n)]
    if n == 0:
        return [FiniteSpace([], [0])]
    full = (1 << n) - 1
    proper = list(range(1, full))
    spaces = []
    for r in range(len(proper) + 1):
        for extra in combinations(proper, r):
            fam = set(extra) | {0, full}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                spaces.append(FiniteSpace(points, fam))
    spaces.sort(key=lambda s: (len(s.opens), s.opens))
    return spaces


def tables(p):
    return (type(p), p.elements, p.up, p.down, p.n, p.full)


class TestMaximalExtension:
    # the extension reuses p's validated tables; Poset validates the same order afresh

    @pytest.mark.parametrize(
        "max_n, downsets", [(6, _downset_masks), (7, _meet_downsets)], ids=["posets", "meet"]
    )
    def test_equals_a_validated_poset_on_every_candidate(self, max_n, downsets):
        for level in _grow(max_n, downsets)[:-1]:
            for p in level:
                for d in downsets(p):
                    q = _extend(p, d)
                    assert tables(q) == tables(Poset(q.elements, q.up))

    def test_equals_a_validated_poset_on_every_adjoined_top(self):
        # the top that all_lattices(8) adjoins to each meet-semilattice
        for level in _grow(7, _meet_downsets):
            for p in level:
                q = _extend(p, p.full)
                assert tables(q) == tables(Poset(q.elements, q.up))

    @pytest.mark.parametrize(
        "d, name, message",
        [
            (0b010, "e3", "is not a down-set: it holds 'm1'"),
            (0b1000, "e3", "off the carrier"),
            (-1, "e3", "off the carrier"),
            ("0", "e3", "off the carrier"),
            (True, "e3", "off the carrier"),
            (0b011, "m1", "'m1' must be a fresh nonempty string"),
            (0b011, "", "must be a fresh nonempty string"),
            (0b011, 3, "must be a fresh nonempty string"),
        ],
        ids=[
            "not-down-set", "high-bit", "negative", "str-mask", "bool-mask", "reused", "empty",
            "int-name",
        ],
    )
    def test_rejects(self, d, name, message):
        with pytest.raises(ValueError, match=message):
            maximal_extension(chain(3), d, name)


def unpruned_grow(max_n, downsets):
    """The _grow loop with no down-set skipped: the oracle of the twin skip."""
    levels = [[Poset([], [])]]
    for _ in range(max_n):
        seen = {}
        for p in levels[-1]:
            for d in downsets(p):
                q = _extend(p, d)
                seen.setdefault(canonical_key(q), q)
        levels.append([seen[k] for k in sorted(seen)])
    return levels


def orders(levels):
    return [[(p.elements, p.up) for p in level] for level in levels]


class TestTwinSkip:
    # _grow skips a down-set that holds a twin but not the twin before it

    @pytest.mark.parametrize(
        "max_n, downsets, skipped",
        [(6, _downset_masks, 208), (7, _meet_downsets, 156)],
        ids=["posets", "meet"],
    )
    def test_each_skipped_downset_has_the_key_of_an_earlier_kept_one(
        self, monkeypatch, max_n, downsets, skipped
    ):
        kept = {}

        def recorder(p, d):
            kept.setdefault(id(p), []).append(d)
            return _extend(p, d)

        monkeypatch.setattr(corpus, "_extend", recorder)
        levels = _grow(max_n, downsets)
        count = 0
        for level in levels[:-1]:
            for p in level:
                mine = kept.get(id(p), [])
                assert [d for d in downsets(p) if d in mine] == mine
                earlier = set()
                for d in downsets(p):
                    key = canonical_key(_extend(p, d))
                    if d in mine:
                        earlier.add(key)
                    else:
                        assert key in earlier, (p.elements, p.up, d)
                        count += 1
        assert count == skipped

    def test_posets_equal_the_unpruned_loop(self):
        assert orders(all_posets(7)) == orders(unpruned_grow(7, _downset_masks)[1:])

    def test_lattices_equal_the_unpruned_loop(self):
        expected = [
            [_extend(p, p.full) for p in level] for level in unpruned_grow(8, _meet_downsets)
        ]
        assert orders(all_lattices(9)) == orders(expected)


class TestLatticeCounts:
    def test_counts_up_to_six(self):
        levels = all_lattices(6)
        assert [len(level) for level in levels] == [
            LATTICE_COUNTS[n] for n in range(1, 7)
        ]

    def test_counts_up_to_seven(self):
        assert len(all_lattices(7)[-1]) == LATTICE_COUNTS[7]

    def test_count_nine(self):
        assert len(all_lattices(9)[-1]) == LATTICE_COUNTS[9]

    def test_same_lattices_as_the_poset_extension(self):
        # all_lattices keeps the representatives and order of filtering all_posets
        posets = all_posets(7)
        for n in range(1, 8):
            expected = [
                [(p.elements, p.up) for p in level if is_lattice(p)]
                for level in posets[:n]
            ]
            got = [[(l.elements, l.up) for l in level] for level in all_lattices(n)]
            assert got == expected, n

    def test_a_top_keeps_the_key_order(self):
        # all_lattices lists P + top in the level order of the meet-semilattices P
        # without sorting: adjoining a top must keep the canonical-key order
        for level in _grow(7, _meet_downsets):
            keys = [canonical_key(_extend(p, p.full)) for p in level]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_the_last_level_is_not_keyed(self, monkeypatch):
        # the n-element lattices are the (n-1)-element meet-semilattices with a
        # top, one each, so no n-element poset needs a key
        sizes = []

        def recorder(p):
            sizes.append(p.n)
            return canonical_key(p)

        monkeypatch.setattr(corpus, "canonical_key", recorder)
        for n in range(2, 9):
            sizes.clear()
            all_lattices(n)
            assert max(sizes) == n - 1, n

    def test_no_two_isomorphic(self, corpus5):
        # by brute force, as the corpus is deduplicated by canonical_key
        for i, a in enumerate(corpus5):
            for b in corpus5[i + 1 :]:
                if a.n == b.n:
                    cells = list(product(range(a.n), repeat=2))
                    assert not any(
                        all(a.leq(x, y) == b.leq(f[x], f[y]) for x, y in cells)
                        for f in permutations(range(a.n))
                    )

    def test_standard_lattices_are_in_the_corpus(self, corpus5, std):
        keys = {canonical_key(l) for l in corpus5}
        for name, l in std.items():
            if l.n <= 5:
                assert canonical_key(l) in keys, name

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            all_lattices(11)

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_bound_below_one(self, max_n):
        with pytest.raises(BoundExceeded):
            all_lattices(max_n)


class TestChain:
    def test_one_element(self):
        l = chain(1)
        assert (l.elements, l.bottom, l.top) == (("0",), 0, 0)

    def test_names(self):
        assert chain(2).elements == ("0", "1")
        assert chain(4).elements == ("0", "m1", "m2", "1")

    @pytest.mark.parametrize("n", [0, -1])
    def test_bound_below_one(self, n):
        with pytest.raises(BoundExceeded, match=f"got {n}"):
            chain(n)


class TestPosetCounts:
    def test_counts_up_to_five(self):
        # number of posets up to isomorphism: 1, 2, 5, 16, 63
        levels = all_posets(5)
        assert [len(level) for level in levels] == [1, 2, 5, 16, 63]

    @pytest.mark.parametrize("max_n", [0, -2])
    def test_bound_below_one(self, max_n):
        with pytest.raises(BoundExceeded):
            all_posets(max_n)


class TestTopologies:
    def test_labeled_counts(self):
        # labeled topologies on 0..3 points
        assert [len(all_topologies(n)) for n in range(4)] == [1, 1, 4, 29]

    @pytest.mark.parametrize("n", range(5))
    def test_same_as_the_family_filter(self, n):
        expected = [(s.points, s.opens) for s in filtered_topologies(n)]
        assert [(s.points, s.opens) for s in all_topologies(n)] == expected

    def test_space_corpus_size(self, spaces3):
        assert len(spaces3) == 35

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            all_topologies(5)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_size(self, n):
        with pytest.raises(BoundExceeded):
            all_topologies(n)
        with pytest.raises(BoundExceeded):
            space_corpus(n)


@pytest.mark.parametrize(
    "entry", [all_lattices, all_posets, lattice_corpus, all_topologies, space_corpus, chain]
)
@pytest.mark.parametrize("size", [True, 3.0], ids=["bool", "float"])
def test_a_bool_or_non_int_size_is_rejected(entry, size):
    with pytest.raises(BoundExceeded, match=f"an int .*, got {size!r}"):
        entry(size)


class TestDeterminism:
    def test_lattice_corpus_is_stable(self):
        a = [(l.elements, l.up) for l in lattice_corpus(5)]
        b = [(l.elements, l.up) for l in lattice_corpus(5)]
        assert a == b

    def test_space_corpus_is_stable(self):
        a = [(s.points, s.opens) for s in space_corpus(3)]
        b = [(s.points, s.opens) for s in space_corpus(3)]
        assert a == b
