"""Posets, lattices, duality, distributivity, and morphism enumeration."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from conftest import b3, discrete_space
from lattik import corpus, order
from lattik.corpus import (
    _extend,
    _grow,
    _meet_downsets,
    all_lattices,
    all_posets,
    b2,
    chain,
    lattice_corpus,
    m3,
    n5,
    space_corpus,
)
from lattik.errors import (
    DuplicateName,
    NoBottom,
    NoJoin,
    NotAntisymmetric,
    SizeGuardExceeded,
    UnknownName,
)
from lattik.ideals import all_ideals
from lattik.jsonio import lattice_from_json, lattice_to_json
from lattik.order import (
    DEFAULT_SIZE_GUARD,
    BoundedLattice,
    MORPHISM_KINDS,
    Certificate,
    Poset,
    SetLattice,
    _refine_classes,
    as_bounded_lattice,
    bits,
    build_poset,
    canonical_key,
    dual,
    enumerate_morphisms,
    image,
    inclusion_isomorphism_failure,
    is_distributive,
    is_morphism,
    preimage,
    scheduled_search,
    transpose,
    twin_pairs,
    two,
)
from lattik.support import check_adjunction
from lattik.topology import FLAVORS, cl_lattice, omega_lattice

# Cl of the discrete 3-point space: the 8-element Boolean lattice of subsets
CL_D3 = cl_lattice(discrete_space(["a", "b", "c"]))


def brute_lub(p, i, j):
    """Independent least-upper-bound search by scanning all elements."""
    ub = [k for k in range(p.n) if p.leq(i, k) and p.leq(j, k)]
    least = [k for k in ub if all(p.leq(k, m) for m in ub)]
    return least[0] if least else None


def brute_glb(p, i, j):
    lb = [k for k in range(p.n) if p.leq(k, i) and p.leq(k, j)]
    greatest = [k for k in lb if all(p.leq(m, k) for m in lb)]
    return greatest[0] if greatest else None


class TestBuildPoset:
    def test_two_chain(self):
        p = build_poset(["0", "1"], [("0", "1")])
        assert p.n == 2 and p.leq(0, 1) and not p.leq(1, 0)

    def test_b2_diamond(self):
        p = build_poset(
            ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        )
        assert p.leq(0, 3)  # transitive closure was taken
        assert not p.leq(1, 2) and not p.leq(2, 1)

    def test_two_cycle_rejected(self):
        with pytest.raises(NotAntisymmetric):
            build_poset(["x", "y"], [("x", "y"), ("y", "x")])

    @pytest.mark.parametrize(
        "pairs",
        [
            [("x", "y"), ("y", "x")],
            [("x", "y"), ("y", "z"), ("z", "x")],
        ],
    )
    def test_cycle_message(self, pairs):
        # the closure turns any cycle into 2-cycles; the first pair is reported
        with pytest.raises(NotAntisymmetric, match=r"^'x' and 'y' form a 2-cycle$"):
            build_poset(["x", "y", "z"], pairs)

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            build_poset(["x", "x"], [])

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            build_poset(["x"], [("x", "y")])

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12
        )
    )
    def test_closure_is_always_a_preorder(self, pairs):
        names = ["v0", "v1", "v2", "v3", "v4"]
        named = [(names[a], names[b]) for a, b in pairs]
        try:
            p = build_poset(names, named)
        except NotAntisymmetric:
            return
        # constructor already validated reflexivity/transitivity/antisymmetry
        for a, b in named:
            assert p.leq(p.index(a), p.index(b))


class TestPosetValidation:
    @pytest.mark.parametrize(
        "names, up, message",
        [
            ("xy", [0b01], "up must have one mask per element"),
            ("xy", [0b101, 0b10], "up mask references unknown element index"),
            ("xy", [0b10, 0b10], "order is not reflexive at 'x'"),
            ("xyz", [0b011, 0b110, 0b100], "order is not transitive at 'x' <= 'y'"),
        ],
        ids=["length", "off-carrier", "reflexive", "transitive"],
    )
    def test_rejects_a_bad_up_table(self, names, up, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Poset(list(names), up)


class TestJoinSemilattice:
    def test_two(self):
        l = two()
        assert l.bottom == 0
        assert l.join[0][1] == 1 and l.join[1][1] == 1

    def test_antichain_has_no_join(self):
        p = build_poset(["x", "y"], [])
        with pytest.raises((NoJoin, NoBottom)):
            as_bounded_lattice(p)

    def test_m3_joins_match_brute_force(self):
        l = m3()
        a, b = l.index("a"), l.index("b")
        assert brute_lub(l, a, b) == l.index("1")
        for i in range(l.n):
            for j in range(l.n):
                assert l.join[i][j] == brute_lub(l, i, j)
        assert l.bottom == l.index("0")


class TestBoundedLattice:
    def test_b2(self):
        l = b2()
        assert l.meet[l.index("a")][l.index("b")] == l.index("0")
        assert l.top == l.index("1")

    def test_n5_matches_brute_force(self):
        l = n5()
        a, b, c = l.index("a"), l.index("b"), l.index("c")
        assert l.meet[a][c] == l.index("0") == brute_glb(l, a, c)
        assert l.join[a][b] == l.index("1") == brute_lub(l, a, b)
        for i in range(l.n):
            for j in range(l.n):
                assert l.meet[i][j] == brute_glb(l, i, j)

    def test_chain_is_min_max(self):
        l = chain(3)
        for i in range(3):
            for j in range(3):
                assert l.join[i][j] == max(i, j)
                assert l.meet[i][j] == min(i, j)

    def test_matches_brute_force_on_every_labelled_poset(self):
        # a finite poset with a bottom and all binary joins is a bounded
        # lattice, so only those are searched for and the rest is read off
        for level in all_posets(5):
            for p in level:
                for perm in permutations(range(p.n)):
                    q = relabelled(p, perm)
                    everything = range(q.n)
                    lub = [[brute_lub(q, i, j) for j in everything] for i in everything]
                    pairs = [(i, j) for i in everything for j in everything[i:]]
                    no_join = [(i, j) for i, j in pairs if lub[i][j] is None]
                    bottom = [k for k in everything if all(q.leq(k, m) for m in everything)]
                    if not bottom:
                        with pytest.raises(NoBottom, match="poset has no minimum element"):
                            as_bounded_lattice(q)
                    elif no_join:
                        with pytest.raises(NoJoin) as exc:
                            as_bounded_lattice(q)
                        i, j = no_join[0]
                        assert exc.value.pair == (q.elements[i], q.elements[j])
                    else:
                        l = as_bounded_lattice(q)
                        top = [k for k in everything if all(q.leq(m, k) for m in everything)]
                        assert [l.bottom] == bottom and [l.top] == top
                        assert [list(row) for row in l.join] == lub
                        assert [list(row) for row in l.meet] == [
                            [brute_glb(q, i, j) for j in everything] for i in everything
                        ]


def least(mask, above):
    """The k in mask with mask inside above[k], or None: a scan, not a lookup."""
    found = [k for k in bits(mask) if not mask & ~above[k]]
    return found[0] if found else None


def bounds_oracle(p):
    """(bottom, join, top, meet) of p by scans over its up-sets and down-sets.

    "NoBottom" if no up-set is the carrier; ("NoJoin", i, j) for the first
    pair i <= j, in the order of i, then j, without a least common upper bound.
    """
    bottom = least(p.full, p.up)
    if bottom is None:
        return "NoBottom"
    join = [[None] * p.n for _ in range(p.n)]
    for i in range(p.n):
        for j in range(i, p.n):
            join[i][j] = join[j][i] = least(p.up[i] & p.up[j], p.up)
            if join[i][j] is None:
                return ("NoJoin", i, j)
    top = least(p.full, p.down)
    meet = [[least(di & dj, p.down) for dj in p.down] for di in p.down]
    return bottom, join, top, meet


def tables(l):
    """(bottom, join, top, meet) of a lattice, its tables as lists."""
    return l.bottom, [list(r) for r in l.join], l.top, [list(r) for r in l.meet]


def assert_matches_bounds_oracle(p):
    """Check BoundedLattice(p) against the oracle; return the outcome's name."""
    expected = bounds_oracle(p)
    if expected == "NoBottom":
        with pytest.raises(NoBottom, match="poset has no minimum element"):
            BoundedLattice(p)
        return "NoBottom"
    if expected[0] == "NoJoin":
        with pytest.raises(NoJoin) as exc:
            BoundedLattice(p)
        assert exc.value.pair == (p.elements[expected[1]], p.elements[expected[2]])
        return "NoJoin"
    assert tables(BoundedLattice(p)) == expected
    return "lattice"


class TestBoundsOracle:
    # BoundedLattice(poset) is the one reader of a lattice's bounds and tables

    def test_every_poset_up_to_five(self):
        outcomes = {assert_matches_bounds_oracle(p) for level in all_posets(5) for p in level}
        assert outcomes == {"NoBottom", "NoJoin", "lattice"}

    def test_open_set_lattices(self):
        for x in space_corpus(3):
            l = omega_lattice(x)
            assert tables(l) == bounds_oracle(l)

    def test_ideal_lattices(self, corpus6):
        for l in corpus6:
            ideals = all_ideals(l)
            assert tables(ideals) == bounds_oracle(ideals)

    def test_dual_swaps_the_tables(self):
        for l in lattice_corpus(7):
            d = dual(l)
            assert (d.elements, d.up, d.down) == (l.elements, l.down, l.up)
            assert (d.bottom, d.join, d.top, d.meet) == (l.top, l.meet, l.bottom, l.join)

    def test_takes_no_tables(self):
        # the 2-chain a < b with a join table that says a ∨ b = a
        p = Poset(["a", "b"], [3, 2])
        with pytest.raises(TypeError):
            BoundedLattice(p, 0, ((0, 0), (0, 0)), 1, ((0, 0), (0, 1)))


class TestSetLattice:
    def test_masks_sorted_by_size_then_mask(self):
        s = SetLattice({0b11, 0b10, 0, 0b01}, bin)
        assert s.masks == (0, 0b01, 0b10, 0b11) and len(s) == 4
        assert s.elements == ("0b0", "0b1", "0b10", "0b11")
        assert canonical_key(s) == canonical_key(b2())
        assert s.index_of_mask(0b10) == 2

    def test_unknown_mask_raises_value_error(self):
        with pytest.raises(ValueError):
            SetLattice([0, 0b1], bin).index_of_mask(0b10)

    def test_subsets_that_are_not_a_lattice_are_rejected(self):
        with pytest.raises(NoJoin):
            SetLattice([0, 0b01, 0b10], bin)

    def test_is_a_bounded_lattice_itself(self):
        s = SetLattice({0b11, 0b10, 0, 0b01}, bin)
        assert isinstance(s, BoundedLattice) and not hasattr(s, "lattice")
        assert (s.bottom, s.top, s.join[1][2], s.meet[1][2]) == (0, 3, 3, 0)


def test_each_lattice_validates_its_order_once(monkeypatch):
    # a lattice shares the order of the poset it was read from
    p = build_poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    l = as_bounded_lattice(p)
    obj = lattice_to_json(l)
    calls = []
    init = Poset.__init__

    def counted(self, *args):
        calls.append(type(self))
        init(self, *args)

    monkeypatch.setattr(Poset, "__init__", counted)

    def inits(build):
        calls.clear()
        build()
        return len(calls)

    assert inits(lambda: as_bounded_lattice(p)) == 0
    assert inits(lambda: SetLattice([0, 0b01, 0b10, 0b11], bin)) == 1
    assert inits(lambda: dual(l)) == 1
    assert inits(lambda: lattice_from_json(obj)) == 1


def identity(m):
    return m


class TestInclusionIsomorphismFailure:
    # the subsets of {0, 1}, and a 4-chain of subsets of {0, 1, 2}
    B2 = (0, 0b01, 0b10, 0b11)
    CHAIN = (0, 0b001, 0b011, 0b111)
    SWAP = {0: 0, 0b01: 0b10, 0b10: 0b01, 0b11: 0b11}.__getitem__

    def test_isomorphisms_pass(self):
        assert inclusion_isomorphism_failure(self.B2, self.B2, identity, identity) is None
        # swapping the two points is an isomorphism, and its own inverse
        assert inclusion_isomorphism_failure(self.B2, self.B2, self.SWAP, self.SWAP) is None

    @pytest.mark.parametrize(
        "tgt, forward",
        [
            ((0, 0b01), lambda m: min(m, 0b01)),  # not injective
            ((0, 0b01, 0b10, 0b11, 0b100), identity),  # not onto
            ((0, 0b01, 0b10, 0b11), lambda m: m | 0b100),  # image outside
        ],
    )
    def test_not_a_bijection(self, tgt, forward):
        reason = inclusion_isomorphism_failure(self.B2, tgt, forward, identity)
        assert reason == "map is not a bijection onto the target"

    def test_wrong_backward_fails_the_inverse_roundtrip(self):
        reason = inclusion_isomorphism_failure(self.B2, self.B2, identity, self.SWAP)
        assert reason == "inverse roundtrip fails"

    def test_backward_leaving_the_source_fails_the_forward_roundtrip(self):
        # forward ∘ backward is the identity on the target, but backward
        # lands outside the source, where forward forgets the point 2
        reason = inclusion_isomorphism_failure(
            self.B2, self.B2, lambda m: m & 0b11, lambda m: m | 0b100
        )
        assert reason == "forward roundtrip fails"

    def test_preserved_but_not_reflected(self):
        # {0} and {1} are incomparable, their images {0} ⊂ {0, 1} are not
        to_chain = dict(zip(self.B2, self.CHAIN))
        back = {v: k for k, v in to_chain.items()}
        reason = inclusion_isomorphism_failure(
            self.B2, self.CHAIN, to_chain.__getitem__, back.__getitem__
        )
        assert reason == "order is not reflected"

    def test_reflected_but_not_preserved(self):
        to_b2 = dict(zip(self.CHAIN, self.B2))
        back = {v: k for k, v in to_b2.items()}
        reason = inclusion_isomorphism_failure(
            self.CHAIN, self.B2, to_b2.__getitem__, back.__getitem__
        )
        assert reason == "order is not preserved"


class TestCertificate:
    def test_truth_and_json(self):
        cert = Certificate(True, {"point_map": [1, 0], "count": 2})
        assert cert and list(cert.to_json()) == ["ok", "point_map", "count"]
        assert not Certificate(False, {"reason": "r"})
        assert Certificate(False, {"reason": "r"}).to_json() == {"ok": False, "reason": "r"}


class TestDual:
    def test_dual_two(self):
        d = dual(two())
        assert d.bottom == 1 and d.top == 0
        assert canonical_key(d) == canonical_key(two())

    def test_involution(self, corpus5):
        for l in corpus5:
            dd = dual(dual(l))
            assert dd.up == l.up and dd.join == l.join and dd.meet == l.meet

    def test_dual_n5_isomorphic_via_stated_map(self):
        l = n5()
        d = dual(l)
        stated = {"0": "1", "1": "0", "a": "a", "b": "c", "c": "b"}
        for x in l.elements:
            for y in l.elements:
                assert d.leq(d.index(stated[x]), d.index(stated[y])) == l.leq(
                    l.index(x), l.index(y)
                )

    def test_dual_swaps_distributivity_forms(self, corpus5):
        # a∨(b∧c)=(a∨b)∧(a∨c) on L is the meet-form law on the dual
        for l in corpus5:
            join_form = all(
                l.join[a][l.meet[b][c]] == l.meet[l.join[a][b]][l.join[a][c]]
                for a in range(l.n)
                for b in range(l.n)
                for c in range(l.n)
            )
            assert join_form == is_distributive(dual(l))
            assert is_distributive(l) == is_distributive(dual(l))


class TestDistributivity:
    def test_b2(self):
        assert is_distributive(b2())

    def test_m3_witness(self):
        l = m3()
        a, b, c = l.index("a"), l.index("b"), l.index("c")
        assert l.meet[a][l.join[b][c]] == a
        assert l.join[l.meet[a][b]][l.meet[a][c]] == l.index("0")
        assert not is_distributive(l)

    def test_n5(self):
        assert not is_distributive(n5())


class TestLatticeLaws:
    def test_tables_are_lattice_operations(self, corpus5):
        for l in corpus5:
            for a in range(l.n):
                for b in range(l.n):
                    assert l.join[a][b] == l.join[b][a]
                    assert l.meet[a][b] == l.meet[b][a]
                    assert l.join[a][a] == a and l.meet[a][a] == a
                    assert l.meet[a][l.join[a][b]] == a  # absorption
                    assert l.join[a][l.meet[a][b]] == a
                    for c in range(l.n):
                        assert l.join[l.join[a][b]][c] == l.join[a][l.join[b][c]]
                        assert l.meet[l.meet[a][b]][c] == l.meet[a][l.meet[b][c]]

    def test_pairs_follow_the_nested_scan(self, corpus5):
        for l in corpus5:
            pairs = [(a, b) for a in range(l.n) for b in range(a + 1, l.n)]
            assert l.join_pairs() == tuple((a, b, l.join[a][b]) for a, b in pairs)
            assert l.meet_pairs() == tuple((a, b, l.meet[a][b]) for a, b in pairs)

    def test_order_join_meet_agree(self, corpus5):
        for l in corpus5:
            for a in range(l.n):
                for b in range(l.n):
                    leq = l.leq(a, b)
                    assert leq == (l.join[a][b] == b) == (l.meet[a][b] == a)


class TestMorphisms:
    def test_jsl_two_to_two(self):
        ms = enumerate_morphisms(two(), two(), "jsl")
        assert [m for m in ms] == [(0, 0), (0, 1)]

    def test_blat_two_to_two(self):
        ms = enumerate_morphisms(two(), two(), "blat")
        assert [m for m in ms] == [(0, 1)]

    def test_blat_b2_to_two(self):
        l = b2()
        ms = enumerate_morphisms(l, two(), "blat")
        images = {tuple(m[l.index(e)] for e in ["a", "b"]) for m in ms}
        assert images == {(1, 0), (0, 1)}

    def test_agrees_with_unpruned_brute_force(self, corpus4):
        targets = list(corpus4)
        for x in space_corpus(2):
            targets += [cl_lattice(x), omega_lattice(x)]
        for src in corpus4:
            for tgt in targets:
                for kind in ("jsl", "blat"):
                    fast = [m for m in enumerate_morphisms(src, tgt, kind)]
                    slow = [
                        f
                        for f in product(range(tgt.n), repeat=src.n)
                        if is_morphism(src, tgt, f, kind)
                    ]
                    assert fast == slow

    def test_pairwise_laws_equal_the_loop_over_all_pairs(self, corpus4):
        def all_pairs(src, tgt, f, kind):
            if f[src.bottom] != tgt.bottom:
                return False
            for a in range(src.n):
                for b in range(src.n):
                    if f[src.join[a][b]] != tgt.join[f[a]][f[b]]:
                        return False
            if kind == "blat":
                if f[src.top] != tgt.top:
                    return False
                for a in range(src.n):
                    for b in range(src.n):
                        if f[src.meet[a][b]] != tgt.meet[f[a]][f[b]]:
                            return False
            return True

        for src in corpus4:
            for tgt in (two(), b2()):
                for f in product(range(tgt.n), repeat=src.n):
                    for kind in MORPHISM_KINDS:
                        assert is_morphism(src, tgt, f, kind) == all_pairs(src, tgt, f, kind)

    @pytest.mark.parametrize(
        "src, tgt, kind, smallest",
        [
            (b3(), CL_D3, "blat", 2344),
            (b3(), CL_D3, "jsl", 16976),
            (chain(4), CL_D3, "jsl", 296),
            (m3(), b2(), "jsl", 344),
            (n5(), two(), "blat", 22),
        ],
        ids=["b3-cl3-blat", "b3-cl3-jsl", "c4-cl3-jsl", "m3-b2-jsl", "n5-two-blat"],
    )
    def test_smallest_guard_is_pinned(self, src, tgt, kind, smallest):
        # the guard counts tgt.n attempts per expanded node of the search
        enumerate_morphisms(src, tgt, kind, guard=smallest)
        with pytest.raises(SizeGuardExceeded):
            enumerate_morphisms(src, tgt, kind, guard=smallest - 1)

    @pytest.mark.parametrize("guard", [True, 2.5, 0, -1])
    def test_guard_that_is_no_positive_int_is_rejected(self, guard):
        with pytest.raises(ValueError, match="size guard must be None or a positive int"):
            enumerate_morphisms(two(), two(), "jsl", guard)

    def test_kept_tables_do_not_depend_on_first_use(self, corpus4):
        # use a target as jsl first, then as blat, and the reverse, across
        # sources, against the unpruned filter
        runs = [(src, kind) for src in corpus4 for kind in ("jsl", "blat")]
        for t in corpus4:
            expected = {
                (src, kind): [
                    f
                    for f in product(range(t.n), repeat=src.n)
                    if is_morphism(src, t, f, kind)
                ]
                for src, kind in runs
            }
            for order in (runs, runs[::-1]):
                kept = as_bounded_lattice(Poset(t.elements, t.up))
                for src, kind in order:
                    # a fresh source runs a search that reads kept's tables
                    assert enumerate_morphisms(fresh(src), kept, kind) == expected[src, kind]

    def test_lexicographic_order(self, corpus4):
        for src in corpus4:
            ms = [m for m in enumerate_morphisms(src, two(), "jsl")]
            assert ms == sorted(ms)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            enumerate_morphisms(b2(), b2(), "blat", guard=2)

    @pytest.mark.parametrize("kind", MORPHISM_KINDS)
    @pytest.mark.parametrize(
        "images",
        [
            (0, 1, 1, 1, 1),
            (0, 1),
            (0, 1, 1, 5),
            (0, -1, 1, 1),
            (0, 1, 1, 1.0),
            (0, True, 1, 1),
            (0, "1", 1, 1),
        ],
    )
    def test_image_tuple_of_wrong_shape_is_rejected(self, images, kind):
        # one image per element of b2, each an int index of two()
        with pytest.raises(ValueError, match="mapping must"):
            is_morphism(b2(), two(), images, kind)

    @pytest.mark.parametrize("kind", ["bogus", "blta", "Frame", "frame"])
    def test_unknown_kind_is_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown morphism kind"):
            is_morphism(two(), two(), (0, 0), kind)
        with pytest.raises(ValueError, match="unknown morphism kind"):
            enumerate_morphisms(two(), two(), kind)


def fresh(l):
    """A copy of the lattice l that has kept no search."""
    return as_bounded_lattice(Poset(l.elements, l.up))


def set_lattices(spaces):
    """Cl(X) and Ω(X) of each space."""
    return [t for x in spaces for t in (cl_lattice(x), omega_lattice(x))]


class StandIn:
    """A target with only what the morphism search may read: any other read fails."""

    __slots__ = ("n", "bottom", "top", "up", "join", "meet")

    def __init__(self, l):
        self.n, self.bottom, self.top, self.up = l.n, l.bottom, l.top, l.up
        self.join, self.meet = l.join, l.meet


def smallest_passing_guard(src, tgt, kind):
    """The least guard under which a fresh search src -> tgt raises no SizeGuardExceeded."""
    low, high = 0, DEFAULT_SIZE_GUARD  # high passes; low is 0 or raises
    while high - low > 1:
        mid = (low + high) // 2
        try:
            enumerate_morphisms(fresh(src), tgt, kind, mid)
        except SizeGuardExceeded:
            low = mid
        else:
            high = mid
    return high


class TestKeptSearch:
    def test_a_hit_equals_a_fresh_search(self, corpus6, spaces3):
        # many of the targets share their up-sets, so most calls on kept hit
        targets = set_lattices(spaces3)
        for src in corpus6:
            kept = fresh(src)
            for tgt in targets:
                for kind in MORPHISM_KINDS:
                    expected = enumerate_morphisms(fresh(src), tgt, kind)
                    assert enumerate_morphisms(kept, tgt, kind) == expected
                    assert (kind, tgt.up, DEFAULT_SIZE_GUARD) in kept._morphisms
                    assert enumerate_morphisms(kept, tgt, kind) == expected

    def test_the_search_reads_only_what_the_key_determines(self, corpus5, spaces3):
        # the result is kept by the target's up-sets, from which BoundedLattice
        # derives everything the search reads of a target
        for src in corpus5:
            for tgt in set_lattices(spaces3):
                for kind in MORPHISM_KINDS:
                    got = enumerate_morphisms(fresh(src), StandIn(tgt), kind)
                    assert got == enumerate_morphisms(fresh(src), tgt, kind)

    def test_a_hit_keeps_the_guard_of_a_fresh_search(self, corpus5):
        for src in corpus5:
            for tgt in (two(), b2(), CL_D3):
                for kind in MORPHISM_KINDS:
                    smallest = smallest_passing_guard(src, tgt, kind)
                    expected = enumerate_morphisms(fresh(src), tgt, kind, smallest)
                    with pytest.raises(SizeGuardExceeded) as raised:
                        enumerate_morphisms(fresh(src), tgt, kind, smallest - 1)
                    kept = fresh(src)
                    # a search that raises keeps nothing
                    with pytest.raises(SizeGuardExceeded):
                        enumerate_morphisms(kept, tgt, kind, smallest - 1)
                    assert kept._morphisms == {}
                    assert enumerate_morphisms(kept, tgt, kind) == expected
                    assert enumerate_morphisms(kept, tgt, kind, smallest) == expected
                    with pytest.raises(SizeGuardExceeded) as on_hit:
                        enumerate_morphisms(kept, tgt, kind, smallest - 1)
                    assert str(on_hit.value) == str(raised.value)

    def test_a_search_runs_once_per_guard(self, corpus4, monkeypatch):
        # None and DEFAULT_SIZE_GUARD set the same bound, so they share an entry
        searches = []
        search = order.scheduled_search

        def recorder(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(order, "scheduled_search", recorder)
        guards = [None, None, DEFAULT_SIZE_GUARD, 10**6, 10**6]
        for src in corpus4:
            for kind in MORPHISM_KINDS:
                kept = fresh(src)
                expected = enumerate_morphisms(fresh(src), b2(), kind)
                runs = []
                for guard in guards:
                    before = len(searches)
                    assert enumerate_morphisms(kept, b2(), kind, guard) == expected
                    runs.append(len(searches) - before)
                assert runs == [1, 0, 0, 1, 0]

    def test_a_returned_list_is_the_callers(self, corpus4):
        for src in corpus4:
            got = enumerate_morphisms(src, b2(), "jsl")
            expected = list(got)
            got.append(got[0])
            got.reverse()
            got[0] = None
            assert enumerate_morphisms(src, b2(), "jsl") == expected
            got.clear()
            assert enumerate_morphisms(src, b2(), "jsl") == expected

    def test_the_adjunction_sweep_searches_each_target_order_once(self, monkeypatch):
        # work counter: the 2625 triples of the bench's adjunction_sweep run the
        # data search once per lattice, kind and up-sets of Cl(X) or Ω(X): the
        # 35 spaces give 12 orders of closed sets and the same 12 of opens, so
        # each lattice runs 12 jsl and 12 blat searches, 25 × 24 = 600 (2625 unkept)
        lattices, spaces = lattice_corpus(6), space_corpus(3)
        triples = [(l, x, f) for f in FLAVORS for l in lattices for x in spaces]
        searches = []
        search = order.scheduled_search

        def recorder(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(order, "scheduled_search", recorder)
        for l, x, flavor in triples:
            assert check_adjunction(l, x, flavor).bijection
        assert (len(triples), len(searches)) == (2625, 600)


def relabelled(p, perm):
    """The poset p with element i moved to position perm[i]."""
    elements = [None] * p.n
    up = [0] * p.n
    for i in range(p.n):
        elements[perm[i]] = p.elements[i]
        up[perm[i]] = sum(1 << perm[j] for j in bits(p.up[i]))
    return Poset(elements, up)


class TestIsomorphism:
    def test_finds_relabelled_copies(self):
        rng = random.Random(2026)
        for p in lattice_corpus(7):
            q = relabelled(p, rng.sample(range(p.n), p.n))
            assert canonical_key(q) == canonical_key(p)


def encoding(p, perm):
    return sum(1 << (perm[i] * p.n + perm[j]) for i in range(p.n) for j in bits(p.up[i]))


class TestCanonicalKey:
    def test_minimum_over_class_preserving_relabelings(self):
        # classes occupy consecutive blocks of positions, in class rank order
        for level in all_posets(5):
            for p in level:
                cls = _refine_classes(p, twin_pairs(p))
                block = sorted(cls)
                best = min(
                    encoding(p, perm)
                    for perm in permutations(range(p.n))
                    if all(block[perm[i]] == cls[i] for i in range(p.n))
                )
                assert canonical_key(p) == (p.n, best)

    def test_invariant_under_every_relabeling(self):
        for level in all_posets(5):
            for p in level:
                key = canonical_key(p)
                for perm in permutations(range(p.n)):
                    assert canonical_key(relabelled(p, perm)) == key

    def test_minimum_past_the_bit_table(self):
        # a bottom, four atoms and a 6-chain above their join: 11 elements, so
        # the bottom's up-set passes 2^10, and the atoms form one class
        atoms = ["a1", "a2", "a3", "a4"]
        tower = [f"c{k}" for k in range(6)]
        pairs = [("0", a) for a in atoms] + [(a, "c0") for a in atoms]
        p = build_poset(["0", *atoms, *tower], pairs + list(zip(tower, tower[1:])))
        perms = list(class_preserving(_refine_classes(p, twin_pairs(p))))
        assert len(perms) == 24
        key = canonical_key(p)
        assert key == (p.n, min(encoding(p, perm) for perm in perms))
        rng = random.Random(11)
        for _ in range(20):
            assert canonical_key(relabelled(p, rng.sample(range(p.n), p.n))) == key


def oracle_refine_classes(p):
    """Iterated invariant refinement; returns a class id per element."""
    raw = [(p.down[i].bit_count(), p.up[i].bit_count()) for i in range(p.n)]
    ranks = {s: r for r, s in enumerate(sorted(set(raw)))}
    cls = [ranks[s] for s in raw]
    while True:
        sig = []
        for i in range(p.n):
            below = tuple(sorted(cls[j] for j in bits(p.down[i])))
            above = tuple(sorted(cls[j] for j in bits(p.up[i])))
            sig.append((cls[i], below, above))
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if new == cls:
            return cls
        cls = new


def oracle_canonical_key(p):
    """The canonical key by the class-preserving search alone, refining to a fixed point."""
    cls = oracle_refine_classes(p)
    order = sorted(range(p.n), key=lambda i: (cls[i], i))
    block = transpose([1 << cls[i] for i in order], p.n)  # block[c]: the positions of class c
    distinct = [p.full & ~(1 << v) for v in range(p.n)]
    start = [block[cls[i]] for i in order]
    pairs = [
        [(k, distinct) for k in order[:s] if cls[k] == cls[i]] for s, i in enumerate(order)
    ]
    rows = [bits(u) for u in p.up]
    best = None
    for perm in scheduled_search(order, p.n, start, pairs, [[]] * p.n):
        code = 0
        for i, row in enumerate(rows):
            image = 0  # the relabelled up[i]: bit perm[j] for each j >= i
            for j in row:
                image |= 1 << perm[j]
            code |= image << (perm[i] * p.n)
        if best is None or code < best:
            best = code
    return (p.n, best)


class TestKeyAgainstTheSearch:
    # the oracles are the implementations that refined to a fixed point and
    # searched every partition, the discrete ones included

    def check(self, posets):
        discrete = 0
        for p in posets:
            cls = _refine_classes(p, twin_pairs(p))
            assert cls == oracle_refine_classes(p)
            assert canonical_key(p) == oracle_canonical_key(p)
            discrete += len(set(cls)) == p.n
        return discrete

    def test_every_poset_up_to_six(self):
        posets = [p for level in all_posets(6) for p in level]
        discrete = self.check(posets)
        assert 0 < discrete < len(posets)

    @staticmethod
    def candidates(max_n):
        """Every extension _grow(max_n, _meet_downsets) could key, the twin-skipped ones too."""
        return [
            _extend(p, d)
            for level in _grow(max_n, _meet_downsets)[:-1]
            for p in level
            for d in _meet_downsets(p)
        ]

    def test_every_candidate_keyed_by_the_lattice_corpus(self):
        # the candidates of all_lattices(8), and how many have a discrete partition
        candidates = self.candidates(7)
        assert (len(candidates), self.check(candidates)) == (695, 269)

    def test_every_candidate_of_the_nine_element_lattices(self):
        candidates = self.candidates(8)
        assert (len(candidates), self.check(candidates)) == (3556, 1423)

    def test_keys_searched_by_the_lattice_corpus(self, monkeypatch):
        # work counter: the candidates all_lattices(8) keys, and how many have a
        # discrete partition; _grow skips the down-sets that swap a twin in
        keyed = []

        def recorder(p):
            keyed.append(p)
            return canonical_key(p)

        monkeypatch.setattr(corpus, "canonical_key", recorder)
        all_lattices(8)
        discrete = sum(len(set(_refine_classes(p, twin_pairs(p)))) == p.n for p in keyed)
        assert (len(keyed), discrete) == (539, 225)

    def test_searches_run_by_the_lattice_corpus(self, monkeypatch):
        # work counter: canonical_key searches only the candidates whose classes
        # are not all twin groups, 42 of the 314 keyed ones whose partition is
        # not discrete
        searches = []
        search = order.scheduled_search

        def recorder(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(order, "scheduled_search", recorder)
        all_lattices(8)
        assert len(searches) == 42

    def test_refinements_run_by_the_lattice_corpus(self, monkeypatch):
        # work counter: of the candidates all_lattices(8) keys, only those whose
        # start classes are not the twin groups read the up- and down-set bits
        # and run a refinement round
        keyed = []

        def recorder(p):
            keyed.append(p)
            return canonical_key(p)

        monkeypatch.setattr(corpus, "canonical_key", recorder)
        all_lattices(8)
        read = []
        monkeypatch.setattr(order, "bits", lambda mask: read.append(mask) or bits(mask))
        refined = 0
        for p in keyed:
            twins = twin_pairs(p)
            count = len(read)
            _refine_classes(p, twins)
            refined += len(read) > count
        assert (len(keyed), refined) == (539, 145)

    def test_relabellings_encoded_by_the_lattice_corpus(self, monkeypatch):
        # work counter: one code per discrete partition and one per twin-sorted
        # relabelling of the others
        calls = []
        encode = order._encode

        def recorder(rows, perm, n):
            calls.append(perm)
            return encode(rows, perm, n)

        monkeypatch.setattr(order, "_encode", recorder)
        all_lattices(8)
        assert len(calls) == 749


class TestTwins:
    def test_twin_pairs_equal_their_definition(self):
        found = 0
        for level in all_posets(6):
            for p in level:
                strict = [(p.up[i] & ~(1 << i), p.down[i] & ~(1 << i)) for i in range(p.n)]
                expected = []
                for b in range(p.n):
                    before = [a for a in range(b) if strict[a] == strict[b]]
                    if before:
                        expected.append((before[-1], b))
                assert twin_pairs(p) == expected
                found += len(expected)
        assert found > 0

    def test_swapping_twins_is_an_automorphism(self):
        for level in all_posets(6):
            for p in level:
                for a, b in twin_pairs(p):
                    perm = list(range(p.n))
                    perm[a], perm[b] = b, a
                    assert relabelled(p, perm).up == p.up


def class_preserving(cls):
    """Every perm sending each class onto its block of positions, classes in rank order."""
    block = sorted(cls)
    ranks = sorted(set(cls))
    members = [[i for i, c in enumerate(cls) if c == r] for r in ranks]
    slots = [[s for s, c in enumerate(block) if c == r] for r in ranks]
    for images in product(*(permutations(s) for s in slots)):
        perm = [0] * len(cls)
        for ms, image in zip(members, images):
            for i, s in zip(ms, image):
                perm[i] = s
        yield perm


def reference_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestBitKernels:
    def test_bits_equals_a_reference_loop(self):
        rng = random.Random(2026)
        masks = [*range(1 << 12), *(rng.getrandbits(rng.randint(1, 150)) for _ in range(2000))]
        for mask in masks:
            got = bits(mask)
            assert list(got) == reference_bits(mask)
            assert list(got) == reference_bits(mask)  # a second pass sees the same

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 10), -(1 << 64)])
    def test_bits_rejects_a_negative_mask(self, mask):
        with pytest.raises(ValueError, match="negative mask"):
            bits(mask)

    def test_transpose_equals_its_definition(self):
        rng = random.Random(7)
        for _ in range(300):
            height, width = rng.randint(0, 40), rng.randint(0, 40)
            rows = [rng.getrandbits(width) for _ in range(height)]
            out = transpose(rows, width)
            assert len(out) == width
            for j in range(width):
                assert out[j] == sum(1 << i for i in range(height) if rows[i] >> j & 1)

    def test_image_and_preimage_equal_their_set_definitions(self):
        rng = random.Random(23)
        for _ in range(500):
            n, m = rng.randint(0, 12), rng.randint(1, 12)
            f = tuple(rng.randrange(m) for _ in range(n))
            s = rng.getrandbits(n)
            full = ((1 << n) - 1, (1 << m) - 1)
            for s, t in [(0, 0), full, (s, rng.getrandbits(m)), (s, image(f, s))]:
                img, pre = image(f, s), preimage(f, t)
                assert set(bits(img)) == {f[a] for a in bits(s)}
                assert set(bits(pre)) == {i for i in range(n) if f[i] in bits(t)}
                # the Galois connection: image(f, S) ⊆ T iff S ⊆ preimage(f, T)
                assert (not img & ~t) == (not s & ~pre)

    def test_down_sets_equal_the_quadratic_definition(self):
        for level in all_posets(5):
            for p in level:
                for perm in permutations(range(p.n)):
                    q = relabelled(p, perm)
                    n, up = q.n, q.up
                    assert q.down == tuple(
                        sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)
                    )


class TestScheduledSearch:
    def test_first_result_expands_one_path(self):
        # M8: a bottom, eight atoms and a top; its 8! = 40,320 automorphisms
        # take 109,602 expanded nodes to list
        atoms = [f"a{i}" for i in range(1, 9)]
        covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
        m8 = as_bounded_lattice(build_poset(["0", *atoms, "1"], covers))
        n = m8.n
        atom_mask = m8.full & ~(1 << m8.bottom | 1 << m8.top)
        start = [1 << m8.bottom] + [atom_mask] * 8 + [1 << m8.top]
        distinct = [m8.full & ~(1 << v) for v in range(n)]
        pairs = [[(k, distinct) for k in range(s)] for s in range(n)]

        def search(bound):
            return scheduled_search(range(n), n, start, pairs, [[]] * n, bound)

        # the first result expands the n nodes on its path, n attempts each
        assert next(search(n * n)) == tuple(range(n))
        with pytest.raises(SizeGuardExceeded):
            list(search(n * n))


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []
