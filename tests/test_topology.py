"""Finite spaces, the spectra, specialization order, and continuity."""

import random
from functools import reduce
from itertools import product
from operator import and_

import pytest

from conftest import discrete_space
from lattik.corpus import b2, chain, lattice_corpus, m3, n5, space_corpus
from lattik.errors import InvalidDatum, NotT0, SizeGuardExceeded
from lattik.ideals import all_ideals, ideal_masks
from lattik.order import as_bounded_lattice, bits, canonical_key, dual, preimage, two
from lattik.topology import (
    FLAVORS,
    FiniteSpace,
    Spectrum,
    cl_lattice,
    enumerate_continuous,
    hochster_dual,
    is_continuous,
    is_homeomorphism,
    lane_bytes,
    omega_lattice,
    pull_back_opens,
    read_lanes,
    sp_space,
    space_from_closed_basis,
    space_from_open_basis,
    spc_space,
    specialization_order,
    spectrum_for,
)


def sierpinski():
    # {p} closed, {q} open
    return space_from_closed_basis(["p", "q"], [0b01])


def literal_closed_basis_space(points, basis):
    """Closed sets as the intersections of the finite unions of the basis sets."""
    full = (1 << len(points)) - 1
    unions = {0}
    for b in basis:
        unions |= {b | m for m in unions}
    closed = {full}
    for m in unions:
        closed |= {m & c for c in closed}
    return FiniteSpace(points, {full & ~c for c in closed})


def literal_open_basis_space(points, basis):
    """Opens as the unions of the finite intersections of the basis sets."""
    full = (1 << len(points)) - 1
    inters = {full}
    for b in basis:
        inters |= {b & m for m in inters}
    opens = {0}
    for m in inters:
        opens |= {m | u for u in opens}
    return FiniteSpace(points, opens)


def literal_closure(x, mask):
    """The smallest closed superset of mask: the intersection of the closed sets above it."""
    return reduce(and_, (c for c in x.closed_sets() if not mask & ~c), x.full)


def literal_is_continuous(f, x, y):
    """The preimage of every open of y, pulled back one by one, is open in x."""
    return all(preimage(f, u) in x.openset for u in y.opens)


class TestSpaceConstruction:
    def test_one_point_from_empty_closed_basis(self):
        x = space_from_closed_basis(["p"], [0])
        assert x.opens == (0, 1)

    def test_sierpinski(self):
        x = sierpinski()
        assert [x.subset_names(u) for u in x.opens] == [[], ["q"], ["p", "q"]]

    def test_three_point_closed_basis(self):
        x = space_from_closed_basis(["p", "q", "r"], [0b001, 0b010])
        closed = x.closed_sets()
        assert [x.subset_names(c) for c in closed] == [
            [],
            ["p"],
            ["q"],
            ["p", "q"],
            ["p", "q", "r"],
        ]
        assert len(x.opens) == 5

    def test_open_basis_mirrors(self):
        x = space_from_open_basis(["p", "q"], [0b10])
        assert [x.subset_names(u) for u in x.opens] == [[], ["q"], ["p", "q"]]
        y = space_from_open_basis(["p", "q", "r"], [0b001, 0b010])
        assert len(y.opens) == 5

    def test_every_open_is_a_union_of_basis_intersections(self):
        basis = [0b011, 0b110]
        x = space_from_open_basis(["p", "q", "r"], basis)
        inters = {0b111}
        for b in basis:
            inters |= {b & m for m in inters}
        for u in x.opens:
            cover = 0
            for m in inters:
                if not m & ~u:
                    cover |= m
            assert cover == u

    def test_every_closed_is_intersection_of_basis_unions(self):
        basis = [0b001, 0b010]
        x = space_from_closed_basis(["p", "q", "r"], basis)
        unions = {0}
        for b in basis:
            unions |= {b | m for m in unions}
        for c in x.closed_sets():
            inter = x.full
            for m in unions:
                if not c & ~m:
                    inter &= m
            assert inter == c

    def test_closed_basis_matches_the_literal_closure(self):
        families = 0
        for n in range(4):
            points = "pqr"[:n]
            for chosen in product((False, True), repeat=1 << n):
                basis = [m for m, keep in enumerate(chosen) if keep]
                got = space_from_closed_basis(points, basis)
                assert got.opens == literal_closed_basis_space(points, basis).opens
                families += 1
        assert families == 278

    def assert_matches_the_literal_open_basis(self, points, basis):
        got = space_from_open_basis(points, basis)
        expected = literal_open_basis_space(points, basis)
        assert got.opens == expected.opens
        assert got.minimal_opens == expected.minimal_opens

    def test_open_basis_matches_the_literal_closure(self):
        rng = random.Random(37)
        for _ in range(500):
            n = rng.randint(0, 6)
            basis = [rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
            self.assert_matches_the_literal_open_basis([f"p{i}" for i in range(n)], basis)

    def test_every_supp_basis_matches_the_literal_closure(self):
        spectra = 0
        for l in lattice_corpus(7):
            for flavor in FLAVORS:
                s = spectrum_for(l, flavor)
                self.assert_matches_the_literal_open_basis(s.space.points, s.basis)
                spectra += 1
        assert spectra == 78 * 3

    @pytest.mark.parametrize("build", [space_from_open_basis, space_from_closed_basis])
    def test_basis_rejects_unknown_point(self, build):
        with pytest.raises(ValueError, match="basis set references unknown point"):
            build(["p"], [0b10])

    def test_rejects_non_closed_family(self):
        with pytest.raises(ValueError):
            FiniteSpace(["p", "q", "r"], [0, 0b001, 0b010, 0b111])

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="point labels must be distinct"):
            FiniteSpace(["p", "p"], [0, 0b11])

    def test_rejects_an_open_off_the_points(self):
        with pytest.raises(ValueError, match="open set references unknown point"):
            FiniteSpace(["p"], [0, 0b01, 0b11])

    def test_a_set_off_the_points_is_named_before_closure_is_checked(self):
        # every family on 1 or 2 points that holds ∅ and X and a set off the
        # points, of at most n + 1 bits; most, like {0, 0b1, 0b10} on one
        # point, are not closed under union either, and the stray bit is named
        families = 0
        for n in (1, 2):
            points, full = [f"p{i}" for i in range(n)], (1 << n) - 1
            others = [m for m in range(1, 2 << n) if m != full]
            for chosen in product((False, True), repeat=len(others)):
                family = {0, full}.union(m for m, c in zip(others, chosen) if c)
                if max(family) > full:
                    families += 1
                    with pytest.raises(ValueError, match="^open set references unknown point$"):
                        FiniteSpace(points, family)
        assert families == 63

    def test_accepts_exactly_the_families_closed_under_union_and_intersection(self):
        # the check reads the minimal opens; here every family of subsets of
        # n <= 3 points that holds ∅ and X is tested pair by pair instead
        families = accepted = 0
        for n in range(4):
            points, full = [f"p{i}" for i in range(n)], (1 << n) - 1
            inner = range(1, full)  # the subsets but ∅ and X
            for chosen in product((False, True), repeat=len(inner)):
                family = {0, full}.union(m for m, c in zip(inner, chosen) if c)
                closed = all(a | b in family and a & b in family for a in family for b in family)
                try:
                    FiniteSpace(points, family)
                except ValueError as e:
                    assert not closed and str(e) == "opens are not closed under union/intersection"
                else:
                    assert closed
                    accepted += 1
                families += 1
        assert families == 1 + 1 + 4 + 64 and accepted == len(space_corpus(3))

    def test_minimal_opens_are_the_intersections_of_the_opens_around_each_point(self):
        for x in space_corpus(4):
            assert x.minimal_opens == tuple(
                reduce(and_, (u for u in x.opens if u >> i & 1), x.full) for i in range(x.n)
            )

    def test_membership_sets_match_the_families(self, spaces3):
        for x in spaces3:
            assert x.openset == set(x.opens)
            assert all(x.full & ~c in x.openset for c in x.closed_sets())

    def test_empty_space(self):
        x = FiniteSpace([], [0])
        assert x.opens == (0,) and x.n == 0


class TestSetLattices:
    def test_sierpinski_omega_is_c3(self):
        assert canonical_key(omega_lattice(sierpinski())) == canonical_key(chain(3))

    def test_discrete_two_omega_is_b2(self):
        assert canonical_key(omega_lattice(discrete_space(["p", "q"]))) == canonical_key(b2())

    def test_cl_is_dual_of_omega_by_complement(self, spaces3):
        for x in spaces3:
            cl = cl_lattice(x)
            om = omega_lattice(x)
            d = dual(om)
            # complementation matches the two carriers element-wise
            comp = {x.full & ~m for m in om.masks}
            assert comp == set(cl.masks)
            assert canonical_key(cl) == canonical_key(d)

    def test_set_lattices_are_kept_on_the_space(self):
        x = sierpinski()
        assert cl_lattice(x) is cl_lattice(x)
        assert omega_lattice(x) is omega_lattice(x)


class TestSpSpace:
    def test_sp_two(self):
        spec = sp_space(two())
        assert spec.space.points == ("{0}", "{0,1}")
        one = spec.lattice.index("1")
        assert spec.space.subset_names(spec.supp.sigma[one]) == ["{0}"]
        assert spec.space.closed_sets() == (0, 0b01, 0b11)

    def test_sp_c3_supp(self):
        l = chain(3)
        spec = sp_space(l)
        supp = spec.supp.sigma
        # brute membership check: supp(a) = ideals not containing a
        for a in range(l.n):
            expected = 0
            for p, members in enumerate(spec.point_ideals):
                if not members >> a & 1:
                    expected |= 1 << p
            assert supp[a] == expected
        assert spec.space.subset_names(supp[l.index("m1")]) == ["{0}"]
        assert bin(supp[l.index("1")]).count("1") == 2

    def test_supp_of_bottom_is_empty(self, corpus5):
        for l in corpus5:
            spec = sp_space(l)
            assert spec.supp.sigma[l.bottom] == 0

    def test_supp_turns_joins_into_unions(self, corpus5):
        for l in corpus5:
            spec = sp_space(l)
            supp = spec.supp.sigma
            for a in range(l.n):
                for b in range(l.n):
                    assert supp[l.join[a][b]] == supp[a] | supp[b]


class TestSpcSpace:
    def test_spc_b2(self):
        l = b2()
        spec = spc_space(l)
        assert set(spec.space.points) == {"{0,a}", "{0,b}"}
        supp = spec.supp.sigma
        pa = spec.space.points.index("{0,a}")
        pb = spec.space.points.index("{0,b}")
        assert supp[l.index("a")] == 1 << pb
        assert supp[l.index("b")] == 1 << pa
        assert supp[l.index("1")] == (1 << pa) | (1 << pb)

    def test_spc_m3_is_empty(self):
        spec = spc_space(m3())
        assert spec.space.n == 0 and spec.space.opens == (0,)

    def test_spc_n5_does_not_separate(self):
        l = n5()
        spec = spc_space(l)
        supp = spec.supp.sigma
        assert supp[l.index("b")] == supp[l.index("c")]
        assert supp[l.index("b")] == 1 << spec.space.points.index("{0,a}")

    def test_meet_axiom(self, corpus5):
        for l in corpus5:
            spec = spc_space(l)
            supp = spec.supp.sigma
            for a in range(l.n):
                for b in range(l.n):
                    assert supp[l.meet[a][b]] == supp[a] & supp[b]
            assert supp[l.top] == spec.space.full

    def test_point_of_ideal(self, corpus5):
        for l in corpus5:
            spec = spc_space(l)
            for p, members in enumerate(spec.point_ideals):
                assert spec.point_of_ideal(members) == p
            # a prime ideal is proper, so the full mask is never a point
            with pytest.raises(ValueError):
                spec.point_of_ideal(l.full)

    def test_all_ideals_fail_the_lattice_axioms(self):
        # B2 itself is an ideal that no supp(a) leaves out, so supp(1) misses it
        with pytest.raises(InvalidDatum, match="axiom full"):
            Spectrum(b2(), ideal_masks(b2()), "lattice-closed")

    def test_takes_no_supp(self):
        # a supp datum and point ideals in another order, which nothing would check
        s = spc_space(b2())
        with pytest.raises(TypeError):
            Spectrum(s.supp, reversed(s.point_ideals))

    @pytest.mark.parametrize("mask", [1 << 4, -1, "x", True])
    def test_point_ideal_off_the_carrier(self, mask):
        # rejected, naming the mask, before any label is built
        with pytest.raises(ValueError, match=f"point ideal {mask!r} is not a mask"):
            Spectrum(b2(), [mask], "lattice-closed")


class TestHochsterDual:
    def test_dual_of_c3_is_sierpinski(self):
        spec = hochster_dual(chain(3))
        x = sierpinski()
        # {0} is the open point of the dual, as q is of the Sierpinski space
        names = {"{0}": "q", "{0,m1}": "p"}
        f = [x.points.index(names[p]) for p in spec.space.points]
        assert is_homeomorphism(f, spec.space, x)

    def test_dual_of_two_is_point(self):
        spec = hochster_dual(two())
        assert spec.space.n == 1

    def test_dual_of_b2_is_discrete(self):
        spec = hochster_dual(b2())
        assert len(spec.space.opens) == 4

    def test_homeomorphic_to_spc_of_dual_via_complement(self, corpus6):
        for l in corpus6:
            hd = hochster_dual(l)
            sd = spc_space(dual(l))
            assert hd.space.n == sd.space.n
            if hd.space.n == 0:
                continue
            mapping = tuple(
                sd.point_of_ideal(l.full & ~m) for m in hd.point_ideals
            )
            inv = [0] * len(mapping)
            for i, v in enumerate(mapping):
                inv[v] = i
            assert is_continuous(mapping, hd.space, sd.space)
            assert is_continuous(tuple(inv), sd.space, hd.space)


class TestSpecializationOrder:
    def test_sierpinski(self):
        p = specialization_order(sierpinski())
        assert p.leq(p.index("p"), p.index("q"))
        assert not p.leq(p.index("q"), p.index("p"))

    def test_discrete(self):
        p = specialization_order(discrete_space(["p", "q"]))
        assert not p.leq(0, 1) and not p.leq(1, 0)

    def test_not_t0(self):
        indiscrete = FiniteSpace(["p", "q"], [0, 0b11])
        with pytest.raises(NotT0):
            specialization_order(indiscrete)

    def test_agrees_with_closures(self):
        # i <= j iff i lies in cl{j}; T0 iff no two points share their closures
        for x in space_corpus(4):
            up = [
                sum(1 << j for j in range(x.n) if literal_closure(x, 1 << j) >> i & 1)
                for i in range(x.n)
            ]
            t0 = all(i == j or not up[j] >> i & 1 for i in range(x.n) for j in bits(up[i]))
            if t0:
                assert specialization_order(x).up == tuple(up)
            else:
                with pytest.raises(NotT0):
                    specialization_order(x)

    def test_sp_specialization_is_ideal_inclusion(self, corpus5):
        for l in corpus5:
            spec = sp_space(l)
            order = specialization_order(spec.space)
            for i, mi in enumerate(spec.point_ideals):
                for j, mj in enumerate(spec.point_ideals):
                    assert order.leq(i, j) == (mi & ~mj == 0)

    def test_recovering_base_through_compact_elements(self, corpus5):
        # ideal inclusion order -> Id(L), whose elements are all compact, recovers L
        for l in corpus5:
            spec = sp_space(l)
            order = specialization_order(spec.space)
            assert canonical_key(all_ideals(as_bounded_lattice(order))) == canonical_key(l)


class TestContinuity:
    def test_constant_maps(self, spaces3):
        spaces = [x for x in spaces3 if x.n]
        for x in spaces[:8]:
            for y in spaces[:8]:
                for q in range(y.n):
                    assert is_continuous((q,) * x.n, x, y)

    def test_identity(self, spaces3):
        for x in spaces3:
            assert is_continuous(tuple(range(x.n)), x, x)

    def test_sierpinski_to_sp_two(self):
        spec = sp_space(two())
        maps = enumerate_continuous(sierpinski(), spec.space)
        assert len(maps) == 3  # of the 4 point maps exactly one is discontinuous

    def test_enumeration_is_exhaustive_filter(self, spaces3):
        pairs = [(sierpinski(), discrete_space(["u", "v"]))]
        pairs += [(x, y) for x in spaces3 for y in spaces3]
        for x, y in pairs:
            expected = [
                f
                for f in product(range(y.n), repeat=x.n)
                if is_continuous(f, x, y)
            ]
            assert enumerate_continuous(x, y) == expected

    def test_matches_the_literal_preimage_loop_on_every_map(self, spaces3):
        # is_continuous pulls back the minimal opens only; the loop pulls back every open
        maps = continuous = 0
        for x in spaces3:
            for y in spaces3:
                for f in product(range(y.n), repeat=x.n):
                    got = is_continuous(f, x, y)
                    assert got == literal_is_continuous(f, x, y)
                    maps += 1
                    continuous += got
        assert maps == 24907 and 0 < continuous < maps

    @pytest.mark.parametrize("f", [(0, 5), (0, 1), (0, -1), (0,), (0, 0, 0)])
    def test_map_off_the_points_is_rejected(self, f):
        with pytest.raises(ValueError, match="map must"):
            is_continuous(f, discrete_space(["p", "q"]), discrete_space(["u"]))

    @pytest.mark.parametrize("value", [True, 1.0, "a", None])
    def test_point_that_is_no_int_is_rejected(self, value):
        # True read as point 1 of d2, and the others raised TypeError
        d2 = discrete_space(["p", "q"])
        message = "^map must send every point to a point of the target$"
        for check in (is_continuous, is_homeomorphism):
            with pytest.raises(ValueError, match=message):
                check((value, 0), d2, d2)
        with pytest.raises(ValueError, match=message):
            pull_back_opens([(0, 1), (value, 0)], d2, d2, d2.opens)

    def test_pull_back_opens_reads_each_lane_as_one_map(self):
        # lane k of each pull-back is the preimage along map k, and lane k of
        # fibre v the preimage of {v}: lanes of 1, 2 and 3 bytes, no maps, one
        # map, and more than the 64 lanes transposed at a time
        def chain_space(n):
            return space_from_closed_basis(range(n), [(1 << i) - 1 for i in range(n + 1)])

        y = discrete_space(["u", "v", "w"])
        rng = random.Random(1)
        for x in (FiniteSpace([], [0]), sierpinski(), chain_space(9), chain_space(17)):
            drawn = [tuple(rng.randrange(y.n) for _ in range(x.n)) for _ in range(150)]
            for maps in ([], [(0,) * x.n], drawn):
                fibres, pulled = pull_back_opens(maps, x, y, y.opens)
                size = lane_bytes(x.n)
                assert size == 1 + (x.n > 8) + (x.n > 16)
                for u, p in zip(y.opens, pulled):
                    assert list(read_lanes(p, len(maps), size)) == [preimage(f, u) for f in maps]
                for v, a in enumerate(fibres):
                    assert list(read_lanes(a, len(maps), size)) == [
                        preimage(f, 1 << v) for f in maps
                    ]

    def test_guard_bounds_candidate_maps_only(self):
        # the search expands 1 + 3 + 9 nodes of 3 values each, 39 > 27 attempts,
        # yet only the 27 candidate maps count against the guard
        x = y = discrete_space(["a", "b", "c"])
        assert len(enumerate_continuous(x, y, guard=27)) == 27
        with pytest.raises(SizeGuardExceeded):
            enumerate_continuous(x, y, guard=26)

    @pytest.mark.parametrize("guard", [True, 2.5, 0, -1])
    def test_guard_that_is_no_positive_int_is_rejected(self, guard):
        x = discrete_space(["a", "b"])
        with pytest.raises(ValueError, match="size guard must be None or a positive int"):
            enumerate_continuous(x, x, guard)


class TestHomeomorphism:
    def test_is_homeomorphism(self):
        d2 = discrete_space(["p", "q"])
        assert is_homeomorphism((1, 0), d2, d2)
        assert is_homeomorphism((0, 1), sierpinski(), sierpinski())
        # not a bijection: constant, too short, or onto a larger space
        assert not is_homeomorphism((0, 0), d2, d2)
        assert not is_homeomorphism((0,), d2, d2)
        assert not is_homeomorphism((0, 1), d2, discrete_space(["p", "q", "r"]))
        # continuous from the discrete space, but its inverse is not
        assert is_continuous((0, 1), d2, sierpinski())
        assert not is_homeomorphism((0, 1), d2, sierpinski())
