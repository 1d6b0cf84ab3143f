"""Ideals, prime ideals, Id(L), and the morphism/ideal dictionary."""

from itertools import permutations

import pytest

from lattik.corpus import all_posets, b2, chain, m3, n5
from lattik.errors import KindMismatch, NoBottom, NoJoin, UnknownName
from lattik.ideals import (
    all_ideals,
    ideal_masks,
    ideal_of_morphism,
    is_ideal,
    is_prime,
    join_irreducibles,
    morphism_of_ideal,
    prime_masks,
)
from lattik.order import (
    Poset,
    as_bounded_lattice,
    bits,
    canonical_key,
    dual,
    enumerate_morphisms,
    is_distributive,
    is_morphism,
    set_label,
    two,
)


def subset_filter_ideals(l):
    """Independent oracle: filter every subset by the ideal axioms directly."""
    out = []
    for mask in range(1 << l.n):
        members = [i for i in range(l.n) if mask >> i & 1]
        if l.bottom not in members:
            continue
        if any(
            l.leq(a, b) and mask >> a & 1 == 0
            for b in members
            for a in range(l.n)
        ):
            continue
        if any(mask >> l.join[a][b] & 1 == 0 for a in members for b in members):
            continue
        out.append(mask)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


class TestAllIdeals:
    def test_id_two_is_two(self):
        idl = all_ideals(two())
        assert [two().subset_names(m) for m in idl.masks] == [["0"], ["0", "1"]]
        assert canonical_key(idl) == canonical_key(two())

    def test_id_c3_is_c3(self):
        idl = all_ideals(chain(3))
        assert len(idl) == 3
        assert canonical_key(idl) == canonical_key(chain(3))

    def test_id_m3_is_m3(self):
        l = m3()
        idl = all_ideals(l)
        assert len(idl) == 5
        members = set(idl.elements)
        assert members == {"{0}", "{0,a}", "{0,b}", "{0,c}", "{0,a,b,c,1}"}
        assert canonical_key(idl) == canonical_key(l)

    def test_matches_subset_oracle(self, corpus5):
        for l in corpus5:
            idl = all_ideals(l)
            assert list(idl.masks) == subset_filter_ideals(l)

    def test_matches_subset_oracle_on_join_semilattices(self):
        # tensor_from_json hands ideal_masks a lattice whose elements may be
        # declared in any order
        checked = 0
        for level in all_posets(5):
            for p in level:
                for perm in permutations(range(p.n)):
                    up = [0] * p.n
                    for i in range(p.n):
                        up[perm[i]] = sum(1 << perm[j] for j in bits(p.up[i]))
                    try:
                        l = as_bounded_lattice(Poset(p.elements, up))
                    except (NoBottom, NoJoin):
                        break
                    assert ideal_masks(l) == subset_filter_ideals(l)
                    checked += 1
        # every labelling of the 1, 1, 1, 2, 5 lattices with 1..5 elements
        assert checked == 1 + 2 + 6 + 2 * 24 + 5 * 120

    def test_every_ideal_is_principal(self, corpus6):
        for l in corpus6:
            idl = all_ideals(l)
            assert len(idl) == l.n
            for mask in idl.masks:
                top = l.join_of_mask(mask)
                assert mask == l.down[top]

    def test_principal_map_is_isomorphism(self, corpus6):
        for l in corpus6:
            idl = all_ideals(l)
            pos = {mask: k for k, mask in enumerate(idl.masks)}
            witness = [pos[l.down[a]] for a in range(l.n)]
            for a in range(l.n):
                for b in range(l.n):
                    assert l.leq(a, b) == idl.leq(witness[a], witness[b])


class TestPrincipalIdeal:
    def test_b2(self):
        l = b2()
        assert l.subset_names(l.down[l.index("a")]) == ["0", "a"]

    def test_bottom_and_top(self):
        l = n5()
        assert l.subset_names(l.down[l.index("0")]) == ["0"]
        assert set(l.subset_names(l.down[l.index("1")])) == set(l.elements)

    def test_unknown(self):
        with pytest.raises(UnknownName):
            b2().down[b2().index("zz")]


class TestPrimeIdeals:
    def brute_primes(self, l):
        """Independent primality filter over the subset-filtered ideals."""
        out = []
        for mask in subset_filter_ideals(l):
            if mask == l.full:
                continue
            prime = all(
                mask >> l.meet[a][b] & 1 == 0
                for a in range(l.n)
                if not mask >> a & 1
                for b in range(l.n)
                if not mask >> b & 1
            )
            if prime:
                out.append(mask)
        return out

    def test_two(self):
        assert [two().subset_names(m) for m in prime_masks(two())] == [["0"]]

    def test_m3_empty_spectrum(self):
        assert prime_masks(m3()) == []

    def test_n5(self):
        assert [set_label(n5().elements, m) for m in prime_masks(n5())] == ["{0,a}", "{0,b,c}"]

    def test_matches_brute_force(self, corpus5):
        for l in corpus5:
            assert prime_masks(l) == self.brute_primes(l)

    def test_is_prime_is_the_brute_meet_scan_on_every_mask(self, corpus5):
        # a mask that is no ideal is not prime, however its complement meets
        checked = 0
        for l in corpus5 + [dual(l) for l in corpus5]:
            primes = set(self.brute_primes(l))
            for mask in range(1 << l.n):
                assert is_prime(l, mask) == (mask in primes), (l.elements, mask)
                checked += 1
        assert checked == 2 * sum(1 << l.n for l in corpus5)

    @pytest.mark.parametrize("mask", [0b10011, 0b10000, -2, -1, 0, 0b0111])
    def test_mask_that_is_no_ideal_is_not_prime(self, mask):
        # off the carrier of B2 (0b10011 is {0, a} plus a fifth bit), negative,
        # without the bottom, or {0, a, b}: a down-set whose complement is ↑1,
        # without a ∨ b
        assert not is_prime(b2(), mask)

    def test_primes_of_dual_are_complements(self, corpus5):
        for l in corpus5:
            d = dual(l)
            primes_l = set(prime_masks(l))
            primes_d = set(prime_masks(d))
            assert primes_d == {l.full & ~m for m in primes_l}


class TestMorphismIdealDictionary:
    def test_identity_blat_gives_zero_ideal(self):
        phi = enumerate_morphisms(two(), two(), "blat")[0]
        assert two().subset_names(ideal_of_morphism(two(), phi, "blat")) == ["0"]

    def test_constant_bottom_jsl_gives_whole_lattice(self):
        constant = enumerate_morphisms(two(), two(), "jsl")[0]
        assert constant == (0, 0)
        assert two().subset_names(ideal_of_morphism(two(), constant)) == ["0", "1"]

    def test_b2_preimage(self):
        l = b2()
        phi = next(
            m
            for m in enumerate_morphisms(l, two(), "blat")
            if m[l.index("a")] == 1
        )
        assert set_label(l.elements, ideal_of_morphism(l, phi, "blat")) == "{0,b}"

    def test_roundtrips(self, corpus5):
        for l in corpus5:
            for kind in ("jsl", "blat"):
                for phi in enumerate_morphisms(l, two(), kind):
                    mask = ideal_of_morphism(l, phi, kind)
                    back = morphism_of_ideal(l, mask, kind)
                    assert back == phi
            for p in prime_masks(l):
                phi = morphism_of_ideal(l, p, "blat")
                assert ideal_of_morphism(l, phi, "blat") == p

    def test_every_ideal_and_prime_roundtrips(self, corpus6):
        for l in corpus6:
            for kind, masks in (("jsl", ideal_masks(l)), ("blat", prime_masks(l))):
                for m in masks:
                    assert ideal_of_morphism(l, morphism_of_ideal(l, m, kind), kind) == m

    def test_non_ideal_mask_is_rejected(self):
        l = b2()
        with pytest.raises(ValueError, match="is not an ideal"):
            morphism_of_ideal(l, 1 << l.index("a"))

    @pytest.mark.parametrize("mask", [0b10001, -1])
    def test_mask_off_the_carrier_is_rejected(self, mask):
        # 0b10001 holds the bottom and a bit past the four elements of B2
        with pytest.raises(ValueError, match="is not an ideal"):
            morphism_of_ideal(b2(), mask)

    def test_non_prime_ideal_is_rejected_as_blat(self):
        l = m3()
        bottom = l.down[l.bottom]
        assert morphism_of_ideal(l, bottom) == tuple(int(a != l.bottom) for a in range(l.n))
        with pytest.raises(KindMismatch, match="not prime"):
            morphism_of_ideal(l, bottom, "blat")

    def test_counts_match_blat_homs(self, corpus6):
        for l in corpus6:
            assert len(prime_masks(l)) == len(enumerate_morphisms(l, two(), "blat"))

    def test_kind_mismatch(self):
        l = m3()
        whole = all_ideals(l).masks[-1]
        assert whole == l.full
        with pytest.raises(KindMismatch):
            morphism_of_ideal(l, whole, "blat")

    def test_wrong_length_is_rejected(self):
        with pytest.raises(KindMismatch):
            ideal_of_morphism(b2(), (0, 1, 1))

    def test_value_outside_two_is_rejected(self):
        # (0, 2) is a jsl morphism of two() into the 3-chain, not into two()
        with pytest.raises(KindMismatch):
            ideal_of_morphism(two(), (0, 2))

    @pytest.mark.parametrize("phi", [(False, True), (0, 1.0), (0, "1")])
    def test_value_that_is_no_int_is_rejected(self, phi):
        with pytest.raises(KindMismatch):
            ideal_of_morphism(two(), phi)

    def test_jsl_morphism_breaking_meets_is_rejected_as_blat(self):
        l = b2()
        phi = tuple(0 if e == "0" else 1 for e in l.elements)
        assert is_morphism(l, two(), phi, "jsl")
        assert not is_morphism(l, two(), phi, "blat")
        assert l.subset_names(ideal_of_morphism(l, phi)) == ["0"]
        with pytest.raises(KindMismatch):
            ideal_of_morphism(l, phi, "blat")

    def test_prime_iff_characteristic_map_preserves_meets(self, corpus5):
        for l in corpus5:
            tgt = two()
            for mask in all_ideals(l).masks:
                mapping = tuple(
                    0 if mask >> i & 1 else 1 for i in range(l.n)
                )
                blat_ok = is_morphism(l, tgt, mapping, "blat")
                assert blat_ok == is_prime(l, mask)


class TestBirkhoffOracle:
    def brute_join_irreducibles(self, l):
        """Element-by-element check that no join of two strictly smaller elements hits it."""
        out = []
        for a in range(l.n):
            if a == l.bottom:
                continue
            reducible = any(
                l.join[x][y] == a
                for x in range(l.n)
                for y in range(l.n)
                if x != a and y != a
            )
            if not reducible:
                out.append(a)
        return out

    def test_oracle_definitions_agree(self, corpus6):
        for l in corpus6:
            assert join_irreducibles(l) == self.brute_join_irreducibles(l)

    def test_birkhoff_count_on_distributive(self, corpus6):
        for l in corpus6:
            if is_distributive(l):
                assert len(prime_masks(l)) == len(join_irreducibles(l))


def is_compact(lat, k):
    """Literal compactness: k ≤ ⋁F implies k ≤ ⋁G for some G ⊆ F, for every family F."""
    for family in range(1 << lat.n):
        if not lat.leq(k, lat.join_of_mask(family)):
            continue
        sub = family
        while not lat.leq(k, lat.join_of_mask(sub)):
            if not sub:
                return False
            sub = (sub - 1) & family
    return True


class TestCompactElements:
    def test_every_ideal_is_literally_compact(self, corpus5):
        for l in corpus5:
            idl = all_ideals(l)
            assert all(is_compact(idl, k) for k in range(len(idl)))

    @pytest.mark.parametrize("make", [two, lambda: chain(3), b2, m3, n5])
    def test_compact_elements_recover_base(self, make):
        l = make()
        assert canonical_key(all_ideals(l)) == canonical_key(l)


def test_is_ideal_is_the_subset_axioms_on_every_mask(corpus5):
    for l in corpus5 + [dual(l) for l in corpus5]:
        ideals = set(subset_filter_ideals(l))
        for mask in range(1 << l.n):
            assert is_ideal(l, mask) == (mask in ideals), (l.elements, mask)
        # off the carrier, or negative
        assert not any(is_ideal(l, m) for m in (l.full | 1 << l.n, 1 << l.n, -1, ~l.full))


def test_is_ideal_rejects_non_downward_closed():
    l = b2()
    mask = (1 << l.index("a")) | (1 << l.index("0"))
    assert is_ideal(l, mask)
    assert not is_ideal(l, 1 << l.index("a"))
