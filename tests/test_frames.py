"""Frames, point spaces, spatiality, morphism extension, and the coherent isomorphisms."""

from itertools import product

import pytest

import lattik
import lattik.frames
from conftest import b3
from lattik.corpus import b2, chain, lattice_corpus, m3, n5
from lattik.errors import NotAFrame, NotDistributive
from lattik.frames import (
    as_frame,
    extend_morphism,
    id_vs_omega_dual,
    is_spatial,
    points,
    pt_ideal_vs_hochster,
    restrict_along_principal,
    support_union_map,
)
from lattik.ideals import all_ideals, ideal_of_morphism, prime_masks
from lattik.jsonio import lattice_from_json
from lattik.order import bits, enumerate_morphisms, is_distributive, set_label, two
from lattik.topology import FiniteSpace, hochster_dual, omega_lattice


def literal_frame_law_witness(l):
    """The first (a, mask) with a ∧ ⋁S ≠ ⋁{a ∧ s : s ∈ S}, over every subset S."""
    for a in range(l.n):
        for mask in range(1 << l.n):
            rhs = 0
            for b in bits(mask):
                rhs |= 1 << l.meet[a][b]
            if l.meet[a][l.join_of_mask(mask)] != l.join_of_mask(rhs):
                return a, mask
    return None


def preserves_frame_laws(src, tgt, f):
    """The literal frame-morphism law: the top, binary meets, every subset's join."""
    if f[src.top] != tgt.top:
        return False
    for a in range(src.n):
        for b in range(src.n):
            if f[src.meet[a][b]] != tgt.meet[f[a]][f[b]]:
                return False
    for mask in range(1 << src.n):
        img = 0
        for i in bits(mask):
            img |= 1 << f[i]
        if f[src.join_of_mask(mask)] != tgt.join_of_mask(img):
            return False
    return True


class TestAsFrame:
    def test_accepts_b2(self):
        f = as_frame(b2())
        assert f.n == 4

    def test_rejects_m3_with_witness(self):
        with pytest.raises(NotAFrame) as err:
            as_frame(m3())
        a, subset = err.value.witness
        l = m3()
        # the witness really violates the law
        ai = l.index(a)
        mask = 0
        for name in subset:
            mask |= 1 << l.index(name)
        joined = l.join_of_mask(mask)
        rhs = 0
        for name in subset:
            rhs |= 1 << l.meet[ai][l.index(name)]
        assert l.meet[ai][joined] != l.join_of_mask(rhs)

    def test_rejects_n5(self):
        with pytest.raises(NotAFrame):
            as_frame(n5())

    def test_ideal_lattices_of_distributive_are_frames(self, corpus5):
        for l in corpus5:
            if is_distributive(l):
                as_frame(all_ideals(l))

    def test_ideal_lattice_of_m3_is_not_a_frame(self):
        # Id(M3) is isomorphic to M3 itself, hence not distributive
        with pytest.raises(NotAFrame):
            as_frame(all_ideals(m3()))

    def test_binary_witness_is_the_literal_one(self):
        # the subset law and the binary law fail at the same a; on every
        # lattice of at most 7 elements the least failing subset is a pair
        for l in lattice_corpus(7):
            literal = literal_frame_law_witness(l)
            if literal is None:
                as_frame(l)
                continue
            with pytest.raises(NotAFrame) as err:
                as_frame(l)
            a, mask = literal
            assert err.value.witness == (l.elements[a], l.subset_names(mask))

    def test_least_failing_subset_a_triple_reports_a_pair(self):
        # a fails over {b, c, d}, whose mask is below that of every failing pair
        l = lattice_from_json(
            {
                "elements": ["0", "a", "b", "c", "d", "bc", "bd", "cd", "1"],
                "leq": [["0", x] for x in "abcd"]
                + [["b", "bc"], ["c", "bc"], ["b", "bd"], ["d", "bd"]]
                + [["c", "cd"], ["d", "cd"]]
                + [[x, "1"] for x in ["a", "bc", "bd", "cd"]],
            }
        )[1]
        a, mask = literal_frame_law_witness(l)
        assert (l.elements[a], l.subset_names(mask)) == ("a", ["b", "c", "d"])
        with pytest.raises(NotAFrame) as err:
            as_frame(l)
        assert err.value.witness == ("a", ["d", "bc"])

    def test_omega_lattices_are_frames(self, spaces3):
        for x in spaces3:
            as_frame(omega_lattice(x))


class TestFrameMorphisms:
    @pytest.mark.parametrize("make", [two, b2])
    def test_literal_law_accepts_exactly_the_blat_morphisms(self, corpus6, make):
        tgt = make()
        for l in corpus6:
            literal = [
                f
                for f in product(range(tgt.n), repeat=l.n)
                if preserves_frame_laws(l, tgt, f)
            ]
            assert literal == [m for m in enumerate_morphisms(l, tgt, "blat")]


def morphism_point_space(f):
    """Pt(F) built from the morphisms F -> 2 alone: their kernels, the space, the U(a).

    U(a) = {φ : φ(a) = 1} as a point mask; the U(a) are closed under union and
    intersection, so with the empty and full sets they are the opens.
    """
    morphisms = enumerate_morphisms(f, two(), "blat")
    kernels = [sum(1 << a for a, v in enumerate(phi) if v == 0) for phi in morphisms]
    u_sets = [sum(phi[a] << p for p, phi in enumerate(morphisms)) for a in range(f.n)]
    labels = [set_label(f.elements, k) for k in kernels]
    space = FiniteSpace(labels, set(u_sets) | {0, (1 << len(morphisms)) - 1})
    return kernels, space, tuple(u_sets)


class TestPoints:
    def test_points_match_the_morphism_space(self):
        for l in lattice_corpus(8):
            if not is_distributive(l):
                continue
            f = as_frame(l)
            kernels, space, u_sets = morphism_point_space(f)
            pt = points(f)
            assert pt.space.points == space.points
            assert pt.space.opens == space.opens
            assert pt.supp.sigma == u_sets
            assert pt.point_ideals == tuple(kernels)

    def test_two_has_one_point(self):
        pt = points(as_frame(two()))
        assert pt.space.n == 1

    def test_b2_has_two_points(self):
        pt = points(as_frame(b2()))
        assert pt.space.n == 2
        assert len(pt.space.opens) == 4  # discrete

    def test_chain_points_form_a_chain(self):
        f = as_frame(chain(4))
        pt = points(f)
        assert pt.space.n == 3
        assert len(pt.space.opens) == 4

    def test_u_sets_are_opens(self, corpus5):
        for l in corpus5:
            if not is_distributive(l):
                continue
            pt = points(as_frame(l))
            assert set(pt.supp.sigma) <= set(pt.space.opens)

    def test_points_count_equals_blat_homs_to_two(self, corpus5):
        # on finite carriers frame morphisms into 2 are the blat morphisms
        for l in corpus5:
            if not is_distributive(l):
                continue
            pt = points(as_frame(l))
            assert pt.space.n == len(enumerate_morphisms(l, two(), "blat"))

    def test_points_are_the_prime_ideals(self, corpus6):
        # each point is a blat morphism F -> 2, so its kernel is a prime ideal
        for l in corpus6:
            if not is_distributive(l):
                continue
            pt = points(as_frame(l))
            morphisms = enumerate_morphisms(l, two(), "blat")
            kernels = [ideal_of_morphism(l, phi, "blat") for phi in morphisms]
            assert kernels == list(pt.point_ideals)
            assert sorted(kernels) == sorted(prime_masks(l))


class TestSpatiality:
    def test_distributive_corpus_is_spatial(self, corpus5):
        for l in corpus5:
            if is_distributive(l):
                cert = is_spatial(as_frame(l))
                assert cert.spatial and cert.injective and cert.surjective

    def test_b3(self):
        assert is_spatial(as_frame(b3()))

    def test_certificate_json(self):
        j = is_spatial(as_frame(b2())).to_json()
        assert j["spatial"] is True and j["witness"] is None

    def test_non_frames_are_not_spatial(self):
        # were U injective, L would embed in the distributive lattice Ω(Pt L)
        for l in lattice_corpus(7):
            if is_distributive(l):
                continue
            cert = is_spatial(l)
            assert not cert and not cert.injective and cert.lattice is l
            a, b = (l.index(e) for e in cert.witness)
            sigma = points(l).supp.sigma
            assert a != b and sigma[a] == sigma[b]


class TestOneLatticeType:
    def test_as_frame_returns_the_lattice_itself(self):
        for l in lattice_corpus(7):
            if is_distributive(l):
                assert as_frame(l) is l

    def test_there_is_no_frame_type(self):
        assert not hasattr(lattik.frames, "Frame") and not hasattr(lattik, "Frame")


class TestExtension:
    def small_distributive(self, corpus5):
        return [l for l in corpus5 if is_distributive(l)]

    def test_extension_restricts_back(self, corpus5):
        for l in self.small_distributive(corpus5):
            idl = all_ideals(l)
            f = as_frame(idl)
            frame_target = as_frame(b2())
            for phi in enumerate_morphisms(l, frame_target, "blat"):
                psi = extend_morphism(l, frame_target, phi)
                assert restrict_along_principal(l, idl, psi) == phi

    def test_extension_is_an_enumerated_morphism(self, corpus4):
        for l in corpus4:
            if not is_distributive(l):
                continue
            idl = all_ideals(l)
            f = as_frame(b2())
            enumerated = {
                psi: psi
                for psi in enumerate_morphisms(idl, f, "blat")
            }
            for phi in enumerate_morphisms(l, f, "blat"):
                psi = extend_morphism(l, f, phi)
                assert psi == enumerated[psi]

    def test_counts_match(self, corpus4):
        # |Hom_Frm(Id(L), F)| = |Hom_BLat(L, F)|
        frames = [as_frame(l) for l in corpus4 if is_distributive(l)]
        for l in corpus4:
            if not is_distributive(l):
                continue
            idl = all_ideals(l)
            for f in frames:
                frm = enumerate_morphisms(idl, f, "blat")
                blat = enumerate_morphisms(l, f, "blat")
                assert len(frm) == len(blat)
                # restriction is the inverse bijection
                restricted = {restrict_along_principal(l, idl, psi) for psi in frm}
                assert restricted == {phi for phi in blat}

    def test_both_roundtrips(self, corpus4):
        for l in corpus4:
            if not is_distributive(l):
                continue
            idl = all_ideals(l)
            f = as_frame(b2())
            extended = {
                extend_morphism(l, f, phi)
                for phi in enumerate_morphisms(l, f, "blat")
            }
            enumerated = {
                psi
                for psi in enumerate_morphisms(idl, f, "blat")
            }
            assert extended == enumerated

    def test_rejects_nondistributive(self):
        phi = enumerate_morphisms(m3(), two(), "jsl")[0]
        with pytest.raises(NotDistributive):
            extend_morphism(m3(), as_frame(two()), phi)


class TestPtIdealVsHochster:
    @pytest.mark.parametrize("make", [two, lambda: chain(3), b2, b3])
    def test_examples(self, make):
        cert = pt_ideal_vs_hochster(make())
        assert cert.ok and cert.detail["point_map"] is not None

    def test_distributive_corpus(self, corpus5):
        for l in corpus5:
            if is_distributive(l):
                assert pt_ideal_vs_hochster(l).ok

    def test_rejects_nondistributive(self):
        with pytest.raises(NotDistributive):
            pt_ideal_vs_hochster(n5())


class TestIdVsOmegaDual:
    def test_c3(self):
        cert = id_vs_omega_dual(chain(3))
        assert cert.ok
        assert cert.detail["ideal_count"] == 3 == cert.detail["open_count"]

    def test_b2(self):
        cert = id_vs_omega_dual(b2())
        assert cert.ok and cert.detail["ideal_count"] == 4

    def test_distributive_corpus(self, corpus5):
        for l in corpus5:
            if is_distributive(l):
                assert id_vs_omega_dual(l).ok

    def test_counts_match_the_set_lattices(self):
        for l in lattice_corpus(7):
            if is_distributive(l):
                cert = id_vs_omega_dual(l)
                assert cert.ok
                assert cert.detail["ideal_count"] == len(all_ideals(l))
                omega = omega_lattice(hochster_dual(l).space)
                assert cert.detail["open_count"] == len(omega.masks)

    def test_rejects_nondistributive(self):
        with pytest.raises(NotDistributive):
            id_vs_omega_dual(m3())

    @pytest.mark.parametrize("make", [m3, n5])
    def test_support_union_not_injective_without_distributivity(self, make):
        idl, _, images = support_union_map(make())
        assert len(set(images)) < len(idl)
