"""Fault injection: each failure branch of a certificate, reached by one broken input.

Each test breaks one input of a certificate function, a function it reads
through its module or an argument, so that exactly one failure branch runs,
and asserts the certificate or exception and its witness.  A change that
turned such a branch into a success would fail here.
"""

from itertools import product

import pytest

from lattik import frames, support, tensor
from lattik.corpus import b2, chain
from lattik.errors import NotContinuous
from lattik.frames import extend_morphism, id_vs_omega_dual, pt_ideal_vs_hochster
from lattik.order import preimage, two
from lattik.support import datum_morphisms_to_final, enumerate_support_data
from lattik.tensor import (
    QuotientFormulaError,
    TensorLattice,
    check_classification,
    quotient_lattice,
)
from lattik.topology import is_continuous, space_from_closed_basis, spectrum_for

# the two prime ideals of B2 = {0, a, b, 1}, as member masks: ↓a and ↓b
DOWN_A, DOWN_B = 0b0011, 0b0101


class TestPtIdealVsHochster:
    def test_unbroken_b2_is_certified(self):
        cert = pt_ideal_vs_hochster(b2())
        assert cert.ok and cert.detail == {"point_map": [0, 1]}

    def test_a_kernel_read_as_no_prime_is_no_point(self, monkeypatch):
        # every kernel pulls back to the empty mask, which holds no bottom
        monkeypatch.setattr(frames, "preimage", lambda f, mask: 0)
        cert = pt_ideal_vs_hochster(b2())
        assert cert.to_json() == {"ok": False, "reason": "image is not a prime ideal point"}

    def test_a_constant_point_map_is_no_homeomorphism(self, monkeypatch):
        # every kernel pulls back to ↓a, so both points of Pt(Id(B2)) go to one
        monkeypatch.setattr(frames, "preimage", lambda f, mask: DOWN_A)
        cert = pt_ideal_vs_hochster(b2())
        assert cert.to_json() == {"ok": False, "reason": "not a homeomorphism"}

    def test_a_swapped_point_map_does_not_transport_supp(self, monkeypatch):
        # swapping the two points of a discrete space is a homeomorphism, but it
        # carries U(principal(a)) to supp(b); the bottom, first, transports
        swap = {DOWN_A: DOWN_B, DOWN_B: DOWN_A}
        monkeypatch.setattr(frames, "preimage", lambda f, mask: swap[preimage(f, mask)])
        cert = pt_ideal_vs_hochster(b2())
        assert cert.to_json() == {"ok": False, "reason": "U(principal(a)) != supp"}


class TestIdVsOmegaDual:
    def test_unbroken_b2_is_certified(self):
        assert id_vs_omega_dual(b2()).to_json() == {
            "ok": True,
            "ideal_count": 4,
            "open_count": 4,
        }

    def test_swapped_images_fail_the_inverse_roundtrip(self, monkeypatch):
        # ↓a and ↓b trade their unions of supports: still a bijection onto the
        # opens, but U ↦ {c : supp(c) ⊆ U} no longer inverts it
        union_map = frames.support_union_map

        def swapped(l):
            masks, dualspec, images = union_map(l)
            images[1], images[2] = images[2], images[1]
            return masks, dualspec, images

        monkeypatch.setattr(frames, "support_union_map", swapped)
        cert = id_vs_omega_dual(b2())
        assert cert.to_json() == {"ok": False, "reason": "inverse roundtrip fails"}


class TestExtendMorphism:
    def test_a_morphism_extends(self):
        assert extend_morphism(chain(3), two(), (0, 0, 1)) == (0, 0, 1)

    def test_a_map_that_is_not_monotone_does_not_restrict_back(self):
        # ψ(↓1) = φ(0) ∨ φ(m1) ∨ φ(1) = 1, but φ(1) = 0
        message = "^extension does not restrict back to the given morphism$"
        with pytest.raises(ValueError, match=message):
            extend_morphism(chain(3), two(), (0, 1, 0))

    def test_a_map_off_the_bottom_is_no_frame_morphism(self):
        # every ideal of a finite lattice is principal, so ψ restricts back to φ,
        # and ψ sends the ideal {0} to 1
        with pytest.raises(ValueError, match="^extension is not a frame morphism$"):
            extend_morphism(chain(3), two(), (1, 1, 1))


class TestDatumMorphismsToFinal:
    def test_a_discontinuous_map_raises(self, monkeypatch):
        # the Sierpinski space into the discrete two-point Spc(B2)
        l, flavor = b2(), "lattice-closed"
        x = space_from_closed_basis(["p", "q"], [0b01])
        spectrum = spectrum_for(l, flavor)
        d = enumerate_support_data(l, x, flavor)[0]
        assert datum_morphisms_to_final(d, spectrum) == [(0, 0)]
        maps = product(range(spectrum.space.n), repeat=x.n)
        broken = next(f for f in maps if not is_continuous(f, x, spectrum.space))
        found = support.enumerate_continuous
        monkeypatch.setattr(
            support, "enumerate_continuous", lambda x, y, *args: found(x, y) + [broken]
        )
        with pytest.raises(NotContinuous, match="^map into the spectrum is not continuous$"):
            datum_morphisms_to_final(d, spectrum)


def meet_tensor_on_b2():
    """⊗ = ∧ on B2 with unit the top: L(⊗) is B2 again, by the identity projection."""
    l = b2()
    return TensorLattice(l, l.meet, l.top)


class TestCheckClassification:
    def test_unbroken_b2_is_certified(self):
        assert check_classification(meet_tensor_on_b2()).to_json() == {
            "ok": True,
            "quotient_size": 4,
            "radical_ideal_count": 4,
        }

    def test_a_projection_off_the_join_fails_the_join_formula(self, monkeypatch):
        # the top projects to [a], so [a] ∨ [b] = [1] is not the class of a ∨ b;
        # every pair before (a, b) keeps both formulas
        t = meet_tensor_on_b2()
        lattice, projection = t._quotient
        assert projection == (0, 1, 2, 3)
        monkeypatch.setattr(t, "_quotient", (lattice, (0, 1, 2, 1)))
        message = r"^quotient join formula fails at \(a, b\)$"
        with pytest.raises(QuotientFormulaError, match=message) as exc:
            quotient_lattice(t)
        assert (exc.value.reason, exc.value.pair) == ("quotient join formula fails", ("a", "b"))
        assert check_classification(t).to_json() == {
            "ok": False,
            "reason": "quotient join formula fails",
            "pair": ["a", "b"],
        }

    def test_a_quotient_read_as_not_distributive(self, monkeypatch):
        t = meet_tensor_on_b2()
        asked = []

        def not_distributive(l):
            asked.append(l)
            return False

        monkeypatch.setattr(tensor, "is_distributive", not_distributive)
        cert = check_classification(t)
        assert cert.to_json() == {"ok": False, "reason": "quotient is not distributive"}
        assert asked == [t._quotient[0]]

    def test_a_constant_pull_back_is_no_isomorphism(self, monkeypatch):
        # every ideal of L(⊗) pulls back to the carrier, so Id(L(⊗)) → radicals
        # is not injective
        t = meet_tensor_on_b2()
        monkeypatch.setattr(tensor, "preimage", lambda f, mask: t.base.full)
        cert = check_classification(t)
        assert cert.to_json() == {"ok": False, "reason": "map is not a bijection onto the target"}

    def test_swapped_supports_fail_the_open_set_description(self, monkeypatch):
        # the fault of TestIdVsOmegaDual, reached through the quotient; the
        # certificate of id_vs_omega_dual is nested under the outer reason
        t = meet_tensor_on_b2()
        union_map = frames.support_union_map
        asked = []

        def swapped(l):
            asked.append(l)
            masks, dualspec, images = union_map(l)
            images[1], images[2] = images[2], images[1]
            return masks, dualspec, images

        monkeypatch.setattr(frames, "support_union_map", swapped)
        cert = check_classification(t)
        assert cert.to_json() == {
            "ok": False,
            "reason": "open-set description fails",
            "omega": {"ok": False, "reason": "inverse roundtrip fails"},
        }
        assert asked == [t._quotient[0]]
