"""Finite frames, their point spaces, spatiality, and the coherent-frame isomorphisms."""

from __future__ import annotations

from .errors import NotAFrame, NotDistributive
from .ideals import all_ideals, ideal_masks, ideal_of_morphism
from .order import (
    Certificate,
    bits,
    distributivity_witness,
    enumerate_morphisms,
    image,
    inclusion_isomorphism_failure,
    is_distributive,
    is_morphism,
    preimage,
    two,
)
from .topology import Spectrum, is_homeomorphism, spectrum_for


def as_frame(l):
    """Return l once it satisfies the frame law, else raise NotAFrame with an (a, [b, c]) witness.

    A finite frame is a distributive bounded lattice, so there is no frame
    type: the frames of this module are the lattices that passed this check.
    The law a ∧ ⋁S = ⋁{a ∧ s : s ∈ S} ranges over every subset S, but on a
    finite carrier it is binary distributivity: S = ∅ and singletons hold
    trivially, and a ∧ (x ∨ s) = (a ∧ x) ∨ (a ∧ s) extends the law from
    pairs to every finite S by induction on |S|.  The witness is the least
    failing pair mask for the first failing a (distributivity_witness).
    """
    witness = distributivity_witness(l)
    if witness is not None:
        a, b, c = witness
        pair = l.subset_names((1 << b) | (1 << c))
        raise NotAFrame(
            f"{l.elements[a]!r} fails to distribute over the join of {pair}",
            witness=(l.elements[a], pair),
        )
    return l


def points(f, guard=None):
    """Pt(F), the points of the lattice F with opens U(a) = {φ : φ(a) = 1}, as Spc(F)^v.

    A point is a frame morphism F -> 2: it preserves arbitrary joins and finite
    meets, and every join over a finite carrier is a finite one, so the points
    are the bounded-lattice morphisms F -> 2, in the order of the morphism
    search.  Each is read as its kernel φ⁻¹(0), a prime ideal, and U(a) is then
    supp(a) = {P : a not in P}; so Pt(F) is Spectrum(F, kernels, "lattice-open"),
    which builds and validates U as its supp datum (``supp.sigma``).  F need be no frame.
    """
    kernels = [
        ideal_of_morphism(f, phi, "blat") for phi in enumerate_morphisms(f, two(), "blat", guard)
    ]
    return Spectrum(f, kernels, "lattice-open")


class SpatialityCertificate:
    def __init__(self, lattice, injective, surjective, witness=None):
        self.lattice = lattice
        self.injective = injective
        self.surjective = surjective
        self.spatial = injective and surjective
        self.witness = witness

    def __bool__(self):
        return self.spatial

    def to_json(self):
        return {
            "lattice": list(self.lattice.elements),
            "injective": self.injective,
            "surjective": self.surjective,
            "spatial": self.spatial,
            "witness": self.witness,
        }


def is_spatial(f, guard=None):
    """Evaluate the unit a ↦ U(a) and certify it is an isomorphism onto Ω(Pt(F)).

    Ω(Pt(F)) is distributive, so on a lattice F that is no frame U is not injective.
    """
    pt = points(f, guard)
    seen = {}
    injective = True
    witness = None
    for a in range(f.n):
        u = pt.supp.sigma[a]
        if u in seen:
            injective = False
            witness = (f.elements[seen[u]], f.elements[a])
            break
        seen[u] = a
    surjective = set(pt.space.opens) <= set(pt.supp.sigma)
    return SpatialityCertificate(f, injective, surjective, witness)


def restrict_along_principal(l, idl, psi):
    """Restrict ψ: Id(L) -> F, an image tuple, along a ↦ ↓a; returns φ: L -> F as a tuple."""
    return tuple(psi[idl.index_of_mask(d)] for d in l.down)


def extend_morphism(l, f, phi):
    """Extend a bounded-lattice morphism φ: L -> F to the frame morphism ψ: Id(L) -> F.

    F is a lattice that passed as_frame.  Both maps are image tuples: φ over
    the elements of l, ψ over the ideals of l in the order of all_ideals(l).
    The extension sends an ideal I to the join of φ over its members;
    restricting back along the principal-ideal embedding returns φ, and ψ is
    certified against the frame-morphism laws, which on a finite carrier are
    the bounded-lattice laws.  Requires l distributive.
    """
    if not is_distributive(l):
        raise NotDistributive("the base lattice must be distributive")
    idl = all_ideals(l)
    psi = tuple(f.join_of_mask(image(phi, members)) for members in idl.masks)
    if restrict_along_principal(l, idl, psi) != tuple(phi):
        raise ValueError("extension does not restrict back to the given morphism")
    if not is_morphism(idl, f, psi, "blat"):
        raise ValueError("extension is not a frame morphism")
    return psi


def pt_ideal_vs_hochster(l, guard=None):
    """Certify Pt(Id(L)) ≅ Spc(L)^v via φ ↦ φ^{-1}(0) ∩ L, for distributive L.

    The map sends the kernel K of each point of Id(L) to {a : ↓a in K}, which
    must be a prime ideal of L, and must carry U(principal(a)) to supp(a);
    both transport directions are checked.  Id(L) ≅ L is a frame here, as L
    is distributive, so it needs no as_frame of its own.
    """
    if not is_distributive(l):
        raise NotDistributive("the base lattice must be distributive")
    idl = all_ideals(l)
    pt = points(idl, guard)
    dualspec = spectrum_for(l, "lattice-open")
    principal = [idl.index_of_mask(d) for d in l.down]
    mapping = []
    for kernel in pt.point_ideals:
        try:
            mapping.append(dualspec.point_of_ideal(preimage(principal, kernel)))
        except ValueError:
            return Certificate(False, {"reason": "image is not a prime ideal point"})
    if not is_homeomorphism(mapping, pt.space, dualspec.space):
        return Certificate(False, {"reason": "not a homeomorphism"})
    # U(principal(a)) must transport to supp(a)
    for a, k in enumerate(principal):
        if image(mapping, pt.supp.sigma[k]) != dualspec.supp.sigma[a]:
            return Certificate(
                False, {"reason": f"U(principal({l.elements[a]})) != supp"}
            )
    return Certificate(True, {"point_map": mapping})


def support_union_map(l):
    """The assignment I ↦ ⋃_{a in I} supp(a) into subsets of Spc(L)^v, any lattice.

    Returns the ideal masks in ideal_masks order, the spectrum and the images.
    The spectrum is read through spectrum_for, so it is built once per lattice.
    """
    masks = ideal_masks(l)
    dualspec = spectrum_for(l, "lattice-open")
    images = []
    for members in masks:
        m = 0
        for a in bits(members):
            m |= dualspec.supp.sigma[a]
        images.append(m)
    return masks, dualspec, images


def id_vs_omega_dual(l):
    """Certify I ↦ ⋃ supp(a) is a lattice isomorphism Id(L) ≅ Ω(Spc(L)^v).

    The stated inverse is U ↦ {a : supp(a) ⊆ U}; inclusion_isomorphism_failure
    checks the bijection, both roundtrips and the order both ways.  Requires
    l distributive.  Both families are read as masks ordered by inclusion, and
    both are lattices: the ideals are the principal down-sets (the proof in
    ideal_masks), and FiniteSpace checks that the opens are closed under ∪
    and ∩.
    """
    if not is_distributive(l):
        raise NotDistributive("the base lattice must be distributive")
    masks, dualspec, images = support_union_map(l)
    supp = dualspec.supp.sigma
    opens = dualspec.space.opens
    reason = inclusion_isomorphism_failure(
        masks,
        opens,
        dict(zip(masks, images)).get,  # None off the ideals
        lambda u: sum(1 << a for a in range(l.n) if not supp[a] & ~u),
    )
    if reason is not None:
        return Certificate(False, {"reason": reason})
    return Certificate(True, {"ideal_count": len(masks), "open_count": len(opens)})
