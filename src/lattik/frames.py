"""Finite frames, their point spaces, spatiality, and the coherent-frame isomorphisms."""

from __future__ import annotations

from .errors import NotAFrame, NotDistributive
from .ideals import all_ideals, ideal_masks
from .order import (
    Certificate,
    bits,
    distributivity_witness,
    enumerate_morphisms,
    inclusion_isomorphism_failure,
    is_distributive,
    is_morphism,
    set_label,
    two,
)
from .topology import FiniteSpace, hochster_dual, is_homeomorphism


class Frame:
    """A bounded lattice certified to satisfy the frame distributivity law."""

    def __init__(self, lattice):
        self.lattice = lattice

    @property
    def n(self):
        return self.lattice.n


def as_frame(l):
    """Certify the frame law or raise NotAFrame with a violating (a, [b, c]) witness.

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
    return Frame(l)


class PointSpace:
    """The space Pt(F): frame morphisms F -> 2 with opens U(a) = {φ : φ[a] = 1}."""

    def __init__(self, frame, morphisms, space, u_sets):
        self.frame = frame
        self.morphisms = morphisms
        self.space = space
        self.u_sets = tuple(u_sets)  # point mask per frame element

    def __len__(self):
        return len(self.morphisms)


def points(f, guard=None):
    """All points of the frame and the topology generated by the sets U(a).

    A point is a frame morphism F -> 2: it preserves arbitrary joins and
    finite meets, and every join over a finite carrier is a finite one, so
    the points are the bounded-lattice morphisms F -> 2.  Each point is an
    image tuple (``PointSpace.morphisms``), named by its kernel φ⁻¹(0).
    """
    morphisms = enumerate_morphisms(f.lattice, two(), "blat", guard)
    labels = [
        set_label(f.lattice.elements, sum(1 << a for a, v in enumerate(phi) if v == 0))
        for phi in morphisms
    ]
    u_sets = [sum(phi[a] << p for p, phi in enumerate(morphisms)) for a in range(f.n)]
    # The U(a) are already closed under union and intersection.
    space = FiniteSpace(labels, set(u_sets) | {0, (1 << len(morphisms)) - 1})
    return PointSpace(f, morphisms, space, u_sets)


class SpatialityCertificate:
    def __init__(self, frame, injective, surjective, witness=None):
        self.frame = frame
        self.injective = injective
        self.surjective = surjective
        self.spatial = injective and surjective
        self.witness = witness

    def __bool__(self):
        return self.spatial

    def to_json(self):
        return {
            "lattice": list(self.frame.lattice.elements),
            "injective": self.injective,
            "surjective": self.surjective,
            "spatial": self.spatial,
            "witness": self.witness,
        }


def is_spatial(f, guard=None):
    """Evaluate the unit a ↦ U(a) and certify it is an isomorphism onto Ω(Pt(F))."""
    pt = points(f, guard)
    seen = {}
    injective = True
    witness = None
    for a in range(f.n):
        u = pt.u_sets[a]
        if u in seen:
            injective = False
            witness = (f.lattice.elements[seen[u]], f.lattice.elements[a])
            break
        seen[u] = a
    surjective = set(pt.space.opens) <= set(pt.u_sets)
    return SpatialityCertificate(f, injective, surjective, witness)


def restrict_along_principal(l, idl, psi):
    """Restrict ψ: Id(L) -> F, an image tuple, along a ↦ ↓a; returns φ: L -> F as a tuple."""
    return tuple(psi[idl.index_of_mask(d)] for d in l.down)


def extend_morphism(l, f, phi):
    """Extend a bounded-lattice morphism φ: L -> F to the frame morphism ψ: Id(L) -> F.

    Both are image tuples: φ over the elements of l, ψ over the ideals of
    l in the order of all_ideals(l).  The extension sends an ideal I to the
    join of φ over its members; restricting back along the principal-ideal
    embedding returns φ, and ψ is certified against the frame-morphism
    laws, which on a finite carrier are the bounded-lattice laws.  Requires
    l distributive.
    """
    if not is_distributive(l):
        raise NotDistributive("the base lattice must be distributive")
    idl = all_ideals(l)
    psi = tuple(
        f.lattice.join_of_mask(sum(1 << v for v in {phi[a] for a in bits(members)}))
        for members in idl.masks
    )
    if restrict_along_principal(l, idl, psi) != tuple(phi):
        raise ValueError("extension does not restrict back to the given morphism")
    if not is_morphism(idl.lattice, f.lattice, psi, "blat"):
        raise ValueError("extension is not a frame morphism")
    return psi


def pt_ideal_vs_hochster(l, guard=None):
    """Certify Pt(Id(L)) ≅ Spc(L)^v via φ ↦ φ^{-1}(0) ∩ L, for distributive L.

    The map identifies each point of Id(L) with a prime ideal of L and must
    carry U(principal(a)) to supp(a); both transport directions are checked.
    """
    if not is_distributive(l):
        raise NotDistributive("the base lattice must be distributive")
    idl = all_ideals(l)
    frame = as_frame(idl.lattice)
    pt = points(frame, guard)
    dualspec = hochster_dual(l)
    mapping = []
    for phi in pt.morphisms:
        restricted = restrict_along_principal(l, idl, phi)
        members = sum(1 << a for a, v in enumerate(restricted) if v == 0)
        try:
            mapping.append(dualspec.point_of_ideal(members))
        except ValueError:
            return Certificate(False, {"reason": "image is not a prime ideal point"})
    if not is_homeomorphism(mapping, pt.space, dualspec.space):
        return Certificate(False, {"reason": "not a homeomorphism"})
    # U(principal(a)) must transport to supp(a)
    for a in range(l.n):
        k = idl.index_of_mask(l.down[a])
        transported = 0
        for p in bits(pt.u_sets[k]):
            transported |= 1 << mapping[p]
        if transported != dualspec.supp.sigma[a]:
            return Certificate(
                False, {"reason": f"U(principal({l.elements[a]})) != supp"}
            )
    return Certificate(True, {"point_map": mapping})


def support_union_map(l):
    """The assignment I ↦ ⋃_{a in I} supp(a) into subsets of Spc(L)^v, any lattice.

    Returns the ideal masks in ideal_masks order, the spectrum and the images.
    """
    masks = ideal_masks(l)
    dualspec = hochster_dual(l)
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
