"""Ideals and prime ideals of finite (semi)lattices, and the ideal lattice Id(L)."""

from __future__ import annotations

from .errors import KindMismatch
from .order import SetLattice, bits, is_morphism, two


class Ideal:
    """A downward-closed, join-closed subset of a (semi)lattice, as a bitmask."""

    def __init__(self, lattice, members):
        if not is_ideal(lattice, members):
            raise ValueError(f"{lattice.subset_names(members)} is not an ideal")
        self.lattice = lattice
        self.members = members

    def names(self):
        return self.lattice.subset_names(self.members)

    def label(self):
        return ideal_label(self.lattice, self.members)

    def __contains__(self, i):
        return bool(self.members >> i & 1)

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Ideal({self.label()})"


def ideal_label(lattice, members):
    return "{" + ",".join(lattice.subset_names(members)) + "}"


def is_ideal(l, mask):
    """Contains bottom, downward closed, closed under binary joins."""
    if not mask >> l.bottom & 1:
        return False
    for i in bits(mask):
        if l.down[i] & ~mask:
            return False
        for j in bits(mask):
            if not mask >> l.join[i][j] & 1:
                return False
    return True


def ideal_masks(l):
    """Masks of all ideals of l, sorted by (cardinality, bit pattern).

    On a finite carrier every ideal I is principal: it contains the join m of
    its members, so I = ↓m.  Each ↓m is an ideal, so the ideals are exactly
    the principal down-sets l.down, one per element.
    """
    return sorted(l.down, key=lambda m: (bin(m).count("1"), m))


class IdealLattice(SetLattice):
    """All ideals of a (semi)lattice, assembled into a bounded lattice by inclusion."""

    def __init__(self, base, masks):
        super().__init__(masks, lambda m: ideal_label(base, m))
        self.base = base
        self.ideals = [Ideal(base, m) for m in self.masks]


def all_ideals(l):
    """The ideal lattice Id(l): meet is intersection, join is the least ideal above."""
    return IdealLattice(l, ideal_masks(l))


def principal_ideal(l, a):
    """The down-set of a; a may be an element name or index."""
    i = l.index(a) if isinstance(a, str) else a
    return Ideal(l, l.down[i])


def is_prime(l, mask):
    """Proper, and a ∧ b in I implies a in I or b in I."""
    if mask == l.full:
        return False
    for a in range(l.n):
        if mask >> a & 1:
            continue
        for b in range(a, l.n):
            if mask >> b & 1:
                continue
            if mask >> l.meet[a][b] & 1:
                return False
    return True


def prime_masks(l):
    """Masks of the prime ideals of a bounded lattice, in ideal_masks order."""
    return [m for m in ideal_masks(l) if is_prime(l, m)]


def prime_ideals(l):
    """All prime ideals of a bounded lattice, canonically sorted."""
    return [Ideal(l, m) for m in prime_masks(l)]


def ideal_of_morphism(l, phi, kind="jsl"):
    """The ideal phi^{-1}(0) of a morphism phi: l -> 2, given as an image tuple.

    Raises KindMismatch unless phi has one image per element of l, takes
    only the values 0 and 1, and is a morphism of the kind into two(); the
    kernel of a blat morphism is then a prime ideal.
    """
    if len(phi) != l.n or not set(phi) <= {0, 1} or not is_morphism(l, two(), phi, kind):
        raise KindMismatch(f"expected a {kind} morphism into the 2-chain")
    return Ideal(l, sum(1 << i for i, v in enumerate(phi) if v == 0))


def morphism_of_ideal(ideal, kind="jsl"):
    """The image tuple of the characteristic map into two() with kernel the ideal.

    It is a jsl morphism for every ideal, and a blat morphism iff the ideal
    is prime; otherwise KindMismatch.
    """
    l = ideal.lattice
    phi = tuple(0 if ideal.members >> i & 1 else 1 for i in range(l.n))
    if not is_morphism(l, two(), phi, kind):
        raise KindMismatch("ideal is not prime, no blat morphism exists")
    return phi


def join_irreducibles(l):
    """Indices of elements that are not the join of their strict down-set.

    This is the Birkhoff-side oracle: it reads only the order, never the
    prime-ideal machinery.
    """
    out = []
    for a in range(l.n):
        strict = l.down[a] & ~(1 << a)
        if l.join_of_mask(strict) != a:
            out.append(a)
    return out
