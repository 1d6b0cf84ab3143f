"""Ideals and prime ideals of finite (semi)lattices, and the ideal lattice Id(L)."""

from __future__ import annotations

from .errors import KindMismatch
from .order import SetLattice, is_morphism, preimage, set_label, sorted_by_size, two


def is_ideal(l, mask):
    """Within the carrier and equal to ↓m, m being the join of its members.

    An ideal holds m and so everything below m, and every member lies below
    m, so it is ↓m; each ↓m is an ideal (ideal_masks).  The empty mask is
    none: its join is the bottom, which ↓bottom holds.
    """
    return not mask & ~l.full and mask == l.down[l.join_of_mask(mask)]


def ideal_masks(l):
    """Masks of all ideals of l, in sorted_by_size order.

    On a finite carrier every ideal I is principal: it contains the join m of
    its members, so I = ↓m.  Each ↓m is an ideal, so the ideals are exactly
    the principal down-sets l.down, one per element.
    """
    return sorted_by_size(l.down)


def all_ideals(l):
    """Id(l) on the ideal masks: meet is intersection, join is the least ideal above."""
    return SetLattice(ideal_masks(l), lambda m: set_label(l.elements, m))


def is_prime(l, mask):
    """A proper ideal I whose complement U is a principal up-set ↑p.

    U is a nonempty up-set, and I is prime (a ∧ b in I implies a in I or b
    in I) iff U is closed under ∧.  Then U holds p, the meet of its members,
    and so U = ↑p, as every member lies above p; and each ↑p is closed under ∧.
    """
    return is_ideal(l, mask) and mask != l.full and (l.full ^ mask) in l.up


def prime_masks(l):
    """Masks of the prime ideals of a bounded lattice, in ideal_masks order.

    Each is an l.down whose complement is an l.up (is_prime).
    """
    return [m for m in ideal_masks(l) if is_prime(l, m)]


def ideal_of_morphism(l, phi, kind="jsl"):
    """The mask of the ideal phi^{-1}(0) of a morphism phi: l -> 2, an image tuple.

    Raises KindMismatch unless phi has one image per element of l, takes
    only the int values 0 and 1 (a bool is none), and is a morphism of the
    kind into two(); the kernel of a blat morphism is then a prime ideal.
    """
    zero_one = {(int, 0), (int, 1)}.issuperset(zip(map(type, phi), phi))
    if len(phi) != l.n or not zero_one or not is_morphism(l, two(), phi, kind):
        raise KindMismatch(f"expected a {kind} morphism into the 2-chain")
    return preimage(phi, 1)


def morphism_of_ideal(l, mask, kind="jsl"):
    """The image tuple of the characteristic map into two() with kernel the ideal mask.

    The README's named inverse of ideal_of_morphism.  ValueError if the mask
    is no ideal of l.  The map is a jsl morphism for every ideal, and a blat
    morphism iff the ideal is prime; otherwise KindMismatch.
    """
    if not is_ideal(l, mask):
        what = f"mask {mask:#b}" if mask & ~l.full else l.subset_names(mask)
        raise ValueError(f"{what} is not an ideal")
    phi = tuple(0 if mask >> i & 1 else 1 for i in range(l.n))
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
