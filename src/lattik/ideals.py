"""Ideals and prime ideals of finite (semi)lattices, and the ideal lattice Id(L)."""

from __future__ import annotations

from .errors import KindMismatch
from .order import SetLattice, bits, is_morphism, preimage, set_label, sorted_by_size, two


def is_ideal(l, mask):
    """Within the carrier, contains bottom, downward closed, closed under binary joins."""
    if mask & ~l.full or not mask >> l.bottom & 1:
        return False
    for i in bits(mask):
        if l.down[i] & ~mask:
            return False
        for j in bits(mask):
            if not mask >> l.join[i][j] & 1:
                return False
    return True


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
    """Within the carrier, contains bottom, proper, and a ∧ b in I implies a in I or b in I.

    Downward closure and joins are not checked: prime_masks passes ideals only.
    """
    if mask & ~l.full or not mask >> l.bottom & 1 or mask == l.full:
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
