"""Finite spaces, the spectra Sp(L), Spc(L), Spc(L)^v with supp a support datum, continuity."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .errors import InvalidDatum, NotT0, SizeGuardExceeded, UnknownFlavor
from .order import (
    Certificate,
    Poset,
    SetLattice,
    bits,
    scheduled_search,
    set_label,
    size_bound,
    sorted_by_size,
    transpose,
)
from .ideals import ideal_masks, prime_masks


class FiniteSpace:
    """A finite point set with an explicit open-set family (bitmasks).

    The family must contain the empty and full sets and be closed under
    pairwise union and intersection.  The empty space has one open set,
    the mask 0, which is both empty and full.  ``minimal_opens[i]`` is U_i,
    the intersection of the opens containing point i.

    A family holding ∅ and X is closed iff A ∪ U_i is in it for each open A
    and point i.  Then every union of U_i is open, by induction from ∅, and
    each open A is the union of the U_k for k in A, as k ∈ U_k ⊆ A; so A ∩ B
    is the union of the U_k for k in A ∩ B.  The converse holds as U_i is open.
    """

    def __init__(self, points, opens):
        points = tuple(points)
        n = len(points)
        if len(set(points)) != n:
            raise ValueError("point labels must be distinct")
        full = (1 << n) - 1
        family = sorted_by_size(set(opens))
        if 0 not in family or full not in family:
            raise ValueError("opens must contain the empty and full sets")
        if any(a & ~full for a in family):
            raise ValueError("open set references unknown point")
        fam = frozenset(family)
        minimal = [full] * n
        for a in family:
            for i in bits(a):
                minimal[i] &= a
        if any(a | u not in fam for a in family for u in minimal):
            raise ValueError("opens are not closed under union/intersection")
        self.points = points
        self.n = n
        self.full = full
        self.opens = tuple(family)
        self.openset = fam
        self.minimal_opens = tuple(minimal)
        self._cl = None
        self._omega = None

    def closed_sets(self):
        """The closed sets, by size then mask."""
        return tuple(sorted_by_size(self.full & ~u for u in self.opens))

    def subset_names(self, mask):
        return [self.points[i] for i in bits(mask)]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSpace)
            and self.points == other.points
            and self.opens == other.opens
        )

    def __hash__(self):
        return hash((self.points, self.opens))

    def __repr__(self):
        return f"FiniteSpace({len(self.points)} points, {len(self.opens)} opens)"


def _union_closure(masks):
    """All unions of subfamilies, including the empty union."""
    out = {0}
    for m in masks:
        out |= {m | x for x in out}
    return out


def space_from_closed_basis(points, basis):
    """Topology whose closed sets are intersections of finite unions of basis sets.

    By De Morgan, the complements of the basis sets are an open basis."""
    points = tuple(points)
    full = (1 << len(points)) - 1
    return space_from_open_basis(points, [b ^ full for b in basis])


def space_from_open_basis(points, basis):
    """Topology whose open sets are unions of finite intersections of basis sets.

    The opens are the unions of the minimal opens U_i, where U_i is the
    intersection of the basis sets that hold point i (the whole space if
    none).  A finite intersection B of basis sets is the union of the U_i
    for i in B, since U_i ⊆ B for each such i, and each U_i is such an
    intersection.  ValueError if a basis set names a bit outside the points.
    """
    points = tuple(points)
    full = (1 << len(points)) - 1
    if any(b & ~full for b in basis):
        raise ValueError("basis set references unknown point")
    minimal = [full] * len(points)
    for b in basis:
        for i in bits(b):
            minimal[i] &= b
    return FiniteSpace(points, _union_closure(minimal))


def omega_lattice(x):
    """Ω(X): the open sets ordered by inclusion (join = union, meet = intersection).

    Kept on the space on first use.
    """
    if x._omega is None:
        x._omega = SetLattice(x.opens, lambda m: set_label(x.points, m))
    return x._omega


def cl_lattice(x):
    """Cl(X): the closed sets ordered by inclusion; kept on the space on first use."""
    if x._cl is None:
        x._cl = SetLattice(x.closed_sets(), lambda m: set_label(x.points, m))
    return x._cl


# What a support-datum flavor decides: ``closed``, that σ(a) is a closed set, read
# through X; ``bounded``, that σ also keeps 1 and ∧, so the datum search is "blat",
# not "jsl".  The CLI and the bench iterate the names in this order.
Flavor = namedtuple("Flavor", "closed bounded")
FLAVORS = {
    "semilattice-closed": Flavor(closed=True, bounded=False),
    "lattice-closed": Flavor(closed=True, bounded=True),
    "lattice-open": Flavor(closed=False, bounded=True),
}


def flavor_of(name):
    """The FLAVORS row of a flavor name; UnknownFlavor for any other value, a non-string too."""
    if isinstance(name, str) and name in FLAVORS:
        return FLAVORS[name]
    raise UnknownFlavor(f"unknown flavor {name!r}")


class SupportDatum:
    """An assignment element ↦ point set (bitmask), of one of the three flavors."""

    def __init__(self, lattice, space, sigma, flavor):
        flavor_of(flavor)
        self.sigma = tuple(sigma)
        if len(self.sigma) != lattice.n:
            raise ValueError("sigma must have one point set per lattice element")
        self.lattice = lattice
        self.space = space
        self.flavor = flavor

    def __eq__(self, other):
        return (
            isinstance(other, SupportDatum)
            and self.sigma == other.sigma
            and self.flavor == other.flavor
            and self.space == other.space
            and self.lattice is other.lattice
        )

    def __hash__(self):
        return hash((self.sigma, self.flavor))

    def __repr__(self):
        parts = ", ".join(
            f"{a}->{set_label(self.space.points, s)}"
            for a, s in zip(self.lattice.elements, self.sigma)
        )
        return f"SupportDatum[{self.flavor}]({parts})"


def validate_support_datum(d):
    """Check the axioms of d's flavor; report the first violation with a witness.

    Every check is literal: each σ(a) is looked up in the flavor's family
    (the opens, or the sets s whose complement s ^ X is open, which a bit
    outside X keeps out), then the equations of _datum_faults are read in
    their order.  The Certificate's detail names the first violated axiom
    ("closed" or "open", "empty", "join", "full", "meet") in that order, and
    its witness, both None on success.
    """
    l, x = d.lattice, d.space
    flip, kindname = (x.full, "closed") if FLAVORS[d.flavor].closed else (0, "open")
    for a, s in enumerate(d.sigma):
        if s ^ flip not in x.openset:
            return Certificate(False, {"axiom": kindname, "witness": l.elements[a]})
    for axiom, witness, fault in _datum_faults(l, d.flavor, d.sigma, x.full):
        if fault:
            return Certificate(False, {"axiom": axiom, "witness": witness})
    return Certificate(True, {"axiom": None, "witness": None})


def _datum_faults(l, flavor, S, full):
    """(axiom, witness, fault) for each equation of a support datum of the flavor on l.

    S[a] is σ(a) and full is X, as ints; bit-sliced over many data, each is one
    datum per lane.  fault is 0 exactly at the lanes where the equation holds.
    The equations are σ(0) = ∅ and σ(a ∨ b) = σ(a) ∪ σ(b) for every pair a < b;
    the bounded flavors add σ(1) = X and σ(a ∧ b) = σ(a) ∩ σ(b).  The pairs are
    read from the lattice's ``join_pairs()`` and ``meet_pairs()``, and the
    witness is the element or pair of elements, by name.
    """
    names = l.elements
    yield "empty", names[l.bottom], S[l.bottom]
    for a, b, j in l.join_pairs():
        yield "join", (names[a], names[b]), S[j] ^ (S[a] | S[b])
    if FLAVORS[flavor].bounded:
        yield "full", names[l.top], S[l.top] ^ full
        for a, b, m in l.meet_pairs():
            yield "meet", (names[a], names[b]), S[m] ^ (S[a] & S[b])


def _require_valid(d):
    report = validate_support_datum(d)
    if not report.ok:
        raise InvalidDatum(
            f"axiom {report.detail['axiom']} fails at {report.detail['witness']}"
        )


class Spectrum:
    """The spectrum of the support-datum flavor on the ideals ``point_ideals`` of a lattice.

    The points are the ideals, labelled by their members, and
    supp(a) = {I : a not in I}.  The open basis of the space, ``basis[a]`` for
    each a, is the supp sets, by Hochster duality, for "lattice-open" (Spc^v),
    and their complements for the closed flavors, "semilattice-closed" (Sp)
    and "lattice-closed" (Spc).
    supp must then be a support datum of the flavor on that space;
    validate_support_datum checks it, and a failure raises InvalidDatum naming
    the axiom and its witness.  A point ideal that is not an int mask on the
    carrier (a bool is none) raises ValueError first, and an unknown flavor next.
    """

    def __init__(self, lattice, point_ideals, flavor):
        self.point_ideals = tuple(point_ideals)  # base-lattice mask per point
        for m in self.point_ideals:
            if not (type(m) is int and 0 <= m <= lattice.full):
                raise ValueError(f"point ideal {m!r} is not a mask on the carrier")
        flip = (1 << len(self.point_ideals)) - 1 if flavor_of(flavor).closed else 0
        labels = [set_label(lattice.elements, m) for m in self.point_ideals]
        sigma = transpose([lattice.full ^ m for m in self.point_ideals], lattice.n)
        self.basis = tuple(s ^ flip for s in sigma)
        self.lattice, self.space = lattice, space_from_open_basis(labels, self.basis)
        self.supp = SupportDatum(lattice, self.space, sigma, flavor)
        _require_valid(self.supp)
        self._point = {m: p for p, m in enumerate(self.point_ideals)}

    def point_of_ideal(self, members):
        """The point whose ideal has the member mask; ValueError if there is none."""
        try:
            return self._point[members]
        except KeyError:
            raise ValueError(f"no point with ideal mask {members:b}") from None


def sp_space(l):
    """Sp(L): all ideals with closed basis supp(a) = {I : a not in I}."""
    return Spectrum(l, ideal_masks(l), "semilattice-closed")


def spc_space(l):
    """Spc(L): the prime ideals with closed basis supp(a)."""
    return Spectrum(l, prime_masks(l), "lattice-closed")


def hochster_dual(l):
    """Spc(L)^v: the prime ideals retopologized with the supp sets as open basis."""
    return Spectrum(l, prime_masks(l), "lattice-open")


_SPECTRUM_OF_FLAVOR = {
    "semilattice-closed": sp_space,
    "lattice-closed": spc_space,
    "lattice-open": hochster_dual,
}


def spectrum_for(l, flavor):
    """The spectral construction matching a support-datum flavor.

    Kept on the lattice (``l._spectra``) on first use, keyed by the flavor.
    """
    flavor_of(flavor)
    if flavor not in l._spectra:
        l._spectra[flavor] = _SPECTRUM_OF_FLAVOR[flavor](l)
    return l._spectra[flavor]


def specialization_order(x):
    """The poset x <= y iff x lies in the closure of {y}; raises NotT0 if not a poset.

    i lies in cl{j} iff every open containing i contains j, that is, iff j is
    in the minimal open U_i; so the up-set of i is U_i.
    """
    up = x.minimal_opens
    for i in range(x.n):
        for j in bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise NotT0(
                    f"points {x.points[i]!r} and {x.points[j]!r} are topologically equal"
                )
    return Poset(x.points, up)


def lane_bytes(n):
    """The bytes of one lane of a bit-sliced map from an n-point space: ⌈n/8⌉, at least 1."""
    return (n + 7) // 8 or 1


def read_lanes(value, count, size):
    """The count lanes of size bytes of a bit-sliced value, lane 0 first, as ints."""
    raw = value.to_bytes(count * size, "little")
    if size == 1:
        return raw
    return [int.from_bytes(raw[k : k + size], "little") for k in range(0, len(raw), size)]


def pull_back_opens(maps, x, y, opens):
    """(fibres, pulled): each of the given opens of y pulled back along each point map x -> y.

    Point i of map k is bit k·w + i, in lanes of w = 8 · lane_bytes(x.n) bits
    that read_lanes reads at C speed.  ``fibres[v]`` holds the bits whose
    map sends the point to v, the transpose of the maps' one-hot rows, and
    ``pulled[u]``, in the order of ``opens``, the OR of the fibres of the
    open's points, so its lane k is maps[k]⁻¹(opens[u]).  ValueError unless
    every map is total on x with int values (a bool is none) among y's points.
    """
    if not {x.n}.issuperset(map(len, maps)):
        raise ValueError("map must be total on the points of the source")
    values = list(chain.from_iterable(maps))
    if not {int}.issuperset(map(type, values)) or not set(values) <= set(range(y.n)):
        raise ValueError("map must send every point to a point of the target")
    w = 8 * lane_bytes(x.n)
    rows = [0] * (w * len(maps))
    for i, column in enumerate(zip(*maps)):
        rows[i::w] = map((1).__lshift__, column)
    # 64 lanes are transposed at a time, as an OR into an int costs the int's length
    step = 64 * w
    parts = [transpose(rows[s : s + step], y.n) for s in range(0, len(rows) or 1, step)]
    fibres = parts[0] if len(parts) == 1 else [
        int.from_bytes(b"".join(p[v].to_bytes(step // 8, "little") for p in parts), "little")
        for v in range(y.n)
    ]
    return fibres, [sum(map(fibres.__getitem__, bits(u))) for u in opens]


def is_continuous(f, x, y):
    """True iff the preimage of each minimal open of y, so of each union of them, is open in x."""
    return x.openset.issuperset(pull_back_opens([tuple(f)], x, y, y.minimal_opens)[1])


def enumerate_continuous(x, y, guard=None):
    """All continuous maps x -> y as image tuples, in lexicographic order.

    Alexandrov's criterion: a map of finite spaces is continuous iff j in
    U_i implies f(j) in U_f(i), for the minimal open neighbourhoods U.  A
    scheduled_search assigns the points 0..n-1 in index order and tests each
    pair (i, j) once, at the later of the two depths.  The guard bounds the
    y.n ** x.n candidate maps up front, and only there; size_bound reads it.
    """
    if y.n ** x.n > size_bound(guard):
        raise SizeGuardExceeded("continuous-map enumeration exceeds the size guard")
    # y_within[w]: the values v whose U_v contains w
    y_within = transpose(y.minimal_opens, y.n)
    pairs = [[] for _ in range(x.n)]
    for i in range(x.n):
        for j in bits(x.minimal_opens[i] & ~(1 << i)):
            if i < j:
                pairs[j].append((i, y.minimal_opens))
            else:
                pairs[i].append((j, y_within))
    start = [y.full] * x.n
    return list(scheduled_search(range(x.n), y.n, start, pairs, [[]] * x.n))


def is_homeomorphism(f, x, y):
    """True iff the point map f is a bijection x -> y, continuous both ways."""
    f = tuple(f)
    if not {int}.issuperset(map(type, f)):
        raise ValueError("map must send every point to a point of the target")
    if len(f) != x.n or sorted(f) != list(range(y.n)):
        return False
    inv = [0] * y.n
    for i, v in enumerate(f):
        inv[v] = i
    return is_continuous(f, x, y) and is_continuous(inv, y, x)

