"""Support data on (semi)lattices and the adjunction bijections into the spectra."""

from __future__ import annotations

from . import topology
from .errors import InvalidDatum, NotContinuous
from .order import dual, enumerate_morphisms, preimage, transpose
from .topology import (
    SupportDatum,
    _require_valid,
    cl_lattice,
    enumerate_continuous,
    is_continuous,
    lane_bytes,
    omega_lattice,
    pull_back_opens,
    read_lanes,
    spectrum_for,
    validate_support_datum,  # re-exported: the datum and its validator live by the spectra
)

# the flavors and their spectra live by the spectra too; the CLI, jsonio and
# bench/ read them here
FLAVORS = topology.FLAVORS
_SPECTRUM_OF_FLAVOR = topology._SPECTRUM_OF_FLAVOR


def enumerate_support_data(l, x, flavor, guard=None):
    """All valid support data of the flavor on (l, x), sorted by σ."""
    return [SupportDatum(l, x, s, flavor) for s in sorted(_support_sigmas(l, x, flavor, guard))]


def _support_sigmas(l, x, flavor, guard):
    """The σ tuple of every valid support datum of the flavor on (l, x), unsorted.

    Per definition a datum is a lattice morphism into Cl(X) (or Ω(X) for the
    open flavor), so the enumeration runs over those morphisms.  ValueError
    for an unknown flavor, before any search.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    setlat = omega_lattice(x) if flavor == "lattice-open" else cl_lattice(x)
    kind = "jsl" if flavor == "semilattice-closed" else "blat"
    masks = setlat.masks.__getitem__
    return [tuple(map(masks, phi)) for phi in enumerate_morphisms(l, setlat, kind, guard)]


def sigma_of_map(f, x, spectrum):
    """Σ(f): the support datum a ↦ f^{-1}(supp(a)) of a continuous map into the spectrum.

    Continuity is checked literally, as in is_continuous: every open of the
    spectrum is pulled back along f and looked up in O(X), and
    NotContinuous is raised when one preimage is not open.  σ(a) is the
    preimage of the open ``spectrum.supp_opens[a]``, or of its complement
    for the closed flavors.
    """
    pulled = pull_back_opens([tuple(f)], x, spectrum.space)[1]
    if not x.openset.issuperset(pulled):
        raise NotContinuous("map into the spectrum is not continuous")
    flip = 0 if spectrum.supp.flavor == "lattice-open" else x.full
    sigma = [pulled[k] ^ flip for k in spectrum.supp_opens]
    return SupportDatum(spectrum.lattice, x, sigma, spectrum.supp.flavor)


def map_of_sigma(d, spectrum):
    """The inverse of Σ: x ↦ {a : x not in σ(a)}, as a point map into the spectrum.

    For the closed lattice flavor the value set is a prime ideal; for the open
    flavor it is likewise prime, which is how the datum lands in Spc(L)^v.
    ValueError unless the spectrum is that of d's lattice and flavor.
    """
    _require_same_source(d, spectrum)
    _require_valid(d)
    return _point_map(d, spectrum)


def _require_same_source(d, spectrum):
    """ValueError unless the spectrum is built on d's lattice for d's flavor."""
    if d.lattice is not spectrum.lattice or d.flavor != spectrum.supp.flavor:
        raise ValueError("the spectrum is not that of the datum's lattice and flavor")


def _point_map(d, spectrum):
    """map_of_sigma on a datum already validated."""
    l = d.lattice
    f = []
    # members[p]: the a with p not in σ(a)
    for members in transpose([d.space.full ^ s for s in d.sigma], d.space.n):
        try:
            f.append(spectrum.point_of_ideal(members))
        except ValueError:
            raise InvalidDatum(
                f"value {l.subset_names(members)} is not a point of the spectrum"
            ) from None
    return tuple(f)


def open_closed_translate(d):
    """Complement each σ(a); swaps open data on L with closed data on L^op."""
    if d.flavor == "lattice-open":
        new_flavor = "lattice-closed"
    elif d.flavor == "lattice-closed":
        new_flavor = "lattice-open"
    else:
        raise InvalidDatum("translation applies to the bounded-lattice flavors only")
    tau = tuple(d.space.full & ~s for s in d.sigma)
    return SupportDatum(dual(d.lattice), d.space, tau, new_flavor)


class AdjunctionCertificate:
    """Counts plus the explicit matching of the Σ bijection on one (L, X, flavor)."""

    def __init__(self, lattice, space, flavor, maps, data, matching, bijection):
        self.lattice = lattice
        self.space = space
        self.flavor = flavor
        self.map_count = len(maps)
        self.datum_count = len(data)
        self.matching = matching  # list of (map tuple, sigma tuple)
        self.bijection = bijection

    def to_json(self):
        x = self.space
        masks = set(x.opens).union(*(sigma for _, sigma in self.matching))
        names = {m: x.subset_names(m) for m in masks}  # every entry gets its own list
        return {
            "lattice": list(self.lattice.elements),
            "space": {
                "points": list(x.points),
                "opens": [list(names[u]) for u in x.opens],
            },
            "flavor": self.flavor,
            "map_count": self.map_count,
            "datum_count": self.datum_count,
            "bijection": self.bijection,
            "witness_pairs": [
                {"map": list(f), "sigma": [list(names[s]) for s in sigma]}
                for f, sigma in self.matching
            ],
        }


def check_adjunction(l, x, flavor, guard=None):
    """Certify that Σ is a bijection between continuous maps and support data.

    Both sides are enumerated independently, the data as σ tuples from the
    morphism search.  The maps are then certified in one bit-sliced pass:
    pull_back_opens makes map k lane k of each int, and each test below is
    lane-local (bitwise, or read lane by lane), so it holds at every lane
    iff the per-map test holds at every map.  S[a] is the pull-back of
    ``spectrum.supp_opens[a]``, XOR X in every lane for the closed flavors,
    so lane k of S[a] is Σ(f_k)(a), as in sigma_of_map.  The tests are
    continuity (every lane of every pull-back is open in X); the checks of
    validate_support_datum, in _first_invalid_lane; the roundtrip
    map_of_sigma(Σ(f)) = f, which sends a point p with f(p) = v back to v
    iff {a : p ∉ σ(a)} is the ideal I_v, that is iff S[a] & fibres[v] is 0
    for a in I_v and fibres[v] otherwise; and that each σ reaches a datum
    no earlier map reached.  Up to the first lane that fails a test the
    maps are those the per-map pass accepts; from there on they go through
    sigma_of_map, _require_valid and _point_map, so every exception,
    witness and verdict is the per-map pass's.  No check result is kept.

    The bijection holds iff there are as many maps as data and every datum
    is reached.  Then every datum d is Σ(f) for exactly one map f, and
    map_of_sigma(d) = f was checked, so Σ(map_of_sigma(d)) = Σ(f) = d holds
    too: both roundtrips are certified without a second pass over the data.
    """
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(x, spectrum.space, guard)
    data = _support_sigmas(l, x, flavor, guard)
    count, size = len(maps), lane_bytes(x.n)
    fibres, pulled = pull_back_opens(maps, x, spectrum.space)
    full = int.from_bytes(x.full.to_bytes(size, "little") * count, "little")  # X in every lane
    S = [pulled[k] ^ (0 if flavor == "lattice-open" else full) for k in spectrum.supp_opens]
    bad = 0  # the bits where the roundtrip fails
    for fibre, ideal in zip(fibres, spectrum.point_ideals):
        for a, s in enumerate(S):
            bad |= fibre & s if ideal >> a & 1 else fibre & ~s
    invalid = _first_invalid_lane(l, x, flavor, S, count, full)
    first = min(invalid, _first_lane(x, count, pulled, bad))  # continuity and the roundtrip
    sigmas = list(zip(*(read_lanes(s, count, size) for s in S)))
    unreached = set(data)
    for k, sigma in enumerate(sigmas[:first]):
        if sigma not in unreached:
            first = k
            break
        unreached.discard(sigma)
    matching = list(zip(maps[:first], sigmas))
    ok = count == len(data)
    for f in maps[first:]:
        d = sigma_of_map(f, x, spectrum)
        _require_valid(d)
        if d.sigma not in unreached or _point_map(d, spectrum) != f:
            ok = False
        unreached.discard(d.sigma)
        matching.append((f, d.sigma))
    return AdjunctionCertificate(l, x, flavor, maps, data, matching, ok and not unreached)


def _first_lane(x, count, opens, bad):
    """The first of count lanes where a value of opens is not open in x or bad is set, or count."""
    size = lane_bytes(x.n)
    first = count
    for value in opens:
        lanes = read_lanes(value, count, size)
        if not x.openset.issuperset(lanes):
            first = min(first, next(k for k, u in enumerate(lanes) if u not in x.openset))
    if bad:
        first = min(first, next(k for k, m in enumerate(read_lanes(bad, count, size)) if m))
    return first


def _first_invalid_lane(l, x, flavor, S, count, full):
    """The first of count lanes whose σ, lane k of each S[a], fails validate_support_datum.

    ``full`` is X in every lane, and count is returned if no lane fails.  Each
    check of the validator is one big-int test over all the lanes.
    """
    bad = S[l.bottom]
    for a, b, j in l.join_pairs():
        bad |= S[j] ^ (S[a] | S[b])
    if flavor != "semilattice-closed":
        bad |= S[l.top] ^ full
        for a, b, m in l.meet_pairs():
            bad |= S[m] ^ (S[a] & S[b])
    flip = 0 if flavor == "lattice-open" else full
    return _first_lane(x, count, [s ^ flip for s in S], bad)


def datum_morphisms_to_final(d, spectrum):
    """All morphisms of support data (X,σ) -> (spectrum, supp).

    A morphism of support data is a continuous map f with σ(a) = f^{-1}(supp(a))
    for every a, that is Σ(f) = σ; finality of the spectrum means there is
    exactly one.  ValueError unless the spectrum is that of d's lattice and flavor.
    """
    _require_same_source(d, spectrum)
    return [
        f
        for f in enumerate_continuous(d.space, spectrum.space)
        if sigma_of_map(f, d.space, spectrum).sigma == d.sigma
    ]


class NaturalityCertificate:
    def __init__(self, flavor, checked, ok, witness=None):
        self.flavor = flavor
        self.checked = checked
        self.ok = ok
        self.witness = witness

    def to_json(self):
        return {
            "flavor": self.flavor,
            "checked": self.checked,
            "ok": self.ok,
            "witness": self.witness,
        }


def check_naturality(l, g, x, y, flavor, guard=None):
    """Verify Σ(f ∘ g) = preimage-along-g ∘ Σ(f) for every continuous f: y -> spectrum.

    The maps f are pulled back on y in one bit-sliced pull_back_opens call
    and the composites f ∘ g on x in another, as in check_adjunction, so
    lane k of a pull-back belongs to map k.  Lane k of σ(a) on y is Σ(f)(a),
    as in sigma_of_map; its preimage along g is compared with lane k of σ(a)
    on x, which is Σ(f ∘ g)(a).  Up to the first lane where a pull-back is
    not open or the two differ, the maps are those the per-map loop accepts;
    from there on they go through sigma_of_map one at a time, so every
    exception, count and witness is the per-map loop's.
    """
    g = tuple(g)
    if not is_continuous(g, x, y):
        raise NotContinuous("g is not continuous")
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(y, spectrum.space, guard)
    count = len(maps)
    on_y = pull_back_opens(maps, y, spectrum.space)[1]
    on_x = pull_back_opens([tuple(f[i] for i in g) for f in maps], x, spectrum.space)[1]
    first = min(_first_lane(y, count, on_y, 0), _first_lane(x, count, on_x, 0))
    flip_x, flip_y = (0, 0) if flavor == "lattice-open" else (x.full, y.full)
    for k in spectrum.supp_opens:
        left = [u ^ flip_x for u in read_lanes(on_x[k], count, lane_bytes(x.n))]
        right = [u ^ flip_y for u in read_lanes(on_y[k], count, lane_bytes(y.n))]
        along_g = {u: preimage(g, u) for u in set(right)}
        right = list(map(along_g.__getitem__, right))
        if left != right:
            first = min(first, next(i for i, (u, v) in enumerate(zip(left, right)) if u != v))
    checked = first
    for f in maps[first:]:
        fg = tuple(f[g[i]] for i in range(x.n))
        left = sigma_of_map(fg, x, spectrum)
        sig_f = sigma_of_map(f, y, spectrum)
        right = tuple(preimage(g, sig_f.sigma[a]) for a in range(l.n))
        if left.sigma != right:
            return NaturalityCertificate(flavor, checked, False, {"f": list(f)})
        checked += 1
    return NaturalityCertificate(flavor, checked, True)
