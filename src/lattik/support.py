"""Support data on (semi)lattices and the adjunction bijections into the spectra."""

from __future__ import annotations

from . import topology
from .errors import InvalidDatum, NotContinuous
from .order import dual, enumerate_morphisms, preimage, transpose
from .topology import (
    FLAVORS,
    SupportDatum,
    _require_valid,
    cl_lattice,
    enumerate_continuous,
    flavor_of,
    is_continuous,
    lane_bytes,
    omega_lattice,
    pull_back_opens,
    read_lanes,
    spectrum_for,
    validate_support_datum,  # re-exported: the datum and its validator live by the spectra
)

# FLAVORS and the spectra live by the spectra; bench/ (its workloads and tests)
# and the test of the names it reads are the last to read them through support
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
    row = flavor_of(flavor)
    setlat = cl_lattice(x) if row.closed else omega_lattice(x)
    kind = "blat" if row.bounded else "jsl"
    masks = setlat.masks.__getitem__
    return [tuple(map(masks, phi)) for phi in enumerate_morphisms(l, setlat, kind, guard)]


def sigma_of_map(f, x, spectrum):
    """Σ(f): the support datum a ↦ f^{-1}(supp(a)) of a continuous map into the spectrum.

    It is the one-lane case of _sigma_lanes, and continuity is checked literally,
    as in is_continuous: NotContinuous is raised when one preimage is not open.
    """
    _, pulled, _, S = _sigma_lanes([tuple(f)], x, spectrum)
    if not x.openset.issuperset(pulled):
        raise NotContinuous("map into the spectrum is not continuous")
    return SupportDatum(spectrum.lattice, x, S, spectrum.supp.flavor)


def _sigma_lanes(maps, x, spectrum):
    """pull_back_opens' (fibres, pulled) of the maps x -> spectrum, X in every lane,
    and S, where lane k of S[a] is Σ(maps[k])(a), read through X for a closed flavor."""
    fibres, pulled = pull_back_opens(maps, x, spectrum.space)
    full = int.from_bytes(x.full.to_bytes(lane_bytes(x.n), "little") * len(maps), "little")
    flip = full if FLAVORS[spectrum.supp.flavor].closed else 0
    return fibres, pulled, full, [pulled[k] ^ flip for k in spectrum.supp_opens]


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
    f = []
    # members[p]: the a with p not in σ(a)
    for members in transpose([d.space.full ^ s for s in d.sigma], d.space.n):
        try:
            f.append(spectrum.point_of_ideal(members))
        except ValueError:
            raise InvalidDatum(
                f"value {d.lattice.subset_names(members)} is not a point of the spectrum"
            ) from None
    return tuple(f)


def open_closed_translate(d):
    """Complement each σ(a); swaps open data on L with closed data on L^op."""
    row = FLAVORS[d.flavor]
    if not row.bounded:
        raise InvalidDatum("translation applies to the bounded-lattice flavors only")
    new_flavor = next(n for n, r in FLAVORS.items() if r.bounded and r.closed != row.closed)
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
    iff the per-map test holds at every map.  Lane k of S[a] is Σ(f_k)(a),
    read off _sigma_lanes as in sigma_of_map.  The tests are
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
    fibres, pulled, full, S = _sigma_lanes(maps, x, spectrum)
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
    if FLAVORS[flavor].bounded:
        bad |= S[l.top] ^ full
        for a, b, m in l.meet_pairs():
            bad |= S[m] ^ (S[a] & S[b])
    flip = full if FLAVORS[flavor].closed else 0
    return _first_lane(x, count, [s ^ flip for s in S], bad)


def datum_morphisms_to_final(d, spectrum):
    """All morphisms of support data (X,σ) -> (spectrum, supp).

    A morphism of support data is a continuous map f with σ(a) = f^{-1}(supp(a))
    for every a, that is Σ(f) = σ; finality of the spectrum means there is
    exactly one.  ValueError unless the spectrum is that of d's lattice and flavor.
    Σ of every map is read off one _sigma_lanes call, after one continuity check.
    """
    _require_same_source(d, spectrum)
    maps = enumerate_continuous(d.space, spectrum.space)
    _, pulled, _, S = _sigma_lanes(maps, d.space, spectrum)
    if _first_lane(d.space, len(maps), pulled, 0) < len(maps):
        raise NotContinuous("map into the spectrum is not continuous")
    sigmas = zip(*(read_lanes(s, len(maps), lane_bytes(d.space.n)) for s in S))
    return [f for f, sigma in zip(maps, sigmas) if sigma == d.sigma]


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

    The maps f are pulled back on y in one _sigma_lanes call and the
    composites f ∘ g on x in another, as in check_adjunction, so lane k of a
    pull-back belongs to map k.  Lane k of σ(a) on y is Σ(f)(a); its preimage
    along g is compared with lane k of σ(a) on x, which is Σ(f ∘ g)(a).  Up
    to the first lane where a pull-back is not open or the two differ, the
    maps are those the per-map loop accepts; from there on they go through
    sigma_of_map one at a time, so every exception, count and witness is the
    per-map loop's.
    """
    g = tuple(g)
    if not is_continuous(g, x, y):
        raise NotContinuous("g is not continuous")
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(y, spectrum.space, guard)
    count = len(maps)
    _, on_y, _, S_y = _sigma_lanes(maps, y, spectrum)
    _, on_x, _, S_x = _sigma_lanes([tuple(f[i] for i in g) for f in maps], x, spectrum)
    first = min(_first_lane(y, count, on_y, 0), _first_lane(x, count, on_x, 0))
    for s_x, s_y in zip(S_x, S_y):
        left = list(read_lanes(s_x, count, lane_bytes(x.n)))
        right = read_lanes(s_y, count, lane_bytes(y.n))
        along_g = {u: preimage(g, u) for u in set(right)}
        right = list(map(along_g.__getitem__, right))
        if left != right:
            first = min(first, next(i for i, (u, v) in enumerate(zip(left, right)) if u != v))
    checked = first
    for f in maps[first:]:
        left = sigma_of_map(tuple(f[i] for i in g), x, spectrum).sigma
        right = tuple(preimage(g, s) for s in sigma_of_map(f, y, spectrum).sigma)
        if left != right:
            return NaturalityCertificate(flavor, checked, False, {"f": list(f)})
        checked += 1
    return NaturalityCertificate(flavor, checked, True)
