"""Support data on (semi)lattices and the adjunction bijections into the spectra."""

from __future__ import annotations

from itertools import chain

from . import topology
from .errors import InvalidDatum, NotContinuous
from .order import dual, enumerate_morphisms, preimage, transpose
from .topology import (
    FLAVORS,
    SupportDatum,
    _datum_faults,
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

_NOT_CONTINUOUS = "map into the spectrum is not continuous"


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
    sigmas, continuous, *_ = _sigma_lanes([tuple(f)], x, spectrum)
    if not continuous:
        raise NotContinuous(_NOT_CONTINUOUS)
    return SupportDatum(spectrum.lattice, x, sigmas[0], spectrum.supp.flavor)


def _sigma_lanes(maps, x, spectrum):
    """Σ of every map x -> spectrum at once: (sigmas, continuous, fibres, S, full).

    sigmas[k] is Σ(maps[k]) as a tuple, and the first ``continuous`` maps pull
    every set of spectrum.basis, so every open, as preimage commutes with ∪ and
    ∩, back to an open of x.  fibres are pull_back_opens', full is X in every
    lane, and lane k of S[a], the pulled basis[a] (complemented for a closed
    flavor), is sigmas[k][a]."""
    fibres, pulled = pull_back_opens(maps, x, spectrum.space, spectrum.basis)
    count, size = len(maps), lane_bytes(x.n)
    full = int.from_bytes(x.full.to_bytes(size, "little") * count, "little")
    flip = full if FLAVORS[spectrum.supp.flavor].closed else 0
    S = [p ^ flip for p in pulled]
    sigmas = list(zip(*(read_lanes(s, count, size) for s in S)))
    return sigmas, _first_lane(x, count, pulled), fibres, S, full


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
    _sigma_lanes makes map k lane k of each int and reads its σ, and each
    test below is lane-local, so it holds at every lane iff the per-map test
    holds at every map.  The tests are continuity (every lane of each basis
    set's pull-back is open in X), which is also the validator's family
    check, as S[a] is a pull-back, complemented for a closed flavor; the
    equations of validate_support_datum, in _first_invalid_lane; the roundtrip
    map_of_sigma(Σ(f)) = f, which sends a point p with f(p) = v back to v
    iff {a : p ∉ σ(a)} is the ideal I_v, that is iff S[a] & fibres[v] is 0
    for a in I_v and fibres[v] otherwise; and that each σ reaches a datum no
    earlier map reached.

    The failures are decided off the lanes as the per-map pass (sigma_of_map,
    _require_valid, then the datum and the roundtrip, map by map) decides them.
    Up to stop, the first lane not continuous or not valid, a σ reached before
    or a failed roundtrip makes the verdict False; only the latter goes through
    _point_map, which raises InvalidDatum if a value is no point.  The lane at
    stop raises NotContinuous or, in _require_valid, InvalidDatum.

    The bijection holds iff there are as many maps as data and every datum
    is reached.  Then every datum d is Σ(f) for exactly one map f, and
    map_of_sigma(d) = f was checked, so Σ(map_of_sigma(d)) = Σ(f) = d holds
    too: both roundtrips are certified without a second pass over the data.
    """
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(x, spectrum.space, guard)
    data = _support_sigmas(l, x, flavor, guard)
    count = len(maps)
    sigmas, continuous, fibres, S, full = _sigma_lanes(maps, x, spectrum)
    bad = 0  # the bits where the roundtrip fails
    for fibre, ideal in zip(fibres, spectrum.point_ideals):
        for a, s in enumerate(S):
            bad |= fibre & s if ideal >> a & 1 else fibre & ~s
    stop = min(continuous, _first_invalid_lane(l, x, flavor, S, count, full))
    ok = count == len(data)
    unreached = set(data)
    for f, sigma, wrong in zip(maps[:stop], sigmas, read_lanes(bad, count, lane_bytes(x.n))):
        if sigma not in unreached or (
            wrong and _point_map(SupportDatum(l, x, sigma, flavor), spectrum) != f
        ):
            ok = False
        unreached.discard(sigma)
    if stop == continuous < count:
        raise NotContinuous(_NOT_CONTINUOUS)
    if stop < count:
        _require_valid(SupportDatum(l, x, sigmas[stop], flavor))
    return AdjunctionCertificate(
        l, x, flavor, maps, data, list(zip(maps, sigmas)), ok and not unreached
    )


def _first_lane(x, count, opens):
    """The first of count lanes where a value of opens is not open in x, or count."""
    size = lane_bytes(x.n)
    first = count
    for value in opens:
        lanes = read_lanes(value, count, size)
        if not x.openset.issuperset(lanes):
            first = min(first, next(k for k, u in enumerate(lanes) if u not in x.openset))
    return first


def _first_invalid_lane(l, x, flavor, S, count, full):
    """The first of count lanes whose σ, lane k of each S[a], fails an equation
    of _datum_faults, each one big-int test over all the lanes, or count.

    ``full`` is X in every lane.  The validator's family check (each σ(a)
    closed, or open) is left out: in check_adjunction each S[a] ^ flip is
    the pull-back of basis[a], which _sigma_lanes has checked for openness, so
    a lane failing it is at or past ``continuous``, and stop cannot change.
    """
    bad = 0
    for _, _, fault in _datum_faults(l, flavor, S, full):
        bad |= fault
    if not bad:
        return count
    return next(k for k, m in enumerate(read_lanes(bad, count, lane_bytes(x.n))) if m)


def datum_morphisms_to_final(d, spectrum):
    """All morphisms of support data (X,σ) -> (spectrum, supp).

    A morphism of support data is a continuous map f with σ(a) = f^{-1}(supp(a))
    for every a, that is Σ(f) = σ; finality of the spectrum means there is
    exactly one.  ValueError unless the spectrum is that of d's lattice and flavor.
    Σ of every map is read off one _sigma_lanes call, after one continuity check.
    """
    _require_same_source(d, spectrum)
    maps = enumerate_continuous(d.space, spectrum.space)
    sigmas, continuous, *_ = _sigma_lanes(maps, d.space, spectrum)
    if continuous < len(maps):
        raise NotContinuous(_NOT_CONTINUOUS)
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
    composites f ∘ g on x in another, so sigma of map k is Σ(f_k) on y and
    Σ(f_k ∘ g) on x.  As in the per-map loop, which runs sigma_of_map on
    both and compares, the witness is the first map where the two differ,
    among the maps before the first where f or f ∘ g is not continuous;
    without one, that discontinuous map raises NotContinuous.
    """
    g = tuple(g)
    if not is_continuous(g, x, y):
        raise NotContinuous("g is not continuous")
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(y, spectrum.space, guard)
    on_y, continuous_y, *_ = _sigma_lanes(maps, y, spectrum)
    on_x, continuous_x, *_ = _sigma_lanes([tuple(f[i] for i in g) for f in maps], x, spectrum)
    stop = min(continuous_y, continuous_x)
    # σ takes few distinct values on y across the maps: each is pulled back once
    pulled = {s: preimage(g, s) for s in set(chain.from_iterable(on_y[:stop]))}
    for k, (left, right) in enumerate(zip(on_x[:stop], on_y)):
        if left != tuple(map(pulled.__getitem__, right)):
            return NaturalityCertificate(flavor, k, False, {"f": list(maps[k])})
    if stop < len(maps):
        raise NotContinuous(_NOT_CONTINUOUS)
    return NaturalityCertificate(flavor, stop, True)
