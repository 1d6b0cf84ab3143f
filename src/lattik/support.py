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
    omega_lattice,
    pull_back_opens,
    spectrum_for,
    validate_support_datum,  # re-exported: the datum and its validator live by the spectra
)

# the flavors and their spectra live by the spectra too; the CLI, jsonio and
# bench/ read them here
FLAVORS = topology.FLAVORS
_SPECTRUM_OF_FLAVOR = topology._SPECTRUM_OF_FLAVOR


def enumerate_support_data(l, x, flavor, guard=None):
    """All valid support data of the flavor on (l, x).

    Per definition a datum is a lattice morphism into Cl(X) (or Ω(X) for the
    open flavor), so the enumeration runs over those morphisms.
    """
    setlat = omega_lattice(x) if flavor == "lattice-open" else cl_lattice(x)
    kind = "jsl" if flavor == "semilattice-closed" else "blat"
    data = []
    for phi in enumerate_morphisms(l, setlat, kind, guard):
        sigma = tuple(setlat.masks[v] for v in phi)
        data.append(SupportDatum(l, x, sigma, flavor))
    data.sort(key=lambda d: d.sigma)
    return data


def sigma_of_map(f, x, spectrum):
    """Σ(f): the support datum a ↦ f^{-1}(supp(a)) of a continuous map into the spectrum.

    Continuity is checked literally, as in is_continuous: every open of the
    spectrum is pulled back along f and looked up in O(X), and
    NotContinuous is raised when one preimage is not open.  σ(a) is the
    preimage of the open ``spectrum.supp_opens[a]``, or of its complement
    for the closed flavors.
    """
    pulled = pull_back_opens(f, x, spectrum.space)
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
        names = {}  # each distinct mask is named once; every entry gets its own list

        def named(mask):
            if mask not in names:
                names[mask] = self.space.subset_names(mask)
            return list(names[mask])

        return {
            "lattice": list(self.lattice.elements),
            "space": {
                "points": list(self.space.points),
                "opens": [named(u) for u in self.space.opens],
            },
            "flavor": self.flavor,
            "map_count": self.map_count,
            "datum_count": self.datum_count,
            "bijection": self.bijection,
            "witness_pairs": [
                {
                    "map": list(f),
                    "sigma": [named(s) for s in sigma],
                }
                for f, sigma in self.matching
            ],
        }


def check_adjunction(l, x, flavor, guard=None):
    """Certify that Σ is a bijection between continuous maps and support data.

    Both sides are enumerated independently, then certified in one pass over
    the maps.  Every map f goes through sigma_of_map, whose literal
    continuity check is the one check per map: every open of the spectrum
    is pulled back along f and looked up in O(X).  Σ(f) is validated
    literally (each σ(a) is looked up in the flavor's family, and every
    pair a < b is checked for join and, in the lattice flavors, meet), must
    be a datum that no earlier map reached, and must map back:
    map_of_sigma(Σ(f)) = f is checked pointwise.  The tables these checks read (pull-back rows, pair
    lists, membership sets) depend on one space, lattice or spectrum each;
    no check result is kept.

    The bijection holds iff there are as many maps as data and every datum
    is reached.  Then every datum d is Σ(f) for exactly one map f, and
    map_of_sigma(d) = f was checked, so Σ(map_of_sigma(d)) = Σ(f) = d holds
    too: both roundtrips are certified without a second pass over the data.
    """
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(x, spectrum.space, guard)
    data = enumerate_support_data(l, x, flavor, guard)
    unreached = {d.sigma for d in data}
    matching = []
    ok = len(maps) == len(data)
    for f in maps:
        d = sigma_of_map(f, x, spectrum)
        _require_valid(d)
        if d.sigma not in unreached or _point_map(d, spectrum) != f:
            ok = False
        unreached.discard(d.sigma)
        matching.append((f, d.sigma))
    return AdjunctionCertificate(l, x, flavor, maps, data, matching, ok and not unreached)


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
    """Verify Σ(f ∘ g) = preimage-along-g ∘ Σ(f) for every continuous f: y -> spectrum."""
    g = tuple(g)
    if not is_continuous(g, x, y):
        raise NotContinuous("g is not continuous")
    spectrum = spectrum_for(l, flavor)
    checked = 0
    for f in enumerate_continuous(y, spectrum.space, guard):
        fg = tuple(f[g[i]] for i in range(x.n))
        left = sigma_of_map(fg, x, spectrum)
        sig_f = sigma_of_map(f, y, spectrum)
        right = tuple(preimage(g, sig_f.sigma[a]) for a in range(l.n))
        if left.sigma != right:
            return NaturalityCertificate(flavor, checked, False, {"f": list(f)})
        checked += 1
    return NaturalityCertificate(flavor, checked, True)
