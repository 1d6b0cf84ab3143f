"""Support data on (semi)lattices and the adjunction bijections into the spectra."""

from __future__ import annotations

from .errors import InvalidDatum, NotContinuous
from .order import dual, enumerate_morphisms
from .topology import (
    FLAVORS,
    SupportDatum,
    _require_valid,
    cl_lattice,
    enumerate_continuous,
    hochster_dual,
    is_continuous,
    omega_lattice,
    preimage,
    sp_space,
    spc_space,
    validate_support_datum,  # re-exported: the datum and its validator live by the spectra
)

_SPECTRUM_OF_FLAVOR = {
    "semilattice-closed": sp_space,
    "lattice-closed": spc_space,
    "lattice-open": hochster_dual,
}


def spectrum_for(l, flavor):
    """The spectral construction matching a support-datum flavor.

    Kept on the lattice on first use, keyed by the flavor.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    spectra = vars(l).setdefault("_spectra", {})
    if flavor not in spectra:
        spectra[flavor] = _SPECTRUM_OF_FLAVOR[flavor](l)
    return spectra[flavor]


def enumerate_support_data(l, x, flavor, guard=None):
    """All valid support data of the flavor on (l, x).

    Per definition a datum is a lattice morphism into Cl(X) (or Ω(X) for the
    open flavor), so the enumeration runs over those morphisms.
    """
    if flavor == "semilattice-closed":
        setlat, kind = cl_lattice(x), "jsl"
    elif flavor == "lattice-closed":
        setlat, kind = cl_lattice(x), "blat"
    else:
        setlat, kind = omega_lattice(x), "blat"
    data = []
    for phi in enumerate_morphisms(l, setlat.lattice, kind, guard):
        sigma = tuple(setlat.masks[v] for v in phi)
        data.append(SupportDatum(l, x, sigma, flavor))
    data.sort(key=lambda d: d.sigma)
    return data


def sigma_of_map(f, x, spectrum):
    """Σ(f): the support datum a ↦ f^{-1}(supp(a)) of a continuous map into the spectrum.

    Continuity is checked literally: every open of the spectrum is pulled
    back along f and looked up in O(X), and NotContinuous is raised when
    one preimage is not open.  The supp(a) and the opens are pulled back
    together, as the column sums of the spectrum's pull-back rows that f
    picks.
    """
    f = tuple(f)
    if len(f) != x.n:
        raise ValueError("map must be total on the points of the source")
    if f and not 0 <= min(f) <= max(f) < spectrum.space.n:
        raise ValueError("map must send every point to a point of the spectrum")
    l = spectrum.lattice
    if f:
        rows = spectrum.pullbacks(x.n)
        pulled = list(map(sum, zip(*[rows[i][v] for i, v in enumerate(f)])))
    else:
        pulled = [0] * (l.n + len(spectrum.space.opens))
    if not x.openset.issuperset(pulled[l.n :]):
        raise NotContinuous("map into the spectrum is not continuous")
    return SupportDatum(l, x, pulled[: l.n], spectrum.supp.flavor)


def map_of_sigma(d, spectrum):
    """The inverse of Σ: x ↦ {a : x not in σ(a)}, as a point map into the spectrum.

    For the closed lattice flavor the value set is a prime ideal; for the open
    flavor it is likewise prime, which is how the datum lands in Spc(L)^v.
    """
    _require_valid(d)
    return _point_map(d, spectrum)


def _point_map(d, spectrum):
    """map_of_sigma on a datum already validated."""
    l = d.lattice
    f = []
    for p in range(d.space.n):
        members = 0
        for a in range(l.n):
            if not d.sigma[a] >> p & 1:
                members |= 1 << a
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

    Both sides are enumerated independently.  Every map f goes through
    sigma_of_map, whose literal continuity check is the one check per map:
    every open of the spectrum is pulled back along f and looked up in
    O(X).  Σ(f) is validated literally (each σ(a) is looked up in the
    flavor's family, and every pair a < b is checked for join and, in the
    lattice flavors, meet), looked up among the data, and
    map_of_sigma(sigma_of_map(f)) = f is checked pointwise.  The tables
    these checks read (pull-back rows, pair lists, membership sets) depend
    on one spectrum, lattice or space each; no check result is kept.

    The roundtrip sigma_of_map(map_of_sigma(d)) = d is run literally only for
    the data that no map reached.  If Σ(f) validated, equals a datum d seen
    for the first time, and maps back to f, then map_of_sigma(d) and Σ of its
    result are deterministic functions of inputs already evaluated (the same
    sigma, lattice, space and flavor): they give f and Σ(f) = d again, so the
    roundtrip of d is known to pass.
    """
    spectrum = spectrum_for(l, flavor)
    maps = enumerate_continuous(x, spectrum.space, guard)
    data = enumerate_support_data(l, x, flavor, guard)
    matching = []
    seen = set()
    roundtripped = set()
    known = set(data)
    ok = len(maps) == len(data)
    for f in maps:
        d = sigma_of_map(f, x, spectrum)
        _require_valid(d)
        first = d in known and d.sigma not in seen
        if first:
            seen.add(d.sigma)
        else:
            ok = False
        if _point_map(d, spectrum) != f:
            ok = False
        elif first:
            roundtripped.add(d.sigma)
        matching.append((f, d.sigma))
    for d in data:
        if d.sigma in roundtripped:
            continue
        f = map_of_sigma(d, spectrum)
        if sigma_of_map(f, x, spectrum) != d:
            ok = False
    if len(seen) != len(data):
        ok = False
    return AdjunctionCertificate(l, x, flavor, maps, data, matching, ok)


def datum_morphisms_to_final(d, spectrum):
    """All morphisms of support data (X,σ) -> (spectrum, supp).

    A morphism of support data is a continuous map f with σ(a) = f^{-1}(supp(a))
    for every a, that is Σ(f) = σ; finality of the spectrum means there is
    exactly one.
    """
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
        right = tuple(preimage(g, sig_f.sigma[a], x.n) for a in range(l.n))
        if left.sigma != right:
            return NaturalityCertificate(flavor, checked, False, {"f": list(f)})
        checked += 1
    return NaturalityCertificate(flavor, checked, True)
