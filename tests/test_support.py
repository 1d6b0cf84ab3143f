"""Support data, validation, the Sigma adjunction, translation, and naturality."""

import copy
import re
from collections import Counter
from itertools import product

import pytest

from conftest import discrete_space
from lattik import support
from lattik.corpus import b2, chain, m3, n5, space_corpus
from lattik.errors import InvalidDatum, NotContinuous
from lattik.ideals import is_prime
from lattik.order import Certificate, dual, preimage, two
from lattik.support import (
    SupportDatum,
    check_adjunction,
    check_naturality,
    datum_morphisms_to_final,
    enumerate_support_data,
    map_of_sigma,
    open_closed_translate,
    sigma_of_map,
    spectrum_for,
    validate_support_datum,
)
from lattik.topology import (
    FLAVORS,
    FiniteSpace,
    enumerate_continuous,
    is_continuous,
    sp_space,
    space_from_closed_basis,
)


def sierpinski():
    return space_from_closed_basis(["p", "q"], [0b01])


def brute_support_data(l, x, flavor):
    """Independent oracle: filter every assignment by the axioms directly."""
    sets = x.closed_sets() if flavor != "lattice-open" else x.opens
    out = []
    for sigma in product(sets, repeat=l.n):
        if sigma[l.bottom] != 0:
            continue
        if any(
            sigma[l.join[a][b]] != sigma[a] | sigma[b]
            for a in range(l.n)
            for b in range(l.n)
        ):
            continue
        if flavor != "semilattice-closed":
            if sigma[l.top] != x.full:
                continue
            if any(
                sigma[l.meet[a][b]] != sigma[a] & sigma[b]
                for a in range(l.n)
                for b in range(l.n)
            ):
                continue
        out.append(sigma)
    return sorted(out)


def nested_scan_report(d):
    """The validator as a nested scan over index pairs: the oracle for its first witness."""
    l, x, sigma = d.lattice, d.space, d.sigma

    def fail(axiom, witness):
        return Certificate(False, {"axiom": axiom, "witness": witness})

    sets = x.closed_sets() if d.flavor != "lattice-open" else x.opens
    kindname = "open" if d.flavor == "lattice-open" else "closed"
    for a, s in enumerate(sigma):
        if s not in sets:
            return fail(kindname, l.elements[a])
    if sigma[l.bottom] != 0:
        return fail("empty", l.elements[l.bottom])
    for a in range(l.n):
        for b in range(a + 1, l.n):
            if sigma[l.join[a][b]] != sigma[a] | sigma[b]:
                return fail("join", (l.elements[a], l.elements[b]))
    if d.flavor in ("lattice-closed", "lattice-open"):
        if sigma[l.top] != x.full:
            return fail("full", l.elements[l.top])
        for a in range(l.n):
            for b in range(a + 1, l.n):
                if sigma[l.meet[a][b]] != sigma[a] & sigma[b]:
                    return fail("meet", (l.elements[a], l.elements[b]))
    return Certificate(True, {"axiom": None, "witness": None})


def mutants(d):
    """d read with each flavor, and every single-bit flip of each σ(a) and each σ(a)
    replaced by a set outside the family."""
    x = d.space
    for flavor in FLAVORS:
        yield SupportDatum(d.lattice, x, d.sigma, flavor)
    family = x.opens if d.flavor == "lattice-open" else x.closed_sets()
    outside = [m for m in range(1 << x.n) if m not in family]
    for a in range(d.lattice.n):
        for new in [d.sigma[a] ^ (1 << p) for p in range(x.n)] + outside:
            sigma = list(d.sigma)
            sigma[a] = new
            yield SupportDatum(d.lattice, x, sigma, d.flavor)


class TestValidation:
    def test_supp_itself_is_valid(self, corpus5):
        for l in corpus5:
            for flavor in FLAVORS:
                spec = spectrum_for(l, flavor)
                assert validate_support_datum(spec.supp).ok

    def test_rejects_non_closed_value(self):
        l, x = two(), sierpinski()
        # {q} is open but not closed in the Sierpinski space
        d = SupportDatum(l, x, (0, 1 << x.points.index("q")), "semilattice-closed")
        report = validate_support_datum(d)
        assert not report.ok and report.detail["axiom"] == "closed"

    def test_rejects_nonempty_bottom(self):
        l, x = two(), sierpinski()
        d = SupportDatum(l, x, (x.full, x.full), "semilattice-closed")
        report = validate_support_datum(d)
        assert not report.ok and report.detail["axiom"] == "empty"

    def test_rejects_missing_top(self):
        l, x = b2(), discrete_space(["p"])
        d = SupportDatum(l, x, (0, 0, 0, 0), "lattice-closed")
        report = validate_support_datum(d)
        assert not report.ok and report.detail["axiom"] == "full"

    def test_rejects_broken_meet(self):
        l, x = b2(), discrete_space(["p", "q"])
        full = x.full
        sigma = [0] * l.n
        sigma[l.index("a")] = full
        sigma[l.index("b")] = full
        sigma[l.index("1")] = full
        d = SupportDatum(l, x, sigma, "lattice-closed")
        report = validate_support_datum(d)
        assert not report.ok and report.detail["axiom"] == "meet"

    @pytest.mark.parametrize("sigma", [(0, 1, 3, 3), (0, 1)], ids=["one-extra", "one-short"])
    def test_sigma_has_one_mask_per_element(self, sigma):
        x = discrete_space(["p", "q"])
        with pytest.raises(ValueError, match="one point set per lattice element"):
            SupportDatum(chain(3), x, sigma, "semilattice-closed")

    def test_data_on_two_lattices_differ(self):
        # chain(4) and b2() have 4 elements each, so one σ fits both
        x = discrete_space(["p"])
        a = SupportDatum(chain(4), x, (0, 0, 1, 1), "lattice-closed")
        b = SupportDatum(b2(), x, (0, 0, 1, 1), "lattice-closed")
        assert a != b
        assert len({a, b}) == 2

    def test_unknown_flavor(self):
        x = discrete_space(["p"])
        with pytest.raises(ValueError, match="^unknown flavor 'bogus'$"):
            SupportDatum(two(), x, (0, x.full), "bogus")
        with pytest.raises(ValueError, match="^unknown flavor 'bogus'$"):
            spectrum_for(two(), "bogus")
        # M3 has no morphism to build a datum from, N5 has one
        for l in (m3(), n5()):
            with pytest.raises(ValueError, match="^unknown flavor 'bogus'$"):
                enumerate_support_data(l, x, "bogus")

    @pytest.mark.parametrize("flavor", [[], {}, None, 1])
    def test_unknown_flavor_that_is_not_a_string(self, flavor):
        x = discrete_space(["p"])
        message = f"^unknown flavor {re.escape(repr(flavor))}$"
        with pytest.raises(ValueError, match=message):
            SupportDatum(two(), x, (0, x.full), flavor)
        with pytest.raises(ValueError, match=message):
            spectrum_for(two(), flavor)
        with pytest.raises(ValueError, match=message):
            enumerate_support_data(n5(), x, flavor)

    def test_repr_names_each_set_in_point_order(self):
        x = discrete_space(["p", "q"])
        d = SupportDatum(two(), x, (0, x.full), "semilattice-closed")
        assert repr(d) == "SupportDatum[semilattice-closed](0->{}, 1->{p,q})"

    def test_matches_brute_oracle(self, corpus4):
        small = [
            FiniteSpace([], [0]),
            discrete_space(["p"]),
            sierpinski(),
            discrete_space(["p", "q"]),
        ]
        for l in corpus4:
            for x in small:
                for flavor in FLAVORS:
                    fast = sorted(
                        d.sigma for d in enumerate_support_data(l, x, flavor)
                    )
                    assert fast == brute_support_data(l, x, flavor)

    def test_first_witness_matches_the_nested_scan(self, corpus5):
        # lattice_corpus(5) holds M3 and N5, whose meet failures can differ in witness
        failures = Counter()
        for l in corpus5:
            for x in space_corpus(2):
                for flavor in FLAVORS:
                    for d in enumerate_support_data(l, x, flavor):
                        assert validate_support_datum(d).ok
                        for bad in mutants(d):
                            report = validate_support_datum(bad)
                            oracle = nested_scan_report(bad)
                            assert (report.ok, report.detail) == (oracle.ok, oracle.detail)
                            failures[report.detail["axiom"]] += 1
        # every axiom, in both family spellings, is the first failure somewhere;
        # None counts the flips that land on another valid datum
        assert set(failures) == {"closed", "open", "empty", "join", "full", "meet", None}


def test_sliced_validation_flags_the_lanes_the_validator_rejects(corpus5):
    # each σ, valid or a mutant, is one lane of the columns S[a]: alone, the
    # sliced equations or the literal family check flag it iff
    # validate_support_datum rejects it, and packed, the first lane either
    # flags is the first σ rejected.  check_adjunction leaves the family
    # check to continuity, as each S[a] there is a pull-back of an open
    flagged = 0
    for l in corpus5:
        for x in space_corpus(2):
            for flavor in FLAVORS:
                data = enumerate_support_data(l, x, flavor)
                lanes = [b.sigma for d in data for b in mutants(d) if b.flavor == flavor]
                flip = x.full if FLAVORS[flavor].closed else 0

                def first(sigmas):
                    S = [int.from_bytes(bytes(s[a] for s in sigmas), "little") for a in range(l.n)]
                    full = int.from_bytes(bytes([x.full]) * len(sigmas), "little")
                    family = [all(s ^ flip in x.openset for s in sigma) for sigma in sigmas]
                    return min(
                        support._first_invalid_lane(l, x, flavor, S, len(sigmas), full),
                        (family + [False]).index(False),
                    )

                valid = [validate_support_datum(SupportDatum(l, x, s, flavor)).ok for s in lanes]
                for sigma, ok in zip(lanes, valid):
                    assert first([sigma]) == ok
                assert first(lanes) == (valid + [False]).index(False)
                flagged += valid.count(False)
    assert flagged > 1000


def preimage_sigma(f, x, spectrum):
    """Σ(f) by its definition, a ↦ f^{-1}(supp(a)), after pulling back every open one by one."""
    if not all(preimage(f, u) in x.openset for u in spectrum.space.opens):
        raise NotContinuous("map into the spectrum is not continuous")
    return tuple(preimage(f, s) for s in spectrum.supp.sigma)


class TestSigmaOfMap:
    def test_matches_the_preimage_definition_on_every_map(self, corpus5, spaces3):
        continuous = discontinuous = 0
        for l in corpus5:
            for flavor in FLAVORS:
                spec = spectrum_for(l, flavor)
                for x in spaces3:
                    for f in product(range(spec.space.n), repeat=x.n):
                        if is_continuous(f, x, spec.space):
                            assert sigma_of_map(f, x, spec).sigma == preimage_sigma(f, x, spec)
                            continuous += 1
                        else:
                            with pytest.raises(NotContinuous):
                                sigma_of_map(f, x, spec)
                            discontinuous += 1
        assert continuous and discontinuous

    def test_empty_source_into_every_spectrum(self, corpus5):
        empty = FiniteSpace([], [0])
        for l in corpus5:
            for flavor in FLAVORS:
                spec = spectrum_for(l, flavor)
                assert sigma_of_map((), empty, spec).sigma == (0,) * l.n
        # Spc(M3) has no point, so the empty map is the only map into it
        assert spectrum_for(m3(), "lattice-closed").space.n == 0

    @pytest.mark.parametrize(
        "f", [(0,), (0, 0, 0), (0, 2), (-1, 0), (0, True), (1.0, 0), ("a", 0), (None, 0)]
    )
    def test_map_off_the_points_is_rejected(self, f):
        spec = sp_space(two())
        with pytest.raises(ValueError, match="map must"):
            sigma_of_map(f, sierpinski(), spec)

    def test_identity_on_spectrum_recovers_supp(self, corpus5):
        for l in corpus5:
            for flavor in FLAVORS:
                spec = spectrum_for(l, flavor)
                ident = tuple(range(spec.space.n))
                d = sigma_of_map(ident, spec.space, spec)
                assert d.sigma == spec.supp.sigma

    def test_constant_map_to_closed_point(self):
        l = chain(3)
        spec = sp_space(l)
        # the bottom ideal {0} lies in every supp(a) with a != 0
        p = spec.point_of_ideal(1 << l.bottom)
        x = sierpinski()
        d = sigma_of_map((p, p), x, spec)
        assert d.sigma[l.bottom] == 0
        assert d.sigma[l.index("m1")] == x.full == d.sigma[l.index("1")]

    def test_discontinuous_map_rejected(self):
        spec = sp_space(two())
        maps = set(enumerate_continuous(sierpinski(), spec.space))
        bad = next(
            f for f in product(range(2), repeat=2) if f not in maps
        )
        with pytest.raises(NotContinuous):
            sigma_of_map(bad, sierpinski(), spec)


class TestMapOfSigma:
    def test_roundtrip_from_maps(self, corpus4):
        small = [discrete_space(["p"]), sierpinski(), discrete_space(["p", "q"])]
        for l in corpus4:
            for x in small:
                for flavor in FLAVORS:
                    spec = spectrum_for(l, flavor)
                    for f in enumerate_continuous(x, spec.space):
                        d = sigma_of_map(f, x, spec)
                        assert map_of_sigma(d, spec) == f

    def test_roundtrip_from_data(self, corpus4):
        small = [discrete_space(["p"]), sierpinski(), discrete_space(["p", "q"])]
        for l in corpus4:
            for x in small:
                for flavor in FLAVORS:
                    spec = spectrum_for(l, flavor)
                    for d in enumerate_support_data(l, x, flavor):
                        f = map_of_sigma(d, spec)
                        assert sigma_of_map(f, x, spec) == d

    def test_invalid_datum_rejected(self):
        l, x = two(), sierpinski()
        d = SupportDatum(l, x, (x.full, x.full), "semilattice-closed")
        with pytest.raises(InvalidDatum):
            map_of_sigma(d, sp_space(l))

    def test_rejects_the_spectrum_of_another_lattice(self):
        # σ = (∅, ∅, X, X) on chain(4) reads as the prime {0, a} of B2; the
        # map it gave into Spc(B2) was no inverse of Σ on chain(4)
        x = discrete_space(["p"])
        d = SupportDatum(chain(4), x, (0, 0, x.full, x.full), "lattice-closed")
        with pytest.raises(ValueError, match="not that of the datum's lattice"):
            map_of_sigma(d, spectrum_for(b2(), "lattice-closed"))

    def test_rejects_the_spectrum_of_another_flavor(self):
        l, x = chain(3), discrete_space(["p"])
        d = SupportDatum(l, x, (0, x.full, x.full), "lattice-closed")
        with pytest.raises(ValueError, match="not that of the datum's lattice"):
            map_of_sigma(d, spectrum_for(l, "lattice-open"))

    def test_closed_flavor_values_are_prime(self, corpus5):
        # f(x) = {a : x not in sigma(a)} must be a prime ideal of L
        x = sierpinski()
        for l in corpus5:
            for d in enumerate_support_data(l, x, "lattice-closed"):
                for p in range(x.n):
                    members = 0
                    for a in range(l.n):
                        if not d.sigma[a] >> p & 1:
                            members |= 1 << a
                    assert is_prime(l, members)


class TestTranslation:
    def test_complements_pointwise(self):
        l, x = b2(), sierpinski()
        for d in enumerate_support_data(l, x, "lattice-open"):
            t = open_closed_translate(d)
            assert t.flavor == "lattice-closed"
            assert t.sigma == tuple(x.full & ~s for s in d.sigma)

    def test_involution(self, corpus4):
        x = sierpinski()
        for l in corpus4:
            for flavor in ("lattice-closed", "lattice-open"):
                for d in enumerate_support_data(l, x, flavor):
                    back = open_closed_translate(open_closed_translate(d))
                    assert back.sigma == d.sigma and back.flavor == d.flavor

    def test_matches_data_on_dual(self, corpus5):
        x = discrete_space(["p", "q"])
        for l in corpus5:
            opens = {d.sigma for d in enumerate_support_data(l, x, "lattice-open")}
            closed_dual = {
                d.sigma
                for d in enumerate_support_data(dual(l), x, "lattice-closed")
            }
            assert {tuple(x.full & ~s for s in sig) for sig in opens} == closed_dual

    def test_rejects_semilattice_flavor(self):
        d = SupportDatum(two(), sierpinski(), (0, 0b01), "semilattice-closed")
        with pytest.raises(InvalidDatum):
            open_closed_translate(d)


@pytest.fixture
def backward_roundtrips(monkeypatch):
    """The data that check_adjunction sends through the literal map_of_sigma."""
    calls = []

    def counting(d, spectrum):
        calls.append(d.sigma)
        return map_of_sigma(d, spectrum)

    monkeypatch.setattr(support, "map_of_sigma", counting)
    return calls


def per_map_check_adjunction(l, x, flavor):
    """check_adjunction as it was before the bit-sliced pass, verbatim: one map at a time.

    It reads every helper through the support module, so a fault patched
    there reaches it.
    """
    spectrum = support.spectrum_for(l, flavor)
    maps = support.enumerate_continuous(x, spectrum.space)
    data = support.enumerate_support_data(l, x, flavor)
    unreached = {d.sigma for d in data}
    matching = []
    ok = len(maps) == len(data)
    for f in maps:
        d = support.sigma_of_map(f, x, spectrum)
        support._require_valid(d)
        if d.sigma not in unreached or support._point_map(d, spectrum) != f:
            ok = False
        unreached.discard(d.sigma)
        matching.append((f, d.sigma))
    return support.AdjunctionCertificate(l, x, flavor, maps, data, matching, ok and not unreached)


def summary(cert):
    return cert.bijection, cert.map_count, cert.datum_count, cert.matching


def outcome(check, *args):
    """The certificate's summary, or the type and message of what the check raised."""
    try:
        return summary(check(*args))
    except (InvalidDatum, NotContinuous) as e:
        return type(e), str(e)


def chain_space(n):
    """The n points c0 < … < c(n-1) of a chain, with the down-sets closed."""
    points = [f"c{i}" for i in range(n)]
    return space_from_closed_basis(points, [(1 << i) - 1 for i in range(n + 1)])


@pytest.mark.parametrize("flavor", FLAVORS)
def test_every_lane_agrees_with_the_per_map_functions(corpus5, spaces3, flavor):
    # the sliced σ of each map is sigma_of_map's, a valid datum, mapped back to
    # the map, and the certificate is the per-map pass's; a sample of the
    # 4-point spaces, a 9-point chain (lanes of 2 bytes) and a 17-point chain
    # (3 bytes) join the spaces of up to 3 points
    spaces = spaces3 + space_corpus(4)[::80] + [chain_space(9)]
    pairs = [(l, x) for l in corpus5 for x in spaces]
    pairs.append((two(), chain_space(17)))
    maps = []
    for l, x in pairs:
        spec = spectrum_for(l, flavor)
        cert = check_adjunction(l, x, flavor)
        assert cert.bijection
        assert summary(cert) == summary(per_map_check_adjunction(l, x, flavor))
        for f, sigma in cert.matching:
            d = sigma_of_map(f, x, spec)
            assert sigma == d.sigma == preimage_sigma(f, x, spec)
            assert validate_support_datum(d).ok
            assert map_of_sigma(d, spec) == f
        maps.append(cert.map_count)
    # pull_back_opens transposes 64 lanes at a time
    assert max(maps) > 128


class TestAdjunction:
    def test_two_sierpinski_semilattice(self):
        cert = check_adjunction(two(), sierpinski(), "semilattice-closed")
        assert cert.bijection
        assert cert.map_count == cert.datum_count == 3

    def test_two_sierpinski_lattice_flavors(self):
        for flavor in ("lattice-closed", "lattice-open"):
            cert = check_adjunction(two(), sierpinski(), flavor)
            assert cert.bijection and cert.map_count == 1

    def test_b2_point_lattice_closed(self):
        cert = check_adjunction(b2(), discrete_space(["p"]), "lattice-closed")
        assert cert.bijection and cert.datum_count == 2

    def test_c3_discrete_two(self):
        cert = check_adjunction(chain(3), discrete_space(["p", "q"]), "semilattice-closed")
        assert cert.bijection and cert.datum_count == 9

    def test_empty_space(self):
        cert = check_adjunction(two(), FiniteSpace([], [0]), "semilattice-closed")
        assert cert.bijection and cert.map_count == cert.datum_count == 1

    def test_zero_maps_and_the_empty_space(self):
        # Spc of the 1-element lattice is empty, so a point has no map into it
        # and no datum of a lattice flavor; the empty space has one of each
        one, empty = chain(1), FiniteSpace([], [0])
        for flavor in FLAVORS:
            for l, x in [(one, sierpinski()), (one, empty), (m3(), empty), (n5(), empty)]:
                cert = check_adjunction(l, x, flavor)
                assert cert.bijection
                assert summary(cert) == summary(per_map_check_adjunction(l, x, flavor))
                expected = x.n == 0 or flavor == "semilattice-closed"
                assert cert.map_count == cert.datum_count == expected

    def test_empty_spectrum_side(self):
        # Spc(M3) is empty, so both sides of the bijection are empty
        cert = check_adjunction(m3(), sierpinski(), "lattice-closed")
        assert cert.bijection and cert.map_count == cert.datum_count == 0

    def test_n5_open_flavor(self):
        cert = check_adjunction(n5(), sierpinski(), "lattice-open")
        assert cert.bijection and cert.datum_count == 2

    def test_certificate_json_shape(self):
        cert = check_adjunction(two(), sierpinski(), "semilattice-closed")
        j = cert.to_json()
        assert j["bijection"] is True
        assert j["map_count"] == 3 and len(j["witness_pairs"]) == 3

    def test_certificate_json_hands_out_a_list_per_entry(self):
        x = discrete_space(["p", "q"])
        j = check_adjunction(chain(3), x, "semilattice-closed").to_json()
        lists = j["space"]["opens"] + [s for pair in j["witness_pairs"] for s in pair["sigma"]]
        assert len({id(s) for s in lists}) == len(lists)
        assert j["space"]["opens"] == [x.subset_names(u) for u in x.opens]

    def test_sweep_corpus4_small_spaces(self, corpus4, spaces3):
        for l in corpus4:
            for x in spaces3[:12]:
                for flavor in FLAVORS:
                    assert check_adjunction(l, x, flavor).bijection

    def test_reached_data_skip_the_literal_backward_roundtrip(self, backward_roundtrips):
        cert = check_adjunction(chain(3), discrete_space(["p", "q"]), "semilattice-closed")
        assert cert.bijection and cert.datum_count == 9
        assert backward_roundtrips == []

    def test_dropped_map_fails_without_a_backward_roundtrip(
        self, monkeypatch, backward_roundtrips
    ):
        monkeypatch.setattr(
            support,
            "enumerate_continuous",
            lambda x, y, guard=None: enumerate_continuous(x, y, guard)[1:],
        )
        cert = check_adjunction(chain(3), discrete_space(["p", "q"]), "semilattice-closed")
        assert cert.bijection is False
        assert cert.map_count == 8 and cert.datum_count == 9
        assert backward_roundtrips == []

    def test_duplicated_map_fails(self, monkeypatch):
        def duplicating(x, y, guard=None):
            maps = enumerate_continuous(x, y, guard)
            return maps + maps[:1]

        monkeypatch.setattr(support, "enumerate_continuous", duplicating)
        cert = check_adjunction(chain(3), discrete_space(["p", "q"]), "semilattice-closed")
        assert cert.bijection is False and cert.map_count == 10


def two_pass_check_adjunction(l, x, flavor):
    """The former check_adjunction, with its second pass over the unreached data.

    Returns (bijection, map count, datum count, matching); it reads every
    helper through the support module, so a fault patched there reaches it.
    """
    spectrum = support.spectrum_for(l, flavor)
    maps = support.enumerate_continuous(x, spectrum.space)
    data = support.enumerate_support_data(l, x, flavor)
    matching = []
    seen = set()
    roundtripped = set()
    known = set(data)
    ok = len(maps) == len(data)
    for f in maps:
        d = support.sigma_of_map(f, x, spectrum)
        support._require_valid(d)
        first = d in known and d.sigma not in seen
        if first:
            seen.add(d.sigma)
        else:
            ok = False
        if support._point_map(d, spectrum) != f:
            ok = False
        elif first:
            roundtripped.add(d.sigma)
        matching.append((f, d.sigma))
    for d in data:
        if d.sigma in roundtripped:
            continue
        f = support.map_of_sigma(d, spectrum)
        if support.sigma_of_map(f, x, spectrum) != d:
            ok = False
    if len(seen) != len(data):
        ok = False
    return ok, len(maps), len(data), matching


def reversed_points(spectrum, *args):
    """A copy of the spectrum whose point ↔ ideal table runs backwards."""
    out = copy.copy(spectrum)
    out.point_ideals = spectrum.point_ideals[::-1]
    out._point = {m: p for p, m in enumerate(out.point_ideals)}
    return out


def bottomless_point(spectrum, *args):
    """A copy of the spectrum whose point 0 has its ideal less the bottom, no ideal at all.

    A map onto point 0 then fails its roundtrip, and the point map of its σ
    meets the true ideal, which is no longer a point."""
    out = copy.copy(spectrum)
    ideals = list(spectrum.point_ideals)
    if ideals:
        ideals[0] ^= 1 << spectrum.lattice.bottom
    out.point_ideals = tuple(ideals)
    out._point = {m: p for p, m in enumerate(out.point_ideals)}
    return out


def swapped_supp(spectrum, *args):
    """A copy of the spectrum whose last two elements swap the basis sets that σ pulls back."""
    out = copy.copy(spectrum)
    out.basis = spectrum.basis[:-2] + spectrum.basis[:-3:-1]
    return out


def with_discontinuous_map(found, x, y, *args):
    """The maps found, then the first point map x -> y that is not continuous, if any."""
    maps = product(range(y.n), repeat=x.n)
    return found + [f for f in maps if not is_continuous(f, x, y)][:1]


def discontinuous_map_first(found, x, y, *args):
    """The first point map x -> y that is not continuous, if any, then the maps found."""
    return with_discontinuous_map([], x, y) + found


def changed(original, change):
    return lambda *args: change(original(*args), *args)


# (support name, change): the name returns change(what it returned, *its arguments)
ADJUNCTION_FAULTS = {
    "none": None,
    "drop first map": ("enumerate_continuous", lambda found, *args: found[1:]),
    "duplicate a map": ("enumerate_continuous", lambda found, *args: found + found[:1]),
    "drop first datum": ("_support_sigmas", lambda found, *args: found[1:]),
    "duplicate a datum": ("_support_sigmas", lambda found, *args: found + found[:1]),
    "reverse the point map": ("spectrum_for", reversed_points),
}


@pytest.mark.parametrize("fault", ADJUNCTION_FAULTS)
def test_one_pass_matches_the_two_pass_certificate(monkeypatch, corpus4, fault):
    if ADJUNCTION_FAULTS[fault]:
        name, change = ADJUNCTION_FAULTS[fault]
        monkeypatch.setattr(support, name, changed(getattr(support, name), change))
    cases = raised = refused = 0
    for l in corpus4:
        for x in space_corpus(2):
            for flavor in FLAVORS:
                cert = check_adjunction(l, x, flavor)
                cases += 1
                refused += not cert.bijection
                try:
                    oracle = two_pass_check_adjunction(l, x, flavor)
                except (InvalidDatum, NotContinuous):
                    # the former second pass raised where the verdict was already False
                    assert cert.bijection is False
                    raised += 1
                    continue
                got = (cert.bijection, cert.map_count, cert.datum_count, cert.matching)
                assert got == oracle
    # a fault can leave a case intact (no map to drop, a one-point map to reverse)
    assert cases == 90 and (refused > 0) is (fault != "none")
    assert (raised > 0) is (fault == "reverse the point map")


PER_MAP_FAULTS = {
    **{name: [fault] if fault else [] for name, fault in ADJUNCTION_FAULTS.items()},
    # as many maps as data, all data reached, yet one datum reached twice
    "duplicate a map and a datum": [
        ADJUNCTION_FAULTS["duplicate a map"],
        ADJUNCTION_FAULTS["duplicate a datum"],
    ],
    "append a discontinuous map": [("enumerate_continuous", with_discontinuous_map)],
    "swap two basis sets": [("spectrum_for", swapped_supp)],
    # a failed roundtrip whose value is no point raises InvalidDatum in _point_map
    "a point ideal without the bottom": [("spectrum_for", bottomless_point)],
    # the per-map pass meets the discontinuous map before any invalid datum
    "prepend a discontinuous map, swap two basis sets": [
        ("enumerate_continuous", discontinuous_map_first),
        ("spectrum_for", swapped_supp),
    ],
    "early roundtrip mismatch, then a raising map": [
        ("spectrum_for", reversed_points),
        ("enumerate_continuous", with_discontinuous_map),
    ],
}
# the verdicts and exceptions that each fault gives, where not {True, False}
VERDICTS = {
    "none": {True},
    "append a discontinuous map": {True, NotContinuous},
    "swap two basis sets": {True, InvalidDatum},
    "a point ideal without the bottom": {True, InvalidDatum},
    "prepend a discontinuous map, swap two basis sets": {True, InvalidDatum, NotContinuous},
    "early roundtrip mismatch, then a raising map": {True, False, NotContinuous},
}


@pytest.mark.parametrize("fault", PER_MAP_FAULTS)
def test_sliced_pass_matches_the_per_map_pass(monkeypatch, corpus4, fault):
    for name, change in PER_MAP_FAULTS[fault]:
        monkeypatch.setattr(support, name, changed(getattr(support, name), change))
    verdicts = set()
    for l in corpus4:
        for x in space_corpus(2):
            for flavor in FLAVORS:
                got = outcome(check_adjunction, l, x, flavor)
                assert got == outcome(per_map_check_adjunction, l, x, flavor)
                verdicts.add(got[0])
    # a fault can leave a case intact (no map to drop, no discontinuous map to append)
    assert verdicts == VERDICTS.get(fault, {True, False})


class TestSpectrumFor:
    def test_repeated_call_returns_the_same_spectrum(self):
        l = b2()
        for flavor in FLAVORS:
            assert spectrum_for(l, flavor) is spectrum_for(l, flavor)

    def test_supp_is_a_valid_datum_of_the_flavor(self, corpus6):
        for l in corpus6:
            for flavor in FLAVORS:
                supp = spectrum_for(l, flavor).supp
                assert supp.flavor == flavor and validate_support_datum(supp).ok


class TestFinality:
    def test_exactly_one_structure_map(self, corpus4):
        small = [discrete_space(["p"]), sierpinski(), discrete_space(["p", "q"])]
        for l in corpus4:
            for x in small:
                for flavor in FLAVORS:
                    spec = spectrum_for(l, flavor)
                    for d in enumerate_support_data(l, x, flavor):
                        assert len(datum_morphisms_to_final(d, spec)) == 1

    def test_supp_maps_to_itself_by_identity(self, corpus5):
        for l in corpus5:
            for flavor in FLAVORS:
                spec = spectrum_for(l, flavor)
                assert datum_morphisms_to_final(spec.supp, spec) == [
                    tuple(range(spec.space.n))
                ]

    def test_matches_the_per_map_oracle(self, corpus4, spaces3):
        # every datum and every mutant of its flavor, valid or not, against the
        # maps whose Σ, by its definition, is σ
        found = Counter()
        for l in corpus4:
            for x in spaces3:
                for flavor in FLAVORS:
                    spec = spectrum_for(l, flavor)
                    maps = enumerate_continuous(x, spec.space)
                    sigmas = [preimage_sigma(f, x, spec) for f in maps]
                    for d in enumerate_support_data(l, x, flavor):
                        for b in mutants(d):
                            if b.flavor == flavor:
                                got = datum_morphisms_to_final(b, spec)
                                assert got == [f for f, s in zip(maps, sigmas) if s == b.sigma]
                                found[len(got)] += 1
        # a mutant can land on another valid datum, so both counts occur
        assert set(found) == {0, 1}

    def test_rejects_the_spectrum_of_another_lattice(self):
        x = discrete_space(["p"])
        d = SupportDatum(chain(4), x, (0, 0, x.full, x.full), "lattice-closed")
        with pytest.raises(ValueError, match="not that of the datum's lattice"):
            datum_morphisms_to_final(d, spectrum_for(b2(), "lattice-closed"))

    def test_rejects_the_spectrum_of_another_flavor(self):
        l, x = chain(3), discrete_space(["p"])
        d = SupportDatum(l, x, (0, x.full, x.full), "semilattice-closed")
        with pytest.raises(ValueError, match="not that of the datum's lattice"):
            datum_morphisms_to_final(d, spectrum_for(l, "lattice-closed"))


def per_map_naturality(l, g, x, y, flavor, guard=None):
    """check_naturality as a loop that runs sigma_of_map on one map at a time."""
    g = tuple(g)
    if not is_continuous(g, x, y):
        raise NotContinuous("g is not continuous")
    spectrum = spectrum_for(l, flavor)
    checked = 0
    for f in support.enumerate_continuous(y, spectrum.space, guard):
        fg = tuple(f[g[i]] for i in range(x.n))
        left = support.sigma_of_map(fg, x, spectrum)
        sig_f = support.sigma_of_map(f, y, spectrum)
        right = tuple(support.preimage(g, sig_f.sigma[a]) for a in range(l.n))
        if left.sigma != right:
            return support.NaturalityCertificate(flavor, checked, False, {"f": list(f)})
        checked += 1
    return support.NaturalityCertificate(flavor, checked, True)


def naturality_outcome(check, *args):
    try:
        return check(*args).to_json()
    except NotContinuous as exc:
        return "NotContinuous", str(exc)


class TestNaturality:
    def cases(self, lattices, spaces):
        # continuous g: the identity and every constant map of each space
        for l in lattices:
            for y in spaces:
                gs = [tuple(range(y.n))] + [(p,) * y.n for p in range(y.n)]
                for g in gs:
                    for flavor in FLAVORS:
                        yield l, g, y, y, flavor

    def test_sliced_is_the_per_map_loop(self, corpus4, spaces3):
        for case in self.cases(corpus4, spaces3):
            ours = naturality_outcome(check_naturality, *case)
            assert ours["ok"], case
            assert ours == naturality_outcome(per_map_naturality, *case)

    def test_sliced_is_the_per_map_loop_on_a_broken_sigma(self, monkeypatch, corpus4, spaces3):
        # the preimage of {point 1} gains point 0, which breaks Σ(f ∘ g) = g⁻¹Σ(f)
        # at the first map f whose σ takes that value
        def broken(f, mask):
            return preimage(f, mask) | (mask == 0b10)

        monkeypatch.setattr(support, "preimage", broken)
        seen = Counter()
        for case in self.cases(corpus4, spaces3):
            ours = naturality_outcome(check_naturality, *case)
            assert ours == naturality_outcome(per_map_naturality, *case)
            seen[ours["ok"], ours["checked"] > 0] += 1
        assert seen[True, True] and seen[False, True], seen

    def test_sliced_is_the_per_map_loop_on_discontinuous_maps(self, monkeypatch, corpus4):
        # every point map into the spectrum, discontinuous ones included
        def every_map(x, y, guard=None):
            return list(product(range(y.n), repeat=x.n))

        monkeypatch.setattr(support, "enumerate_continuous", every_map)
        seen = Counter()
        for case in self.cases(corpus4, [sierpinski(), discrete_space(["u", "v"])]):
            ours = naturality_outcome(check_naturality, *case)
            assert ours == naturality_outcome(per_map_naturality, *case)
            seen[ours[0] if isinstance(ours, tuple) else ours["ok"]] += 1
        assert seen["NotContinuous"] and seen[True], seen

    def test_sliced_is_the_per_map_loop_on_a_broken_sigma_and_discontinuous_maps(
        self, monkeypatch, corpus4
    ):
        # both faults at once: the per-map loop returns a witness when a broken σ
        # comes before the first discontinuous map, and raises otherwise; the maps
        # run last first, where a broken σ can come before a discontinuous map
        def broken(f, mask):
            return preimage(f, mask) | (mask == 0b10)

        def every_map(x, y, guard=None):
            return list(product(range(y.n), repeat=x.n))[::-1]

        monkeypatch.setattr(support, "preimage", broken)
        monkeypatch.setattr(support, "enumerate_continuous", every_map)
        seen = Counter()
        for case in self.cases(corpus4, [sierpinski(), discrete_space(["u", "v"])]):
            ours = naturality_outcome(check_naturality, *case)
            assert ours == naturality_outcome(per_map_naturality, *case)
            seen[ours[0] if isinstance(ours, tuple) else ours["ok"]] += 1
        assert seen["NotContinuous"] and seen[False], seen

    def test_sierpinski_into_discrete(self):
        x, y = sierpinski(), discrete_space(["u", "v"])
        for g in enumerate_continuous(x, y):
            for flavor in FLAVORS:
                cert = check_naturality(chain(3), g, x, y, flavor)
                assert cert.ok

    def test_identity_is_natural(self, corpus4):
        x = sierpinski()
        ident = tuple(range(x.n))
        for l in corpus4:
            for flavor in FLAVORS:
                assert check_naturality(l, ident, x, x, flavor).ok

    def test_g_off_the_points_of_y_is_rejected(self):
        x, y = discrete_space(["p", "q"]), discrete_space(["u"])
        with pytest.raises(ValueError, match="map must"):
            check_naturality(two(), (0, 5), x, y, "semilattice-closed")

    def test_discontinuous_g_rejected(self):
        x, y = sierpinski(), sierpinski()
        good = set(enumerate_continuous(x, y))
        bad = next(f for f in product(range(2), repeat=2) if f not in good)
        with pytest.raises(NotContinuous):
            check_naturality(two(), bad, x, y, "semilattice-closed")
