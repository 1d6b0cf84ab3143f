"""Acceptance gate: the eight headline properties, each printing one PASS/FAIL line.

The corpus is every bounded lattice with at most 6 elements up to isomorphism
(25 structures, count re-derived by the enumerator) and every topology on at
most 3 points (35 labeled spaces).
"""

import json

import pytest

from lattik.corpus import (
    LATTICE_COUNTS,
    b2,
    chain,
    lattice_corpus,
    m3,
    n5,
    space_corpus,
)
from lattik.frames import (
    as_frame,
    id_vs_omega_dual,
    is_spatial,
    pt_ideal_vs_hochster,
    restrict_along_principal,
    support_union_map,
)
from lattik.ideals import all_ideals, join_irreducibles, prime_masks
from lattik.order import dual, enumerate_morphisms, is_distributive
from lattik.support import check_adjunction, enumerate_support_data
from lattik.tensor import (
    TensorLattice,
    check_classification,
    check_tensor_lemma,
    fuzz_tensor_lattices,
    quotient_lattice,
)
from lattik.topology import hochster_dual, is_continuous, spc_space

FUZZ_SEED = 2026
FUZZ_COUNT = 1000


@pytest.fixture(scope="module")
def corpus():
    lattices = lattice_corpus(6)
    assert len(lattices) == sum(LATTICE_COUNTS[n] for n in range(1, 7)) == 25
    return lattices


@pytest.fixture(scope="module")
def spaces():
    out = space_corpus(3)
    assert len(out) == 35
    return out


def report(n, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok


def test_criterion_1_semilattice_adjunction(corpus, spaces):
    failures = 0
    for l in corpus:
        for x in spaces:
            if not check_adjunction(l, x, "semilattice-closed").bijection:
                failures += 1
    report(
        1,
        f"Sigma bijection, semilattice-closed flavor, {len(corpus)}x{len(spaces)} pairs",
        failures == 0,
    )


def test_criterion_2_lattice_flavors_and_translation(corpus, spaces):
    failures = 0
    for l in corpus:
        d = dual(l)
        for x in spaces:
            for flavor in ("lattice-closed", "lattice-open"):
                if not check_adjunction(l, x, flavor).bijection:
                    failures += 1
            # translation matches open data on L with closed data on L^op
            opens = enumerate_support_data(l, x, "lattice-open")
            closed_dual = enumerate_support_data(d, x, "lattice-closed")
            translated = sorted(
                tuple(x.full & ~s for s in datum.sigma) for datum in opens
            )
            if translated != sorted(datum.sigma for datum in closed_dual):
                failures += 1
    report(
        2,
        "lattice flavors certified and open/closed translation matches datum-for-datum",
        failures == 0,
    )


def test_criterion_3_hochster_duality(corpus):
    failures = 0
    for l in corpus:
        hd = hochster_dual(l)
        sd = spc_space(dual(l))
        if hd.space.n != sd.space.n:
            failures += 1
            continue
        if hd.space.n == 0:
            continue
        mapping = tuple(sd.point_of_ideal(l.full & ~m) for m in hd.point_ideals)
        if sorted(mapping) != list(range(sd.space.n)):
            failures += 1
            continue
        inv = [0] * len(mapping)
        for i, v in enumerate(mapping):
            inv[v] = i
        if not (
            is_continuous(mapping, hd.space, sd.space)
            and is_continuous(tuple(inv), sd.space, hd.space)
        ):
            failures += 1
    report(
        3,
        "Spc(L)^v homeomorphic to Spc(L^op) via complements, both directions",
        failures == 0,
    )


def test_criterion_4_ideal_lattice_vs_opens(corpus):
    ok = all(id_vs_omega_dual(l).ok for l in corpus if is_distributive(l))
    for make in (m3, n5):
        idl, _, images = support_union_map(make())
        ok = ok and len(set(images)) < len(idl)
    report(
        4,
        "Id(L) = Omega(Spc(L)^v) on distributive lattices; M3/N5 negative controls",
        ok,
    )


def test_criterion_5_frames(corpus):
    ok = True
    distributive = [l for l in corpus if is_distributive(l)]
    for l in distributive:
        ok = ok and bool(is_spatial(as_frame(all_ideals(l))))
        ok = ok and pt_ideal_vs_hochster(l).ok
    small = [l for l in distributive if l.n <= 5]
    for l in small:
        idl = all_ideals(l)
        for f in small:
            frame = as_frame(f)
            frm = enumerate_morphisms(idl, frame, "blat")
            blat = enumerate_morphisms(l, frame, "blat")
            if len(frm) != len(blat):
                ok = False
                continue
            restricted = {restrict_along_principal(l, idl, psi) for psi in frm}
            if restricted != {phi for phi in blat}:
                ok = False
    report(
        5,
        "Id(L) spatial, restriction bijection with exact counts, Pt(Id(L)) = Spc(L)^v",
        ok,
    )


def test_criterion_6_birkhoff(corpus):
    ok = all(
        len(prime_masks(l)) == len(join_irreducibles(l))
        for l in corpus
        if is_distributive(l)
    )
    report(6, "Birkhoff count |Spc(L)| = #join-irreducibles, independent code paths", ok)


def nilpotent_c3():
    l = chain(3)
    z, m, u = l.index("0"), l.index("m1"), l.index("1")
    product = [[z] * 3 for _ in range(3)]
    for a in range(3):
        product[u][a] = a
        product[a][u] = a
    product[m][m] = z
    return TensorLattice(l, product, u)


def _certify_tensor(t):
    lemma = check_tensor_lemma(t)
    if not lemma.ok:
        raise AssertionError(
            "tensor lemma failed: " + json.dumps(lemma.to_json(), sort_keys=True)
        )
    quotient, _ = quotient_lattice(t)
    if not is_distributive(quotient):
        raise AssertionError("quotient lattice is not distributive")
    cls = check_classification(t)
    if not cls.ok:
        raise AssertionError(
            "classification failed: " + json.dumps(cls.to_json(), sort_keys=True)
        )


def test_criterion_7_tensor_layer():
    l = b2()
    hand_built = [
        TensorLattice(l, l.meet, l.top),
        nilpotent_c3(),
    ]
    for t in hand_built:
        _certify_tensor(t)
    count = 0
    for t in fuzz_tensor_lattices(lattice_corpus(5), FUZZ_SEED, FUZZ_COUNT):
        _certify_tensor(t)
        count += 1
    report(
        7,
        f"tensor lemma + distributive quotient + classification on 2 hand-built and {count} fuzzed",
        count >= 1000,
    )


def _json_report():
    """A representative deterministic battery serialized as one JSON document."""
    doc = {"corpus_counts": {}, "adjunction": [], "frames": [], "tensor": []}
    lattices = lattice_corpus(4)
    spaces = space_corpus(2)
    doc["corpus_counts"] = {str(l.n): LATTICE_COUNTS[l.n] for l in lattices}
    for l in lattices:
        for x in spaces:
            for flavor in ("semilattice-closed", "lattice-closed", "lattice-open"):
                doc["adjunction"].append(check_adjunction(l, x, flavor).to_json())
        if is_distributive(l):
            doc["frames"].append(is_spatial(as_frame(l)).to_json())
            doc["frames"].append(id_vs_omega_dual(l).to_json())
    for t in fuzz_tensor_lattices(lattice_corpus(4), FUZZ_SEED, 50):
        doc["tensor"].append(check_tensor_lemma(t).to_json())
        doc["tensor"].append(check_classification(t).to_json())
    return json.dumps(doc, sort_keys=True).encode()


def test_criterion_8_determinism():
    first = _json_report()
    second = _json_report()
    report(8, "two consecutive runs produce byte-identical JSON reports", first == second)
