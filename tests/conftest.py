import pytest

from lattik import corpus
from lattik.jsonio import lattice_to_json, space_to_json
from lattik.order import as_bounded_lattice, build_poset, two
from lattik.topology import FiniteSpace


def b3():
    """The eight-element Boolean lattice."""
    names = ["0", "x", "y", "z", "xy", "xz", "yz", "1"]
    pairs = [
        ("0", "x"), ("0", "y"), ("0", "z"),
        ("x", "xy"), ("x", "xz"), ("y", "xy"), ("y", "yz"),
        ("z", "xz"), ("z", "yz"),
        ("xy", "1"), ("xz", "1"), ("yz", "1"),
    ]
    return as_bounded_lattice(build_poset(names, pairs))


def discrete_space(points):
    """The space on the points in which every subset is open."""
    return FiniteSpace(points, range(1 << len(points)))


def datum_to_json(d):
    """The JSON object of a support datum, as datum_from_json reads it."""
    return {
        "lattice": lattice_to_json(d.lattice),
        "space": space_to_json(d.space),
        "flavor": d.flavor,
        "sigma": {
            e: d.space.subset_names(s)
            for e, s in zip(d.lattice.elements, d.sigma)
        },
    }


@pytest.fixture(scope="session")
def std():
    """The named lattices, by name."""
    return {
        "two": two(),
        "C3": corpus.chain(3),
        "C4": corpus.chain(4),
        "B2": corpus.b2(),
        "M3": corpus.m3(),
        "N5": corpus.n5(),
        "B3": b3(),
    }


@pytest.fixture(scope="session")
def corpus4():
    return corpus.lattice_corpus(4)


@pytest.fixture(scope="session")
def corpus5():
    return corpus.lattice_corpus(5)


@pytest.fixture(scope="session")
def corpus6():
    return corpus.lattice_corpus(6)


@pytest.fixture(scope="session")
def spaces3():
    return corpus.space_corpus(3)
