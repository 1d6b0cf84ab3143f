import pytest

from lattik import corpus
from lattik.jsonio import lattice_to_json, space_to_json
from lattik.order import two


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
        "B3": corpus.b3(),
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
