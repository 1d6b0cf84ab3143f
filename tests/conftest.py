import pytest

from lattik import corpus
from lattik.order import two


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
