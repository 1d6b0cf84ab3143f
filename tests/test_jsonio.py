"""JSON and DOT serialization roundtrips."""

import pytest

from conftest import datum_to_json
from lattik.corpus import b2, chain, lattice_corpus
from lattik.errors import InputError, UnknownName
from lattik.jsonio import (
    datum_from_json,
    fields,
    lattice_from_json,
    lattice_to_json,
    poset_to_dot,
    space_from_json,
    space_to_json,
    tensor_from_json,
)
from lattik.support import spectrum_for
from lattik.tensor import check_tensor_lemma


class TestFields:
    def test_values_in_the_order_named(self):
        assert fields({"a": 1, "b": 2}, "input", "b", "a") == [2, 1]

    def test_non_object(self):
        with pytest.raises(InputError, match="^space JSON must be an object$"):
            fields([], "space", "points")

    @pytest.mark.parametrize(
        "parse, obj, message",
        [
            (lattice_from_json, {"leq": []}, "missing lattice field: 'elements'"),
            (space_from_json, {"points": []}, "missing space field: 'opens'"),
            (space_from_json, {"points": 5}, "missing space field: 'opens'"),
            (datum_from_json, {"lattice": {}}, "missing datum field: 'space'"),
            (
                tensor_from_json,
                dict(lattice_to_json(b2()), tensor={"table": []}),
                "missing tensor field: 'unit'",
            ),
        ],
    )
    def test_each_parser_names_the_missing_field(self, parse, obj, message):
        with pytest.raises(InputError) as err:
            parse(obj)
        assert str(err.value) == message


class TestLatticeJson:
    def test_roundtrip_corpus(self):
        for l in lattice_corpus(5):
            name, back = lattice_from_json(lattice_to_json(l, name="x"))
            assert name == "x"
            assert back.elements == l.elements
            assert back.up == l.up and back.join == l.join

    def test_missing_elements(self):
        with pytest.raises(InputError):
            lattice_from_json({"leq": []})

    def test_bad_pair(self):
        with pytest.raises(InputError):
            lattice_from_json({"elements": ["a"], "leq": [["a"]]})

    def test_non_object(self):
        with pytest.raises(InputError):
            lattice_from_json([1, 2])


class TestSpaceJson:
    def test_roundtrip_corpus(self, spaces3):
        for x in spaces3:
            back = space_from_json(space_to_json(x))
            assert back.points == x.points and back.opens == x.opens

    def test_unknown_point(self):
        with pytest.raises(UnknownName):
            space_from_json({"points": ["p"], "opens": [[], ["q"], ["p"]]})

    def test_not_a_topology(self):
        with pytest.raises(InputError):
            space_from_json({"points": ["p", "q"], "opens": [[], ["p"]]})


class TestTensorJson:
    def test_roundtrip(self):
        l = b2()
        obj = lattice_to_json(l, name="b2")
        obj["tensor"] = {
            "unit": "1",
            "table": [
                [l.elements[l.meet[i][j]] for j in range(l.n)] for i in range(l.n)
            ],
        }
        name, t = tensor_from_json(obj)
        assert name == "b2" and t.unit == t.base.index("1")
        assert check_tensor_lemma(t).ok

    def test_missing_section(self):
        with pytest.raises(InputError):
            tensor_from_json(lattice_to_json(b2()))

    def test_ragged_table(self):
        obj = lattice_to_json(chain(2))
        obj["tensor"] = {"unit": "1", "table": [["0", "1"]]}
        with pytest.raises(InputError):
            tensor_from_json(obj)


class TestDatumJson:
    def test_roundtrip_supp(self):
        l = chain(3)
        spec = spectrum_for(l, "semilattice-closed")
        d = spec.supp
        back = datum_from_json(datum_to_json(d))
        assert back.sigma == d.sigma and back.flavor == d.flavor

    def test_unknown_flavor(self):
        l = chain(2)
        spec = spectrum_for(l, "semilattice-closed")
        d = spec.supp
        obj = datum_to_json(d)
        obj["flavor"] = "open-ish"
        with pytest.raises(InputError):
            datum_from_json(obj)

    def test_missing_sigma_entry(self):
        l = chain(2)
        spec = spectrum_for(l, "semilattice-closed")
        d = spec.supp
        obj = datum_to_json(d)
        del obj["sigma"]["1"]
        with pytest.raises(InputError):
            datum_from_json(obj)


class TestDot:
    def test_b2_hasse(self):
        dot = poset_to_dot(b2(), name="b2")
        assert dot.startswith('digraph "b2" {')
        assert '"0" -> "a";' in dot and '"b" -> "1";' in dot
        # cover edges only: no transitive 0 -> 1 edge
        assert '"0" -> "1";' not in dot

    def test_deterministic(self):
        assert poset_to_dot(b2()) == poset_to_dot(b2())
