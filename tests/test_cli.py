"""The command-line interface, exercised in-process through main()."""

import argparse
import contextlib
import copy
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import b3, datum_to_json, discrete_space
from lattik import corpus, support
from lattik.cli import build_parser, main
from lattik.corpus import b2, chain, m3, n5
from lattik.jsonio import lattice_from_json, lattice_to_json, space_to_json
from lattik.support import SupportDatum, spectrum_for
from lattik.topology import FLAVORS, space_from_closed_basis


VERBS = next(
    action.choices
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def b2_file(tmp_path):
    return write(tmp_path, "b2.json", lattice_to_json(b2(), name="B2"))


@pytest.fixture
def m3_file(tmp_path):
    return write(tmp_path, "m3.json", lattice_to_json(m3(), name="M3"))


@pytest.fixture
def sierp_file(tmp_path):
    x = space_from_closed_basis(["p", "q"], [0b01])
    return write(tmp_path, "sierp.json", space_to_json(x))


@pytest.fixture
def tensor_file(tmp_path):
    l = b2()
    obj = lattice_to_json(l, name="B2-meet")
    obj["tensor"] = {
        "unit": "1",
        "table": [
            [l.elements[l.meet[i][j]] for j in range(l.n)] for i in range(l.n)
        ],
    }
    return write(tmp_path, "tensor.json", obj)


class TestBasicVerbs:
    def test_validate(self, capsys, b2_file):
        code, out, _ = run(capsys, "validate", b2_file)
        data = json.loads(out)
        assert code == 0
        assert data["name"] == "B2" and data["distributive"] is True
        assert data["bottom"] == "0" and data["top"] == "1"

    def test_ideals(self, capsys, b2_file):
        code, out, _ = run(capsys, "ideals", b2_file)
        assert code == 0 and json.loads(out)["count"] == 4

    def test_primes(self, capsys, m3_file):
        code, out, _ = run(capsys, "primes", m3_file)
        assert code == 0 and json.loads(out)["primes"] == []

    def test_sp(self, capsys, b2_file):
        code, out, _ = run(capsys, "sp", b2_file)
        assert code == 0 and len(json.loads(out)["points"]) == 4

    def test_spectrum_empty_is_success(self, capsys, m3_file):
        # an empty spectrum is a valid result, not a failure
        code, out, _ = run(capsys, "spectrum", m3_file)
        assert code == 0 and json.loads(out)["points"] == []

    def test_hochster(self, capsys, b2_file):
        code, out, _ = run(capsys, "hochster", b2_file)
        data = json.loads(out)
        assert code == 0 and len(data["points"]) == 2
        assert len(data["space"]["opens"]) == 4


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.json")
        assert code == 2 and "input error" in err

    def test_empty_lattice_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", write(tmp_path, "empty.json", {"elements": []}))
        assert code == 2 and out == ""
        assert "input error: names must be nonempty" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"elements": [,]}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_check_failure_is_one(self, capsys, m3_file):
        code, out, _ = run(capsys, "spatial", m3_file)
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_support_check_failure(self, capsys, tmp_path):
        l = chain(2)
        spec = spectrum_for(l, "semilattice-closed")
        d = SupportDatum(
            l, spec.space, (spec.space.full, spec.space.full), "semilattice-closed"
        )
        path = write(tmp_path, "bad_datum.json", datum_to_json(d))
        code, out, _ = run(capsys, "support-check", path)
        assert code == 1
        assert json.loads(out)["witness"]["axiom"] == "empty"

    def test_support_check_success(self, capsys, tmp_path):
        l = chain(2)
        spec = spectrum_for(l, "semilattice-closed")
        d = spec.supp
        path = write(tmp_path, "datum.json", datum_to_json(d))
        code, out, _ = run(capsys, "support-check", path)
        assert code == 0

    def test_support_check_unknown_sigma_key_is_input_error(self, capsys, tmp_path):
        obj = datum_to_json(spectrum_for(chain(2), "semilattice-closed").supp)
        obj["sigma"]["zzz"] = []
        code, out, err = run(capsys, "support-check", write(tmp_path, "datum.json", obj))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "input error: sigma key 'zzz' names no element" in err

    @pytest.mark.parametrize("flavor", ["bogus", [], {}, None, 1])
    def test_support_check_unknown_flavor_is_input_error(self, capsys, tmp_path, flavor):
        obj = datum_to_json(spectrum_for(chain(2), "semilattice-closed").supp)
        obj["flavor"] = flavor
        code, out, err = run(capsys, "support-check", write(tmp_path, "datum.json", obj))
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"input error: unknown flavor {flavor!r}" in err

    def test_support_check_sigma_not_an_object_is_input_error(self, capsys, tmp_path):
        obj = datum_to_json(spectrum_for(chain(2), "semilattice-closed").supp)
        obj["sigma"] = [[], ["{0}"]]
        code, out, err = run(capsys, "support-check", write(tmp_path, "datum.json", obj))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "input error: sigma must be an object from elements to lists of points" in err


class TestAdjunctionVerb:
    def test_single_pair(self, capsys, b2_file, sierp_file):
        code, out, _ = run(capsys, "adjunction", b2_file, sierp_file)
        data = json.loads(out)
        assert code == 0 and data["all_bijective"] is True
        assert data["pairs"] == 3  # one per flavor

    def test_single_flavor(self, capsys, b2_file, sierp_file):
        code, out, _ = run(
            capsys, "adjunction", b2_file, sierp_file, "--flavor", "lattice-open"
        )
        assert code == 0 and json.loads(out)["pairs"] == 1

    def test_corpus_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "adjunction",
            "--corpus-max-n", "3",
            "--space-points", "2",
        )
        data = json.loads(out)
        assert code == 0 and data["all_bijective"] is True
        # 3 lattices x 6 spaces x 3 flavors
        assert data["pairs"] == 54

    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "adjunction")
        assert code == 2

    def test_a_failed_bijection_exits_one_with_the_certificates(
        self, capsys, monkeypatch, b2_file, sierp_file
    ):
        # one map fewer than data: the check fails, and stdout carries the witness
        found = support.enumerate_continuous
        monkeypatch.setattr(support, "enumerate_continuous", lambda *args: found(*args)[1:])
        code, out, err = run(capsys, "adjunction", b2_file, sierp_file)
        data = json.loads(out)
        assert code == 1 and err == "" and data["ok"] is False
        assert data["witness"]["all_bijective"] is False

    @pytest.mark.parametrize("points", ["-1", "-2"])
    def test_negative_space_points_is_input_error(self, capsys, points):
        code, out, err = run(
            capsys, "adjunction", "--corpus-max-n", "2", "--space-points", points
        )
        assert code == 2 and out == ""
        assert "max_points >= 0" in err

    @pytest.mark.parametrize("flag", [["--space-points", "9"], ["--corpus-max-n", "0"]])
    def test_corpus_flag_with_files_is_input_error(self, capsys, b2_file, sierp_file, flag):
        code, out, err = run(capsys, "adjunction", b2_file, sierp_file, *flag)
        assert code == 2 and out == ""
        assert flag[0] in err

    def test_corpus_mode_defaults_to_three_points(self, capsys):
        explicit = run(capsys, "adjunction", "--corpus-max-n", "2", "--space-points", "3")
        assert run(capsys, "adjunction", "--corpus-max-n", "2") == explicit
        assert explicit[0] == 0

    @pytest.mark.parametrize(
        "files", [["/nonexistent.json"], ["/nonexistent.json", "/nope.json"]]
    )
    def test_files_with_corpus_is_input_error(self, capsys, files):
        code, out, err = run(
            capsys, "adjunction", "--corpus-max-n", "1", "--space-points", "0", *files
        )
        assert code == 2 and out == ""
        assert "LATTICE" in err and "--corpus-max-n" in err


class TestFrameVerbs:
    def test_frame_points(self, capsys, b2_file):
        code, out, _ = run(capsys, "frame-points", b2_file)
        assert code == 0 and json.loads(out)["point_count"] == 2

    def test_frame_points_rejects_m3(self, capsys, m3_file):
        code, out, _ = run(capsys, "frame-points", m3_file)
        assert code == 1
        assert json.loads(out)["witness"]["not_a_frame"] is True

    def test_spatial(self, capsys, b2_file):
        code, out, _ = run(capsys, "spatial", b2_file)
        assert code == 0 and json.loads(out)["spatial"] is True

    def test_pt_vs_hochster(self, capsys, b2_file):
        code, out, _ = run(capsys, "pt-vs-hochster", b2_file)
        assert code == 0 and json.loads(out)["ok"] is True

    def test_id_vs_omega(self, capsys, b2_file):
        code, out, _ = run(capsys, "id-vs-omega", b2_file)
        assert code == 0 and json.loads(out)["ok"] is True

    def test_extend(self, capsys, tmp_path):
        l = chain(3)
        f = b2()
        mapping = {"0": "0", "m1": "a", "1": "1"}
        path = write(
            tmp_path,
            "extend.json",
            {
                "lattice": lattice_to_json(l),
                "frame": lattice_to_json(f),
                "map": mapping,
            },
        )
        code, out, _ = run(capsys, "extend", path)
        assert code == 0
        ext = json.loads(out)["extension"]
        assert len(ext) == 3  # Id(C3) has three ideals

    def extend_file(self, tmp_path, mapping):
        return write(
            tmp_path,
            "extend.json",
            {
                "lattice": lattice_to_json(chain(2)),
                "frame": lattice_to_json(chain(2)),
                "map": mapping,
            },
        )

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"0": "0"}, "no image for '1'"),
            (["0", "1"], "map must be an object"),
            ({"0": "0", "1": "1", "zzz": "0"}, "map key 'zzz' names nothing in the source"),
        ],
    )
    def test_extend_malformed_map_is_input_error(self, capsys, tmp_path, mapping, message):
        path = self.extend_file(tmp_path, mapping)
        code, out, err = run(capsys, "extend", path)
        assert code == 2 and out == ""
        assert message in err

    def test_extend_onto_a_non_frame_is_a_witness(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "extend.json",
            {
                "lattice": lattice_to_json(chain(2)),
                "frame": lattice_to_json(m3()),
                "map": {"0": "0", "1": "1"},
            },
        )
        code, out, err = run(capsys, "extend", path)
        assert code == 1 and err == ""
        data = json.loads(out)
        assert data["ok"] is False and data["witness"]["not_a_frame"] is True
        assert data["witness"]["witness"] == ["a", ["b", "c"]]

    def test_extend_non_morphism_is_a_witness(self, capsys, tmp_path):
        # sends the bottom to the top, so it is not a bounded-lattice morphism
        path = self.extend_file(tmp_path, {"0": "1", "1": "1"})
        code, out, _ = run(capsys, "extend", path)
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert data["witness"] == {
            "reason": "map is not a bounded-lattice morphism",
            "map": {"0": "1", "1": "1"},
        }


def naturality_obj():
    return {
        "lattice": lattice_to_json(chain(3)),
        "space_x": space_to_json(space_from_closed_basis(["p", "q"], [0b01])),
        "space_y": space_to_json(discrete_space(["u", "v"])),
        "map": {"p": "u", "q": "u"},
        "flavor": "semilattice-closed",
    }


class TestNaturalityVerb:
    def test_ok(self, capsys, tmp_path):
        path = write(tmp_path, "nat.json", naturality_obj())
        code, out, _ = run(capsys, "naturality", path)
        assert code == 0 and json.loads(out)["ok"] is True

    def test_a_failed_square_exits_one_with_the_map(self, capsys, monkeypatch, tmp_path):
        # the preimage of {v} gains u, so Σ(f ∘ g) = g⁻¹Σ(f) fails at the fourth f
        preimage = support.preimage

        def broken(f, mask):
            return preimage(f, mask) | (mask == 0b10)

        monkeypatch.setattr(support, "preimage", broken)
        code, out, err = run(capsys, "naturality", write(tmp_path, "nat.json", naturality_obj()))
        data = json.loads(out)
        assert code == 1 and err == "" and data["ok"] is False
        assert data["witness"] == {
            "flavor": "semilattice-closed", "checked": 3, "ok": False, "witness": {"f": [1, 0]}
        }

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("map", {"p": "u"}, "no image for 'q'"),
            ("map", {"p": "u", "q": "w"}, "image 'w' of 'q' is unknown"),
            ("map", ["u", "u"], "map must be an object"),
            ("flavor", "bogus", "unknown flavor 'bogus'"),
            ("map", {"p": "u", "q": "u", "zzz": "u"}, "map key 'zzz' names nothing in the source"),
            ("map", {"p": "u", "zzz": "u"}, "no image for 'q'"),
            ("map", {"p": "u", "q": "w", "zzz": "u"}, "image 'w' of 'q' is unknown"),
            ("flavor", [], "unknown flavor []"),
            ("flavor", {}, "unknown flavor {}"),
            ("flavor", None, "unknown flavor None"),
            ("flavor", 1, "unknown flavor 1"),
        ],
    )
    def test_malformed_input_is_input_error(self, capsys, tmp_path, field, value, message):
        obj = naturality_obj()
        obj[field] = value
        code, out, err = run(capsys, "naturality", write(tmp_path, "nat.json", obj))
        assert code == 2 and out == "" and "Traceback" not in err
        assert message in err


class TestJsonShapes:
    """A string where a list of strings belongs is not read one character at a time."""

    @staticmethod
    def datum_obj():
        x = discrete_space(["p", "q"])
        return datum_to_json(SupportDatum(chain(3), x, (0, 0b01, 0b11), "semilattice-closed"))

    @pytest.mark.parametrize(
        "verb, mutate, message",
        [
            ("dot", lambda o: o.update(points="pq"), "points must be"),
            ("dot", lambda o: o["opens"].__setitem__(1, "p"), "each open must be"),
            ("dot", lambda o: o.update(opens=3), "opens must be"),
            ("validate", lambda o: o.update(leq=5), "leq must be"),
            ("support-check", lambda o: o["sigma"].update(m1="p"), "each sigma value must be"),
            ("support-check", lambda o: o["sigma"].update(m1=5), "each sigma value must be"),
        ],
        ids=["points-string", "open-string", "opens-int", "leq-int", "sigma-string", "sigma-int"],
    )
    def test_wrong_shape_is_input_error(self, capsys, tmp_path, verb, mutate, message):
        obj = {
            "dot": lambda: space_to_json(space_from_closed_basis(["p", "q"], [0b01])),
            "validate": lambda: lattice_to_json(b2()),
            "support-check": self.datum_obj,
        }[verb]()
        mutate(obj)
        code, out, err = run(capsys, verb, write(tmp_path, "shape.json", obj))
        assert code == 2 and out == "" and "Traceback" not in err
        assert message in err


class TestTensorVerbs:
    def test_tensor_validate(self, capsys, tensor_file):
        code, out, _ = run(capsys, "tensor-validate", tensor_file)
        data = json.loads(out)
        assert code == 0 and data["unit"] == "1" and data["associative"] is True

    def test_tensor_validate_axiom_failure(self, capsys, tmp_path):
        l = b2()
        obj = lattice_to_json(l)
        obj["tensor"] = {
            "unit": "0",
            "table": [
                [l.elements[l.join[i][j]] for j in range(l.n)] for i in range(l.n)
            ],
        }
        path = write(tmp_path, "bad_tensor.json", obj)
        code, out, _ = run(capsys, "tensor-validate", path)
        assert code == 1
        assert json.loads(out)["witness"]["axiom"] == "ZeroLawFails"

    def test_radicals(self, capsys, tensor_file):
        code, out, _ = run(capsys, "radicals", tensor_file)
        assert code == 0 and json.loads(out)["count"] == 4

    def test_quotient(self, capsys, tensor_file):
        code, out, _ = run(capsys, "quotient", tensor_file)
        data = json.loads(out)
        assert code == 0 and len(data["quotient"]["elements"]) == 4

    def test_tensor_lemma(self, capsys, tensor_file):
        code, out, _ = run(capsys, "tensor-lemma", tensor_file)
        assert code == 0 and json.loads(out)["ok"] is True

    def test_classify(self, capsys, tensor_file):
        code, out, _ = run(capsys, "classify", tensor_file)
        assert code == 0 and json.loads(out)["ok"] is True

    def test_fuzz_lemma(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "tensor-lemma", "--fuzz", "25")
        data = json.loads(out)
        assert code == 0 and data["fuzzed"] == 25 and data["all_ok"] is True

    def test_fuzz_classify_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "--seed", "5", "classify", "--fuzz", "10")
        code2, out2, _ = run(capsys, "--seed", "5", "classify", "--fuzz", "10")
        assert code1 == code2 == 0 and out1 == out2

    def test_fuzz_classify_quotient_failure_is_a_witness(self, capsys):
        # the first 2789 draws of seed 16 include a non-associative structure
        # whose quotient meet formula fails
        code, out, err = run(capsys, "--seed", "16", "classify", "--fuzz", "2789")
        assert code == 1 and "Traceback" not in err
        data = json.loads(out)
        assert data["ok"] is False
        assert data["witness"]["reason"] == "quotient meet formula fails"
        assert data["witness"]["pair"] == ["e2", "e1"]

    def test_quotient_formula_failure_is_a_witness(self, capsys, tmp_path):
        # draw 2789 of `lattik --seed 16 classify --fuzz 2789`: non-associative
        names = ["e0", "e1", "e2", "e3", "e4"]
        table = [
            [0, 0, 0, 0, 0],
            [0, 1, 2, 1, 4],
            [0, 0, 4, 2, 4],
            [0, 1, 2, 3, 4],
            [0, 1, 4, 4, 4],
        ]
        obj = {
            "name": "",
            "elements": names,
            "leq": [["e0", "e1"], ["e0", "e2"], ["e1", "e3"], ["e2", "e4"], ["e3", "e4"]],
            "tensor": {
                "unit": "e3",
                "table": [[names[v] for v in row] for row in table],
            },
        }
        path = write(tmp_path, "quotient_fails.json", obj)
        code, out, err = run(capsys, "quotient", path)
        assert code == 1 and "Traceback" not in err
        data = json.loads(out)
        assert data["ok"] is False
        assert data["witness"] == {
            "reason": "quotient meet formula fails",
            "pair": ["e2", "e1"],
        }

    @pytest.mark.parametrize("verb", ["tensor-lemma", "classify"])
    def test_negative_fuzz_is_input_error(self, capsys, verb):
        code, out, err = run(capsys, verb, "--fuzz", "-3")
        assert code == 2 and out == ""
        assert "--fuzz" in err
        # a zero count is refused too, with or without a FILE
        for args in (["--fuzz", "0"], ["--fuzz", "0", "/nonexistent.json"]):
            code, out, err = run(capsys, verb, *args)
            assert code == 2 and out == ""
            assert "--fuzz must be positive, got 0" in err

    @pytest.mark.parametrize("verb", ["tensor-lemma", "classify"])
    def test_no_file_and_no_fuzz_is_input_error(self, capsys, verb):
        code, out, err = run(capsys, verb)
        assert code == 2 and out == ""
        assert "need FILE or --fuzz" in err

    @pytest.mark.parametrize("verb", ["tensor-lemma", "classify"])
    def test_file_with_fuzz_is_input_error(self, capsys, verb):
        code, out, err = run(capsys, verb, "--fuzz", "1", "/nonexistent.json")
        assert code == 2 and out == ""
        assert "FILE" in err and "--fuzz" in err


class TestCorpusVerb:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "corpus", "--max-n", "5")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert data["counts"] == {"1": 1, "2": 1, "3": 1, "4": 2, "5": 5}

    def test_a_wrong_count_exits_one_with_the_counts(self, capsys, monkeypatch):
        monkeypatch.setitem(corpus.LATTICE_COUNTS, 5, corpus.LATTICE_COUNTS[5] + 1)
        code, out, err = run(capsys, "corpus", "--max-n", "5")
        data = json.loads(out)
        assert code == 1 and err == "" and data["ok"] is False
        assert data["witness"]["ok"] is False
        assert data["witness"]["counts"]["5"] == 5 and data["witness"]["expected"]["5"] == 6

    def test_dump(self, capsys):
        code, out, _ = run(capsys, "corpus", "--max-n", "4", "--dump")
        data = json.loads(out)
        assert code == 0 and len(data["lattices"]) == 5

    def test_dump_output_is_pinned(self, capsys):
        # sha256 of the stdout of `lattik corpus --max-n 8 --dump`
        code, out, _ = run(capsys, "corpus", "--max-n", "8", "--dump")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7c94e4df54d47a9cd745a5d0910020387ba76d39bcdce5016ba0c22be9c90e88"
        )

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one_is_input_error(self, capsys, max_n):
        code, out, err = run(capsys, "corpus", "--max-n", max_n)
        assert code == 2 and out == ""
        assert "bounded" in err


class TestSizeGuard:
    """--size-guard bounds searches; reading the ideals searches nothing."""

    @pytest.mark.parametrize(
        "verb", ["ideals", "primes", "sp", "spectrum", "hochster", "id-vs-omega"]
    )
    @pytest.mark.parametrize("make", [b2, b3], ids=["B2", "B3"])
    def test_ideal_verbs_ignore_the_guard(self, capsys, tmp_path, verb, make):
        path = write(tmp_path, "lattice.json", lattice_to_json(make(), name="L"))
        expected = run(capsys, verb, path)
        assert expected[0] == 0
        assert run(capsys, "--size-guard", "1", verb, path) == expected

    @pytest.mark.parametrize("verb", ["radicals", "quotient", "classify"])
    def test_tensor_verbs_ignore_the_guard(self, capsys, tensor_file, verb):
        expected = run(capsys, verb, tensor_file)
        assert expected[0] == 0
        assert run(capsys, "--size-guard", "1", verb, tensor_file) == expected

    @pytest.mark.parametrize("verb", ["frame-points", "spatial"])
    def test_not_a_frame_witness_ignores_the_guard(self, capsys, tmp_path, verb):
        # the least failing subset for e2 is the pair {e3, e4}
        l7 = {
            "elements": [f"e{i}" for i in range(7)],
            "leq": [
                ["e0", "e1"], ["e0", "e5"], ["e1", "e2"], ["e1", "e3"], ["e1", "e4"],
                ["e2", "e6"], ["e3", "e6"], ["e4", "e6"], ["e5", "e6"],
            ],
        }
        path = write(tmp_path, "l7.json", l7)
        expected = run(capsys, verb, path)
        assert expected[0] == 1
        assert json.loads(expected[1])["witness"] == {
            "not_a_frame": True, "witness": ["e2", ["e3", "e4"]]
        }
        assert run(capsys, "--size-guard", "1", verb, path) == expected

    def test_searches_still_hit_the_guard(self, capsys, b2_file, sierp_file):
        code, out, err = run(capsys, "--size-guard", "1", "pt-vs-hochster", b2_file)
        assert code == 2 and out == "" and "morphism search" in err
        code, out, err = run(
            capsys, "--size-guard", "1", "adjunction", b2_file, sierp_file
        )
        assert code == 2 and out == "" and "continuous-map enumeration" in err

    @pytest.mark.parametrize("bound", ["0", "-5"])
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_bound_below_one_is_input_error(self, capsys, b2_file, verb, bound):
        files = [] if verb == "corpus" else [b2_file]
        code, out, err = run(capsys, "--size-guard", bound, verb, *files)
        assert code == 2 and out == ""
        assert "--size-guard" in err


class TestDotVerb:
    def test_lattice_hasse(self, capsys, b2_file):
        code, out, _ = run(capsys, "dot", b2_file)
        assert code == 0 and out.startswith("digraph")
        assert '"0" -> "a";' in out

    def test_space_specialization(self, capsys, sierp_file):
        code, out, _ = run(capsys, "dot", sierp_file)
        assert code == 0 and '"p" -> "q";' in out


class TestDeterminism:
    def test_repeated_output_identical(self, capsys, b2_file):
        outputs = set()
        for _ in range(3):
            code, out, _ = run(capsys, "sp", b2_file)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_adjunction_corpus_output_is_pinned(self, capsys):
        # sha256 of the stdout of `lattik adjunction --corpus-max-n 4 --space-points 3`
        code, out, _ = run(
            capsys, "adjunction", "--corpus-max-n", "4", "--space-points", "3"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "44741b9742f669505981d70dc8ba38b867ba89fdab2a414543577b8d22805303"
        )


def _golden_files(tmp_path):
    """Fixed inputs per verb group, as lists of file paths."""
    lattices = {
        "C2": chain(2), "C3": chain(3), "B2": b2(), "M3": m3(), "N5": n5(), "B3": b3(),
    }
    lattice_files = [
        write(tmp_path, f"{name}.json", lattice_to_json(l, name=name))
        for name, l in lattices.items()
    ]

    def tensor_obj(name, l, unit, table):
        obj = lattice_to_json(l, name=name)
        obj["tensor"] = {
            "unit": unit,
            "table": [[l.elements[v] for v in row] for row in table],
        }
        return obj

    c3, bb = chain(3), b2()
    five = {
        "name": "",
        "elements": ["e0", "e1", "e2", "e3", "e4"],
        "leq": [["e0", "e1"], ["e0", "e2"], ["e1", "e3"], ["e2", "e4"], ["e3", "e4"]],
    }
    tensors = [
        tensor_obj("B2-meet", bb, "1", bb.meet),
        tensor_obj("C3-meet", c3, "1", c3.meet),
        # m1 ⊗ m1 = 0: the ideal {0} is not radical
        tensor_obj("C3-nil", c3, "1", [[0, 0, 0], [0, 0, 1], [0, 1, 2]]),
        # non-associative; its quotient meet formula fails at (e2, e1)
        tensor_obj(
            "",
            lattice_from_json(five)[1],
            "e3",
            [[0, 0, 0, 0, 0], [0, 1, 2, 1, 4], [0, 0, 4, 2, 4],
             [0, 1, 2, 3, 4], [0, 1, 4, 4, 4]],
        ),
    ]
    tensor_files = [write(tmp_path, f"t{k}.json", t) for k, t in enumerate(tensors)]
    sierp = space_from_closed_basis(["p", "q"], [0b01])
    l = chain(2)
    spec = spectrum_for(l, "semilattice-closed")
    data = [
        spec.supp,
        SupportDatum(l, spec.space, (spec.space.full,) * 2, "semilattice-closed"),
    ]
    datum_files = [
        write(tmp_path, f"d{k}.json", datum_to_json(d)) for k, d in enumerate(data)
    ]
    naturality_files = [
        write(
            tmp_path,
            f"nat{k}.json",
            {
                "lattice": lattice_to_json(b2()),
                "space_x": space_to_json(discrete_space(["u", "v"])),
                "space_y": space_to_json(sierp),
                "map": {"u": "p", "v": "q"},
                "flavor": flavor,
            },
        )
        for k, flavor in enumerate(FLAVORS)
    ]
    extend_files = [
        write(
            tmp_path,
            f"e{k}.json",
            {"lattice": lattice_to_json(chain(3)), "frame": lattice_to_json(b2()), "map": m},
        )
        for k, m in enumerate([{"0": "0", "m1": "a", "1": "1"}, {"0": "0", "m1": "1", "1": "a"}])
    ]
    space_file = write(tmp_path, "sierp.json", space_to_json(sierp))
    return {
        "lattice": lattice_files,
        "tensor": tensor_files,
        "datum": datum_files,
        "naturality": naturality_files,
        "extend": extend_files,
        "dot": lattice_files[:3] + [space_file],
    }


# sha256 of the exit codes and stdouts of each verb over its inputs in
# _golden_files; a change to any verb's bytes shows here.
GOLDEN = {
    "validate": (
        "lattice",
        "a48646e2dcf95e7e2529b916f1de69d52363092875dcd9edd7f169dea3dbed93",
    ),
    "ideals": (
        "lattice",
        "00be8f00ba4ed7511151bb4a72456f7e0b4b22fcfb46bd4ce0d6259b6958bee5",
    ),
    "primes": (
        "lattice",
        "b8911fc29c9e1b493aa2a860ca9293f1fca1f7b03e1bfeb44684b4a646567fa4",
    ),
    "sp": (
        "lattice",
        "49a0730f466f7e264dcceceac9293cba3e887bf4b3c452e35e19ae79e4164237",
    ),
    "spectrum": (
        "lattice",
        "5e234b3fd0c418710949bc3153f7dc5f67e24463811a10ce709e2e84d0488157",
    ),
    "hochster": (
        "lattice",
        "d4b4b4a2beda9c28407a20399852c1878d4f9d88c40814e9dae91afd296012d7",
    ),
    "frame-points": (
        "lattice",
        "d96652b1bb05cec4a3f860121126a5a444608640d7adf788f6d2f6c96004e949",
    ),
    "spatial": (
        "lattice",
        "43175e9f9c55d515fe66e1ffb8fb053954df655fbc67d0b0f71a22e6c6e387d8",
    ),
    "pt-vs-hochster": (
        "lattice",
        "b61d5a742e4845d2da904375941dde625bdbfc11e4a15a6b84dcfe2d79c6912f",
    ),
    "id-vs-omega": (
        "lattice",
        "8eeddd85f01a79121ad7afd7173e4143bc7ae022c25d55e73b967a8ea86dbe40",
    ),
    "tensor-validate": (
        "tensor",
        "13a62eb7ab1587709f298c6a8074228dca259a1b4ddffd461466220e1d529d2f",
    ),
    "radicals": (
        "tensor",
        "a77900e86e1163b89727c91fc2bf1aeb881fcbf28a7af3781c7b09f0ebb56b37",
    ),
    "quotient": (
        "tensor",
        "e447bac6fd1aede0efaf24276bf7b269fd3ad4fe85292390f26f865eb504b8c7",
    ),
    "tensor-lemma": (
        "tensor",
        "c1ef74f6fb653435c66cc2ceaeeb2cf99ddd5b57a68ac3aaeb2931e14caef9fb",
    ),
    "classify": (
        "tensor",
        "ff85abc9fed22f3344f22d3063c07e1ecb68f70cf212ad42def536e5364f7d4d",
    ),
    "support-check": (
        "datum",
        "65d4d51a0d6d6a0c7d8e14fe57258676fc36d03eb2ff8e3a835511037ef09b77",
    ),
    "naturality": (
        "naturality",
        "af5d0ce4d270f0f09f426db348e5f1dba995c1b5b6f29582e743a60516b713c1",
    ),
    "extend": (
        "extend",
        "adc2e762e53549c6431e0aabd4a518daf874e8467c230f53ca63b173b0d42523",
    ),
    "dot": (
        "dot",
        "6a16c7a583ddcc18674455f7388da8148f069ce91602168c50c71b75acdda5d8",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("verb", sorted(GOLDEN))
    def test_verb_output_is_pinned(self, capsys, tmp_path, verb):
        group, digest = GOLDEN[verb]
        h = hashlib.sha256()
        for path in _golden_files(tmp_path)[group]:
            code, out, err = run(capsys, verb, path)
            assert "Traceback" not in err
            h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == digest


def _valid_inputs():
    """A valid input object for every single-file verb."""
    lattice = lattice_to_json(b2(), name="B2")
    l = b2()
    tensor = lattice_to_json(l, name="B2-meet")
    tensor["tensor"] = {
        "unit": "1",
        "table": [[l.elements[l.meet[i][j]] for j in range(l.n)] for i in range(l.n)],
    }
    extend = {
        "lattice": lattice_to_json(chain(3)),
        "frame": lattice_to_json(b2()),
        "map": {"0": "0", "m1": "a", "1": "1"},
    }
    lattice_verbs = [
        "validate", "ideals", "primes", "sp", "spectrum", "hochster", "frame-points",
        "spatial", "pt-vs-hochster", "id-vs-omega", "dot",
    ]
    tensor_verbs = ["tensor-validate", "radicals", "quotient", "tensor-lemma", "classify"]
    return (
        [(verb, lattice) for verb in lattice_verbs]
        + [(verb, tensor) for verb in tensor_verbs]
        + [
            ("dot", space_to_json(space_from_closed_basis(["p", "q"], [0b01]))),
            ("support-check", TestJsonShapes.datum_obj()),
            ("naturality", naturality_obj()),
            ("extend", extend),
        ]
    )


VALID_INPUTS = _valid_inputs()


def unreadable(obj, kind):
    """The bytes of a file holding obj, made non-UTF-8, truncated, or nested too deeply."""
    text = json.dumps(obj)
    if kind == "non-utf8":
        return text.replace('"', '"\xe9', 1).encode("latin-1")
    if kind == "truncated":
        return text[: len(text) // 2].encode()
    return b"[" * 100000


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind", ["non-utf8", "truncated", "deeply-nested"])
    @pytest.mark.parametrize("verb, obj", VALID_INPUTS, ids=[v for v, _ in VALID_INPUTS])
    def test_input_error_without_traceback(self, capsys, tmp_path, verb, obj, kind):
        path = tmp_path / "input.json"
        path.write_bytes(unreadable(obj, kind))
        code, out, err = run(capsys, verb, str(path))
        assert code == 2 and out == ""
        assert "Traceback" not in err and "input error" in err
RETYPED = [3, "p", [], {}, None, True, ["p"], [["p"]]]
RENAMED = ["z", "", "0", "1", "a", "p", "u", "m1"]


def _paths(obj, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _names(obj):
    if isinstance(obj, str):
        return {obj}
    if isinstance(obj, dict):
        return set(obj).union(*map(_names, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_names, obj))
    return set()


def _rename(obj, old, new):
    if isinstance(obj, str):
        return new if obj == old else obj
    if isinstance(obj, dict):
        return {_rename(k, old, new): _rename(v, old, new) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rename(v, old, new) for v in obj]
    return obj


def mutate(draw, obj):
    """A copy of obj with one to three keys dropped, values retyped or names renamed."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "rename"]))
        if kind == "rename":
            names = sorted(_names(obj))
            if names:
                obj = _rename(obj, draw(st.sampled_from(names)), draw(st.sampled_from(RENAMED)))
            continue
        paths = list(_paths(obj))[kind == "drop":]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        value = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


@st.composite
def mutated_inputs(draw):
    """A valid CLI input of a single-file verb, mutated."""
    verb, obj = draw(st.sampled_from(VALID_INPUTS))
    return verb, mutate(draw, obj)


@st.composite
def mutated_adjunction_inputs(draw):
    """The B2 and Sierpinski inputs of ``adjunction``, one of the two mutated."""
    inputs = [
        lattice_to_json(b2(), name="B2"),
        space_to_json(space_from_closed_basis(["p", "q"], [0b01])),
    ]
    k = draw(st.integers(0, 1))
    inputs[k] = mutate(draw, inputs[k])
    return inputs


def run_quietly(argv):
    """The exit code and stdout of main(argv), with stderr discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class TestMutatedInputs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutated_inputs())
    def test_exit_code_contract(self, tmp_path_factory, case):
        verb, obj = case
        path = tmp_path_factory.mktemp("mutated") / "mutated.json"
        path.write_text(json.dumps(obj))
        code, out = run_quietly([verb, str(path)])
        assert code in (0, 1, 2)
        if code == 1:
            assert "witness" in json.loads(out)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mutated_adjunction_inputs())
    def test_adjunction_exit_code_contract(self, tmp_path_factory, case):
        paths = []
        folder = tmp_path_factory.mktemp("adjunction")
        for name, obj in zip(["lattice.json", "space.json"], case):
            paths.append(folder / name)
            paths[-1].write_text(json.dumps(obj))
        code, out = run_quietly(["adjunction", *map(str, paths)])
        assert code in (0, 1, 2)
        if code == 1:
            assert "witness" in json.loads(out)
