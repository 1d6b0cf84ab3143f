"""The command-line interface, exercised in-process through main()."""

import hashlib
import json

import pytest

from lattik.cli import main
from lattik.corpus import b2, chain, m3, n5
from lattik.jsonio import datum_to_json, lattice_to_json, space_to_json
from lattik.support import SupportDatum, spectrum_for
from lattik.topology import discrete_space, space_from_closed_basis


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
        d = SupportDatum(l, spec.space, spec.supp.assignment, "semilattice-closed")
        path = write(tmp_path, "datum.json", datum_to_json(d))
        code, out, _ = run(capsys, "support-check", path)
        assert code == 0


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
        [({"0": "0"}, "no image for '1'"), (["0", "1"], "map must be an object")],
    )
    def test_extend_malformed_map_is_input_error(self, capsys, tmp_path, mapping, message):
        path = self.extend_file(tmp_path, mapping)
        code, out, err = run(capsys, "extend", path)
        assert code == 2 and out == ""
        assert message in err

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


class TestNaturalityVerb:
    def test_ok(self, capsys, tmp_path):
        x = space_from_closed_basis(["p", "q"], [0b01])
        y = discrete_space(["u", "v"])
        path = write(
            tmp_path,
            "nat.json",
            {
                "lattice": lattice_to_json(chain(3)),
                "space_x": space_to_json(x),
                "space_y": space_to_json(y),
                "map": {"p": "u", "q": "u"},
                "flavor": "semilattice-closed",
            },
        )
        code, out, _ = run(capsys, "naturality", path)
        assert code == 0 and json.loads(out)["ok"] is True


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


class TestCorpusVerb:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "corpus", "--max-n", "5")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert data["counts"] == {"1": 1, "2": 1, "3": 1, "4": 2, "5": 5}

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

    def test_jobs_flag_matches_serial(self, capsys, b2_file, sierp_file):
        _, serial, _ = run(capsys, "adjunction", b2_file, sierp_file)
        _, parallel, _ = run(capsys, "--jobs", "2", "adjunction", b2_file, sierp_file)
        assert serial == parallel

    def test_adjunction_corpus_output_is_pinned(self, capsys):
        # sha256 of the stdout of `lattik adjunction --corpus-max-n 4 --space-points 3`
        code, out, _ = run(
            capsys, "adjunction", "--corpus-max-n", "4", "--space-points", "3"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "44741b9742f669505981d70dc8ba38b867ba89fdab2a414543577b8d22805303"
        )
