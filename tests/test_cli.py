import json

import numpy as np
import pytest

from ncgcurv.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main, run
from ncgcurv.scenario import ScenarioError, parse_scenario


def write_scenario(tmp_path, payload, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TWO_POINT = {
    "triple": {
        "gamma": [[1, 0], [0, -1]],
        "basis": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
        "dirac": [[0, 1], [1, 0]],
    },
    "seed": 1,
}


class TestParsing:
    def test_all_fixtures_parse(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            scen = parse_scenario(path)
            assert scen.digest

    def test_ragged_matrix_names_field(self, tmp_path):
        bad = {"triple": {"gamma": [[1, 0, 0], [0, -1]],
                          "basis": [[[1, 0], [0, 1]]],
                          "dirac": [[0, 1], [1, 0]]}}
        with pytest.raises(ScenarioError, match=r"triple\.gamma\[1\]"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_nonsquare_matrix_rejected(self, tmp_path):
        bad = {"triple": {"gamma": [[1, 0, 0], [0, -1, 0]],
                          "basis": [[[1, 0], [0, 1]]],
                          "dirac": [[0, 1], [1, 0]]}}
        with pytest.raises(ScenarioError, match="square"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_dimension_mismatch_named(self, tmp_path):
        bad = dict(TWO_POINT)
        bad = json.loads(json.dumps(TWO_POINT))
        bad["triple"]["dirac"] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        with pytest.raises(ScenarioError, match=r"triple\.dirac"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_complex_scalars(self, tmp_path):
        payload = json.loads(json.dumps(TWO_POINT))
        payload["triple"]["dirac"] = [[0, [0, -1]], [[0, 1], 0]]
        scen = parse_scenario(write_scenario(tmp_path, payload))
        assert np.allclose(scen.triple.dirac, np.array([[0, -1j], [1j, 0]]))

    def test_connection_requires_module(self, tmp_path):
        payload = json.loads(json.dumps(TWO_POINT))
        payload["connection"] = {"entries": []}
        with pytest.raises(ScenarioError, match="module"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_bad_tolerance_rejected(self, tmp_path):
        payload = json.loads(json.dumps(TWO_POINT))
        payload["tolerances"] = {"residual_tol": -1.0}
        with pytest.raises(ScenarioError, match="residual_tol"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_missing_connection_is_fine(self, fixtures_dir):
        scen = parse_scenario(fixtures_dir / "two_point_module.json")
        assert scen.connection is None
        doc = run("curvature", scen)
        assert doc.passed  # A defaults to zero

    def test_digest_is_content_hash(self, tmp_path):
        p1 = write_scenario(tmp_path, TWO_POINT, "a.json")
        p2 = write_scenario(tmp_path, TWO_POINT, "b.json")
        assert parse_scenario(p1).digest == parse_scenario(p2).digest


class TestSingleEvaluation:
    def test_correspondence_validates_connection_once(self, fixtures_dir,
                                                      connection_evaluations):
        scen = parse_scenario(fixtures_dir / "two_point_free_module.json")
        assert not scen.connection.is_zero()
        assert run("correspondence", scen).passed
        assert connection_evaluations == ["represented", "checks"]


class TestRun:
    def test_junk_two_point_values(self, fixtures_dir):
        doc = run("junk", parse_scenario(fixtures_dir / "two_point.json"))
        assert doc.passed
        assert doc.values["one_form_dim"] == 2
        assert doc.values["two_form_dim"] == 2
        assert doc.values["junk_dim"] == 0

    def test_junk_n3_values(self, fixtures_dir):
        doc = run("junk", parse_scenario(fixtures_dir / "n3_junk.json"))
        assert doc.values["junk_dim"] == 2

    def test_curvature_matrix_emission(self, fixtures_dir):
        scen = parse_scenario(fixtures_dir / "two_point_module.json")
        doc = run("curvature", scen, emit_matrices=True)
        assert doc.passed
        assert doc.values["norm"] == pytest.approx(1.0, abs=1e-12)
        mat = np.array([[complex(re, im) for re, im in row]
                        for row in doc.matrices["curvature"]])
        assert np.allclose(mat, np.diag([-1.0, 0.0, 0.0, -1.0]))
        assert any("sign convention" in note for note in doc.notes)

    def test_external_fixture(self, fixtures_dir):
        doc = run("external", parse_scenario(fixtures_dir / "two_point_pair.json"))
        assert doc.passed
        assert doc.values["ungraded_control_norm"] == pytest.approx(2.0, rel=1e-12)

    def test_product_spectrum(self, fixtures_dir):
        doc = run("product-spectrum",
                  parse_scenario(fixtures_dir / "two_point_module.json"))
        assert doc.passed
        assert doc.values["spectrum"] == pytest.approx([0.0, 0.0])

    def test_submersion_heisenberg(self, fixtures_dir):
        doc = run("submersion", parse_scenario(fixtures_dir / "heisenberg.json"))
        assert doc.passed
        assert doc.values["fibration_curvature"][0][1][0] == pytest.approx(-1.0)
        assert any("index conventions" in note for note in doc.notes)

    def test_correspondence_fixture(self, fixtures_dir):
        doc = run("correspondence",
                  parse_scenario(fixtures_dir / "two_point_free_module.json"))
        assert doc.passed
        assert doc.values["wac_diagnostic"] == pytest.approx(0.25, abs=1e-10)

    def test_curvature_requires_module(self, fixtures_dir):
        scen = parse_scenario(fixtures_dir / "two_point.json")
        with pytest.raises(ScenarioError, match="module"):
            run("curvature", scen)

    def test_validate_command_covers_sections(self, fixtures_dir):
        doc = run("validate", parse_scenario(fixtures_dir / "two_point_free_module.json"))
        names = {c.name for c in doc.checks}
        assert "dirac_selfadjoint" in names
        assert "projector_idempotent" in names
        assert "connection_ker_mult" in names
        assert "vertical_selfadjoint" in names
        assert doc.passed

    def test_unknown_command(self, fixtures_dir):
        with pytest.raises(ScenarioError):
            run("frobnicate", parse_scenario(fixtures_dir / "two_point.json"))


class TestExitCodes:
    def test_all_pass_exit_zero(self, fixtures_dir, capsys):
        assert main(["junk", str(fixtures_dir / "two_point.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_check_failure_exit_one(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TWO_POINT))
        payload["triple"]["dirac"] = [[0, 1], [0, 0]]  # not self-adjoint
        path = write_scenario(tmp_path, payload)
        assert main(["validate", path]) == EXIT_CHECK_FAILED
        assert "CHECK FAILURE" in capsys.readouterr().out

    def test_input_error_exit_two(self, tmp_path, capsys):
        assert main(["junk", str(tmp_path / "missing.json")]) == EXIT_INPUT_ERROR
        assert "input error" in capsys.readouterr().err

    def test_nonfinite_module_exit_two(self, tmp_path, capsys):
        # 1e400 reads as inf; the module must be rejected as malformed input
        payload = json.loads(json.dumps(TWO_POINT))
        payload["module"] = {"gamma_signs": [1, -1],
                             "p": [[[1, 0], [0, 0]], [[0, 0], [1, "INF"]]]}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(payload).replace('"INF"', "1e400"), encoding="utf-8")
        for command in ("curvature", "validate"):
            assert main([command, str(path)]) == EXIT_INPUT_ERROR
            assert "module" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_INPUT_ERROR

    def test_invariant_violation_exit_one(self, tmp_path, capsys):
        # a connection placed on a grading-odd slot fails its invariant
        payload = json.loads(json.dumps(TWO_POINT))
        payload["module"] = {"gamma_signs": [1, -1],
                             "p": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        payload["connection"] = {"hermitian": False, "entries": [
            [[[0, 0], [0, 0]], [[0, 1], [-1, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        ]}
        path = write_scenario(tmp_path, payload)
        assert main(["curvature", path]) == EXIT_CHECK_FAILED


class TestDeterminism:
    def test_json_byte_identical(self, fixtures_dir):
        scen = parse_scenario(fixtures_dir / "two_point_module.json")
        a = run("curvature", scen, emit_matrices=True).to_json()
        b = run("curvature", scen, emit_matrices=True).to_json()
        assert a == b
        json.loads(a)  # the custom serializer emits valid JSON

    def test_selftest_byte_identical(self):
        a = run("selftest", None, seed=5).to_json()
        b = run("selftest", None, seed=5).to_json()
        assert a == b

    def test_seventeen_digit_floats(self, fixtures_dir):
        scen = parse_scenario(fixtures_dir / "two_point.json")
        doc = run("validate", scen)
        payload = json.loads(doc.to_json())
        third = [c for c in payload["checks"] if c["name"] == "basis_independent"]
        # 1/(1+golden ratio) appears as the singular-value margin; it must
        # round-trip through the fixed-width formatting
        assert third[0]["value"] == pytest.approx(0.3819660112501051, rel=1e-15)

    def test_selftest_cli_passes(self, capsys):
        assert main(["selftest", "--seed", "11", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 16
