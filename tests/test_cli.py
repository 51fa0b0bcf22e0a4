import argparse
import copy
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ncgcurv import cli, curvature
from ncgcurv.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main, run
from ncgcurv.scenario import ScenarioError, parse_scenario
from ncgcurv.submersion import canned_frame
from ncgcurv.triple import Check

from conftest import ROOT


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

TWO_POINT_MODULE = {
    **TWO_POINT,
    "module": {"gamma_signs": [1, -1], "p": [[[0, 1], [0, 0]], [[0, 0], [1, -1]]]},
}
ONE_POINT = {
    "triple": {"gamma": [[1]], "basis": [[[1]]], "dirac": [[0]]},
    "module": {"gamma_signs": [1], "p": [[[1]]]},
}


# Replacements for any node of an array field, then edits of a list node.
MUTATIONS = {
    "boolean": lambda node: True,
    "string": lambda node: "x",
    "null": lambda node: None,
    "empty list": lambda node: [],
    "NaN": lambda node: float("nan"),
}
LIST_MUTATIONS = {
    "last element dropped": lambda node: node[:-1],
    "last element duplicated": lambda node: node + node[-1:],
}
ARRAY_SECTIONS = ("triple", "triple2", "module", "connection", "vertical", "frame")
# The triple's basis length d sizes the tables of the sections read after it.
SIZED_BY = {"triple": ("module", "connection", "vertical")}


def _array_nodes(node, path):
    """Every node of a nested array field with its path, outermost first."""
    yield path, node
    if isinstance(node, list):
        for k, child in enumerate(node):
            yield from _array_nodes(child, path + (k,))


def malformed_variants(scenarios):
    """(label, sections an error may name, scenario) for every mutated array node."""
    for name, raw in scenarios:
        for section in ARRAY_SECTIONS:
            fields = raw.get(section, {})
            for key, field in fields.items():
                if not isinstance(field, list):
                    continue
                for path, node in _array_nodes(field, (section, key)):
                    edits = dict(MUTATIONS)
                    if isinstance(node, list) and node:
                        edits.update(LIST_MUTATIONS)
                    for kind, mutate in edits.items():
                        variant = copy.deepcopy(raw)
                        target = variant
                        for step in path[:-1]:
                            target = target[step]
                        target[path[-1]] = mutate(node)
                        yield (f"{name} {path}: {kind}",
                               (section,) + SIZED_BY.get(section, ()), variant)


class TestParsing:
    def test_all_fixtures_parse(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            scen = parse_scenario(path)
            assert scen.digest

    def test_json_text_is_read_as_a_file_name(self, fixtures_dir):
        # a path or a loaded dict: JSON text is not a third input format
        text = (fixtures_dir / "two_point.json").read_text(encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"cannot read scenario file \{"):
            parse_scenario(text)

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

    @pytest.mark.parametrize("vertical, message", [
        ([[0, 1], [1, 0]], "vertical: expected an object"),
        ({"table": [[0, 1], [1, 0]]}, "vertical: missing required field 'entries'"),
    ])
    def test_malformed_vertical_named(self, fixtures_dir, vertical, message):
        payload = json.loads((fixtures_dir / "two_point_free_module.json").read_text())
        payload["vertical"] = vertical
        with pytest.raises(ScenarioError) as err:
            parse_scenario(payload)
        assert str(err.value) == message

    def test_bad_tolerance_rejected(self, tmp_path):
        payload = json.loads(json.dumps(TWO_POINT))
        payload["tolerances"] = {"residual_tol": -1.0}
        with pytest.raises(ScenarioError, match="residual_tol"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_unknown_top_level_field_rejected(self, fixtures_dir, tmp_path, capsys):
        # a misspelt section was skipped: `validate` checked the triple alone, exit 0
        payload = json.loads((fixtures_dir / "two_point_module.json").read_text())
        payload["modul"] = payload.pop("module")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(payload)
        assert str(err.value) == "scenario: unknown field 'modul'"
        assert main(["validate", write_scenario(tmp_path, payload)]) == EXIT_INPUT_ERROR
        assert "unknown field 'modul'" in capsys.readouterr().err

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        # a misspelt tolerance ran with the default rank_tol, exit 0
        payload = json.loads(json.dumps(TWO_POINT))
        payload["tolerances"] = {"residual_tol": 1e-8, "rank_tl": 1e-3}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(payload)
        assert str(err.value) == "tolerances: unknown field 'rank_tl'"
        assert main(["junk", write_scenario(tmp_path, payload)]) == EXIT_INPUT_ERROR
        assert "unknown field 'rank_tl'" in capsys.readouterr().err

    def test_missing_connection_is_fine(self, fixtures_dir):
        scen = parse_scenario(fixtures_dir / "two_point_module.json")
        assert scen.connection is None
        doc = run("curvature", scen)
        assert doc.passed  # A defaults to zero

    def test_distinct_parses_compare_unequal(self, fixtures_dir):
        # array-holding dataclasses compare by identity, not field by field
        path = fixtures_dir / "two_point_free_module.json"
        a, b = parse_scenario(path), parse_scenario(path)
        for x, y in ((a.triple, b.triple), (a.module, b.module),
                     (a.connection, b.connection), (a.vertical, b.vertical)):
            assert x == x
            assert x != y
        assert a != b

    def test_digest_is_content_hash(self, tmp_path):
        p1 = write_scenario(tmp_path, TWO_POINT, "a.json")
        p2 = write_scenario(tmp_path, TWO_POINT, "b.json")
        assert parse_scenario(p1).digest == parse_scenario(p2).digest

    def test_malformed_arrays_rejected_in_their_section(self, fixtures_dir):
        # no fixture has explicit structure constants, so add a frame that does
        heisenberg = canned_frame("heisenberg")
        explicit = json.loads(json.dumps(TWO_POINT))
        explicit["frame"] = {"dim": heisenberg.dim_total, "dim_fiber": heisenberg.dim_fiber,
                             "c": heisenberg.c.tolist()}
        scenarios = [(path.name, json.loads(path.read_text()))
                     for path in sorted(fixtures_dir.glob("*.json"))]
        scenarios.append(("explicit frame", explicit))
        failures, count = [], 0
        for label, sections, variant in malformed_variants(scenarios):
            count += 1
            try:
                parse_scenario(variant)
            except ScenarioError as exc:
                named = re.match(r"[a-z0-9_]*", str(exc)).group()
                if named not in sections:
                    failures.append(f"{label}: {exc}")
            except Exception as exc:  # any other exception is a parser defect
                failures.append(f"{label}: {exc!r}")
        assert count > 2000
        assert not failures, "\n".join(failures[:20])


class TestSingleEvaluation:
    def test_correspondence_validates_connection_once(self, fixtures_dir,
                                                      connection_evaluations):
        scen = parse_scenario(fixtures_dir / "two_point_free_module.json")
        assert not scen.connection.is_zero()
        assert run("correspondence", scen).passed
        assert connection_evaluations == ["represented", "checks"]

    def test_correspondence_validates_vertical_once(self, fixtures_dir, monkeypatch):
        # every evaluation of the vertical checks, from validate_vertical or
        # from correspondence_report (which compresses S through V)
        calls = []
        check = curvature._vertical_checks

        def counting(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(curvature, "_vertical_checks", counting)
        scen = parse_scenario(fixtures_dir / "two_point_free_module.json")
        assert run("correspondence", scen).passed
        assert len(calls) == 1


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

    def test_submersion_evaluates_jacobi_once(self, fixtures_dir, monkeypatch):
        calls = []
        jacobi = cli.jacobi_residual
        monkeypatch.setattr(cli, "jacobi_residual",
                            lambda frame: calls.append(1) or jacobi(frame))
        doc = run("submersion", parse_scenario(fixtures_dir / "heisenberg.json"))
        assert doc.passed and len(calls) == 1
        assert [c.value for c in doc.checks if c.name == "jacobi_identity"] \
            == [doc.values["jacobi_residual"]]

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

    @pytest.mark.parametrize("field", ["residual_tol", "rank_tol"])
    @pytest.mark.parametrize("value", ["Infinity", "NaN", "0", "-1"])
    def test_bad_scenario_tolerance_exit_two(self, fixtures_dir, tmp_path, capsys,
                                             field, value):
        # p[0][0] = [0, 0.5] is no projection: an infinite residual_tol would pass it
        payload = json.loads((fixtures_dir / "two_point_module.json").read_text())
        payload["module"]["p"][0][0] = [0, 0.5]
        payload["tolerances"][field] = "BAD"
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(payload).replace('"BAD"', value), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("input error: tolerances." + field)

    @pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
    @pytest.mark.parametrize("value", ["Infinity", "NaN", "0", "-1"])
    def test_bad_cli_tolerance_exit_two(self, fixtures_dir, capsys, flag, value):
        path = str(fixtures_dir / "two_point_module.json")
        assert main(["validate", path, flag, value]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error: " + flag)

    @pytest.mark.parametrize("dim_fiber", [1.5, True])
    def test_non_integer_dim_fiber_exit_two(self, tmp_path, capsys, dim_fiber):
        payload = json.loads(json.dumps(TWO_POINT))
        payload["frame"] = {"dim": 3, "dim_fiber": dim_fiber,
                            "c": np.zeros((3, 3, 3)).tolist()}
        path = write_scenario(tmp_path, payload)
        assert main(["submersion", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error: frame.dim_fiber")

    @pytest.mark.parametrize("frame, name, value", [
        ("hopf", "lam", True), ("hopf", "lam", "2"), ("warped_torus", "f", True)])
    def test_non_number_frame_param_exit_two(self, tmp_path, capsys, frame, name, value):
        # True would run as 1 and "2" failed inside the frame builder, naming no field
        params = {"hopf": {"lam": 2}, "warped_torus": {"f": 2, "fprime": 0.5}}[frame]
        payload = json.loads(json.dumps(TWO_POINT))
        payload["frame"] = {"canned": frame, "params": params}
        assert main(["submersion", write_scenario(tmp_path, payload)]) == EXIT_OK
        payload["frame"]["params"][name] = value
        assert main(["submersion", write_scenario(tmp_path, payload)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"input error: frame.params.{name}")

    @pytest.mark.parametrize("sign", [True, 1.0, [1, 0]])
    def test_non_integer_gamma_sign_exit_two(self, fixtures_dir, tmp_path, capsys, sign):
        payload = json.loads((fixtures_dir / "two_point_module.json").read_text())
        payload["module"]["gamma_signs"][0] = sign
        path = write_scenario(tmp_path, payload)
        assert main(["validate", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error: module.gamma_signs[0]")

    @pytest.mark.parametrize("section, key", [("triple", "n"), ("module", "m")])
    @pytest.mark.parametrize("payload, value", [(TWO_POINT_MODULE, 2.0), (ONE_POINT, True)])
    def test_non_integer_declared_size_exit_two(self, tmp_path, capsys, section, key,
                                                payload, value):
        # 2.0 == 2 and True == 1, the sizes of each payload, but neither is an integer
        payload = json.loads(json.dumps(payload))
        size = int(value)
        payload[section][key] = size
        assert main(["validate", write_scenario(tmp_path, payload)]) == EXIT_OK
        payload[section][key] = value
        assert main(["validate", write_scenario(tmp_path, payload)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"input error: {section}.{key}")

    def test_negative_seed_exit_two(self, fixtures_dir, capsys):
        assert main(["selftest", "--seed", "-1"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error: --seed")
        path = str(fixtures_dir / "two_point.json")
        assert main(["validate", path, "--seed", "-1"]) == EXIT_INPUT_ERROR

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("fixture, command", [("n3_junk.json", "junk"),
                                                  ("two_point_module.json", "curvature")])
    def test_basis_not_unit_first_exit_one(self, fixtures_dir, tmp_path, capsys,
                                           fixture, command):
        # the junk space is built on b_0 = 1; swapping b_0 and b_1 (and the
        # module's coordinates with them) must fail that check, not mislead
        payload = json.loads((fixtures_dir / fixture).read_text())
        basis = payload["triple"]["basis"]
        basis[0], basis[1] = basis[1], basis[0]
        for row in payload.get("module", {}).get("p", []):
            for entry in row:
                entry[0], entry[1] = entry[1], entry[0]
        assert main([command, write_scenario(tmp_path, payload)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert re.search(r"^  FAIL  basis_unit_first ", out, re.MULTILINE)
        assert "junk_dim" not in out

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

    def test_non_finite_floats_read_back(self):
        # nan and inf are not JSON; NaN, Infinity and -Infinity are what the
        # json module itself writes and reads
        specials = [math.nan, math.inf, -math.inf]
        doc = cli.ResultDocument(
            "selftest", "-", 0, "v", checks=[Check(f"c{k}", v, 1.0) for k, v in enumerate(specials)],
            values={"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "list": specials,
                    "finite": 0.1, "zero": -0.0})
        payload = json.loads(doc.to_json())
        got = [c["value"] for c in payload["checks"]] + list(payload["values"].values())[:4]
        assert repr(got[:3]) == repr(got[3:6]) == repr(specials) == repr(payload["values"]["list"])
        assert payload["values"]["finite"] == 0.1 and '"zero":0}' in doc.to_json()
        assert not payload["passed"]
        assert doc.to_json().count("NaN") == 3 and doc.to_json().count("-Infinity") == 3
        assert "  inf = Infinity" in doc.to_text().splitlines()

    def test_a_nan_residual_fails_the_command_and_reads_back(self, fixtures_dir, capsys,
                                                            monkeypatch):
        calls, real = [], cli.membership_residual

        def planted(*args):
            calls.append(None)
            return math.nan if len(calls) == 2 else real(*args)

        monkeypatch.setattr(cli, "membership_residual", planted)
        argv = ["junk", str(fixtures_dir / "n3_junk.json"), "--format", "json"]
        assert main(argv) == EXIT_CHECK_FAILED and len(calls) == 2
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["name"] == "junk_inside_two_forms" and math.isnan(check["value"])
        assert check["passed"] is False

    def test_selftest_cli_passes(self, capsys):
        assert main(["selftest", "--seed", "11", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 16


@pytest.fixture
def fresh_parser():
    """Drop the cached parser before and after, so the test sees a first call."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestParserReuse:
    def test_flags_do_not_leak_into_the_next_call(self, fixtures_dir, capsys,
                                                  fresh_parser):
        path = str(fixtures_dir / "two_point_module.json")
        assert main(["curvature", path]) == EXIT_OK
        first = capsys.readouterr()
        assert main(["curvature", path, "--emit-matrices", "--seed", "3",
                     "--tol", "1e-6", "--format", "json"]) == EXIT_OK
        flagged = capsys.readouterr().out
        assert '"seed":3' in flagged and '"matrices"' in flagged
        assert main(["curvature", path]) == EXIT_OK
        assert capsys.readouterr() == first

    def test_valid_call_after_argparse_rejection(self, fixtures_dir, capsys,
                                                 fresh_parser):
        path = str(fixtures_dir / "two_point.json")
        assert main(["validate", path]) == EXIT_OK
        first = capsys.readouterr()
        for bad in (["validate", path, "--tol", "abc"], ["frobnicate", path], []):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        assert main(["validate", path]) == EXIT_OK
        assert capsys.readouterr() == first

    def test_parser_built_once_across_calls(self, fixtures_dir, capsys, monkeypatch,
                                            fresh_parser):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for command in ("validate", "forms", "junk", "validate"):
            assert main([command, str(fixtures_dir / "two_point.json")]) == EXIT_OK
        assert built.count("ncgcurv") == 1
        assert cli._parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        code = ("import ncgcurv.cli as cli; print(cli._parser.cache_info().misses); "
                "cli.main(['validate', 'fixtures/two_point.json']); "
                "print(cli._parser.cache_info().misses)")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "1")
