import json

import pytest

from chainstab import cli
from chainstab.errors import InternalInvariantError


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TRIVIAL_SHEAF = {"curve": {"genera": [2, 2]},
                 "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 0]}}}
UNBALANCED = {"curve": {"genera": [2, 2]},
              "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 4]}}}
ENDPOINT_PAIR = {"curve": {"genera": [2, 2]},
                 "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [6, 6],
                                      "twisted_sections_nonzero": [True, False],
                                      "restriction_semistable": [True, False],
                                      "ker_rho_nonzero": [True, False]}}}
SEMISTABLE_PAIR = {"curve": {"genera": [2, 2]},
                   "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [6, 6],
                                        "kernel_restriction_semistable": [True, True]}}}


def run_json(tmp_path, capsys, command, data, *extra):
    path = write_scenario(tmp_path, data)
    rc = cli.main([command, path, "--format", "json", *extra])
    out = capsys.readouterr().out
    return rc, json.loads(out), out


class TestPolarize:
    def test_trivial_bundle(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "polarize", TRIVIAL_SHEAF)
        assert rc == 0
        region = payload["region"]
        assert region["status"] == "feasible"
        assert region["witness"] == ["1/2", "1/2"]
        assert region["s_intervals"] == [{"lower": "1/3", "lower_open": False,
                                          "upper": "2/3", "upper_open": False}]

    def test_pair_subject_uses_kernel(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "polarize", SEMISTABLE_PAIR)
        assert rc == 0
        assert payload["sheaf"]["chi"] == -18
        assert payload["region"]["witness"] == ["1/2", "1/2"]

    def test_twist_applied(self, tmp_path, capsys):
        data = dict(TRIVIAL_SHEAF, twist={"multidegree": [0, 4]})
        rc, payload, _ = run_json(tmp_path, capsys, "polarize", data)
        assert rc == 0
        assert payload["sheaf"]["chi"] == 1
        assert payload["region"]["status"] == "infeasible"


class TestCheck:
    def test_unbalanced_line_bundle(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "check", UNBALANCED)
        assert rc == 0
        assert payload["sheaf"]["chi"] == 1
        verdict = payload["verdict"]
        assert verdict["kind"] == "strongly_unstable"
        cert = verdict["certificate"]
        # S_1 = w_1 must be positive yet at most -1: exactly "w_1 < 0"
        assert cert["quantity"] == "S_1"
        assert cert["lower"] == "0/1" and cert["lower_open"] is True
        assert cert["upper"] == "-1/1" and cert["upper_open"] is False
        assert cert["verified"] is True

    def test_endpoint_pair(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "check", ENDPOINT_PAIR)
        assert rc == 0
        assert payload["verdict"]["kind"] == "strongly_unstable"
        assert payload["verdict"]["criterion"] == "endpoint-degree-excess"
        assert payload["fired"] == ["endpoint-degree-excess"]
        assert payload["k_bound"] is None  # not all restrictions semistable
        assert payload["pair"]["sections"] == 3

    def test_semistable_pair(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "check", SEMISTABLE_PAIR)
        assert rc == 0
        assert payload["verdict"]["kind"] == "w_semistable"
        assert payload["verdict"]["witness"] == ["1/2", "1/2"]

    def test_contradictory_pair_exits_2(self, tmp_path, capsys):
        data = {"curve": {"genera": [2, 2]},
                "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [6, 6],
                                     "twisted_sections_nonzero": [True, False],
                                     "restriction_semistable": [True, False],
                                     "kernel_restriction_semistable": [True, True]}}}
        path = write_scenario(tmp_path, data)
        rc = cli.main(["check", path])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_trivial_bundle_grid(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "oracle", TRIVIAL_SHEAF,
                                  "--denominator", "12")
        assert rc == 0
        assert payload["agreement"] is True
        assert payload["grid_count"] == 5

    def test_endpoint_zero_grid(self, tmp_path, capsys):
        rc, payload, _ = run_json(tmp_path, capsys, "oracle", ENDPOINT_PAIR,
                                  "--denominator", "60")
        assert rc == 0
        assert payload["agreement"] is True
        assert payload["grid_count"] == 0
        assert payload["region_status"] == "infeasible"

    def test_negative_twist_range_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ENDPOINT_PAIR)
        assert cli.main(["oracle", path, "--twist-range", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "twist range" in captured.err


class TestSchema:
    def test_prints_format(self, capsys):
        assert cli.main(["schema"]) == 0
        out = capsys.readouterr().out
        assert "multidegree" in out and "pair" in out and "sheaf" in out


class TestValidation:
    def test_missing_file(self, capsys):
        assert cli.main(["check", "/nonexistent/scenario.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"curve": ')
        assert cli.main(["check", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_scenario_argument(self, capsys):
        assert cli.main(["check"]) == 2

    def test_unknown_field_rejected(self, tmp_path, capsys):
        data = dict(TRIVIAL_SHEAF)
        data["extra"] = 1
        path = write_scenario(tmp_path, data)
        assert cli.main(["check", path]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_both_subjects_rejected(self, tmp_path, capsys):
        data = {"curve": {"genera": [2, 2]},
                "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 0]},
                            "pair": {"rank": 1, "sections": 2, "multidegree": [0, 0]}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["check", path]) == 2

    def test_length_mismatch_rejected(self, tmp_path, capsys):
        data = {"curve": {"genera": [2, 2, 2]},
                "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 0]}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["polarize", path]) == 2

    def test_float_degree_rejected(self, tmp_path, capsys):
        data = {"curve": {"genera": [2, 2]},
                "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0.5, 0]}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["polarize", path]) == 2

    def test_low_genus_rejected(self, tmp_path, capsys):
        data = {"curve": {"genera": [1, 2]},
                "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 0]}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["check", path]) == 2

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(scn):
            raise InternalInvariantError("forced")
        monkeypatch.setattr(cli, "cmd_check", boom)
        path = write_scenario(tmp_path, TRIVIAL_SHEAF)
        assert cli.main(["check", path]) == 3
        assert "internal error" in capsys.readouterr().err


class TestCanonicalOutput:
    @pytest.mark.parametrize("command,data", [
        ("polarize", TRIVIAL_SHEAF),
        ("check", UNBALANCED),
        ("check", ENDPOINT_PAIR),
        ("check", SEMISTABLE_PAIR),
        ("oracle", TRIVIAL_SHEAF),
    ])
    def test_json_round_trips_byte_identical(self, tmp_path, capsys, command, data):
        args = ["--denominator", "12"] if command == "oracle" else []
        rc, payload, raw = run_json(tmp_path, capsys, command, data, *args)
        assert rc == 0
        assert json.dumps(json.loads(raw.rstrip("\n")), sort_keys=True, indent=2) == \
            raw.rstrip("\n")

    def test_no_floats_anywhere(self, tmp_path, capsys):
        rc, payload, raw = run_json(tmp_path, capsys, "check", SEMISTABLE_PAIR)

        def scan(node):
            if isinstance(node, float):
                raise AssertionError(f"float leaked into output: {node}")
            if isinstance(node, dict):
                for v in node.values():
                    scan(v)
            if isinstance(node, list):
                for v in node:
                    scan(v)

        scan(payload)

    def test_text_and_json_agree(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ENDPOINT_PAIR)
        assert cli.main(["check", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert cli.main(["check", path, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert f"verdict: {payload['verdict']['kind']}" in text
        assert f"criterion: {payload['verdict']['criterion']}" in text
        cert = payload["verdict"]["certificate"]
        assert cert["lower"] in text and cert["upper"] in text
