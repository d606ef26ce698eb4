import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chainstab import GeneratedPairData, GridSpec, cli, oracle
from chainstab.curve_model import ChainCurve, SheafNumerics
from chainstab.errors import InternalInvariantError, ValidationError
from chainstab.feasibility import IntervalChain, bigas_intervals
from reference import frac_str, twisted_sheaf

NO_INT_LIMIT = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                  reason="no limit on integer string conversion")


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
ACCEPTANCE_6 = {"curve": {"genera": [2, 2, 2]},
                "subject": {"pair": {"rank": 2, "sections": 4, "multidegree": [3, 3, 3],
                                     "ker_rho_nonzero": [True, True, True]}}}


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


    def test_genus_without_degree_ratio_exits_2(self, tmp_path, capsys):
        # h1 vanishing leaves chi = 3 - 12 + 1 = -8 sections, not the declared 4
        golden = json.loads((Path(__file__).with_name("data") / "golden.json").read_text())
        case = next(c for c in golden if c["name"] == "pair-untwisted-genus-bound-1")
        path = write_scenario(tmp_path, case["scenario"])
        assert cli.main(["check", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: declared section count 4 exceeds chi = d + r(1 - p_a) = -8,")
        assert err.count("\n") == 1

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

    def test_twisted_sheaf_subject_is_twisted(self, tmp_path, capsys):
        # check certifies the twisted line bundle (0, 4) unstable; the oracle
        # must decide the same twisted subject, not the untwisted (0, 0)
        data = dict(TRIVIAL_SHEAF, twist={"multidegree": [0, 4]})
        rc, payload, _ = run_json(tmp_path, capsys, "oracle", data, "--denominator", "12")
        assert rc == 0
        assert payload["region_status"] == "infeasible"
        assert payload["grid_count"] == 0
        assert payload["agreement"] is True

    def test_work_limit_refuses_six_component_defaults(self, tmp_path, capsys):
        # C(59, 5) = 5,006,386 grid points times 7^6 twists, refused before any work
        genera = [2] * 6
        data = {"curve": {"genera": genera},
                "subject": {"pair": {"rank": 1, "sections": 2, "multidegree": [3] * 6,
                                     "ker_rho_nonzero": [True] * 6}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["oracle", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(5006386 + 5006386 * 7 ** 6) in captured.err
        assert str(oracle.ORACLE_WORK_LIMIT) in captured.err

    def test_work_estimate_admits_acceptance_6(self, tmp_path, capsys):
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        assert oracle.work_estimate(GridSpec(24, 3), pair, 3) == 253 + 86779
        assert 253 + 86779 <= oracle.ORACLE_WORK_LIMIT
        rc, payload, _ = run_json(tmp_path, capsys, "oracle", ACCEPTANCE_6,
                                  "--denominator", "24", "--twist-range", "3")
        assert rc == 0
        assert payload["witness_checks"] == 86779
        assert payload["agreement"] is True

    def test_huge_denominator_refused_on_a_long_chain(self, tmp_path, capsys):
        n = 10**4
        data = {"curve": {"genera": [2] * n},
                "subject": {"sheaf": {"multirank": [1] * n, "multidegree": [0] * n}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["oracle", path, "--denominator", str(10**1000)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: oracle work estimate more than {10**18} units")
        assert captured.err.count("\n") == 1

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
        assert "2 <= n <= 100,000" in out
        assert "more than 100,000 components is refused with exit code 2" in out


class TestProcessEntryPoint:
    """``python -m chainstab`` in a child process, as a shell runs it."""

    ROOT = Path(__file__).resolve().parent.parent

    def run(self, *args):
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        return subprocess.run([sys.executable, "-m", "chainstab", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def readme_example(self):
        """The README's example scenario and the output lines its console block shows."""
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        scenario = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        console = re.search(r"```console\n\$ chainstab check scenario.json\n(.*?)```",
                            readme, re.S).group(1)
        shown = [line for line in console.splitlines() if line != "..."]
        return scenario, shown

    def test_readme_check_example(self, tmp_path):
        scenario, shown = self.readme_example()
        assert len(shown) >= 4
        result = self.run("check", write_scenario(tmp_path, scenario))
        assert result.returncode == 0
        assert result.stdout.splitlines()[:len(shown)] == shown

    def test_contradictory_hypotheses_exit_2(self, tmp_path):
        data = {"curve": {"genera": [2, 2]},
                "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [6, 6],
                                     "twisted_sections_nonzero": [True, False],
                                     "restriction_semistable": [True, False],
                                     "kernel_restriction_semistable": [True, True]}}}
        result = self.run("check", write_scenario(tmp_path, data))
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "kernel restriction declared semistable" in result.stderr

    def test_schema(self):
        result = self.run("schema")
        assert result.returncode == 0
        assert result.stdout == cli.SCHEMA_TEXT


class TestValidation:
    def test_missing_file(self, capsys):
        assert cli.main(["check", "/nonexistent/scenario.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"curve": ')
        assert cli.main(["check", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @NO_INT_LIMIT
    def test_overlong_integer_literal_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path.write_text('{"curve": {"genera": [2, 2]}, "subject": {"sheaf": '
                        f'{{"multirank": [1, 1], "multidegree": [{digits}, 0]}}}}}}')
        assert cli.main(["polarize", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        # the JSON decoder gives up on this depth with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5 + "]" * 10**5)
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: JSON nested too deeply to parse\n"

    def test_missing_scenario_argument(self, capsys):
        assert cli.main(["check"]) == 2

    def test_unknown_field_rejected(self, tmp_path, capsys):
        data = dict(TRIVIAL_SHEAF)
        data["extra"] = 1
        path = write_scenario(tmp_path, data)
        assert cli.main(["check", path]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_unknown_curve_field_rejected(self, tmp_path, capsys):
        data = dict(TRIVIAL_SHEAF, curve={"genera": [2, 2], "extra": 1})
        path = write_scenario(tmp_path, data)
        assert cli.main(["polarize", path]) == 2
        assert "curve: unknown fields ['extra']" in capsys.readouterr().err

    @NO_INT_LIMIT
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unrenderable_report_exits_2(self, tmp_path, capsys, fmt):
        # every literal is within the digit limit, but the kernel's chi,
        # a product of two of them, is not
        big = 10 ** (sys.get_int_max_str_digits() - 100)
        data = {"curve": {"genera": [big, 2]},
                "subject": {"pair": {"rank": 1, "sections": big, "multidegree": [0, 0]}}}
        path = write_scenario(tmp_path, data)
        assert cli.main(["polarize", path, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the report cannot be rendered")
        assert captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("bad", [True, 0.5])
    @pytest.mark.parametrize("where", ["curve.genera", "sheaf.multirank", "sheaf.multidegree",
                                       "pair.multidegree", "twist.multidegree"])
    def test_long_integer_list_refusal_names_the_last_entry(self, where, bad):
        n = 10_000
        values = [2] * (n - 1) + [bad]
        lists = {"curve.genera": [2] * n, "sheaf.multirank": [1] * n,
                 "sheaf.multidegree": [0] * n, "pair.multidegree": [0] * n,
                 "twist.multidegree": [0] * n, where: values}
        subject = ({"pair": {"rank": 1, "sections": 3, "multidegree": lists["pair.multidegree"]}}
                   if where == "pair.multidegree" else
                   {"sheaf": {"multirank": lists["sheaf.multirank"],
                              "multidegree": lists["sheaf.multidegree"]}})
        data = {"curve": {"genera": lists["curve.genera"]}, "subject": subject,
                "twist": {"multidegree": lists["twist.multidegree"]}}
        with pytest.raises(ValidationError) as exc:
            cli.parse_scenario(data)
        assert str(exc.value) == f"{where}: expected an integer, got {bad!r}"

    @pytest.mark.parametrize("bad", [1, 0, None, "true"])
    def test_flag_refusal_names_the_first_non_boolean(self, bad):
        n = 1000
        flags = [True] * (n - 2) + [bad, 2.5]
        data = {"curve": {"genera": [2] * n},
                "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [1] * n,
                                     "h1_vanishes": flags}}}
        with pytest.raises(ValidationError) as exc:
            cli.parse_scenario(data)
        assert str(exc.value) == f"pair.h1_vanishes: expected booleans, got {bad!r}"

    def test_chain_length_limit(self, tmp_path, capsys):
        limit = cli.CHAIN_LENGTH_LIMIT
        assert limit == 100_000

        def scenario(n, genus=2):
            return {"curve": {"genera": [genus] * n},
                    "subject": {"sheaf": {"multirank": [1] * n, "multidegree": [0] * n}}}

        assert cli.parse_scenario(scenario(limit)).curve.n == limit
        message = "curve.genera: 100,001 components exceed the chain-length limit of 100,000"
        # the length is refused before any genus is read
        for genus in (2, 1, 0.5):
            with pytest.raises(ValidationError) as exc:
                cli.parse_scenario(scenario(limit + 1, genus))
            assert str(exc.value) == message
        path = write_scenario(tmp_path, scenario(limit + 1))
        assert cli.main(["polarize", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def pair_scenario(genera=(2, 2, 2), twist=None, **fields):
    """A valid three-component pair scenario, with ``fields`` set in the pair."""
    data = {"curve": {"genera": list(genera)},
            "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [1, 1, 1], **fields}}}
    if twist is not None:
        data["twist"] = {"multidegree": twist}
    return data


def sheaf_scenario(multirank=(1, 1, 1), multidegree=(0, 0, 0)):
    return {"curve": {"genera": [2, 2, 2]},
            "subject": {"sheaf": {"multirank": list(multirank), "multidegree": list(multidegree)}}}


# One fault per scenario, for each check that parsing or the model makes: the
# refusal every command prints for it.
REFUSALS = [
    pytest.param([], "scenario: expected an object, got list", id="scenario-shape"),
    pytest.param(dict(pair_scenario(), extra=1), "scenario: unknown fields ['extra']",
                 id="scenario-unknown"),
    pytest.param({"subject": pair_scenario()["subject"]},
                 "scenario: missing required field 'curve'", id="curve-missing"),
    pytest.param(dict(pair_scenario(), curve={"genera": 2}),
                 "curve.genera: expected a list, got int", id="genera-shape"),
    pytest.param(pair_scenario(genera=(2, 0.5, 2)), "curve.genera: expected an integer, got 0.5",
                 id="genera-type"),
    pytest.param(pair_scenario(genera=(2, True, 2)), "curve.genera: expected an integer, got True",
                 id="genera-bool"),
    pytest.param(pair_scenario(genera=(2,)),
                 "curve.genera: a chain-like curve needs at least two components",
                 id="one-component"),
    pytest.param(pair_scenario(genera=(2, 1, 2)),
                 "curve.genera: every component genus must be at least 2, got [1]",
                 id="genus-below-2"),
    pytest.param(dict(pair_scenario(), subject={}),
                 "subject: provide exactly one of 'sheaf' or 'pair'", id="subject-none"),
    pytest.param(sheaf_scenario(multirank=(1, True, 1)),
                 "sheaf.multirank: expected an integer, got True", id="multirank-type"),
    pytest.param(sheaf_scenario(multidegree=(0, "0", 0)),
                 "sheaf.multidegree: expected an integer, got '0'", id="sheaf-degree-type"),
    pytest.param(sheaf_scenario(multirank=(1, -1, 1)),
                 "sheaf.multirank: entries must be non-negative", id="multirank-negative"),
    pytest.param(sheaf_scenario(multirank=(1, 1)),
                 "sheaf.multirank has length 2 but the curve has 3 components",
                 id="multirank-length"),
    pytest.param(sheaf_scenario(multidegree=(0, 0, 0, 0)),
                 "sheaf.multidegree has length 4 but the curve has 3 components",
                 id="sheaf-degree-length"),
    pytest.param({"curve": {"genera": [2, 2, 2]}, "subject": {"sheaf": {"multirank": [1, 1, 1]}}},
                 "subject.sheaf: missing required field 'multidegree'", id="sheaf-missing"),
    pytest.param(pair_scenario(multidegree=[1, 1.0, 1]),
                 "pair.multidegree: expected an integer, got 1.0", id="pair-degree-type"),
    pytest.param(pair_scenario(multidegree=3), "pair.multidegree: expected a list, got int",
                 id="pair-degree-shape"),
    pytest.param(pair_scenario(rank=1.5), "pair.rank: expected an integer, got 1.5",
                 id="rank-type"),
    pytest.param(pair_scenario(rank=True), "pair.rank: expected an integer, got True",
                 id="rank-bool"),
    pytest.param(pair_scenario(sections="3"), "pair.sections: expected an integer, got '3'",
                 id="sections-type"),
    pytest.param(pair_scenario(rank=0), "pair.rank: expected a positive integer, got 0",
                 id="rank-below-1"),
    pytest.param(pair_scenario(sections=1),
                 "pair.sections: a generated pair needs more sections than rank, got 1 <= 1",
                 id="sections-not-above-rank"),
    pytest.param(pair_scenario(multidegree=[1, -1, 1]),
                 "pair.multidegree: a globally generated restriction has non-negative degree",
                 id="pair-degree-negative"),
    pytest.param(pair_scenario(multidegree=[1]),
                 "pair.multidegree must cover at least two components",
                 id="pair-one-component"),
    pytest.param(pair_scenario(multidegree=[1, 1]),
                 "pair.multidegree has length 2 but the curve has 3 components",
                 id="pair-degree-length"),
    pytest.param(pair_scenario(h1_vanishes=True), "pair.h1_vanishes: expected a list, got bool",
                 id="flag-shape"),
    pytest.param(pair_scenario(h1_vanishes=[False, 0, False]),
                 "pair.h1_vanishes: expected booleans, got 0", id="flag-type"),
    pytest.param(pair_scenario(ker_rho_nonzero=[False, False]),
                 "pair.ker_rho_nonzero has length 2 but pair.multidegree has length 3",
                 id="flag-length"),
    pytest.param(pair_scenario(multidegree=[1, 1], h1_vanishes=[False, False, False]),
                 "pair.h1_vanishes has length 3 but pair.multidegree has length 2",
                 id="flag-length-degree-short"),
    pytest.param(pair_scenario(restriction_stable=[False, True, False]),
                 "pair.restriction_stable: component 2 requires pair.restriction_semistable",
                 id="stable-not-semistable"),
    pytest.param(pair_scenario(kernel_restriction_stable=[False, True, False]),
                 "pair.kernel_restriction_stable: component 2 requires "
                 "pair.kernel_restriction_semistable",
                 id="kernel-stable-not-semistable"),
    pytest.param(pair_scenario(rank=2, sections=4, multidegree=[2, 1, 2],
                               restriction_semistable=[False, True, False],
                               twisted_sections_nonzero=[False, True, False]),
                 "pair.twisted_sections_nonzero: component 2 has a twisted section on a "
                 "semistable restriction, which forces degree >= rank, got 1 < 2",
                 id="twisted-section-below-rank"),
    pytest.param({"curve": {"genera": [2, 2, 2]},
                  "subject": {"pair": {"rank": 1, "multidegree": [1, 1, 1]}}},
                 "subject.pair: missing required field 'sections'", id="pair-missing"),
    pytest.param(pair_scenario(extra=[]), "subject.pair: unknown fields ['extra']",
                 id="pair-unknown"),
    pytest.param(pair_scenario(twist=[0, None, 0]),
                 "twist.multidegree: expected an integer, got None", id="twist-type"),
    pytest.param(pair_scenario(twist=[0, 0]),
                 "twist.multidegree has length 2 but the curve has 3 components",
                 id="twist-length"),
    pytest.param(pair_scenario(twist=[]), "twist.multidegree must be non-empty", id="twist-empty"),
    pytest.param(dict(pair_scenario(), twist={"degrees": [0, 0, 0]}),
                 "twist: unknown fields ['degrees']", id="twist-unknown"),
]


@pytest.mark.parametrize("command", ["check", "polarize", "oracle"])
@pytest.mark.parametrize("data,message", REFUSALS)
def test_refusal_text(tmp_path, capsys, command, data, message):
    path = write_scenario(tmp_path, data)
    assert cli.main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("build,data", [
    (lambda: GeneratedPairData(rank=1, sections=3, multidegree=(1, 1, 1),
                               h1_vanishes=(False, 0, False)),
     pair_scenario(h1_vanishes=[False, 0, False])),
    (lambda: ChainCurve((2, 0.5, 2)), pair_scenario(genera=(2, 0.5, 2))),
], ids=["flag-list", "integer-list"])
def test_library_and_parser_refuse_with_one_text(build, data):
    with pytest.raises(ValidationError) as library:
        build()
    with pytest.raises(ValidationError) as parser:
        cli.parse_scenario(data)
    assert str(library.value) == str(parser.value)


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
        # 1000 components: feasible, and running dry at S_951
        for degs in ([0] * 1000, [0] * 950 + [9] + [0] * 49):
            data = {"curve": {"genera": [2] * 1000},
                    "subject": {"sheaf": {"multirank": [1] * 1000, "multidegree": degs}}}
            path = write_scenario(tmp_path, data, name="long.json")
            assert cli.main(["polarize", path, "--format", "json"]) == 0
            region = json.loads(capsys.readouterr().out)["region"]
            assert cli.main(["polarize", path, "--format", "text"]) == 0
            text = capsys.readouterr().out.splitlines()
            assert f"region: {region['status']}" in text
            assert [line for line in text if line.startswith("  S_")] == [
                f"  S_{i} in {'(' if iv['lower_open'] else '['}"
                f"{'-inf' if iv['lower'] is None else iv['lower']}, "
                f"{'+inf' if iv['upper'] is None else iv['upper']}"
                f"{')' if iv['upper_open'] else ']'}"
                for i, iv in enumerate(region["s_intervals"], start=1)]
            assert len(region["s_intervals"]) == 999
            witness = [line for line in text if line.startswith("  witness: ")]
            if region["witness"] is None:
                assert region["status"] == "infeasible" and witness == []
            else:
                assert witness == [f"  witness: ({', '.join(region['witness'])})"]


# The emitter against the standard library's encoder on arbitrary JSON trees,
# whose leaves may be interval chains: the encoder gets each chain as the list
# of per-interval dicts that reports print for it.

# any code point, lone surrogates included, and often one that needs escaping
TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\/\x00\x1f\x7f\x80\u00e9\u2028\ud800\udfff\U0001f600')),
               max_size=6)
CHAINS = st.randoms(use_true_random=False).map(lambda rng: bigas_intervals(twisted_sheaf(rng)))
TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), TEXT, CHAINS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)


def genus_two_chain(degs: list) -> IntervalChain:
    """The slope-inequality chain of a rank-1 sheaf of multidegree ``degs``
    on a chain of genus-2 components."""
    n = len(degs)
    return bigas_intervals(SheafNumerics(ChainCurve((2,) * n), (1,) * n, degs))


# 1000-component chains whose chi is positive, negative and zero; the last
# mixes vacuous (null) and empty intervals.
LONG_CHAINS = {"chi > 0": genus_two_chain([j % 7 + 2 for j in range(1000)]),
               "chi < 0": genus_two_chain([j % 3 for j in range(1000)]),
               "chi = 0": genus_two_chain([3, 1] * 499 + [2, 1])}


def test_long_example_chains_take_every_sign_of_chi():
    dens = {name: c.den for name, c in LONG_CHAINS.items()}
    assert dens["chi > 0"] > 1 and dens["chi < 0"] > 1 and dens["chi = 0"] == 1
    assert len({*LONG_CHAINS["chi = 0"].lower}) == 2       # both None and 0
    assert all(len(c.lower) == 999 for c in LONG_CHAINS.values())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(TREES, max_size=4), st.dictionaries(TEXT, TREES, max_size=4)))
@example({"\ud800": {"\x00": "\\"}, "a": [[], {}, (), [[{"": [None, True, False, -0]}]]]})
@example([{"region": {"status": "feasible", "s_intervals": bigas_intervals(
    SheafNumerics(ChainCurve((2, 2)), (1, 1), degs)), "witness": None}}
    for degs in ((0, 4), (0, 0), (1, 2), (3, 0))])   # chi > 0, chi < 0, chi = 0 vacuous, empty
@example({"s_intervals": IntervalChain(1, (), (), (), ())})
@example([[1, True], [True, 1], [0, False, None], ["a"], [None, None], (1,), (True, None)])
@example({"ints": list(range(-500, 500)), "bools": [j % 3 == 0 for j in range(1000)],
          "strs": [f"s{j}\u00e9\"\\" for j in range(1000)], "tuple": tuple(range(1000))})
@example(LONG_CHAINS)
def test_canonical_json_matches_json_dumps(tree):
    ours, want = cli.canonical_json(tree), json.dumps(as_dicts(tree), sort_keys=True, indent=2)
    if ours != want:  # report where they part: a full diff of long texts takes minutes
        at = len(os.path.commonprefix([ours, want]))
        start = max(at - 60, 0)
        pytest.fail(f"they differ from offset {at}: {ours[start:at + 60]!r} "
                    f"!= {want[start:at + 60]!r}")


def as_dicts(tree):
    """``tree`` with every interval chain written out as its per-interval dicts."""
    if type(tree) is IntervalChain:
        def end(num):
            return None if num is None else frac_str(Fraction(num, tree.den))
        return [{"lower": end(lo), "lower_open": lo_open, "upper": end(hi), "upper_open": hi_open}
                for lo, lo_open, hi, hi_open in zip(tree.lower, tree.lower_open,
                                                    tree.upper, tree.upper_open)]
    if type(tree) is dict:
        return {key: as_dicts(value) for key, value in tree.items()}
    if type(tree) in (list, tuple):
        return [as_dicts(value) for value in tree]
    return tree


@NO_INT_LIMIT
@pytest.mark.parametrize("wrap", [lambda v: {"chi": v}, lambda v: [1, [v]], lambda v: {"a": (v,)}])
def test_canonical_json_refuses_overlong_int(wrap):
    with pytest.raises(ValueError):
        cli.canonical_json(wrap(10 ** sys.get_int_max_str_digits()))


@pytest.mark.parametrize("payload", [{"w": 0.5}, [1, [0.5]], {1: "a"}, {"a": {None: 1}},
                                     {"a": 1, 2: 3}, {"s": {"set"}}])
def test_canonical_json_refuses_non_json_values(payload):
    with pytest.raises(TypeError):
        cli.canonical_json(payload)


# Fuzzing: arbitrary JSON shapes never end in a traceback or an exit code other than 0 or 2.

JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.text(max_size=3),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
PAIR_FLAGS = ("restriction_semistable", "restriction_stable", "kernel_restriction_semistable",
              "kernel_restriction_stable", "ker_rho_nonzero", "twisted_sections_nonzero",
              "h1_vanishes")


@st.composite
def fuzz_scenarios(draw):
    """Mostly well-formed scenarios, each part now and then of a wrong type,
    length or value, with a key missing or an unknown key added."""
    n = draw(st.integers(2, 3))

    def rarely():
        # one in sixteen; a middle value, since draws lean towards the bounds
        return draw(st.integers(0, 15)) == 7

    def pick(good, bad):
        return bad if rarely() else good

    def sized(elements):
        length = draw(st.sampled_from((n - 1, n + 1))) if rarely() else n
        return draw(st.lists(elements, min_size=length, max_size=length))

    def field(good):
        return draw(JUNK) if rarely() else good

    def mangle(obj):
        if obj and rarely():
            del obj[draw(st.sampled_from(sorted(obj)))]
        if rarely():
            obj["unexpected"] = draw(JUNK)
        return obj

    genera = sized(pick(st.integers(2, 4), st.integers(-1, 1)))
    uniform = st.just(draw(st.integers(1, 2)))
    sheaf = mangle({"multirank": field(sized(pick(uniform, st.integers(0, 3)))),
                    "multidegree": field(sized(st.integers(-6, 6)))})
    rank = draw(pick(st.integers(1, 3), st.integers(-1, 0)))
    pair = {"rank": field(rank),
            "sections": field(draw(pick(st.integers(rank + 1, rank + 3), st.integers(-1, 6)))),
            "multidegree": field(sized(pick(st.integers(0, 6), st.integers(-3, -1))))}
    for name in PAIR_FLAGS:
        if draw(st.booleans()):
            pair[name] = field(sized(st.booleans()))
    subject = draw(st.sampled_from(("sheaf",) * 3 + ("pair",) * 5 + ("both", "none", "junk")))
    scenario = mangle({
        "curve": field(mangle({"genera": field(genera)})),
        "subject": {"sheaf": {"sheaf": sheaf}, "pair": {"pair": mangle(pair)},
                    "both": {"sheaf": sheaf, "pair": pair}, "none": {},
                    "junk": draw(JUNK)}[subject]})
    if draw(st.booleans()):
        scenario["twist"] = field(None if rarely() else
                                  mangle({"multidegree": field(sized(st.integers(-4, 4)))}))
    return scenario


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_scenarios(), st.integers(-1, 30), st.integers(-1, 2))
def test_main_never_raises(scenario, denominator, twist_range):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        for command in ("check", "polarize", "oracle"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([command, str(path), "--format", "json",
                               "--denominator", str(denominator),
                               "--twist-range", str(twist_range)])
            assert rc in (0, 2), (command, scenario)
