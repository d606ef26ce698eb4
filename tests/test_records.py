"""Value-record semantics of the exported types, and what importing the CLI loads.

The validated types are ``__slots__`` records and the types that only carry
fields are ``collections.namedtuple`` types; both must behave as immutable
values: equal and equally hashed after ``copy``, ``deepcopy`` and
``pickle``, with the same ``repr``, and refusing assignment.  The field
types keep their field names, order and defaults, and ``_replace`` builds
a copy of the same type.
"""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import chainstab
from chainstab import (FeasibleRegion, GridSpec, Polarization, analyze, cli,
                       cross_validate, feasibility, oracle, simplex_intersect, stability,
                       weight_system)
from chainstab.curve_model import ChainCurve, GeneratedPairData
from chainstab.feasibility import INFEASIBLE, declared_bounds
from chainstab.stability import k_bound_check

SRC = Path(__file__).resolve().parent.parent / "src"

README_PAIR = {"curve": {"genera": [2, 2]},
               "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [6, 6],
                                    "twisted_sections_nonzero": [True, False],
                                    "restriction_semistable": [True, False],
                                    "ker_rho_nonzero": [True, False]}}}


def readme_records() -> dict:
    """One instance of every record type, from a ``check`` and an ``oracle``
    run of the README pair and the objects those runs build."""
    scn = cli.parse_scenario(README_PAIR)
    report = analyze(scn.curve, scn.subject)
    system = weight_system(scn.curve, scn.subject)
    witness = simplex_intersect(system.intervals).witness
    return {
        "Scenario": scn, "ChainCurve": scn.curve, "GeneratedPairData": scn.subject,
        "Report": report, "Verdict": report.verdict, "FeasibleRegion": report.region,
        "InfeasibilityCertificate": report.region.certificate, "SheafNumerics": report.sheaf,
        "WeightSystem": system, "LineBundleTwist": system.line,
        "IntervalChain": system.intervals, "WeightBound": declared_bounds(system)[0],
        "Polarization": witness,
        "GridSpec": GridSpec(60, 2),
        "ValidationReport": cross_validate(scn.curve, GridSpec(60, 2), scn.subject),
        "KBoundResult": k_bound_check(scn.curve, GeneratedPairData(
            1, 3, (6, 6), restriction_semistable=(True, True))),
    }


RECORDS = readme_records()


def first_field(record) -> str:
    return repr(record).partition("(")[2].partition("=")[0]


def test_every_exported_record_type_is_taken():
    assert all(type(record).__name__ == name for name, record in RECORDS.items())
    exported = {name for name in chainstab.__all__ if isinstance(getattr(chainstab, name), type)
                and not issubclass(getattr(chainstab, name), Exception)}
    assert exported <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_are_equal_values(name):
    record = RECORDS[name]
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(record)
        assert other == record and repr(other) == repr(record)
        assert hash(other) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_is_refused(name):
    record = RECORDS[name]
    before = repr(record)
    for field in (first_field(record), "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, first_field(record))
    assert repr(record) == before


def test_repr_names_every_field():
    assert repr(Polarization((1, 2), 3)) == "Polarization(nums=(1, 2), den=3)"
    assert repr(ChainCurve((2, 3))) == "ChainCurve(genera=(2, 3))"
    assert repr(RECORDS["WeightBound"]) == (
        "WeightBound(index=1, num=4, den=18, lower=False, open=False, "
        "label='subsheaf slope bound')")
    assert repr(RECORDS["SheafNumerics"]) == (
        "SheafNumerics(curve=ChainCurve(genera=(2, 2)), multirank=(2, 2), "
        "multidegree=(-6, -6), chi_components=(-8, -8), chi=-18)")


FIELD_TYPES = {
    cli.Scenario: (("curve", "subject", "twist"), {}),
    stability.KBoundResult: (("bound", "k_within_bound", "per_component", "methods"), {}),
    stability.Report: (("verdict", "region", "sheaf", "obstructions", "fired", "k_bound",
                        "notes"), {"notes": ()}),
    stability._Rule: (("criterion", "fired", "notes", "bounds"), {"bounds": ()}),
    feasibility.IntervalChain: (("den", "lower", "lower_open", "upper", "upper_open"), {}),
    feasibility.InfeasibilityCertificate: (
        ("quantity", "den", "lower", "lower_open", "lower_reason", "upper", "upper_open",
         "upper_reason"), {}),
    feasibility._Edges: (("lower", "lower_open", "lower_src", "upper", "upper_open",
                          "upper_src"), {}),
    feasibility._Dry: (("on_step", "index", "reach"), {}),
    feasibility.WeightSystem: (("curve", "pair", "line", "subject", "intervals"), {}),
    oracle.ValidationReport: (("region_status", "grid_count", "agreement", "discrepancies",
                               "witness_checks", "notes"), {"notes": ()}),
}


@pytest.mark.parametrize("cls", FIELD_TYPES, ids=lambda cls: cls.__name__)
def test_field_types_keep_their_fields_and_defaults(cls):
    fields, defaults = FIELD_TYPES[cls]
    assert issubclass(cls, tuple)
    assert cls._fields == fields and cls._field_defaults == defaults
    record = cls(*range(len(fields)))
    changed = record._replace(**{fields[0]: -1})
    assert type(changed) is cls and changed == (-1, *range(1, len(fields)))


@pytest.mark.parametrize("cls", FIELD_TYPES, ids=lambda cls: cls.__name__)
def test_field_types_document_every_field_and_take_no_other_attribute(cls):
    fields, _ = FIELD_TYPES[cls]
    assert all(f"\n        {name}: " in cls.__doc__ for name in fields)
    record = cls(*range(len(fields)))
    with pytest.raises(AttributeError):
        record.not_a_field = 0


def test_region_equality_ignores_the_certificate():
    region = RECORDS["FeasibleRegion"]
    bare = FeasibleRegion(region.s_intervals, INFEASIBLE)
    assert region.certificate is not None and bare.certificate is None
    assert bare == region and hash(bare) == hash(region)
    assert repr(bare) != repr(region)


def modules_added_by_importing_the_cli() -> set:
    """The modules a fresh ``python -I`` adds to ``sys.modules`` by importing ``chainstab.cli``."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import chainstab.cli; print(json.dumps(sorted(set(sys.modules) - before)))")
    res = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60)
    added = set(json.loads(res.stdout))
    assert "chainstab.cli" in added
    return added


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert not {"dataclasses", "inspect"} & modules_added_by_importing_the_cli()


def test_importing_the_cli_loads_no_fractions():
    # every ratio is an integer numerator over a denominator until printed
    assert not {"fractions", "decimal", "numbers"} & modules_added_by_importing_the_cli()


# The modules besides its own that the CLI may load: argparse with gettext,
# and the json package (which the probe itself imports before it looks).
CLI_IMPORTS = {"__future__", "_json", "argparse", "gettext", "json", "json.decoder",
               "json.encoder", "json.scanner"}


def test_importing_the_cli_loads_only_the_known_modules():
    added = modules_added_by_importing_the_cli()
    assert {name for name in added if name.partition(".")[0] != "chainstab"} <= CLI_IMPORTS
