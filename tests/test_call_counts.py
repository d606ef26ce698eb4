"""Python-level work per chain index, counted without a clock.

``sys.setprofile`` reports a ``call`` event each time a Python frame is
entered or a generator resumed, and none for a function written in C.  So
a pass that makes a Python call per chain index shows as a count that grows
with the chain.  Writing a long chain's payload must make as many calls at
n = 3000 as at n = 1000, and parsing and deciding one must resume no
generator expression and make far fewer calls than the chain has indices.
The oracle's grid walk re-checks each grid point it keeps at every index,
so a run that keeps one point must also make as many calls at n = 3000 as
at n = 1000.
"""

import random
import sys
from collections import Counter

import pytest

from chainstab import cli


def scenarios(n: int) -> dict:
    """Long-chain scenarios of ``n`` components: a pair whose kernel system
    is feasible, the same pair twisted so that its sweep runs dry in the last
    tenth of the chain, the same pair with every restriction declared
    semistable, so that ``check`` bounds its section count, and a sheaf of
    negative chi on every component."""
    rng = random.Random(f"calls:{n}")
    genera = [rng.randint(2, 6) for _ in range(n)]
    m = 2
    degs = [rng.randint(0, 12) for _ in range(n)]
    pair = {"curve": {"genera": genera},
            "subject": {"pair": {"rank": 1, "sections": 1 + m, "multidegree": degs}}}
    k = n - n // 20
    tw = [0] * n
    tw[k] = (3 * m - (m * (1 - genera[k]) - degs[k])) // m + 1
    sheaf = {"curve": {"genera": genera},
             "subject": {"sheaf": {"multirank": [m] * n,
                                   "multidegree": [rng.randint(-6, m * (g - 1) - 1)
                                                   for g in genera]}}}
    semistable = {"curve": {"genera": genera},
                  "subject": {"pair": dict(pair["subject"]["pair"],
                                           restriction_semistable=[True] * n)}}
    return {"pair": pair, "dry pair": dict(pair, twist={"multidegree": tw}),
            "semistable pair": semistable, "sheaf": sheaf}


COMMANDS = [("check", "pair"), ("polarize", "pair"), ("check", "dry pair"),
            ("polarize", "dry pair"), ("check", "semistable pair"), ("check", "sheaf")]


def run(command: str, data: dict) -> dict:
    scn = cli.parse_scenario(data)
    return cli.cmd_check(scn) if command == "check" else cli.cmd_polarize(scn)


def calls(fn, *args) -> Counter:
    """The ``call`` events of ``fn(*args)``, by code name."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code.co_name] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return seen


def test_the_scenarios_reach_each_status():
    data = scenarios(1000)
    assert [run(command, data[kind])["region"]["status"] for command, kind in COMMANDS] == [
        "feasible", "feasible", "infeasible", "infeasible", "feasible", "feasible"]


@pytest.mark.parametrize("command,kind", COMMANDS)
def test_writing_a_payload_makes_no_call_per_index(command, kind):
    short, long = (run(command, scenarios(n)[kind]) for n in (1000, 3000))
    assert len(long["region"]["s_intervals"].lower) == 2999
    assert sum(calls(cli.canonical_json, short).values()) == \
        sum(calls(cli.canonical_json, long).values())


@pytest.mark.parametrize("command,kind", COMMANDS)
def test_parsing_and_deciding_resume_no_generator_expression(command, kind):
    n = 3000
    seen = calls(run, command, scenarios(n)[kind])
    assert seen["run"] == 1
    assert seen["<genexpr>"] == 0
    assert sum(seen.values()) < n // 10


def oracle_run(n: int) -> dict:
    """``oracle`` at D = n on a sheaf of chi = 0 whose inequalities are all
    vacuous: its one grid point survives and is re-checked at every index."""
    scn = cli.parse_scenario(
        {"curve": {"genera": [2] * n},
         "subject": {"sheaf": {"multirank": [1] * n, "multidegree": [2] * (n - 1) + [1]}}})
    return cli.cmd_oracle(scn, n, 0)


def test_the_oracle_scenario_keeps_its_one_grid_point():
    assert oracle_run(1000)["grid_count"] == 1


def test_the_oracle_makes_no_call_per_index():
    short, long = (calls(oracle_run, n) for n in (1000, 3000))
    assert sum(short.values()) == sum(long.values()) < 1000 // 10
