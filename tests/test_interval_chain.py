"""The integer slope-inequality chain, from ``bigas_intervals`` to canonical JSON.

``bigas_intervals`` keeps the system X_i - m*i <= S_i * chi <= X_i - m*(i-1)
as integer numerators over |chi|.  These tests hold it to the Fraction
formula it replaced (``reference.bigas_fractions``), hold every printed
endpoint to ``reference.frac_str`` of the same Fraction, and count the
Fractions built while a long chain is decided: none.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chainstab import cli, feasibility
from chainstab.curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, kernel_numerics)
from chainstab.feasibility import (BOUNDARY_ONLY, FEASIBLE, INFEASIBLE, bigas_intervals,
                                   simplex_intersect, weight_system)
from reference import UNBOUNDED, bigas_fractions, chain, frac_str, fractions_of, twisted_sheaf


def check_chain(sheaf: SheafNumerics) -> set:
    """Assert the chain of ``sheaf`` against the Fraction formula and its rendering;
    returns the kinds of interval it holds."""
    c = bigas_intervals(sheaf)
    assert c.den == (abs(sheaf.chi) or 1)
    assert {*map(type, [c.den, *c.lower, *c.upper])} <= {int, type(None)}
    assert fractions_of(c) == bigas_fractions(sheaf)
    region = simplex_intersect(c)
    assert region.s_intervals is c
    rendered = json.loads(cli.canonical_json(cli._region_json(region)))["s_intervals"]
    assert len(rendered) == sheaf.n - 1
    for iv, lo, lo_open, hi, hi_open in zip(rendered, c.lower, c.lower_open,
                                            c.upper, c.upper_open):
        assert iv == {
            "lower": None if lo is None else frac_str(Fraction(lo, c.den)),
            "lower_open": lo_open,
            "upper": None if hi is None else frac_str(Fraction(hi, c.den)),
            "upper_open": hi_open,
        }
    if sheaf.chi > 0:
        return {"chi > 0"}
    if sheaf.chi < 0:
        return {"chi < 0"}
    return {"chi = 0 vacuous" if lo is None else "chi = 0 empty" for lo in c.lower}


KINDS = {"chi > 0", "chi < 0", "chi = 0 vacuous", "chi = 0 empty"}


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chain_equals_fraction_formula(rng):
    check_chain(twisted_sheaf(rng))


def test_seeded_chains_cover_every_kind():
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        seen |= check_chain(twisted_sheaf(rng))
    assert seen == KINDS


@pytest.mark.parametrize("degs,kinds", [
    ((0, 4), {"chi > 0"}),
    ((0, 0), {"chi < 0"}),
    ((1, 2), {"chi = 0 vacuous"}),
    ((3, 0), {"chi = 0 empty"}),
])
def test_each_kind_on_two_components(degs, kinds):
    assert check_chain(SheafNumerics(ChainCurve((2, 2)), (1, 1), degs)) == kinds


@pytest.fixture
def fractions_made(monkeypatch):
    """Reads the number of Fractions built anywhere since the last read."""
    made = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)

    def read():
        count, made[0] = made[0], 0
        return count
    return read


def _long_kernel(n):
    rng = random.Random(f"guard:{n}")
    curve = ChainCurve([rng.randint(2, 6) for _ in range(n)])
    pair = GeneratedPairData(rank=1, sections=3,
                             multidegree=tuple(rng.randint(0, 12) for _ in range(n)))
    return curve, pair, kernel_numerics(curve, pair)


def test_long_chain_builds_no_fraction_per_index(fractions_made):
    n = 10_000
    curve, pair, kernel = _long_kernel(n)
    system = weight_system(curve, kernel)
    assert fractions_made() == 0
    weight_system(curve, pair)
    assert fractions_made() == 0          # a pair's system builds no bound and no slope
    region = simplex_intersect(system.intervals)
    assert region.status == FEASIBLE
    assert fractions_made() == 0          # the witness is integer numerators
    # twisted so that the strict and the relaxed sweep run dry in the last tenth
    k = n - n // 20
    tw = [0] * n
    tw[k] = (6 - kernel.chi_components[k]) // 2 + 1
    line = LineBundleTwist(tuple(tw))
    system = weight_system(curve, kernel, line)
    assert fractions_made() == 0
    region = simplex_intersect(system.intervals)
    assert region.status == INFEASIBLE
    assert fractions_made() == 0          # the certificate holds integer numerators too
    # S_1 pinned to 0: the strict sweep runs dry at once on a tie, the
    # relaxed one runs to the end and stops without a witness
    system = chain([(0, 0)] + [UNBOUNDED] * (n - 2))
    fractions_made()                      # the test's own chain is built from Fractions
    region = simplex_intersect(system)
    assert region.status == BOUNDARY_ONLY
    assert fractions_made() == 0


@pytest.mark.parametrize("intervals,status,passes", [
    ([(Fraction(1, 3), Fraction(2, 3))] * 3, FEASIBLE, 1),
    ([(0, 0)] + [UNBOUNDED] * 3, BOUNDARY_ONLY, 0),
    ([(Fraction(1, 2), Fraction(1, 3))] + [UNBOUNDED] * 3, INFEASIBLE, 0),
])
def test_only_a_feasible_region_runs_the_witness_pass(monkeypatch, intervals, status, passes):
    calls = []
    witness = feasibility._witness
    monkeypatch.setattr(feasibility, "_witness", lambda *args: calls.append(1) or witness(*args))
    assert simplex_intersect(chain(intervals)).status == status
    assert len(calls) == passes
