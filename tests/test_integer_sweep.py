"""The integer sweep against the Fraction reference, and its certificates.

``simplex_intersect`` decides a system in integers over the common
denominator of its interval chain and bounds.  These tests hold it to the
Fraction sweep it replaced (``fraction_sweep``), field by field, and
re-derive every certificate's bounds from the system (``certificate_check``).
The reference always runs the relaxed sweep after a failed strict one; the
library runs it only after a tie, so every status comparison also checks
that skipping it after a numeric clash changes nothing.
"""

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fraction_sweep
from certificate_check import check_certificate
from chainstab import cli, feasibility
from chainstab.curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, kernel_numerics, twist)
from chainstab.errors import ValidationError
from chainstab.feasibility import (BOUNDARY_ONLY, FEASIBLE, INFEASIBLE, InfeasibilityCertificate,
                                   Polarization, WeightBound, bigas_intervals, declared_bounds,
                                   simplex_intersect, weight_system)
from chainstab.stability import analyze
from reference import UNBOUNDED, cert_bound, chain, weight_bound, weights

F = Fraction
README = Path(__file__).resolve().parent.parent / "README.md"


def assert_same_as_reference(intervals, bounds=()):
    """Equal status, witness and all seven certificate fields; returns the region."""
    region = simplex_intersect(intervals, bounds)
    ref = fraction_sweep.simplex_intersect(intervals, bounds)
    assert region.status == ref.status
    assert region.witness == ref.witness
    assert region.s_intervals == ref.s_intervals
    if ref.certificate is None:
        assert region.certificate is None
    else:
        cert = region.certificate
        for name in ("quantity", "lower_open", "lower_reason", "upper_open", "upper_reason"):
            assert getattr(cert, name) == getattr(ref.certificate, name), name
        for name in ("lower", "upper"):
            assert cert_bound(cert, name) == getattr(ref.certificate, name), name
        check_certificate(region.certificate, intervals, bounds)
    return region


# Values on denominators 1..12, so that the common denominator is non-trivial
# and midpoint sums are often odd.
VALUES = st.builds(Fraction, st.integers(-3, 15), st.integers(1, 12))
WIDTHS = st.builds(Fraction, st.integers(-1, 4), st.integers(1, 12))
LABELS = st.sampled_from(["weight bound", "subsheaf slope bound",
                          "subsheaf slope bound (unsatisfiable)", "rule"])


@st.composite
def intervals(draw, centre):
    kind = draw(st.sampled_from(["closed", "open", "half-open", "unbounded", "one-sided"]))
    lo = centre - draw(WIDTHS)
    hi = centre + draw(WIDTHS)
    if kind == "unbounded":
        return UNBOUNDED
    if kind == "one-sided":
        side_open = draw(st.booleans())
        if draw(st.booleans()):
            return lo, None, side_open, True
        return None, hi, True, side_open
    if kind == "half-open":
        lower_open = draw(st.booleans())
        return lo, hi, lower_open, not lower_open
    return lo, hi, kind == "open", kind == "open"


@st.composite
def systems(draw):
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        # intervals around a strict polarization, so that many systems are feasible
        parts = [draw(st.integers(1, 6)) for _ in range(n)]
        centres = [Fraction(sum(parts[:i]), sum(parts)) for i in range(1, n)]
    else:
        centres = [draw(VALUES) for _ in range(n - 1)]
    ivs = [draw(intervals(c)) for c in centres]
    bounds = [weight_bound(draw(st.integers(1, n)), draw(VALUES), draw(st.booleans()),
                           open=draw(st.booleans()), label=draw(LABELS))
              for _ in range(draw(st.integers(0, 4)))]
    return chain(ivs), bounds


@settings(max_examples=300, deadline=None)
@given(systems())
def test_integer_sweep_equals_fraction_reference(system):
    assert_same_as_reference(*system)


def test_seeded_systems_of_every_status_equal_fraction_reference():
    # a fixed sample that reaches all three statuses, so witnesses and
    # boundary-only regions are compared whatever Hypothesis draws
    rng = random.Random(7)
    seen = set()
    for _ in range(400):
        n = rng.randint(2, 6)
        lo = [F(rng.randint(-2, 14), rng.randint(1, 12)) for _ in range(n - 1)]
        ivs = chain([(a, a + F(rng.randint(0, 6), rng.randint(1, 12)),
                      rng.random() < 0.3, rng.random() < 0.3) for a in lo])
        bounds = [WeightBound(rng.randint(1, n), rng.randint(-1, 12), rng.randint(1, 12),
                              open=rng.random() < 0.5, lower=rng.random() < 0.5)
                  for _ in range(rng.randint(0, 3))]
        seen.add(assert_same_as_reference(ivs, bounds).status)
    assert seen == {"feasible", "boundary-only", "infeasible"}


def test_midpoints_halve_past_the_common_denominator():
    # The common denominator is 315 and S_2's midpoint is 153/630.
    ivs = chain([(F(0), F(1, 3)), (F(1, 5), F(2, 7))])
    region = assert_same_as_reference(ivs, [WeightBound(2, 1, 9, open=True)])
    assert weights(region.witness) == (F(59, 315), F(1, 18), F(53, 70))
    # Only the simplex bounds each S_i: S_{n-1} = 1/2 and every earlier
    # S_i halves the next, so w_1 = 2**-(n-1) over a common denominator of 1.
    n = 40
    region = assert_same_as_reference(chain([UNBOUNDED] * (n - 1)))
    assert weights(region.witness) == (F(1, 2 ** (n - 1)),) + tuple(
        F(1, 2 ** (n - j + 1)) for j in range(2, n + 1))


def test_out_of_range_bound_index_is_refused():
    with pytest.raises(ValidationError, match="bound index 3 out of range 1..2"):
        simplex_intersect(chain([UNBOUNDED]), [WeightBound(3, 1, 2)])


def _long_kernel(n, dry):
    """A kernel's slope-inequality intervals on an n-component chain.

    With ``dry`` the kernel is twisted at one index in the last tenth so
    that its chi there exceeds 3m: the strict sweep runs dry late.
    """
    rng = random.Random(f"long:{n}")
    genera = [rng.randint(2, 6) for _ in range(n)]
    m = 2
    degs = [rng.randint(0, 12) for _ in range(n)]
    curve = ChainCurve(genera)
    pair = GeneratedPairData(rank=1, sections=1 + m, multidegree=tuple(degs))
    kernel = kernel_numerics(curve, pair)
    if not dry:
        return bigas_intervals(kernel)
    k = rng.randint(n - n // 10, n - 2)
    tw = [0] * n
    tw[k] = (3 * m - kernel.chi_components[k]) // m + 1
    return bigas_intervals(twist(kernel, LineBundleTwist(tuple(tw))))


@pytest.mark.parametrize("dry", [False, True])
def test_long_kernel_equals_fraction_reference(dry):
    n = 3000
    region = assert_same_as_reference(_long_kernel(n, dry))
    if dry:
        assert region.status != FEASIBLE
        assert int(region.certificate.quantity.split("_")[1]) >= n - n // 10
    else:
        assert region.status == FEASIBLE


def test_accumulated_bounds_are_rendered_once():
    # The lower reach of every S_i is carried by the step bounds w_j >= 1/n,
    # so the failing bound at S_{n-1} names all n - 1 of them.  Rendering it
    # per index, as the Fraction sweep did, is quadratic in n.
    n = 20000
    ivs = chain([UNBOUNDED] * (n - 1))
    bounds = [WeightBound(j, 1, n, lower=True) for j in range(1, n + 1)]
    bounds.append(WeightBound(n, 2, n, lower=True))
    start = time.perf_counter()
    region = simplex_intersect(ivs, bounds)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    cert = region.certificate
    assert region.status == INFEASIBLE
    assert cert.quantity == f"S_{n - 1}"
    assert (cert_bound(cert, "lower"), cert_bound(cert, "upper")) == (F(n - 1, n), F(n - 2, n))
    assert cert.lower_reason.split("; ") == (
        ["S_0 = 0"] + [f"w_{j} >= 1/{n} (weight bound)" for j in range(1, n)])
    assert cert.upper_reason == f"S_{n} = 1; w_{n} >= 1/{n // 2} (weight bound)"
    check_certificate(cert, ivs, bounds)


def test_acceptance_5_certificate_rebuilds_from_the_system():
    curve = ChainCurve((2, 2))
    pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                             twisted_sections_nonzero=(True, False),
                             restriction_semistable=(True, False),
                             ker_rho_nonzero=(True, False))
    system = weight_system(curve, pair)
    check_certificate(analyze(curve, pair).verdict.certificate,
                      system.intervals, declared_bounds(system))


def test_readme_certificate_rebuilds_from_the_system():
    text = README.read_text()
    scenario = cli.parse_scenario(json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1)))
    line = re.search(r"^certificate: .*$", text, re.M).group(0)
    match = re.fullmatch(r"certificate: (\S+) (>=|>) (\S+) \[(.*)\] clashes with "
                         r"\1 (<=|<) (\S+) \[(.*)\]", line)
    quantity, lo_rel, lo, lo_reason, hi_rel, hi, hi_reason = match.groups()
    lo, hi = F(lo), F(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    cert = InfeasibilityCertificate(quantity, den, int(lo * den), lo_rel == ">", lo_reason,
                                    int(hi * den), hi_rel == "<", hi_reason)
    system = weight_system(scenario.curve, scenario.subject)
    check_certificate(cert, system.intervals, declared_bounds(system))
    assert line in cli.render_text(cli.cmd_check(scenario)).splitlines()


def test_checker_rejects_a_wrong_reason():
    ivs = chain([(F(4, 9), F(5, 9))])
    bounds = [WeightBound(1, 2, 9, label="subsheaf slope bound")]
    cert = simplex_intersect(ivs, bounds).certificate
    check_certificate(cert, ivs, bounds)
    assert cert.den == 9
    forgeries = [
        # the printed number agrees with the bound, but the system says 2/9
        cert._replace(upper=1,
                      upper_reason="S_0 = 0; w_1 <= 1/9 (subsheaf slope bound)"),
        # a bound the system does not have
        cert._replace(upper_reason="S_0 = 0; w_1 <= 2/9 (other)"),
        # the anchor of the shifted bound left out
        cert._replace(upper_reason="w_1 <= 2/9 (subsheaf slope bound)"),
    ]
    for forged in forgeries:
        assert forged.verify()
        with pytest.raises(AssertionError):
            check_certificate(forged, ivs, bounds)


class TestBoundaryFractions:
    def test_intervals_and_bounds_hold_plain_ints(self):
        # the slope intervals and weight bounds hold plain ints, so there is no Fraction to copy
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 3, 2)), (2, 2, 2), (1, -3, 5)))
        assert {*map(type, [ivs.den, *ivs.lower, *ivs.upper])} == {int}
        bound = WeightBound(1, 2, 6)
        assert (bound.num, bound.den) == (2, 6)   # kept as given, not reduced
        w = Polarization((1, 2), 3)
        assert {*map(type, (*w.nums, w.den))} == {int} and weights(w)[0] == F(1, 3)

    def test_subclass_is_refused(self):
        class Sub(Fraction):
            pass

        # a polarization and a weight bound take integer parts only, so they
        # refuse the subclass
        with pytest.raises(ValidationError, match="must be integers"):
            Polarization((Sub(1, 3), Sub(2, 3)), 1)
        with pytest.raises(ValidationError, match="must be an integer"):
            WeightBound(1, Sub(1, 3), 1)

    def test_bool_and_float_refused(self):
        for bad in (True, 0.5):
            with pytest.raises(ValidationError, match="must be integers"):
                Polarization((bad, 1), 2)
            with pytest.raises(ValidationError, match="must be an integer"):
                WeightBound(1, bad, 1)

    @pytest.mark.parametrize("args, text", [
        ((True, 1, 2), "bound index must be a positive integer, got True"),
        ((0, 1, 2), "bound index must be a positive integer, got 0"),
        ((1, True, 2), "bound numerator must be an integer, got True"),
        ((1, 0.5, 2), "bound numerator must be an integer, got 0.5"),
        ((1, F(1, 2), 2), "bound numerator must be an integer, got Fraction(1, 2)"),
        ((1, 1, True), "bound denominator must be a positive integer, got True"),
        ((1, 1, 2.0), "bound denominator must be a positive integer, got 2.0"),
        ((1, 1, F(2)), "bound denominator must be a positive integer, got Fraction(2, 1)"),
        ((1, 1, 0), "bound denominator must be a positive integer, got 0"),
        ((1, 1, -3), "bound denominator must be a positive integer, got -3"),
    ])
    def test_weight_bound_refusals(self, args, text):
        with pytest.raises(ValidationError) as exc:
            WeightBound(*args)
        assert str(exc.value) == text

    def test_witness_weights_are_exact_fractions(self):
        w = simplex_intersect(chain([(F(1, 3), F(2, 3))])).witness
        assert {*map(type, (*w.nums, w.den))} == {int} and weights(w) == (F(1, 2), F(1, 2))

    def test_polarization_sum_message(self):
        with pytest.raises(ValidationError, match=r"sum to exactly 1, got 5/6"):
            Polarization((3, 2), 6)


def test_ties_on_a_small_grid_equal_fraction_reference():
    # Two-component systems with ends on {0, 1/2, 1}, each end open, closed
    # or absent, against no bound, one bound, two bounds of one kind and
    # value on one step that differ only in strictness (either order), or
    # two bounds at 1/2 on different steps.  Equal and open-versus-closed
    # candidates meet at S_0, at the simplex ends and at S_n = 1.
    values = (F(0), F(1, 2), F(1))
    ends = [(None, True)] + [(v, o) for v in values for o in (False, True)]
    kinds = [(j, c) for j in (1, 2) for c in (False, True)]
    bound_sets = [()]
    bound_sets += [((j, v, o, c),) for j, c in kinds for v in values for o in (False, True)]
    bound_sets += [((j, v, o, c), (j, v, not o, c))
                   for j, c in kinds for v in values for o in (False, True)]
    bound_sets += [((1, F(1, 2), o1, c1), (2, F(1, 2), o2, c2))
                   for o1, c1, o2, c2 in itertools.product((False, True), repeat=4)]
    for (lo, lo_open), (hi, hi_open) in itertools.product(ends, ends):
        ivs = chain([(lo, hi, lo_open, hi_open)])
        for chosen in bound_sets:
            bounds = [weight_bound(j, v, c, open=o) for j, v, o, c in chosen]
            assert_same_as_reference(ivs, bounds)


# Strict sweeps that run dry on a tie: equal numerators with an open side.
# The relaxed sweep then decides, and may still run dry, at the tie itself
# (an open end that is not the simplex's) or at a later numeric clash.
TIES = [
    # S_1 <= 0 meets w_1 > 0; the relaxed w_1 >= 0 admits S_1 = 0
    ([(None, F(0))], [], BOUNDARY_ONLY),
    # S_1 >= 1 meets S_1 < 1; the relaxed S_1 <= 1 admits S_1 = 1
    ([(F(1), None)], [], BOUNDARY_ONLY),
    # S_1 = 1/2 meets w_2 > 1/2, open in both sweeps
    ([(F(1, 2), F(1, 2))], [weight_bound(2, F(1, 2), lower=True, open=True)], INFEASIBLE),
    # S_1 < 1/2 meets w_1 >= 1/2, open in both sweeps
    ([(None, F(1, 2), True, True)], [weight_bound(1, F(1, 2), lower=True)], INFEASIBLE),
    # the strict tie at S_1 = 0; the relaxed sweep passes it and clashes at S_2
    ([(None, F(0)), (None, F(1, 4))], [weight_bound(2, F(1, 2), lower=True)], INFEASIBLE),
]


def count_sweeps(monkeypatch) -> list:
    calls = []
    sweep = feasibility._sweep
    monkeypatch.setattr(feasibility, "_sweep", lambda *a: calls.append(a[2]) or sweep(*a))
    return calls


@pytest.mark.parametrize("ivs,bounds,status", TIES)
def test_a_tie_runs_the_relaxed_sweep(monkeypatch, ivs, bounds, status):
    calls = count_sweeps(monkeypatch)
    region = assert_same_as_reference(chain(ivs), bounds)
    cert = region.certificate
    assert region.status == status and cert.lower == cert.upper
    assert calls == [True, False]


def test_a_numeric_clash_is_infeasible_without_the_relaxed_sweep(monkeypatch):
    calls = count_sweeps(monkeypatch)
    # S_1 >= 4/9 against w_1 <= 2/9, and the step bounds w_1 >= 1/2 > w_1 <= 1/3
    for ivs, bounds in [([(F(4, 9), F(5, 9))], [weight_bound(1, F(2, 9))]),
                        ([UNBOUNDED], [weight_bound(1, F(1, 2), lower=True),
                                       weight_bound(1, F(1, 3))])]:
        calls.clear()
        region = assert_same_as_reference(chain(ivs), bounds)
        assert region.status == INFEASIBLE and region.certificate.lower > region.certificate.upper
        assert calls == [True]
