import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chainstab import cli, feasibility, oracle
from chainstab.curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, kernel_numerics, twist)
from chainstab.errors import ValidationError
from chainstab.feasibility import (FEASIBLE, INFEASIBLE, Polarization, WeightBound,
                                   bigas_intervals, declared_bounds,
                                   simplex_intersect, weight_system)
from chainstab.oracle import GridSpec, brute_force_region, cross_validate
from reference import (EMPTY, bigas_fractions, chain, enumerate_polarizations, inside,
                       weight_bound, weights)

F = Fraction


def vacuous(n):
    """The chain of a sheaf with chi_j = (1, .., 1, 0): chi = 0 and every
    inequality is vacuous, so its grid region is the whole grid."""
    return bigas_intervals(SheafNumerics(ChainCurve((2,) * n), (1,) * n, (2,) * (n - 1) + (1,)))


class TestGridSpec:
    def test_requires_enough_denominator(self):
        with pytest.raises(ValidationError):
            GridSpec(2, 3)

    def test_count(self):
        assert oracle.work_estimate(GridSpec(24, 3)) == math.comb(23, 2) == 253

    # C(D - 1, 1) = D - 1 exactly at the cap, and one past it from either end
    @example(2, 10**18 - 1)
    @example(2, 10**18)
    @example(10**18 + 1, 1)
    @settings(max_examples=200)
    @given(st.integers(2, 60), st.integers(0, 10**6))
    def test_count_is_exact_up_to_the_cap(self, n, extra):
        spec = GridSpec(n + extra, n)
        assert oracle.work_estimate(spec) == \
            min(math.comb(n + extra - 1, n - 1), oracle._WORK_CAP + 1)

    def test_huge_grid_estimate_stops_at_the_cap(self):
        start = time.perf_counter()
        assert oracle.work_estimate(GridSpec(10**1000, 10**4)) == oracle._WORK_CAP + 1
        assert time.perf_counter() - start < 1.0


class TestEnumeratePolarizations:
    """The grid walk over a vacuous system lists every grid point."""

    def test_two_parts_of_three(self):
        got = brute_force_region(vacuous(2), GridSpec(3, 2))
        assert got == [Polarization((1, 2), 3), Polarization((2, 1), 3)]

    def test_single_composition(self):
        assert brute_force_region(vacuous(2), GridSpec(2, 2)) == \
            [Polarization((1, 1), 2)]

    def test_three_parts_of_four(self):
        got = brute_force_region(vacuous(3), GridSpec(4, 3))
        assert len(got) == 3
        assert all(sum(weights(w)) == 1 for w in got)

    @settings(max_examples=60)
    @given(st.integers(2, 4), st.integers(0, 8))
    def test_count_matches_binomial(self, n, extra):
        spec = GridSpec(n + extra, n)
        got = brute_force_region(vacuous(n), spec)
        assert len(got) == math.comb(n + extra - 1, n - 1) == oracle.work_estimate(spec)
        assert len(set(got)) == len(got)


class TestBruteForceRegion:
    def test_trivial_bundle_denominator_six(self):
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0)))
        got = brute_force_region(ivs, GridSpec(6, 2))
        sums = [weights(w)[0] for w in got]
        assert sums == [F(1, 3), F(1, 2), F(2, 3)]

    def test_infeasible_line_bundle_always_empty(self):
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 4)))
        for d in range(2, 121):
            assert brute_force_region(ivs, GridSpec(d, 2)) == []

    def test_kernel_denominator_eighteen(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        got = brute_force_region(weight_system(curve, pair).intervals, GridSpec(18, 2))
        assert [weights(w)[0] for w in got] == [F(8, 18), F(9, 18), F(10, 18)]

    def test_matches_plain_filter(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 3)
            curve = ChainCurve(tuple(rng.randint(2, 4) for _ in range(n)))
            m = rng.randint(1, 2)
            degs = tuple(rng.randint(-6, 6) for _ in range(n))
            s = SheafNumerics(curve, (m,) * n, degs)
            spec = GridSpec(rng.randint(n, 12), n)
            expected = [w for w in enumerate_polarizations(spec)
                        if inside(bigas_fractions(s), w)]
            assert brute_force_region(bigas_intervals(s), spec) == expected

    def test_bounds_filtering(self):
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0)))
        got = brute_force_region(ivs, GridSpec(12, 2), [WeightBound(1, 5, 12)])
        assert [weights(w)[0] for w in got] == [F(4, 12), F(5, 12)]
        got_open = brute_force_region(ivs, GridSpec(12, 2), [WeightBound(1, 5, 12, open=True)])
        assert [weights(w)[0] for w in got_open] == [F(4, 12)]
        got_comp = brute_force_region(ivs, GridSpec(12, 2), [WeightBound(1, 1, 2, lower=True)])
        assert all(weights(w)[0] >= F(1, 2) for w in got_comp)
        assert got_comp != []

    def test_vacuous_chi_zero_keeps_every_point_in_order(self):
        # chi_j = (1, 1, 1, 0): chi = 0 and 0 lies in every [lo_i, hi_i]
        s = SheafNumerics(ChainCurve((2, 2, 2, 2)), (1,) * 4, (2, 2, 2, 1))
        assert s.chi == 0
        spec = GridSpec(12, 4)
        got = brute_force_region(bigas_intervals(s), spec)
        assert len(got) == oracle.work_estimate(spec) == math.comb(11, 3)
        assert got == list(enumerate_polarizations(spec))

    def test_chi_zero_unmet_inequality_is_empty(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (3, 0))
        assert s.chi == 0
        assert brute_force_region(bigas_intervals(s), GridSpec(12, 2)) == []

    @pytest.mark.parametrize("degrees, chi", [((0, 0), -3), ((3, 3), 3)])
    def test_closed_endpoints_on_grid_points_kept(self, degrees, chi):
        # S_1 in [1/3, 2/3] whether chi is negative or positive
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), degrees)
        assert s.chi == chi
        ivs = bigas_intervals(s)
        for d, sums in ((6, [F(1, 3), F(1, 2), F(2, 3)]), (3, [F(1, 3), F(2, 3)])):
            assert [weights(w)[0] for w in brute_force_region(ivs, GridSpec(d, 2))] == sums

    def test_bounds_on_last_weight(self):
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0)))
        spec = GridSpec(12, 2)
        closed = brute_force_region(ivs, spec, [WeightBound(2, 1, 2)])
        # w_1 rises along the grid, so w_2 falls
        assert [weights(w)[1] for w in closed] == [F(6, 12), F(5, 12), F(4, 12)]
        opened = brute_force_region(ivs, spec, [WeightBound(2, 1, 2, open=True)])
        assert [weights(w)[1] for w in opened] == [F(5, 12), F(4, 12)]
        lower = brute_force_region(ivs, spec, [WeightBound(2, 1, 2, lower=True)])
        assert [weights(w)[1] for w in lower] == [F(8, 12), F(7, 12), F(6, 12)]

    def test_bound_index_beyond_chain_rejected(self):
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0)))
        with pytest.raises(ValidationError):
            brute_force_region(ivs, GridSpec(6, 2), [WeightBound(3, 1, 2)])

    def test_grid_of_another_length_rejected(self):
        ivs = bigas_intervals(SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0)))
        with pytest.raises(ValidationError, match="grid has 3 components, chain needs 2"):
            brute_force_region(ivs, GridSpec(6, 3))


def _meets(bound, w):
    """Reference test of one weight bound in rationals."""
    x, value = weights(w)[bound.index - 1], F(bound.num, bound.den)
    if bound.lower:
        return x > value if bound.open else x >= value
    return x < value if bound.open else x <= value


@st.composite
def sheaves_with_bounds(draw):
    """A uniform-rank sheaf of chi < 0, = 0 or > 0, a grid and 0-3 weight bounds.

    Sums and bounds are drawn around a grid point a/D: each partial sum
    chi_1 + .. + chi_i is one that puts D*S_i = c_i inside its inequality,
    or just outside it, and each bound sits at a_j/D or one step off, so
    the grids are neither always empty nor always full.
    """
    n = draw(st.integers(2, 4))
    genera = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    m = draw(st.integers(1, 2))
    chi = draw(st.one_of(st.integers(-8, -1), st.just(0), st.integers(1, 8)))
    d = draw(st.integers(n, 15))
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=n - 1, max_size=n - 1,
                                unique=True)))
    center = [hi - lo for lo, hi in zip([0] + cuts, cuts + [d])]
    # c*chi/D <= ceil(c*chi/D) + k <= c*chi/D + m for 0 <= k < m
    sums = [-(-c * chi // d) + m * (i - 1) + draw(st.integers(-1, m))
            for i, c in enumerate(cuts, start=1)] + [chi + m * (n - 1)]
    chis = [b - a for a, b in zip([0] + sums, sums)]
    degrees = [c - m * (1 - g) for c, g in zip(chis, genera)]
    sheaf = SheafNumerics(ChainCurve(tuple(genera)), (m,) * n, degrees)
    assert sheaf.chi == chi
    bounds = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, n))
        scale = draw(st.integers(1, 2))
        at = min(max(F(scale * center[j - 1] + draw(st.integers(-1, 1)), scale * d), F(0)),
                 F(1))
        bounds.append(weight_bound(j, at, draw(st.booleans()), open=draw(st.booleans())))
    return sheaf, GridSpec(d, n), bounds


@settings(max_examples=200, deadline=None)
@given(sheaves_with_bounds())
def test_grid_walk_matches_reference_filter(case):
    sheaf, spec, bounds = case
    expected = [w for w in enumerate_polarizations(spec)
                if inside(bigas_fractions(sheaf), w) and all(_meets(b, w) for b in bounds)]
    assert brute_force_region(bigas_intervals(sheaf), spec, bounds) == expected


@st.composite
def chains_with_bounds(draw):
    """Intervals no sheaf's slope inequalities give, a grid and 0-3 weight bounds.

    As in ``sheaves_with_bounds``, ends are drawn around a grid point with
    cuts c_i: each end of the i-th interval is unbounded, or closed or open
    at c_i/D or a step of 1/(2D) or 1/D off it, mostly outwards, so a lower
    end only sometimes passes the upper one; now and then an interval is
    the canonical empty one.  Each bound sits at a_j/D or a step off it.
    """
    n = draw(st.integers(2, 5))
    d = draw(st.integers(n, 12))
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=n - 1, max_size=n - 1,
                                unique=True)))
    center = [hi - lo for lo, hi in zip([0] + cuts, cuts + [d])]

    def near(a, low, high):
        return F(2 * a + draw(st.integers(low, high)), 2 * d)

    def end(c, low, high):
        return None if draw(st.integers(0, 3)) == 0 else near(c, low, high)

    intervals = [EMPTY if draw(st.integers(0, 19)) == 0 else
                 (end(c, -2, 1), end(c, -1, 2), draw(st.booleans()), draw(st.booleans()))
                 for c in cuts]
    bounds = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, n))
        bounds.append(weight_bound(j, near(center[j - 1], -2, 2), draw(st.booleans()),
                                   open=draw(st.booleans())))
    return intervals, GridSpec(d, n), bounds


@settings(max_examples=200, deadline=None)
@given(chains_with_bounds())
def test_grid_walk_and_admits_match_fraction_membership_on_any_chain(case):
    intervals, spec, bounds = case
    ivs = chain(intervals)
    grid = list(enumerate_polarizations(spec))
    assert [ivs.admits(w) for w in grid] == [inside(intervals, w) for w in grid]
    assert brute_force_region(ivs, spec, bounds) == \
        [w for w in grid if inside(intervals, w) and all(_meets(b, w) for b in bounds)]


def kernel_system(curve, pair, line):
    """The weight system of ``pair``'s kernel twisted by ``line``."""
    return weight_system(curve, pair, line)


def first_destabilizer(system, w):
    """The first component whose declared subsheaf bound does not admit its
    weight under ``w``, or ``None``."""
    return next((b.index for b in declared_bounds(system)
                 if not b.admits(w.nums[b.index - 1], w.den)), None)


class TestDeclaredBoundAdmits:
    def test_barycentric_polarization(self):
        # chi = -19, m = 2: at w_1 = 1/3 the component-1 subsheaf has slope
        # -2 / (1/3) = -6 > -19/2, so its bound w_1 <= 4/19 does not admit 1/3
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        system = kernel_system(curve, pair, LineBundleTwist.trivial(3))
        assert declared_bounds(system)[0] == weight_bound(1, F(4, 19),
                                                          label="subsheaf slope bound")
        assert first_destabilizer(system, Polarization((1, 1, 1), 3)) == 1

    def test_skewed_polarization_still_witnessed(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        w = Polarization((1, 1, 4), 6)
        system = kernel_system(curve, pair, LineBundleTwist.trivial(3))
        assert first_destabilizer(system, w) == 3

    def test_absent_when_hypothesis_fails(self):
        # d/(k-r) <= n-1: no guarantee, and the barycentric weights admit no
        # violation here
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=4, multidegree=(1, 1),
                                 ker_rho_nonzero=(True, True))
        w = Polarization((1, 1), 2)
        system = kernel_system(curve, pair, LineBundleTwist.trivial(2))
        assert first_destabilizer(system, w) is None

    def test_skips_components_without_flag(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(False, True))
        w = Polarization((1, 1), 2)
        system = kernel_system(curve, pair, LineBundleTwist.trivial(2))
        assert [b.index for b in declared_bounds(system)] == [2]
        assert first_destabilizer(system, w) == 2

    def test_equal_slope_is_not_a_witness(self):
        # chi = -4, m = 1: at weights (1/2, 1/2) both subsheaves have slope
        # -2 / (1/2) = -4, equal to the target; at (1/3, 2/3) the second has
        # slope -3 > -4
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=2, multidegree=(1, 0),
                                 ker_rho_nonzero=(True, True))
        system = kernel_system(curve, pair, LineBundleTwist.trivial(2))
        assert first_destabilizer(system, Polarization((1, 1), 2)) is None
        assert first_destabilizer(system, Polarization((1, 2), 3)) == 2


def _reference_destabilizers(curve, pair, grid, twist_range):
    """Checks, failures and first witnesses over every grid point and twist, in rationals."""
    n, m = curve.n, pair.kernel_rank
    checks, failures, witnesses = 0, [], []
    for degs in itertools.product(range(-twist_range, twist_range + 1), repeat=n):
        line = LineBundleTwist(degs)
        target = F(twist(kernel_numerics(curve, pair), line).chi, m)
        for w in enumerate_polarizations(grid):
            checks += 1
            witness = None
            for j in range(1, n + 1):
                nodes = 1 if j in (1, n) else 2
                slope = F(degs[j - 1] - nodes + 1 - curve.genera[j - 1]) / weights(w)[j - 1]
                if pair.ker_rho_nonzero[j - 1] and slope > target:
                    witness = (j, slope, target)
                    break
            witnesses.append(witness)
            if witness is None:
                failures.append((w, line))
    return checks, failures, witnesses


@st.composite
def pairs_and_twists(draw):
    """Pairs with any restriction-kernel flags and degrees, and twists of
    either sign, on chains of 2 to 6 components."""
    n = draw(st.integers(2, 6))
    rank = draw(st.integers(1, 3))
    pair = GeneratedPairData(
        rank=rank, sections=rank + draw(st.integers(1, 4)),
        multidegree=tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))),
        ker_rho_nonzero=tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    curve = ChainCurve(tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))))
    line = LineBundleTwist(tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))))
    return curve, pair, line


@settings(max_examples=200, deadline=None)
@given(pairs_and_twists())
def test_destabilizer_identity(case):
    # m * sum_k chi(component-k subsheaf) - chi_L = d - (n-1)m for every twist L
    curve, pair, line = case
    n, m = curve.n, pair.kernel_rank
    chi_l = twist(kernel_numerics(curve, pair), line).chi
    subsheaves = sum(feasibility._subsheaf_chi(curve, k, line.multidegree[k - 1])
                     for k in range(1, n + 1))
    assert m * subsheaves - chi_l == pair.total_degree - (n - 1) * m


@st.composite
def gated_pairs_and_grids(draw):
    """Pairs meeting the all-twists condition (every restriction kernel
    non-zero, d/m > n - 1), small grids and twist ranges 0 or 1, kept small
    for the rational reference."""
    n = draw(st.integers(2, 4))
    rank = draw(st.integers(1, 2))
    pair = GeneratedPairData(
        rank=rank, sections=rank + draw(st.integers(1, 3)),
        multidegree=tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))),
        ker_rho_nonzero=(True,) * n)
    assume(pair.degree_ratio_exceeds())
    curve = ChainCurve(tuple(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))))
    grid = GridSpec(draw(st.integers(n, 8 if n < 4 else 6)), n)
    return curve, pair, grid, draw(st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(gated_pairs_and_grids())
def test_gated_pairs_have_a_destabilizer_everywhere(case):
    curve, pair, grid, twist_range = case
    checks, failures, witnesses = _reference_destabilizers(curve, pair, grid, twist_range)
    assert failures == []
    report = cross_validate(curve, grid, pair, twist_range=twist_range)
    assert report.witness_checks == checks
    assert report.agreement
    assert cli.cmd_oracle(cli.Scenario(curve, pair, None), grid.denominator,
                          twist_range)["discrepancies"] == []
    systems = [kernel_system(curve, pair, LineBundleTwist(degs))
               for degs in itertools.product(range(-twist_range, twist_range + 1),
                                             repeat=curve.n)]
    assert [first_destabilizer(system, w)
            for system in systems for w in enumerate_polarizations(grid)] == [
                j for j, _, _ in witnesses]


def test_all_twists_check_is_one_identity(monkeypatch):
    # acceptance-6: 343 twists of a 253-point grid, every pair destabilized
    curve = ChainCurve((2, 2, 2))
    pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                             ker_rho_nonzero=(True, True, True))
    grid = GridSpec(24, 3)
    kernels, built = [], []
    kernel, init = feasibility.kernel_numerics, Polarization.__init__
    # every binding of kernel_numerics that cross_validate could reach
    for module in (feasibility, oracle):
        monkeypatch.setattr(module, "kernel_numerics",
                            lambda *args: kernels.append(args) or kernel(*args), raising=False)
    monkeypatch.setattr(Polarization, "__init__",
                        lambda w, *args: built.append(w) or init(w, *args))
    report = cross_validate(curve, grid, pair, twist_range=3)
    assert report.witness_checks == 86779 and report.agreement
    assert len(kernels) == 1 and len(built) == report.grid_count
    assert cli.cmd_oracle(cli.Scenario(curve, pair, None), 24, 3)["discrepancies"] == []
    # d - (n-1)m = 9 - 2*2 = 5; one more per subsheaf chi adds m*n = 6 to the left side
    subsheaf_chi = feasibility._subsheaf_chi
    for module in (feasibility, oracle):
        monkeypatch.setattr(module, "_subsheaf_chi",
                            lambda c, j, deg: subsheaf_chi(c, j, deg) + 1)
    report = cross_validate(curve, grid, pair, twist_range=3)
    assert not report.agreement
    assert report.discrepancies[-1] == ("destabilizer identity fails: m * sum of subsheaf "
                                        "chi - chi = 11, but d - (n-1)m = 5")


class TestCrossValidate:
    def test_trivial_bundle_agreement(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (1, 1), (0, 0))
        report = cross_validate(curve, GridSpec(12, 2), s)
        assert report.agreement
        assert report.region_status == FEASIBLE
        assert report.grid_count == 5

    def test_infeasible_sheaf_agreement(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (1, 1), (0, 4))
        report = cross_validate(curve, GridSpec(60, 2), s)
        assert report.agreement
        assert report.region_status == INFEASIBLE
        assert report.grid_count == 0

    def test_endpoint_scenario_zero_grid_points(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 twisted_sections_nonzero=(True, False),
                                 restriction_semistable=(True, False),
                                 ker_rho_nonzero=(True, False))
        report = cross_validate(curve, GridSpec(60, 2), pair)
        assert report.agreement
        assert report.grid_count == 0
        assert report.region_status == INFEASIBLE

    def test_all_twists_sweep_small(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        report = cross_validate(curve, GridSpec(8, 3), pair, twist_range=1)
        assert report.witness_checks == math.comb(7, 2) * 27
        assert report.agreement
        assert cli.cmd_oracle(cli.Scenario(curve, pair, None), 8, 1)["discrepancies"] == []

    def test_oversized_runs_refused_before_any_work(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        # a grid past the limit; a grid within it times (2*10**100 + 1)**3 twists
        for grid, twist_range in ((GridSpec(10**10, 3), 3), (GridSpec(24, 3), 10**100)):
            assert oracle.work_estimate(grid, pair, twist_range) == 10**18 + 1
            with pytest.raises(ValidationError, match=f"more than {10**18} units"):
                cross_validate(curve, grid, pair, twist_range=twist_range)

    @pytest.mark.parametrize("twist_range, message", [
        (True, "must be an integer"), (1.5, "must be an integer"), (-1, "non-negative")])
    def test_bad_twist_range_refused(self, twist_range, message):
        curve = ChainCurve((2, 2, 2))
        gated = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                  ker_rho_nonzero=(True, True, True))
        for subject in (gated, SheafNumerics(curve, (1, 1, 1), (0, 0, 0))):
            with pytest.raises(ValidationError, match=message):
                cross_validate(curve, GridSpec(6, 3), subject, twist_range=twist_range)

    def test_pair_of_another_length_refused(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        with pytest.raises(ValidationError,
                           match="pair.multidegree has length 2 but the curve has 3 components"):
            cross_validate(curve, GridSpec(6, 3), pair)

    def test_sheaf_on_another_curve_refused(self):
        s = SheafNumerics(ChainCurve((2, 3)), (1, 1), (0, 0))
        with pytest.raises(ValidationError, match="another curve"):
            cross_validate(ChainCurve((2, 2)), GridSpec(6, 2), s)


def test_completeness_at_matching_denominators():
    # a feasible witness with denominator q appears in every grid whose
    # denominator is a multiple of q
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        curve = ChainCurve(tuple(rng.randint(2, 4) for _ in range(n)))
        m = rng.randint(1, 2)
        degs = tuple(rng.randint(-6, 6) for _ in range(n))
        s = SheafNumerics(curve, (m,) * n, degs)
        region = simplex_intersect(bigas_intervals(s))
        if region.status != FEASIBLE:
            continue
        q = math.lcm(*(w.denominator for w in weights(region.witness)))
        for mult in (1, 2):
            d = q * mult
            if d < n or d > 600:
                continue
            assert region.witness in brute_force_region(bigas_intervals(s), GridSpec(d, n))
            checked += 1
    assert checked >= 20


def test_soundness_every_grid_point_passes():
    curve = ChainCurve((2, 3))
    s = SheafNumerics(curve, (2, 2), (3, -1))
    for w in brute_force_region(bigas_intervals(s), GridSpec(20, 2)):
        assert bigas_intervals(s).admits(w)


@st.composite
def untwisted_or_twisted_subjects(draw):
    """Scenario data: a uniform-rank sheaf, or a pair with no restriction kernel
    declared (so no subsheaf bounds), twisted half the time."""
    n = draw(st.integers(2, 3))
    genera = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    if draw(st.booleans()):
        m = draw(st.integers(1, 2))
        subject = {"sheaf": {"multirank": [m] * n, "multidegree":
                             draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))}}
    else:
        rank = draw(st.integers(1, 2))
        subject = {"pair": {"rank": rank, "sections": rank + draw(st.integers(1, 2)),
                            "multidegree": draw(st.lists(st.integers(0, 6), min_size=n,
                                                         max_size=n))}}
    data = {"curve": {"genera": genera}, "subject": subject}
    if draw(st.booleans()):
        data["twist"] = {"multidegree": draw(st.lists(st.integers(-4, 4), min_size=n,
                                                      max_size=n))}
    return data


@settings(max_examples=150, deadline=None)
@given(untwisted_or_twisted_subjects(), st.integers(3, 12))
def test_oracle_decides_the_subject_polarize_prints(data, denominator):
    # With no declared subsheaf bounds both commands decide the plain slope
    # system of the same (twisted) subject, so their statuses agree.
    scn = cli.parse_scenario(data)
    oracle_status = cli.cmd_oracle(scn, denominator, 0)["region_status"]
    assert oracle_status == cli.cmd_polarize(scn)["region"]["status"]
