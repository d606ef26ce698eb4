import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chainstab import cli
from chainstab.curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, arithmetic_genus, kernel_numerics)
from chainstab.errors import UnsupportedData, ValidationError
from chainstab.feasibility import (BOUNDARY_ONLY, FEASIBLE, INFEASIBLE, Polarization,
                                   WeightBound, _ratio, bigas_intervals,
                                   declared_bounds, simplex_intersect, subsheaf_weight_bound,
                                   weight_system)
from chainstab.oracle import GridSpec
from reference import (EMPTY, UNBOUNDED, cert_bound, chain, enumerate_polarizations, frac_str,
                       fractions_of, slope, weight_bound, weights)

F = Fraction


def trivial_sheaf(genera=(2, 2)):
    curve = ChainCurve(genera)
    return SheafNumerics(curve, (1,) * curve.n, (0,) * curve.n)


def pinned(w):
    """Weight bounds w_j <= x_j and w_j >= x_j that fix every weight of ``w``.

    With them a system is feasible exactly when every partial sum of ``w``
    lies in its interval, and its witness is then ``w`` itself.
    """
    return [b for j, x in enumerate(weights(w), start=1)
            for b in (weight_bound(j, x), weight_bound(j, x, lower=True))]


def status_at(iv, x):
    """Status of the one-interval system with S_1 = w_1 fixed at ``x``.

    The relaxed simplex admits every x in [0, 1] (boundary-only at 0 and 1),
    so only the interval's own ends and their openness can make it infeasible.
    """
    x = F(x)
    pin = [weight_bound(1, x), weight_bound(1, x, lower=True)]
    return simplex_intersect(chain([iv]), pin).status


# The refusal texts of a polarization built from integers: those the
# Fraction-input constructor gave for the same weights, with each weight
# written as ``str`` of its Fraction.
REFUSALS = {
    ((2,), 2): "a polarization needs at least two weights",
    ((0, 2), 2): "every weight must lie strictly between 0 and 1, got (0, 1)",
    ((3, -1), 2): "every weight must lie strictly between 0 and 1, got (3/2, -1/2)",
    ((1, 1), 3): "weights must sum to exactly 1, got 2/3",
    ((2, 2, 1), 4): "weights must sum to exactly 1, got 5/4",
}


class TestPolarization:
    def test_valid(self):
        w = Polarization((1, 2), 3)
        assert w.n == 2 and weights(w) == (F(1, 3), F(2, 3))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError):
            Polarization((0, 1), 1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Polarization((1, 1), 3)

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            Polarization((0.5, 0.5), 1)

    @pytest.mark.parametrize("nums,den,text", [
        ((True, True), 2, "polarization parts must be integers, got True"),
        ((1, 1), True, "polarization parts must be integers, got True"),
        ((0.5, 1), 2, "polarization parts must be integers, got 0.5"),
        ((1, 1), 2.0, "polarization parts must be integers, got 2.0"),
        ((F(1), F(1)), 2, "polarization parts must be integers, got Fraction(1, 1)"),
        ((1, 1), 0, "polarization denominator must be positive, got 0"),
        ((-1, -1), -2, "polarization denominator must be positive, got -2"),
    ])
    def test_rejects_non_integer_parts_and_non_positive_denominator(self, nums, den, text):
        with pytest.raises(ValidationError) as exc:
            Polarization(nums, den)
        assert str(exc.value) == text

    @pytest.mark.parametrize("parts,d", list(REFUSALS))
    def test_integer_refusals_match_fraction_ones(self, parts, d):
        with pytest.raises(ValidationError) as exc:
            Polarization(parts, d)
        assert str(exc.value) == REFUSALS[parts, d]


class TestRatio:
    """``_ratio``'s two cases, against the Fraction of the same value."""

    def test_certificate_json_always_writes_the_denominator(self):
        assert [_ratio(a, b, slash=True) for a, b in ((0, 7), (-4, 2), (8, 18), (3, 1))] == \
            ["0/1", "-2/1", "4/9", "3/1"]
        for num in range(-30, 31):
            for den in range(1, 13):
                assert _ratio(num, den, slash=True) == frac_str(F(num, den))

    def test_reason_text_writes_what_str_of_a_fraction_writes(self):
        assert [_ratio(a, b) for a, b in ((0, 7), (-4, 2), (8, 18), (3, 1))] == \
            ["0", "-2", "4/9", "3"]
        for num in range(-30, 31):
            for den in range(1, 13):
                assert _ratio(num, den) == str(F(num, den))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=2, max_size=8), st.integers(1, 12))
def test_integer_polarization_is_the_fraction_one(parts, k):
    d = sum(parts)
    fracs = tuple(F(a, d) for a in parts)
    built = Polarization([a * k for a in parts], d * k)
    reduced = Polarization(tuple(parts), d)
    assert built == reduced and hash(built) == hash(reduced)
    assert built.den == math.lcm(*(x.denominator for x in fracs))
    assert built.nums == tuple(x.numerator * (built.den // x.denominator) for x in fracs)
    assert repr(built) == str(built) == f"Polarization(nums={built.nums}, den={built.den})"
    assert weights(built) == fracs and all(type(x) is Fraction for x in weights(built))
    assert cli._witness_json(built) == [frac_str(x) for x in fracs]
    barycentric = Polarization([1] * len(parts), len(parts))
    assert (built == barycentric) == (len(set(parts)) == 1)


class TestRationalInterval:
    """One-interval chains built from rational ends by ``reference.chain``."""

    def test_contains_respects_openness(self):
        iv = (F(0), F(1), True, False)
        assert status_at(iv, 0) == INFEASIBLE
        assert status_at(iv, F(1, 2)) == FEASIBLE
        assert status_at(iv, 1) == BOUNDARY_ONLY

    def test_unbounded_sides(self):
        iv = (None, F(1, 3))
        assert status_at(iv, 0) == BOUNDARY_ONLY
        assert status_at(iv, F(1, 2)) == INFEASIBLE
        assert chain([iv]).lower_open == (True,)

    def test_midpoint(self):
        def witness(iv):
            return simplex_intersect(chain([iv])).witness

        assert weights(witness((F(1, 3), F(2, 3)))) == (F(1, 2), F(1, 2))
        assert weights(witness((F(5, 7), F(5, 7)))) == (F(5, 7), F(2, 7))
        # an unbounded side stops at the simplex, 0 < S_1 < 1
        assert weights(witness((None, F(2)))) == (F(1, 2), F(1, 2))
        assert witness(EMPTY) is None

    def test_empty(self):
        assert simplex_intersect(chain([EMPTY])).status == INFEASIBLE
        assert simplex_intersect(chain([(F(1), F(0))])).status == INFEASIBLE
        assert simplex_intersect(chain([(F(1), F(1), True, False)])).status == INFEASIBLE
        assert simplex_intersect(chain([(F(1), F(1))])).status == BOUNDARY_ONLY

    def test_closure(self):
        opened = (F(0), F(1), True, True)
        assert status_at(opened, 0) == status_at(opened, 1) == INFEASIBLE
        closed = (F(0), F(1))
        assert status_at(closed, 0) == status_at(closed, 1) == BOUNDARY_ONLY


class TestSlope:
    def test_kernel_slope(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (2, 2), (-6, -6))
        assert (s.chi_components, s.chi) == ((-8, -8), -18)
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        system = weight_system(curve, pair)
        assert system.subject == s
        assert slope(s, Polarization((1, 1), 2)) == -9 == F(system.subject.chi,
                                                             pair.kernel_rank)

    def test_trivial_bundle_slope_is_chi_structure_sheaf(self):
        curve = ChainCurve((2, 2))
        for t in (1, 2, 3):
            s = SheafNumerics(curve, (t, t), (0, 0))
            for w in (Polarization((1, 3), 4), Polarization((2, 3), 5)):
                assert slope(s, w) == -3 == 1 - arithmetic_genus(curve)

    def test_component_supported_sheaf(self):
        # rank (t, 0), chi = -t*g_1: slope is -g_1 / w_1.  The gluing at the
        # node is not fixed by the numerics of a non-uniform multirank, so
        # chi is not derived and the reference slope takes it explicitly.
        curve = ChainCurve((2, 2))
        t = 2
        s = SheafNumerics(curve, (t, 0), (-t, 0))
        assert s.chi_components == (-t * 2, 0)
        assert s.chi is None
        w = Polarization((1, 2), 3)
        assert slope(s, w, chi=-t * 2) == F(-2) / F(1, 3) == -6

    def test_zero_rank_rejected(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (0, 0), (0, 0))
        assert (s.chi_components, s.chi) == ((0, 0), 0)
        with pytest.raises(ValidationError, match="require positive rank"):
            bigas_intervals(s)


class TestBigasIntervals:
    def test_trivial_line_bundle(self):
        ivs = fractions_of(bigas_intervals(trivial_sheaf()))
        assert len(ivs) == 1
        assert ivs[0][:2] == (F(1, 3), F(2, 3))
        assert not ivs[0][2] and not ivs[0][3]

    def test_kernel_interval(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (2, 2), (-6, -6))
        assert (s.chi_components, s.chi) == ((-8, -8), -18)
        ivs = fractions_of(bigas_intervals(s))
        assert ivs[0][:2] == (F(4, 9), F(5, 9))

    def test_positive_chi_interval(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 4))
        ivs = fractions_of(bigas_intervals(s))
        assert ivs[0][:2] == (F(-2), F(-1))

    def test_chi_zero_full_line(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (1, 2))
        assert s.chi == 0
        ivs = fractions_of(bigas_intervals(s))
        assert ivs[0][0] is None and ivs[0][1] is None

    def test_chi_zero_unsatisfiable(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (3, 0))
        assert s.chi == 0
        assert fractions_of(bigas_intervals(s)) == [EMPTY]

    def test_non_uniform_rejected(self):
        s = SheafNumerics(ChainCurve((2, 2)), (2, 1), (0, 0))
        with pytest.raises(UnsupportedData):
            bigas_intervals(s)

    @pytest.mark.parametrize("genera,ranks,degs,denominator", [
        ((2, 2), (1, 1), (0, 0), 12),
        ((2, 2), (2, 2), (-6, -6), 18),
        ((2, 3), (1, 1), (4, -2), 12),
        ((2, 2, 3), (2, 2, 2), (1, -3, 2), 10),
    ])
    def test_membership_matches_grid_oracle(self, genera, ranks, degs, denominator):
        # independent oracle: every grid polarization must land inside the
        # intervals exactly when the raw inequalities hold
        curve = ChainCurve(genera)
        s = SheafNumerics(curve, ranks, degs)
        ivs = bigas_intervals(s)
        for w in enumerate_polarizations(GridSpec(denominator, curve.n)):
            inside = simplex_intersect(ivs, pinned(w)).status == FEASIBLE
            assert inside == ivs.admits(w)


class TestCheckBigas:
    def test_trivial_accepts_midpoint(self):
        assert bigas_intervals(trivial_sheaf()).admits(Polarization((1, 1), 2))

    def test_trivial_rejects_skewed(self):
        assert not bigas_intervals(trivial_sheaf()).admits(Polarization((1, 4), 5))

    def test_boundary_is_allowed(self):
        assert bigas_intervals(trivial_sheaf()).admits(Polarization((1, 2), 3))

    def test_polarization_of_another_length_rejected(self):
        with pytest.raises(ValidationError, match="polarization has 3 weights, chain needs 2"):
            bigas_intervals(trivial_sheaf()).admits(Polarization((1, 1, 1), 3))


class TestSimplexIntersect:
    def test_trivial_feasible_with_midpoint_witness(self):
        region = simplex_intersect(chain([(F(1, 3), F(2, 3))]))
        assert region.status == FEASIBLE
        assert weights(region.witness) == (F(1, 2), F(1, 2))

    def test_negative_interval_infeasible(self):
        region = simplex_intersect(chain([(F(-2), F(-1))]))
        assert region.status == INFEASIBLE
        assert region.witness is None

    def test_weight_bound_makes_infeasible(self):
        region = simplex_intersect(chain([(F(1, 3), F(2, 3))]),
                                   [WeightBound(1, 1, 4)])
        assert region.status == INFEASIBLE

    def test_weight_bound_at_endpoint_still_feasible(self):
        region = simplex_intersect(chain([(F(1, 3), F(2, 3))]),
                                   [WeightBound(1, 1, 3)])
        assert region.status == FEASIBLE
        assert weights(region.witness)[0] == F(1, 3)

    def test_boundary_only(self):
        # chi < 0 with chi_1 = rank: the interval upper endpoint is exactly 0
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (2, -1))
        ivs = bigas_intervals(s)
        assert fractions_of(ivs)[0][:2] == (F(-1, 2), F(0))
        region = simplex_intersect(ivs)
        assert region.status == BOUNDARY_ONLY
        assert region.witness is None

    def test_lower_bound(self):
        # w_1 >= 3/4 forces S_1 out of [1/3, 2/3]
        region = simplex_intersect(chain([(F(1, 3), F(2, 3))]),
                                   [WeightBound(1, 3, 4, lower=True)])
        assert region.status == INFEASIBLE
        # w_1 >= 1/2 is compatible
        region = simplex_intersect(chain([(F(1, 3), F(2, 3))]),
                                   [WeightBound(1, 1, 2, lower=True)])
        assert region.status == FEASIBLE
        assert weights(region.witness)[0] >= F(1, 2)

    def test_clashing_step_bounds(self):
        region = simplex_intersect(chain([UNBOUNDED]),
                                   [WeightBound(2, 1, 3),
                                    WeightBound(2, 1, 2, lower=True)])
        assert region.status == INFEASIBLE

    def test_unsatisfiable_marker_bound(self):
        region = simplex_intersect(chain([(F(1, 3), F(2, 3))]),
                                   [WeightBound(1, 0, 1, open=True)])
        assert region.status == INFEASIBLE

    def test_closed_zero_bound_is_boundary_only(self):
        region = simplex_intersect(chain([(F(0), F(2, 3))]),
                                   [WeightBound(1, 0, 1)])
        assert region.status == BOUNDARY_ONLY

    def test_witness_respects_intervals_and_simplex(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 5)
            curve = ChainCurve(tuple(rng.randint(2, 6) for _ in range(n)))
            m = rng.randint(1, 3)
            degs = tuple(rng.randint(-9, 9) for _ in range(n))
            s = SheafNumerics(curve, (m,) * n, degs)
            region = simplex_intersect(bigas_intervals(s))
            if region.status != FEASIBLE:
                continue
            w = region.witness
            assert sum(weights(w)) == 1
            assert all(0 < x < 1 for x in weights(w))
            assert bigas_intervals(s).admits(w)
            assert simplex_intersect(region.s_intervals, pinned(w)).witness == w


class TestFindPolarization:
    def test_kernel_midpoint(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (2, 2), (-6, -6))
        assert (s.chi_components, s.chi) == ((-8, -8), -18)
        region = simplex_intersect(bigas_intervals(s))
        assert region.status == FEASIBLE
        assert weights(region.witness) == (F(1, 2), F(1, 2))

    def test_trivial_on_genus_2_3(self):
        region = simplex_intersect(bigas_intervals(trivial_sheaf((2, 3))))
        assert region.status == FEASIBLE
        assert fractions_of(region.s_intervals)[0][0] == F(1, 4)
        assert fractions_of(region.s_intervals)[0][1] == F(2, 4)
        assert weights(region.witness) == (F(3, 8), F(5, 8))

    def test_unbalanced_line_bundle_infeasible(self):
        region = simplex_intersect(bigas_intervals(
            SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 4))))
        assert region.status == INFEASIBLE

    def test_constructive_guarantee_and_step_lower_bounds(self):
        # chi_j < 0 everywhere implies feasibility, and every weight of the
        # witness is at least chi_j / chi
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 6)
            curve = ChainCurve(tuple(rng.randint(2, 7) for _ in range(n)))
            m = rng.randint(1, 4)
            degs = tuple(rng.randint(-25, m * (g - 1) - 1)
                         for g in curve.genera)
            s = SheafNumerics(curve, (m,) * n, degs)
            assert all(c < 0 for c in s.chi_components) and s.chi < 0
            region = simplex_intersect(bigas_intervals(s))
            assert region.status == FEASIBLE
            for w_j, chi_j in zip(weights(region.witness), s.chi_components):
                assert w_j >= F(chi_j, s.chi) > 0


class TestWeightSystem:
    def test_pair_of_another_length_refused(self):
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        with pytest.raises(ValidationError,
                           match="pair.multidegree has length 2 but the curve has 3 components"):
            weight_system(ChainCurve((2, 2, 2)), pair)

    def test_sheaf_on_another_curve_refused(self):
        # the same number of components, other genera: the sheaf's chi is not
        # the one the curve's Riemann-Roch would give
        s = SheafNumerics(ChainCurve((5, 5)), (2, 2), (-6, -6))
        with pytest.raises(ValidationError, match="another curve"):
            weight_system(ChainCurve((2, 2)), s)
        assert weight_system(ChainCurve((5, 5)), s).subject == s

    def test_pair_subject_is_its_kernel(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, False))
        system = weight_system(curve, pair)
        assert system.pair is pair and system.subject == kernel_numerics(curve, pair)
        assert system.intervals == weight_system(curve, system.subject).intervals


def declared(curve, pair, line):
    """Slope chi / m and declared subsheaf bounds of the pair's kernel twisted by ``line``."""
    system = weight_system(curve, pair, line)
    return F(system.subject.chi, pair.kernel_rank), declared_bounds(system)


def bound_value(bound):
    return F(bound.num, bound.den)


class TestSubsheafSlopeConstraints:
    def test_endpoint_bound(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, False))
        target, bounds = declared(curve, pair, LineBundleTwist.trivial(2))
        assert target == F(-9)
        assert len(bounds) == 1
        assert bounds[0].index == 1
        assert bound_value(bounds[0]) == F(2, 9)
        assert not bounds[0].open and not bounds[0].lower

    def test_middle_component_bound(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(False, True, False))
        target, bounds = declared(curve, pair, LineBundleTwist.trivial(3))
        assert target == F(-19, 2)
        assert bounds[0].index == 2
        assert bound_value(bounds[0]) == F(6, 19)

    def test_zero_numerator_gives_zero_bound(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, False))
        # deg L_1 = delta_1 - 1 + g_1 = 2 makes the numerator vanish
        target, bounds = declared(curve, pair, LineBundleTwist((2, 0)))
        assert target == F(-7)
        assert bound_value(bounds[0]) == 0 and not bounds[0].open
        region = simplex_intersect(
            bigas_intervals(SheafNumerics(curve, (1, 1), (0, 0))), bounds)
        assert region.status != FEASIBLE

    def test_zero_target(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, True))
        # twist degree 9 takes the kernel's chi -18 to 0; the numerator is
        # positive on component 1 only
        target, bounds = declared(curve, pair, LineBundleTwist((9, 0)))
        assert target == 0
        assert len(bounds) == 1
        assert bounds[0].index == 1 and bounds[0].open and bound_value(bounds[0]) == 0

    def test_positive_target_becomes_lower_bound(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, False))
        # twist degree 11 takes the kernel's chi -18 to 4
        target, bounds = declared(curve, pair, LineBundleTwist((6, 5)))
        assert target == F(2)
        # numer = 6 - 1 + 1 - 2 = 4, lower bound w_1 >= 2
        assert bounds[0].lower
        assert bound_value(bounds[0]) == F(4, 2)


@pytest.mark.parametrize("lower", (False, True))
@pytest.mark.parametrize("open_", (False, True))
def test_weight_bound_admits_its_side_and_its_end_when_closed(lower, open_):
    # w_1 <= 2/6, or >= 2/6 when lower, kept unreduced; its end 1/3 only when closed
    bound = WeightBound(1, 2, 6, lower=lower, open=open_)
    for a, d in ((1, 4), (1, 3), (2, 6), (3, 9), (1, 2)):
        side = F(a, d) > F(1, 3) if lower else F(a, d) < F(1, 3)
        assert bound.admits(a, d) == (side or (F(a, d) == F(1, 3) and not open_)), (a, d)


@st.composite
def twisted_pairs(draw, sign):
    """A pair on 2..6 components and a twist that gives its kernel a chi of
    the sign of ``sign``, with the component flags the bounds are read for."""
    n = draw(st.integers(2, 6))
    genera = tuple(draw(st.integers(2, 4)) for _ in range(n))
    rank = draw(st.integers(1, 3))
    sections = rank + draw(st.integers(1, 3))
    m = sections - rank
    degs = [draw(st.integers(0, 8)) for _ in range(n)]
    if sign == 0:
        degs[0] += -sum(degs) % m        # the kernel's chi is -d mod m
    flags = tuple(draw(st.booleans()) for _ in range(n))
    pair = GeneratedPairData(rank=rank, sections=sections, multidegree=tuple(degs),
                             ker_rho_nonzero=flags)
    curve = ChainCurve(genera)
    # twists that give subsheaf chi -2..3, so that bounds often fall inside (0, 1)
    tw = [draw(st.integers(-2, 3)) + curve.node_count(j) - 1 + genera[j - 1]
          for j in range(1, n + 1)]
    chi = kernel_numerics(curve, pair).chi + m * sum(tw)
    shift = draw(st.integers(0, 3))
    if sign < 0:
        tw[-1] += (-1 - chi) // m - shift          # chi + m*step <= -1
    elif sign > 0:
        tw[-1] += -((chi - 1) // m) + shift        # chi + m*step >= 1
    else:
        tw[-1] -= chi // m
    return curve, pair, LineBundleTwist(tuple(tw))


@pytest.mark.parametrize("sign", (-1, 0, 1))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subsheaf_bound_admits_exactly_the_unbroken_slopes(sign, data):
    # a bound admits the weight a/D exactly when the subsheaf slope, from the
    # Fraction reference, stays at or below chi/m; no bound admits every weight
    curve, pair, line = data.draw(twisted_pairs(sign))
    system = weight_system(curve, pair, line)
    kernel, n, m = system.subject, curve.n, pair.kernel_rank
    assert (kernel.chi > 0) - (kernel.chi < 0) == sign
    declared = declared_bounds(system)
    for j in range(1, n + 1):
        # the component-j subsheaf, a line bundle of degree t_j - delta_j on
        # a curve of genus g_j
        nodes = 1 if j in (1, n) else 2
        sub_chi = line.multidegree[j - 1] - nodes + 1 - curve.genera[j - 1]
        sub = SheafNumerics(curve, tuple(int(k == j) for k in range(1, n + 1)), (0,) * n)
        bound = subsheaf_weight_bound(system, j)
        if pair.ker_rho_nonzero[j - 1] and bound is not None:
            declared.remove(bound)
        for d in range(2, 13):
            for a in range(1, d):
                w = Polarization(tuple(a * (n - 1) if k == j else d - a
                                       for k in range(1, n + 1)), d * (n - 1))
                unbroken = slope(sub, w, sub_chi) <= slope(kernel, w)
                assert unbroken == (bound is None or bound.admits(a, d)), (j, a, d, bound)
    assert declared == []     # the flagged components' bounds, and no others


class TestInfeasibilityCertificate:
    def test_endpoint_scenario_clash(self):
        curve = ChainCurve((2, 2))
        s = SheafNumerics(curve, (2, 2), (-6, -6))
        assert (s.chi_components, s.chi) == ((-8, -8), -18)
        cert = simplex_intersect(bigas_intervals(s), [WeightBound(1, 2, 9)]).certificate
        assert cert is not None
        assert cert.quantity == "S_1"
        assert cert_bound(cert, "lower") == F(8, 18)
        assert cert_bound(cert, "upper") == F(4, 18)
        assert cert.verify()

    def test_unit_interval_clash(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 4))
        cert = simplex_intersect(bigas_intervals(s)).certificate
        assert cert.quantity == "S_1"
        assert cert_bound(cert, "lower") == 0 and cert.lower_open
        assert cert_bound(cert, "upper") == -1 and not cert.upper_open
        assert cert.verify()

    def test_feasible_has_no_certificate(self):
        assert simplex_intersect(bigas_intervals(trivial_sheaf())).certificate is None

    def test_final_step_clash(self):
        # bound on the last weight clashes through S_n = 1
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 6))
        k = kernel_numerics(curve, pair)
        cert = simplex_intersect(bigas_intervals(k), [WeightBound(2, 4, 13)]).certificate
        assert cert is not None
        assert cert.quantity == "S_1"
        assert cert_bound(cert, "lower") == F(9, 13)   # S_1 >= 1 - 4/13
        assert cert_bound(cert, "upper") == F(5, 13)   # slope-inequality upper bound
        assert "S_2 = 1" in cert.lower_reason


def test_two_component_feasible_set_matches_closed_form():
    # for n = 2 and chi < 0, the feasible S_1 set is
    # [chi_1/chi, (chi_1 - m)/chi] intersected with the open unit interval
    rng = random.Random(5)
    for _ in range(120):
        curve = ChainCurve((rng.randint(2, 5), rng.randint(2, 5)))
        m = rng.randint(1, 3)
        degs = (rng.randint(-8, 8), rng.randint(-8, 8))
        s = SheafNumerics(curve, (m, m), degs)
        if s.chi >= 0:
            continue
        lo = F(s.chi_components[0], s.chi)
        hi = F(s.chi_components[0] - m, s.chi)
        for a in range(1, 24):
            member = lo <= F(a, 24) <= hi
            assert member == bigas_intervals(s).admits(Polarization((a, 24 - a), 24))
        region = simplex_intersect(bigas_intervals(s))
        strict_nonempty = hi > 0 and lo < 1 and lo <= hi
        assert (region.status == FEASIBLE) == strict_nonempty


@st.composite
def uniform_sheaves(draw):
    n = draw(st.integers(2, 4))
    curve = ChainCurve(tuple(draw(st.integers(2, 5)) for _ in range(n)))
    m = draw(st.integers(1, 3))
    degs = tuple(draw(st.integers(-8, 8)) for _ in range(n))
    return SheafNumerics(curve, (m,) * n, degs)


_RANK = {FEASIBLE: 2, BOUNDARY_ONLY: 1, INFEASIBLE: 0}


@settings(max_examples=150)
@given(uniform_sheaves(), st.integers(1, 4), st.fractions(min_value=-1, max_value=2,
                                                          max_denominator=12),
       st.booleans(), st.booleans())
def test_adding_bounds_is_monotone(sheaf, index, value, is_open, lower):
    if index > sheaf.n:
        index = sheaf.n
    ivs = bigas_intervals(sheaf)
    before = simplex_intersect(ivs)
    after = simplex_intersect(ivs, [weight_bound(index, value, lower, open=is_open)])
    assert _RANK[after.status] <= _RANK[before.status]


@settings(max_examples=150)
@given(uniform_sheaves())
def test_feasible_witness_always_valid(sheaf):
    region = simplex_intersect(bigas_intervals(sheaf))
    if region.status == FEASIBLE:
        assert bigas_intervals(sheaf).admits(region.witness)
