import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from chainstab import cli, stability
from chainstab.curve_model import (PAIR_FLAGS, ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, arithmetic_genus, kernel_numerics, twist)
from chainstab.errors import ContradictoryHypotheses, RuleNotApplicable, ValidationError
from chainstab.feasibility import (FEASIBLE, INFEASIBLE, WeightBound, bigas_intervals,
                                   weight_system)
from chainstab.stability import (INCONCLUSIVE, STRONGLY_UNSTABLE, W_SEMISTABLE, W_STABLE,
                                 analyze, analyze_sheaf, clifford_h0_bounds, k_bound_check)
from reference import cert_bound, weights

F = Fraction


def endpoint_pair(degree=6, sections=3, flags_at=1, n=2):
    degs = [1] * n
    degs[flags_at - 1] = degree
    def flag(j):
        return tuple(i == j for i in range(1, n + 1))
    return GeneratedPairData(rank=1, sections=sections, multidegree=tuple(degs),
                             twisted_sections_nonzero=flag(flags_at),
                             restriction_semistable=flag(flags_at),
                             ker_rho_nonzero=flag(flags_at))


class TestRestrictionObstruction:
    def test_obstructed_component(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 twisted_sections_nonzero=(True, False),
                                 restriction_semistable=(True, False))
        assert analyze(curve, pair).obstructions == (True, False)

    def test_no_twisted_section_no_obstruction(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 restriction_semistable=(True, True))
        assert analyze(curve, pair).obstructions == (False, False)

    def test_contradiction_with_kernel_flag(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 twisted_sections_nonzero=(True, False),
                                 restriction_semistable=(True, False),
                                 kernel_restriction_semistable=(True, False))
        with pytest.raises(ContradictoryHypotheses):
            analyze(curve, pair)


class TestCertifyWSemistable:
    def test_semistable_with_witness(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 kernel_restriction_semistable=(True, True))
        v = analyze(curve, pair).verdict
        assert v.kind == W_SEMISTABLE
        assert weights(v.witness) == (F(1, 2), F(1, 2))
        assert bigas_intervals(kernel_numerics(curve, pair)).admits(v.witness)

    def test_stable_upgrade(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 kernel_restriction_semistable=(True, True),
                                 kernel_restriction_stable=(True, False))
        v = analyze(curve, pair).verdict
        assert v.kind == W_STABLE
        assert weights(v.witness) == (F(1, 2), F(1, 2))

    def test_missing_flag_is_inconclusive(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 kernel_restriction_semistable=(True, False))
        assert analyze(curve, pair).verdict.kind == INCONCLUSIVE


class TestCliffordH0Bound:
    def test_in_range(self):
        assert clifford_h0_bounds((3,), 2, (4,)) == ((4,), ("clifford",))

    def test_above_range_riemann_roch(self):
        # declared h1 vanishing leaves the bound of a semistable component as it is
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 restriction_semistable=(True, True), h1_vanishes=(True, True))
        assert k_bound_check(ChainCurve((2, 2)), pair).per_component == (5, 5)
        assert clifford_h0_bounds((2,), 1, (6,)) == ((5,), ("riemann_roch_h1_zero",))

    def test_degree_zero(self):
        assert clifford_h0_bounds((2,), 1, (0,)) == ((1,), ("clifford",))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            clifford_h0_bounds((2, 1), 1, (0, 0))
        with pytest.raises(ValidationError):
            clifford_h0_bounds((2, 2), 1, (0, -1))


class TestKBoundCheck:
    def test_both_above_range(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 restriction_semistable=(True, True))
        res = k_bound_check(curve, pair)
        assert res.bound == 5 + 5 - 1 == 9
        assert res.bound < 6 + 6 + 1
        assert res.methods == ("riemann_roch_h1_zero",) * 2

    def test_both_in_clifford_range(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=2, sections=3, multidegree=(4, 0),
                                 restriction_semistable=(True, True))
        res = k_bound_check(curve, pair)
        assert res.bound == (2 + 2) + (0 + 2) - 2 == 4
        assert res.bound < 4 + 0 + 2
        assert res.methods == ("clifford", "clifford")

    def test_mixed_case(self):
        curve = ChainCurve((2, 3))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 2),
                                 restriction_semistable=(True, True))
        res = k_bound_check(curve, pair)
        assert res.bound == 5 + (1 + 1) - 1 == 6
        assert res.bound < 6 + 2 + 1
        assert set(res.methods) == {"riemann_roch_h1_zero", "clifford"}

    def test_preconditions(self):
        curve = ChainCurve((2, 2))
        with pytest.raises(RuleNotApplicable):
            k_bound_check(curve, GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                                   restriction_semistable=(True, False)))
        with pytest.raises(RuleNotApplicable):
            k_bound_check(curve, GeneratedPairData(rank=1, sections=3, multidegree=(0, 0),
                                                   restriction_semistable=(True, True)))

    def test_k_within_bound_flag(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=12, multidegree=(6, 6),
                                 restriction_semistable=(True, True))
        res = k_bound_check(curve, pair)
        assert not res.k_within_bound

    def test_randomized_holds_everywhere(self):
        rng = random.Random(31)
        for _ in range(400):
            n = rng.randint(2, 4)
            curve = ChainCurve(tuple(rng.randint(2, 5) for _ in range(n)))
            r = rng.randint(1, 3)
            degs = [rng.randint(0, r * (2 * g - 2) + 6) for g in curve.genera]
            if all(d == 0 for d in degs):
                degs[0] = 1
            pair = GeneratedPairData(rank=r, sections=r + 1, multidegree=tuple(degs),
                                     restriction_semistable=(True,) * n)
            assert k_bound_check(curve, pair).bound < pair.total_degree + pair.rank

    def test_pair_of_another_length_refused(self):
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 restriction_semistable=(True, True))
        with pytest.raises(ValidationError,
                           match="pair.multidegree has length 2 but the curve has 3 components"):
            k_bound_check(ChainCurve((2, 2, 2)), pair)


class TestH0GlobalBound:
    def test_total_formula(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=2, multidegree=(3, 0),
                                 restriction_semistable=(True, True))
        res = k_bound_check(curve, pair)
        assert res.bound == sum(res.per_component) - 1 * pair.rank


class TestEndpointRule:
    def test_fires_at_first_component(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 twisted_sections_nonzero=(True, False),
                                 restriction_semistable=(True, False))
        v = analyze(curve, pair).verdict
        assert (v.kind, v.criterion) == (STRONGLY_UNSTABLE, "endpoint-degree-excess")
        assert cert_bound(v.certificate, "lower") == F(8, 18)
        assert cert_bound(v.certificate, "upper") == F(4, 18)
        assert v.certificate.verify()

    def test_large_sections_inconclusive(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=8, multidegree=(6, 6),
                                 twisted_sections_nonzero=(True, False),
                                 restriction_semistable=(True, False))
        assert "endpoint-degree-excess" not in analyze(curve, pair).fired

    def test_fires_at_last_component(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 6),
                                 twisted_sections_nonzero=(False, True),
                                 restriction_semistable=(False, True))
        v = analyze(curve, pair).verdict
        assert (v.kind, v.criterion) == (STRONGLY_UNSTABLE, "endpoint-degree-excess")
        assert v.certificate.verify()

    def test_middle_component_does_not_fire_endpoint(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 6, 1),
                                 twisted_sections_nonzero=(False, True, False),
                                 restriction_semistable=(False, True, False))
        assert "endpoint-degree-excess" not in analyze(curve, pair).fired


class TestMiddleRule:
    def test_fires(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 6, 1),
                                 twisted_sections_nonzero=(False, True, False),
                                 restriction_semistable=(False, True, False))
        v = analyze(curve, pair).verdict
        assert (v.kind, v.criterion) == (STRONGLY_UNSTABLE, "middle-degree-excess")
        assert v.certificate.verify()

    def test_boundary_fails_strictly(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 4, 1),
                                 twisted_sections_nonzero=(False, True, False),
                                 restriction_semistable=(False, True, False))
        assert "middle-degree-excess" not in analyze(curve, pair).fired

    def test_no_middle_on_two_components(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        assert analyze(curve, pair).verdict.kind == INCONCLUSIVE
        # a rule that did not fire leaves its reason only in its own record
        record = stability._middle(weight_system(curve, pair))
        assert not record.fired
        assert "two-component" in record.notes[0]

    def test_certificate_matches_derived_bounds(self):
        # kernel rank 2, degrees (1,6,1): clash at S_2 between the slope
        # inequality lower bound 13/18 and 5/18 + 6/18 propagated from above
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 6, 1),
                                 twisted_sections_nonzero=(False, True, False),
                                 restriction_semistable=(False, True, False))
        cert = analyze(curve, pair).verdict.certificate
        assert cert.quantity == "S_2"
        assert cert_bound(cert, "lower") == F(13, 18)
        assert cert_bound(cert, "upper") == F(11, 18)


class TestAllTwistsRule:
    def test_fires_on_three_components(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        v = analyze(curve, pair).verdict
        assert (v.kind, v.criterion) == (STRONGLY_UNSTABLE, "all-twists-degree-ratio")
        assert v.certificate.verify()
        assert any("every line-bundle twist" in note for note in v.notes)

    def test_ratio_at_most_n_minus_one_inconclusive(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(1, 1, 1),
                                 ker_rho_nonzero=(True, True, True))
        assert "all-twists-degree-ratio" not in analyze(curve, pair).fired

    def test_two_components(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, True))
        v = analyze(curve, pair).verdict
        assert (v.kind, v.criterion) == (STRONGLY_UNSTABLE, "all-twists-degree-ratio")

    def test_missing_kernel_flag(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, False))
        assert "all-twists-degree-ratio" not in analyze(curve, pair).fired

    def test_supplied_twist_attaches_destabilizer_note(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True))
        v = analyze(curve, pair, LineBundleTwist((1, -2, 0))).verdict
        assert v.kind == STRONGLY_UNSTABLE
        assert any("subsheaf slope" in note for note in v.notes)


@settings(max_examples=80)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_all_twists_verdict_independent_of_twist(twist_degrees):
    curve = ChainCurve((2, 2, 2))
    pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                             ker_rho_nonzero=(True, True, True))
    v = analyze(curve, pair, LineBundleTwist(tuple(twist_degrees))).verdict
    assert v.kind == STRONGLY_UNSTABLE
    assert v.criterion == "all-twists-degree-ratio"


@st.composite
def gated_pairs_and_twists(draw):
    """Pairs meeting the all-twists condition (every restriction kernel
    non-zero, d/m > n - 1) with a non-trivial twist, on 2 to 6 components."""
    n = draw(st.integers(2, 6))
    rank = draw(st.integers(1, 3))
    pair = GeneratedPairData(
        rank=rank, sections=rank + draw(st.integers(1, 3)),
        multidegree=tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))),
        ker_rho_nonzero=(True,) * n)
    assume(pair.degree_ratio_exceeds())
    curve = ChainCurve(tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))))
    line = LineBundleTwist(tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))))
    assume(not line.is_trivial())
    return curve, pair, line


@settings(max_examples=150, deadline=None)
@given(gated_pairs_and_twists())
def test_barycentric_note_names_the_first_destabilizing_subsheaf(case):
    # at w = (1/n, .., 1/n) the component-j subsheaf has slope numer_j * n, with
    # numer_j = deg L_j - delta_j + 1 - g_j; the note names the first flagged j
    # whose slope exceeds the twisted kernel's chi_L / m
    curve, pair, line = case
    n, m = curve.n, pair.kernel_rank
    target = F(twist(kernel_numerics(curve, pair), line).chi, m)
    slopes = [F((line.multidegree[j - 1] - (1 if j in (1, n) else 2) + 1
                 - curve.genera[j - 1]) * n) for j in range(1, n + 1)]
    j = next(j for j in range(1, n + 1) if pair.ker_rho_nonzero[j - 1] and slopes[j - 1] > target)
    notes = analyze(curve, pair, line).verdict.notes
    assert [note for note in notes if note.startswith("supplied twist")] == [
        f"supplied twist, barycentric weights: component {j} subsheaf slope "
        f"{slopes[j - 1]} exceeds {target}"]


class TestTwoComponentRule:
    # A reason recorded beside the degree ratio, never a verdict of its own.
    def test_fires(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, True),
                                 restriction_semistable=(True, True))
        report = analyze(curve, pair)
        assert report.verdict.kind == STRONGLY_UNSTABLE
        assert report.verdict.certificate.verify()
        assert report.fired == ("all-twists-degree-ratio", "two-component-kernel-sections")

    def test_missing_kernel_flag(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, False),
                                 restriction_semistable=(True, True))
        assert "two-component-kernel-sections" not in analyze(curve, pair).fired

    def test_missing_semistability(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, True),
                                 restriction_semistable=(False, True))
        assert "two-component-kernel-sections" not in analyze(curve, pair).fired

    def test_not_two_components(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6, 6),
                                 ker_rho_nonzero=(True, True, True),
                                 restriction_semistable=(True, True, True))
        assert "two-component-kernel-sections" not in analyze(curve, pair).fired

    def test_inconsistent_sections_not_confirmed(self):
        # the declared section count is far above the derived bound, so the
        # degree condition cannot be confirmed numerically
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=40, multidegree=(6, 6),
                                 ker_rho_nonzero=(True, True),
                                 restriction_semistable=(True, True))
        assert "two-component-kernel-sections" not in analyze(curve, pair).fired


class TestGenusBoundRule:
    # A reason recorded beside the degree ratio; without the ratio the data
    # contradicts itself and is refused.
    def test_fires(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True),
                                 h1_vanishes=(True, True, True))
        report = analyze(curve, pair)
        assert report.verdict.kind == STRONGLY_UNSTABLE
        assert report.verdict.certificate is not None and report.verdict.certificate.verify()
        assert report.fired == ("all-twists-degree-ratio", "genus-bound")

    def test_two_components_without_ratio_is_refused(self):
        # p_a = 4 > 0 = (n-2)(k-r)/r, but d = 1 is not above (n-1)(k-r) = 1:
        # h1 vanishing leaves chi = 1 + 1 - 4 = -2 sections, not the declared 2
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=2, multidegree=(1, 0),
                                 ker_rho_nonzero=(True, True),
                                 h1_vanishes=(True, True))
        with pytest.raises(ContradictoryHypotheses,
                           match=r"declared section count 2 exceeds chi = .* = -2,"):
            analyze(curve, pair)

    def test_missing_h1_flag(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True),
                                 h1_vanishes=(False, True, True))
        assert "genus-bound" not in analyze(curve, pair).fired

    def test_genus_threshold(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=1, sections=14, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True),
                                 h1_vanishes=(True, True, True))
        # p_a = 6 <= (n-2)(k-r)/r = 13
        assert "genus-bound" not in analyze(curve, pair).fired



FLAGS = ("restriction_semistable", "restriction_stable", "kernel_restriction_semistable",
         "kernel_restriction_stable", "ker_rho_nonzero", "twisted_sections_nonzero",
         "h1_vanishes")
FOLDED = {"two-component-kernel-sections", "genus-bound"}


@st.composite
def random_pairs(draw):
    """A curve, a pair with every flag drawn (often set or unset everywhere), a twist or None."""
    n = draw(st.integers(2, 6))
    curve = ChainCurve(tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))))
    r = draw(st.integers(1, 3))
    k = r + draw(st.integers(1, 6))
    degs = tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    flag_lists = (st.just((True,) * n) | st.just((False,) * n)
                  | st.lists(st.booleans(), min_size=n, max_size=n).map(tuple))
    flags = {name: draw(flag_lists) for name in FLAGS}
    for stable, semistable in (("restriction_stable", "restriction_semistable"),
                               ("kernel_restriction_stable", "kernel_restriction_semistable")):
        flags[stable] = tuple(a and b for a, b in zip(flags[stable], flags[semistable]))
    flags["twisted_sections_nonzero"] = tuple(
        ts and (d >= r or not ss) for ts, d, ss in
        zip(flags["twisted_sections_nonzero"], degs, flags["restriction_semistable"]))
    twist = draw(st.none() | st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    line = None if twist is None else LineBundleTwist(tuple(twist))
    return curve, GeneratedPairData(rank=r, sections=k, multidegree=degs, **flags), line


def refusal(curve, pair, line):
    try:
        analyze(curve, pair, line)
    except ContradictoryHypotheses as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(random_pairs())
def test_folded_reasons_never_name_a_verdict(case):
    curve, pair, line = case
    m = pair.kernel_rank
    genus_without_ratio = (all(pair.h1_vanishes) and all(pair.ker_rho_nonzero)
                           and sum(curve.genera) * pair.rank > (curve.n - 2) * m
                           and not pair.total_degree > (curve.n - 1) * m)
    # h1 vanishing enters only the genus route, so the same pair without it
    # meets every other contradiction and nothing else
    flags = {name: getattr(pair, name) for name in PAIR_FLAGS if name != "h1_vanishes"}
    other = refusal(curve, GeneratedPairData(pair.rank, pair.sections, pair.multidegree, **flags),
                    line)
    error = refusal(curve, pair, line)
    assert (error is not None) == (genus_without_ratio or other is not None)
    assert genus_without_ratio == (error is not None and "genus condition" in error)
    if error is None:
        report = analyze(curve, pair, line)
        if FOLDED & set(report.fired):
            assert "all-twists-degree-ratio" in report.fired
        assert report.verdict.criterion not in FOLDED


@settings(max_examples=300)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 12), st.data())
def test_genus_without_ratio_declares_more_sections_than_chi(n, r, m, data):
    d = data.draw(st.integers(0, (n - 1) * m))
    p_a = data.draw(st.integers(max(2 * n, (n - 2) * m // r + 1), 6 * n + 3 * m))
    curve = ChainCurve((2,) * (n - 1) + (p_a - 2 * (n - 1),))
    pair = GeneratedPairData(rank=r, sections=r + m, multidegree=(d,) + (0,) * (n - 1),
                             ker_rho_nonzero=(True,) * n, h1_vanishes=(True,) * n)
    assert arithmetic_genus(curve) * r > (n - 2) * m     # the genus condition
    assert not pair.degree_ratio_exceeds()
    chi = d + r * (1 - arithmetic_genus(curve))
    assert pair.sections > chi
    with pytest.raises(ContradictoryHypotheses,
                       match=rf"declared section count {r + m} exceeds chi = .* = {chi},"):
        analyze(curve, pair)

class TestAnalyze:
    def test_pair_of_another_length_refused(self):
        with pytest.raises(ValidationError,
                           match="pair.multidegree has length 2 but the curve has 3 components"):
            analyze(ChainCurve((2, 2, 2)), endpoint_pair())

    def test_endpoint_scenario(self):
        curve = ChainCurve((2, 2))
        report = analyze(curve, endpoint_pair())
        assert report.verdict.kind == STRONGLY_UNSTABLE
        assert report.verdict.criterion == "endpoint-degree-excess"
        assert report.verdict.certificate.verify()
        assert report.region.status == INFEASIBLE
        assert report.fired == ("endpoint-degree-excess",)
        assert report.obstructions == (True, False)

    def test_twisted_endpoint_certificate_is_for_the_twisted_sheaf(self):
        # kernel rank 2, degrees (6, 1), twist (1, 0): chi_1 = 2(1-2) - 6 + 2 = -6
        # and chi = -13 + 2 = -11, so the slope inequality gives S_1 >= 6/11; the
        # component-1 subsheaf numerator is 1 - 1 + 1 - 2 = -1 against the slope
        # -11/2, so w_1 <= 2/11
        curve = ChainCurve((2, 2))
        report = analyze(curve, endpoint_pair(), LineBundleTwist((1, 0)))
        assert report.sheaf.chi == -11
        assert report.verdict.criterion == "endpoint-degree-excess"
        assert report.region.status == INFEASIBLE
        cert = report.verdict.certificate
        assert cert.quantity == "S_1"
        assert (cert_bound(cert, "lower"), cert.lower_open) == (F(6, 11), False)
        assert (cert_bound(cert, "upper"), cert.upper_open) == (F(2, 11), False)
        assert cert.upper_reason == "S_0 = 0; w_1 <= 2/11 (subsheaf slope bound)"
        assert cert.verify()

    def test_semistable_scenario(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 kernel_restriction_semistable=(True, True))
        report = analyze(curve, pair)
        assert report.verdict.kind == W_SEMISTABLE
        assert weights(report.verdict.witness) == (F(1, 2), F(1, 2))
        assert report.region.status == FEASIBLE

    def test_no_flags_inconclusive_with_region(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        report = analyze(curve, pair)
        assert report.verdict.kind == INCONCLUSIVE
        assert report.region.status == FEASIBLE
        assert report.region.witness is not None

    def test_contradictory_flags_rejected(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 twisted_sections_nonzero=(True, False),
                                 restriction_semistable=(True, False),
                                 kernel_restriction_semistable=(True, True))
        with pytest.raises(ContradictoryHypotheses):
            analyze(curve, pair)

    def test_all_twists_vs_kernel_semistable_rejected(self):
        curve = ChainCurve((2, 2, 2))
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                                 ker_rho_nonzero=(True, True, True),
                                 kernel_restriction_semistable=(True, True, True))
        with pytest.raises(ContradictoryHypotheses):
            analyze(curve, pair)

    def test_engine_clash_vs_kernel_semistable_rejected(self):
        # only one kernel flag, but the bound it induces excludes every
        # polarization, contradicting the blanket semistability claim
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 1),
                                 ker_rho_nonzero=(True, False),
                                 kernel_restriction_semistable=(True, True))
        with pytest.raises(ContradictoryHypotheses):
            analyze(curve, pair)

    def test_generic_engine_fires_without_named_rule(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 1),
                                 ker_rho_nonzero=(True, False))
        report = analyze(curve, pair)
        assert report.verdict.kind == STRONGLY_UNSTABLE
        assert report.verdict.criterion == "weight-system-infeasible"
        assert report.fired == ()
        assert report.verdict.certificate.verify()

    def test_twisted_subject(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        line = LineBundleTwist((0, 4))
        report = analyze(curve, pair, line)
        assert report.sheaf.chi == -18 + 2 * 4

    def test_twisted_semistable_scenario_keeps_witness_valid(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 kernel_restriction_semistable=(True, True))
        line = LineBundleTwist((1, 1))
        report = analyze(curve, pair, line)
        assert report.verdict.kind == W_SEMISTABLE
        assert bigas_intervals(report.sheaf).admits(report.verdict.witness)

    def test_twisted_strong_instability_of_twisted_kernel(self):
        # twisting hard enough makes chi_1 of the kernel non-negative and the
        # twisted system infeasible even though the kernel itself is fine
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 kernel_restriction_semistable=(True, True))
        line = LineBundleTwist((0, 14))
        report = analyze(curve, pair, line)
        assert report.verdict.kind == STRONGLY_UNSTABLE
        assert report.verdict.criterion == "weight-system-infeasible"

    def test_k_bound_diagnostics_attached(self):
        curve = ChainCurve((2, 2))
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                                 restriction_semistable=(True, True))
        report = analyze(curve, pair)
        assert report.k_bound is not None
        assert report.k_bound.bound == 9

    def test_no_dual_verdicts_randomized(self):
        # verdicts from analyze are never both semistable and unstable for a
        # single input; contradictory inputs raise instead.  The evidence
        # agrees with the printed region: a rule whose firing empties the
        # system comes with a non-feasible region and a verified certificate,
        # and a semistability witness is the region's own witness.
        rng = random.Random(17)
        kinds = set()
        clashing = {"endpoint-degree-excess", "middle-degree-excess",
                    "all-twists-degree-ratio", "two-component-kernel-sections", "genus-bound"}
        for _ in range(300):
            n = rng.randint(2, 4)
            curve = ChainCurve(tuple(rng.randint(2, 4) for _ in range(n)))
            r = rng.randint(1, 2)
            k = r + rng.randint(1, 3)
            degs = tuple(rng.randint(0, 8) for _ in range(n))
            flags = {}
            for name in ("restriction_semistable", "kernel_restriction_semistable",
                         "ker_rho_nonzero", "twisted_sections_nonzero", "h1_vanishes"):
                # a quarter of the lists hold everywhere, as the criteria that
                # need every component (all-twists, genus) require
                everywhere = rng.random() < 0.25
                flags[name] = tuple(everywhere or rng.random() < 0.5 for _ in range(n))
            flags["twisted_sections_nonzero"] = tuple(
                ts and d >= r for ts, d in zip(flags["twisted_sections_nonzero"], degs))
            line = None
            if rng.random() < 0.5:
                line = LineBundleTwist(tuple(rng.randint(-3, 3) for _ in range(n)))
            try:
                report = analyze(curve, GeneratedPairData(rank=r, sections=k,
                                                          multidegree=degs, **flags), line)
            except ContradictoryHypotheses:
                continue
            verdict = report.verdict
            kinds.add(verdict.kind)
            if verdict.criterion in clashing:
                assert report.region.status != FEASIBLE
                assert verdict.certificate is not None and verdict.certificate.verify()
            if verdict.kind in (W_SEMISTABLE, W_STABLE):
                assert verdict.witness == report.region.witness
        assert kinds <= {W_SEMISTABLE, W_STABLE, STRONGLY_UNSTABLE, INCONCLUSIVE}


class TestAnalyzeSheaf:
    def test_infeasible_sheaf_is_strongly_unstable(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 4))
        report = analyze_sheaf(s)
        assert report.verdict.kind == STRONGLY_UNSTABLE
        assert report.verdict.certificate.verify()

    def test_feasible_sheaf_is_inconclusive(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0))
        report = analyze_sheaf(s)
        assert report.verdict.kind == INCONCLUSIVE
        assert report.region.status == FEASIBLE


def test_no_bound_reaches_the_sweep_twice(monkeypatch):
    # The endpoint and middle rules add their component's subsheaf bound only
    # when ``declared_bounds`` does not already hold it; checked on the
    # benchmark's corpus recipes, whose first op is the README pair.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    sweep, swept = stability.simplex_intersect, []
    monkeypatch.setattr(stability, "simplex_intersect",
                        lambda ivs, bounds=(): swept.append(list(bounds)) or sweep(ivs, bounds))
    for op in workloads.corpus_ops(11):
        if op.command == "check":
            try:
                cli.cmd_check(cli.parse_scenario(op.data))
            except ValidationError:
                continue
    assert swept[0] == [WeightBound(1, 4, 18, label="subsheaf slope bound")]
    assert sum(map(bool, swept)) > 100
    assert all(len(set(bounds)) == len(bounds) for bounds in swept)
