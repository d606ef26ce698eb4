import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chainstab import cli
from chainstab.curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, arithmetic_genus, kernel_numerics, twist)
from chainstab.errors import UnsupportedData, ValidationError
from chainstab.feasibility import weight_system


def curves(max_n=5, max_genus=8):
    return st.lists(st.integers(2, max_genus), min_size=2, max_size=max_n).map(
        lambda gs: ChainCurve(tuple(gs)))


class TestChainCurve:
    def test_rejects_single_component(self):
        with pytest.raises(ValidationError):
            ChainCurve((3,))

    def test_rejects_low_genus(self):
        with pytest.raises(ValidationError):
            ChainCurve((2, 1))
        with pytest.raises(ValidationError):
            ChainCurve((0, 2))

    def test_rejects_non_integer_genus(self):
        with pytest.raises(ValidationError):
            ChainCurve((2, 2.5))
        with pytest.raises(ValidationError):
            ChainCurve((2, True))

    def test_node_counts(self):
        c = ChainCurve((2, 2, 3, 4))
        assert [c.node_count(j) for j in range(1, 5)] == [1, 2, 2, 1]
        c2 = ChainCurve((2, 2))
        assert [c2.node_count(j) for j in (1, 2)] == [1, 1]

    def test_node_count_index_range(self):
        with pytest.raises(ValidationError):
            ChainCurve((2, 2)).node_count(3)


class TestGenusFormulas:
    @pytest.mark.parametrize("genera,expected", [((2, 2), 4), ((2, 2, 2), 6), ((3, 5), 8)])
    def test_arithmetic_genus(self, genera, expected):
        assert arithmetic_genus(ChainCurve(genera)) == expected

    @pytest.mark.parametrize("genera,expected", [((2, 2), -3), ((2, 3), -4), ((2, 2, 2), -5)])
    def test_chi_structure_sheaf(self, genera, expected):
        curve = ChainCurve(genera)
        structure_sheaf = SheafNumerics(curve, (1,) * curve.n, (0,) * curve.n)
        assert structure_sheaf.chi == expected == 1 - arithmetic_genus(curve)


class TestSheafFromMultidegree:
    def test_structure_sheaf(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0))
        assert s.chi_components == (-1, -1)
        assert s.chi == -3 == 1 - arithmetic_genus(ChainCurve((2, 2)))

    def test_unbalanced_line_bundle(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 4))
        assert s.chi_components == (-1, 3)
        assert s.chi == 1

    def test_rank_two(self):
        s = SheafNumerics(ChainCurve((2, 2)), (2, 2), (6, 6))
        assert s.chi_components == (4, 4)
        assert s.chi == 4 + 4 - 2

    def test_non_uniform_has_no_global_chi(self):
        s = SheafNumerics(ChainCurve((2, 2)), (2, 1), (0, 0))
        assert s.chi_components == (-2, -1)
        assert s.chi is None
        with pytest.raises(UnsupportedData):
            weight_system(s.curve, s)

    def test_chi_is_derived_not_supplied(self):
        curve = ChainCurve((2, 2))
        with pytest.raises(TypeError):
            SheafNumerics(curve, (1, 1), (0, 0), (-1, -1))
        with pytest.raises(TypeError):
            SheafNumerics(curve, (2, 0), (-2, 0), chi=-4)

    def test_rejects_negative_rank(self):
        with pytest.raises(ValidationError):
            SheafNumerics(ChainCurve((2, 2)), (1, -1), (0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            SheafNumerics(ChainCurve((2, 2)), (1, 1, 1), (0, 0, 0))


class TestGeneratedPairData:
    def test_needs_more_sections_than_rank(self):
        with pytest.raises(ValidationError):
            GeneratedPairData(rank=2, sections=2, multidegree=(1, 1))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValidationError):
            GeneratedPairData(rank=1, sections=2, multidegree=(-1, 0))

    def test_twisted_section_forces_degree_at_least_rank(self):
        with pytest.raises(ValidationError):
            GeneratedPairData(rank=2, sections=3, multidegree=(1, 0),
                              twisted_sections_nonzero=(True, False),
                              restriction_semistable=(True, False))
        # without semistability the same degree is accepted
        GeneratedPairData(rank=2, sections=3, multidegree=(1, 0),
                          twisted_sections_nonzero=(True, False))

    def test_stable_implies_semistable(self):
        with pytest.raises(ValidationError):
            GeneratedPairData(rank=1, sections=2, multidegree=(0, 0),
                              restriction_stable=(True, False))
        with pytest.raises(ValidationError):
            GeneratedPairData(rank=1, sections=2, multidegree=(0, 0),
                              kernel_restriction_stable=(False, True))

    def test_flag_length_mismatch(self):
        with pytest.raises(ValidationError):
            GeneratedPairData(rank=1, sections=2, multidegree=(0, 0),
                              h1_vanishes=(True,))

    def test_defaults_all_false(self):
        pair = GeneratedPairData(rank=1, sections=2, multidegree=(0, 0))
        assert pair.ker_rho_nonzero == (False, False)
        assert pair.kernel_rank == 1
        assert pair.total_degree == 0

    @pytest.mark.parametrize("flags,text", [
        # the first failing component is named, whichever check fails there
        (dict(restriction_stable=(False, False, True), restriction_semistable=(False, True, False),
              twisted_sections_nonzero=(False, True, False)),
         "pair.twisted_sections_nonzero: component 2 has a twisted section on a semistable "
         "restriction, which forces degree >= rank, got 1 < 2"),
        (dict(restriction_stable=(False, True, False), kernel_restriction_stable=(True, True, True),
              kernel_restriction_semistable=(True, False, True)),
         "pair.restriction_stable: component 2 requires pair.restriction_semistable"),
        (dict(kernel_restriction_stable=(False, True, False)),
         "pair.kernel_restriction_stable: component 2 requires "
         "pair.kernel_restriction_semistable"),
        (dict(h1_vanishes=(True, 1, False)), "pair.h1_vanishes: expected booleans, got 1"),
        (dict(h1_vanishes=[False, None]), "pair.h1_vanishes: expected booleans, got None"),
        (dict(h1_vanishes=(True, False)),
         "pair.h1_vanishes has length 2 but pair.multidegree has length 3"),
    ])
    def test_flag_refusal_texts(self, flags, text):
        with pytest.raises(ValidationError) as exc:
            GeneratedPairData(rank=2, sections=3, multidegree=(4, 1, 4), **flags)
        assert str(exc.value) == text


def flagged_pair(n: int) -> dict:
    """A pair scenario of ``n`` components with all seven flags given, mixed and consistent."""
    rng = random.Random(f"flags:{n}")
    semi, ksemi = ([rng.random() < 0.7 for _ in range(n)] for _ in range(2))
    pair = {"rank": 2, "sections": 5, "multidegree": [rng.randint(2, 9) for _ in range(n)],
            "restriction_semistable": semi, "kernel_restriction_semistable": ksemi,
            "restriction_stable": [s and rng.random() < 0.5 for s in semi],
            "kernel_restriction_stable": [s and rng.random() < 0.5 for s in ksemi]}
    for name in ("ker_rho_nonzero", "twisted_sections_nonzero", "h1_vanishes"):
        pair[name] = [rng.random() < 0.5 for _ in range(n)]
    return {"curve": {"genera": [rng.randint(2, 6) for _ in range(n)]},
            "subject": {"pair": pair}}


def line_events(fn, *args) -> int:
    """The Python ``line`` events of ``fn(*args)``: the same count for any
    chain length means no Python loop runs over the chain's indices."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return count


def test_parsing_a_flagged_pair_runs_no_line_per_component():
    short, long = (line_events(cli.parse_scenario, flagged_pair(n)) for n in (1000, 3000))
    assert short == long


class TestKernelNumerics:
    def test_two_components(self):
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        k = kernel_numerics(ChainCurve((2, 2)), pair)
        assert k.multirank == (2, 2)
        assert k.multidegree == (-6, -6)
        assert k.chi_components == (-8, -8)
        assert k.chi == -18 == (-8) + (-8) - 2 * 1

    def test_three_components(self):
        pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3))
        k = kernel_numerics(ChainCurve((2, 2, 2)), pair)
        assert k.multirank == (2, 2, 2)
        assert k.chi_components == (-5, -5, -5)
        assert k.chi == -19 == (-15) - 2 * 2

    def test_degree_zero_line_bundle_kernel(self):
        pair = GeneratedPairData(rank=1, sections=2, multidegree=(0, 0))
        k = kernel_numerics(ChainCurve((2, 2)), pair)
        assert k.multirank == (1, 1)
        assert k.chi_components == (-1, -1)
        assert k.chi == -3 == 1 - arithmetic_genus(ChainCurve((2, 2)))

    def test_length_mismatch(self):
        pair = GeneratedPairData(rank=1, sections=2, multidegree=(0, 0))
        with pytest.raises(ValidationError):
            kernel_numerics(ChainCurve((2, 2, 2)), pair)


class TestTwist:
    def test_kernel_twist(self):
        pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6))
        k = kernel_numerics(ChainCurve((2, 2)), pair)
        t = twist(k, LineBundleTwist((1, 1)))
        assert t.chi == -18 + 2 * 2 == -14
        assert t.chi == sum(t.chi_components) - 2 * 1
        # (k - r)(1 + deg L - p_a) - d, the closed form of the twisted kernel's chi
        assert t.chi == 2 * (1 + 2 - arithmetic_genus(ChainCurve((2, 2)))) - 12

    def test_identity_twist(self):
        s = SheafNumerics(ChainCurve((2, 3)), (2, 2), (5, -1))
        assert twist(s, LineBundleTwist.trivial(2)) == s

    def test_unbalanced_twist_of_line_bundle(self):
        s = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0))
        t = twist(s, LineBundleTwist((0, 4)))
        assert t.chi == 1
        assert t.chi_components == (-1, 3)

    def test_non_uniform_rejected(self):
        s = SheafNumerics(ChainCurve((2, 2)), (2, 1), (0, 0))
        with pytest.raises(UnsupportedData):
            twist(s, LineBundleTwist((1, 1)))


@given(curves(), st.integers(1, 4), st.data())
def test_gluing_identity_uniform_rank(curve, rank, data):
    degs = tuple(data.draw(st.integers(-30, 30)) for _ in range(curve.n))
    s = SheafNumerics(curve, (rank,) * curve.n, degs)
    for j in range(curve.n):
        assert s.chi_components[j] == degs[j] + rank * (1 - curve.genera[j])
    assert s.chi == sum(s.chi_components) - rank * (curve.n - 1)


@given(curves(), st.integers(1, 4), st.data())
def test_twist_round_trip(curve, rank, data):
    degs = tuple(data.draw(st.integers(-10, 10)) for _ in range(curve.n))
    line = LineBundleTwist(tuple(data.draw(st.integers(-6, 6)) for _ in range(curve.n)))
    s = SheafNumerics(curve, (rank,) * curve.n, degs)
    inverse = LineBundleTwist(tuple(-d for d in line.multidegree))
    assert twist(twist(s, line), inverse) == s


@given(curves(), st.integers(1, 3), st.integers(1, 4), st.data())
def test_kernel_chi_always_negative(curve, rank, extra, data):
    degs = tuple(data.draw(st.integers(0, 12)) for _ in range(curve.n))
    pair = GeneratedPairData(rank=rank, sections=rank + extra, multidegree=degs)
    k = kernel_numerics(curve, pair)
    assert k.chi < 0
    assert all(c < 0 for c in k.chi_components)


def test_randomized_gluing_identity_thousand():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(2, 6)
        curve = ChainCurve(tuple(rng.randint(2, 9) for _ in range(n)))
        r = rng.randint(1, 5)
        degs = tuple(rng.randint(-40, 40) for _ in range(n))
        s = SheafNumerics(curve, (r,) * n, degs)
        assert s.chi == sum(s.chi_components) - r * (n - 1)


def test_arbitrary_precision_integers():
    g = 10 ** 12
    curve = ChainCurve((g, g + 1))
    pair = GeneratedPairData(rank=1, sections=2, multidegree=(10 ** 15, 0))
    k = kernel_numerics(curve, pair)
    assert k.chi == (1 - (2 * g + 1)) - 10 ** 15
    assert k.chi == sum(k.chi_components) - 1


@settings(max_examples=150, deadline=None)
@given(curves(), st.integers(1, 4), st.integers(1, 4), st.data())
def test_derived_chi_matches_closed_forms(curve, rank, extra, data):
    """The closed forms that SheafNumerics replaced, kept as oracles: the
    kernel, its twists and the generated bundle E, and no chi (so every
    command refuses) for a non-uniform multirank."""
    n, p_a = curve.n, arithmetic_genus(curve)
    degs = tuple(data.draw(st.integers(0, 12)) for _ in range(n))
    pair = GeneratedPairData(rank=rank, sections=rank + extra, multidegree=degs)
    m, d = pair.kernel_rank, pair.total_degree
    k = kernel_numerics(curve, pair)
    assert k.chi_components == tuple(m * (1 - g) - dj for g, dj in zip(curve.genera, degs))
    assert k.chi == m * (1 - p_a) - d

    line = LineBundleTwist(tuple(data.draw(st.integers(-6, 6)) for _ in range(n)))
    t = twist(k, line)
    assert t.chi_components == tuple(c + m * tj
                                     for c, tj in zip(k.chi_components, line.multidegree))
    assert t.chi == k.chi + m * line.total_degree

    assert SheafNumerics(curve, (rank,) * n, degs).chi == d + rank * (1 - p_a)

    ranks = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                      .filter(lambda rs: len(set(rs)) > 1))
    assert SheafNumerics(curve, ranks, degs).chi is None
    scenario = {"curve": {"genera": list(curve.genera)},
                "subject": {"sheaf": {"multirank": ranks, "multidegree": list(degs)}}}
    if data.draw(st.booleans()):
        scenario["twist"] = {"multidegree": list(line.multidegree)}
    scn = cli.parse_scenario(scenario)
    for command in (cli.cmd_check, cli.cmd_polarize, lambda s: cli.cmd_oracle(s, n, 0)):
        with pytest.raises(UnsupportedData):
            command(scn)
