"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is exact (integer or reduced-fraction equality); the only
numeric budgets are the stated wall-clock limits, asserted per criterion.
"""

import json
import math
import random
import time
from fractions import Fraction

from chainstab import cli
from chainstab.curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist,
                                   SheafNumerics, kernel_numerics, twist)
from chainstab.feasibility import (FEASIBLE, WeightBound, bigas_intervals,
                                   declared_bounds, simplex_intersect, weight_system)
from chainstab.oracle import GridSpec, brute_force_region, cross_validate
from chainstab.stability import analyze, k_bound_check
from reference import cert_bound, weights

F = Fraction


def report_pass(num, slug, elapsed):
    print(f"ACCEPTANCE {num} [{slug}]: PASS ({elapsed:.3f}s)")


def test_criterion_1_unbalanced_line_bundle(tmp_path, capsys):
    # genera (2,2), line bundle multidegree (0, g1+g2) = (0,4): strongly
    # unstable with chi = 1 and a certificate equivalent to "w_1 < 0"
    path = tmp_path / "line_bundle.json"
    path.write_text(json.dumps(
        {"curve": {"genera": [2, 2]},
         "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 4]}}}))
    start = time.perf_counter()
    rc = cli.main(["check", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["sheaf"]["chi"] == 1
    assert payload["verdict"]["kind"] == "strongly_unstable"
    cert = payload["verdict"]["certificate"]
    # S_1 = w_1 must exceed 0 strictly yet stay at or below -1: w_1 < 0
    assert cert["quantity"] == "S_1"
    assert cert["lower"] == "0/1" and cert["lower_open"] is True
    assert cert["upper"] == "-1/1" and cert["upper_open"] is False
    assert cert["verified"] is True
    assert elapsed < 0.1
    with capsys.disabled():
        report_pass(1, "unbalanced-line-bundle", elapsed)


def test_criterion_2_trivial_bundle_polarization(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(
        {"curve": {"genera": [2, 2]},
         "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 0]}}}))
    rc = cli.main(["polarize", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["region"]["status"] == "feasible"
    assert payload["region"]["s_intervals"] == [
        {"lower": "1/3", "lower_open": False, "upper": "2/3", "upper_open": False}]
    assert payload["region"]["witness"] == ["1/2", "1/2"]

    sheaf = SheafNumerics(ChainCurve((2, 2)), (1, 1), (0, 0))
    grid = brute_force_region(bigas_intervals(sheaf), GridSpec(12, 2))
    assert [weights(w)[0] for w in grid] == \
        [F(4, 12), F(5, 12), F(6, 12), F(7, 12), F(8, 12)]
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_pass(2, "trivial-bundle-polarization", elapsed)


def test_criterion_3_constructive_polarization_property(capsys):
    # 1000 random uniform-rank inputs with every chi_j < 0: always feasible,
    # every witness exact and strictly inside the simplex
    rng = random.Random(101)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        curve = ChainCurve(tuple(rng.randint(2, 8) for _ in range(n)))
        m = rng.randint(1, 4)
        degs = tuple(rng.randint(-30, m * (g - 1) - 1) for g in curve.genera)
        sheaf = SheafNumerics(curve, (m,) * n, degs)
        assert sheaf.chi < 0 and all(c < 0 for c in sheaf.chi_components)
        region = simplex_intersect(bigas_intervals(sheaf))
        if region.status != FEASIBLE:
            failures += 1
            continue
        w = region.witness
        if not (bigas_intervals(sheaf).admits(w) and sum(weights(w)) == 1
                and all(0 < x < 1 for x in weights(w))):
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 5.0
    with capsys.disabled():
        report_pass(3, "constructive-polarization-property", elapsed)


def test_criterion_4_gluing_identities(capsys):
    # 1000 random pairs: kernel identities and twist round-trip hold exactly
    rng = random.Random(202)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        curve = ChainCurve(tuple(rng.randint(2, 9) for _ in range(n)))
        r = rng.randint(1, 4)
        k = r + rng.randint(1, 5)
        degs = tuple(rng.randint(0, 20) for _ in range(n))
        pair = GeneratedPairData(rank=r, sections=k, multidegree=degs)
        kernel = kernel_numerics(curve, pair)
        m = k - r
        if kernel.chi != sum(kernel.chi_components) - m * (n - 1):
            failures += 1
        if any(c != m * (1 - g) - d
               for c, g, d in zip(kernel.chi_components, curve.genera, degs)):
            failures += 1
        line = LineBundleTwist(tuple(rng.randint(-5, 5) for _ in range(n)))
        inverse = LineBundleTwist(tuple(-t for t in line.multidegree))
        if twist(twist(kernel, line), inverse) != kernel:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    with capsys.disabled():
        report_pass(4, "gluing-identities", elapsed)


def test_criterion_5_endpoint_infeasibility(capsys):
    start = time.perf_counter()
    curve = ChainCurve((2, 2))
    pair = GeneratedPairData(rank=1, sections=3, multidegree=(6, 6),
                             twisted_sections_nonzero=(True, False),
                             restriction_semistable=(True, False),
                             ker_rho_nonzero=(True, False))
    report = analyze(curve, pair)
    assert report.verdict.kind == "strongly_unstable"
    assert report.verdict.criterion == "endpoint-degree-excess"
    cert = report.verdict.certificate
    assert cert_bound(cert, "lower") == F(8, 18)
    assert cert_bound(cert, "upper") == F(4, 18)
    assert cert.verify()

    system = weight_system(curve, pair)
    bounds = declared_bounds(system)
    assert bounds == [WeightBound(1, 4, 18, label="subsheaf slope bound")]   # w_1 <= 2/9
    engine_cert = simplex_intersect(system.intervals, bounds).certificate
    assert cert_bound(engine_cert, "lower") == F(8, 18)
    assert cert_bound(engine_cert, "upper") == F(4, 18)
    for d in range(2, 61):
        assert brute_force_region(system.intervals, GridSpec(d, 2), bounds) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    with capsys.disabled():
        report_pass(5, "endpoint-infeasibility", elapsed)


def test_criterion_6_all_twists_sweep(capsys):
    start = time.perf_counter()
    curve = ChainCurve((2, 2, 2))
    pair = GeneratedPairData(rank=2, sections=4, multidegree=(3, 3, 3),
                             ker_rho_nonzero=(True, True, True))
    report = cross_validate(curve, GridSpec(24, 3), pair, twist_range=3)
    elapsed = time.perf_counter() - start
    assert report.witness_checks == 343 * 253 == 86779
    assert report.agreement
    assert cli.cmd_oracle(cli.Scenario(curve, pair, None), 24, 3)["discrepancies"] == []
    assert elapsed < 30.0
    with capsys.disabled():
        report_pass(6, "all-twists-sweep", elapsed)


def test_criterion_7_section_count_bound(capsys):
    # 500 random inputs meeting the preconditions, covering all three proof
    # cases at least 50 times each; the bound is strictly below d + r always
    rng = random.Random(303)
    start = time.perf_counter()
    cases = {"clifford": 0, "riemann_roch": 0, "mixed": 0}
    for _ in range(500):
        n = rng.randint(2, 4)
        curve = ChainCurve(tuple(rng.randint(2, 5) for _ in range(n)))
        r = rng.randint(1, 3)
        style = rng.choice(("clifford", "riemann_roch", "mixed"))
        degs = []
        for j, g in enumerate(curve.genera):
            ceiling = r * (2 * g - 2)
            if style == "clifford":
                degs.append(rng.randint(0, ceiling))
            elif style == "riemann_roch":
                degs.append(rng.randint(ceiling + 1, ceiling + 8))
            else:
                in_range = j == 0 or (j > 1 and rng.random() < 0.5)
                degs.append(rng.randint(0, ceiling) if in_range
                            else rng.randint(ceiling + 1, ceiling + 8))
        if all(d == 0 for d in degs):
            degs[0] = 1
        pair = GeneratedPairData(rank=r, sections=r + rng.randint(1, 4),
                                 multidegree=tuple(degs),
                                 restriction_semistable=(True,) * n)
        res = k_bound_check(curve, pair)
        assert res.bound < pair.total_degree + pair.rank
        methods = set(res.methods)
        if methods == {"clifford"}:
            cases["clifford"] += 1
        elif methods == {"riemann_roch_h1_zero"}:
            cases["riemann_roch"] += 1
        else:
            cases["mixed"] += 1
    elapsed = time.perf_counter() - start
    assert all(count >= 50 for count in cases.values()), cases
    with capsys.disabled():
        report_pass(7, f"section-count-bound {cases}", elapsed)


def test_criterion_8_oracle_emptiness_agreement(capsys):
    # 200 random uniform-rank sheaves of either chi sign: sweep emptiness and
    # grid emptiness agree at denominator 40 (up to the witness-denominator
    # proviso), with zero discrepancies
    rng = random.Random(404)
    start = time.perf_counter()
    discrepancies = 0
    feasible_seen = 0
    infeasible_seen = 0
    for _ in range(200):
        n = rng.choice((2, 2, 3, 3, 3, 4))
        curve = ChainCurve(tuple(rng.randint(2, 4) for _ in range(n)))
        m = rng.randint(1, 3)
        degs = tuple(rng.randint(-8, 8) for _ in range(n))
        sheaf = SheafNumerics(curve, (m,) * n, degs)
        region = simplex_intersect(bigas_intervals(sheaf))
        grid = brute_force_region(bigas_intervals(sheaf), GridSpec(40, n))
        if grid and region.status != FEASIBLE:
            discrepancies += 1
        if region.status == FEASIBLE:
            feasible_seen += 1
            q = math.lcm(*(w.denominator for w in weights(region.witness)))
            if 40 % q == 0 and region.witness not in grid:
                discrepancies += 1
        else:
            infeasible_seen += 1
            if grid:
                discrepancies += 1
    elapsed = time.perf_counter() - start
    assert discrepancies == 0
    assert feasible_seen > 20 and infeasible_seen > 20
    assert elapsed < 20.0
    with capsys.disabled():
        report_pass(8, "oracle-emptiness-agreement", elapsed)
