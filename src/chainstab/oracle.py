"""Brute-force cross-validation of the feasibility engine.

Enumerates every polarization with a fixed common denominator D (integer
compositions of D into n positive parts) and checks the exact inequality
systems pointwise, independently of the interval sweep.  Also sweeps the
known family of component-supported destabilizing subsheaves over grids of
polarizations and twists to corroborate twist-independent instability
verdicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          kernel_numerics, kernel_twisted_chi, twist, validate_pair)
from .errors import InternalInvariantError, UnsupportedData, ValidationError
from .feasibility import (FEASIBLE, Polarization, WeightBound, bigas_intervals, check_bigas,
                          find_polarization, simplex_intersect, subsheaf_slope_constraints)


@dataclass(frozen=True)
class GridSpec:
    """All polarizations with weights a_j / denominator, a_j >= 1 integers."""

    denominator: int
    n: int

    def __post_init__(self):
        if isinstance(self.denominator, bool) or not isinstance(self.denominator, int):
            raise ValidationError("denominator must be an integer")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 2:
            raise ValidationError("grid needs at least two components")
        if self.denominator < self.n:
            raise ValidationError(
                f"denominator {self.denominator} < {self.n}: no strictly positive "
                "composition exists")

    @property
    def count(self) -> int:
        return math.comb(self.denominator - 1, self.n - 1)


def enumerate_polarizations(spec: GridSpec) -> Iterator[Polarization]:
    """Yield every composition of the denominator into n positive parts.

    Deterministic lexicographic order by cut positions; fractions reduce
    automatically, so the count is exactly C(D-1, n-1).
    """
    d, n = spec.denominator, spec.n
    for cuts in itertools.combinations(range(1, d), n - 1):
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(d - prev)
        yield Polarization(tuple(Fraction(a, d) for a in parts))


def _bound_tests(bounds: Sequence[WeightBound], d: int):
    """Compile weight bounds into integer predicates on composition parts."""
    tests = []
    for b in bounds:
        num, den = b.upper.numerator, b.upper.denominator
        if b.complement:
            # a_j / d >= (den - num) / den
            rhs = (den - num) * d
            if b.open:
                tests.append(lambda parts, i=b.index - 1, r=rhs, dn=den: parts[i] * dn > r)
            else:
                tests.append(lambda parts, i=b.index - 1, r=rhs, dn=den: parts[i] * dn >= r)
        else:
            rhs = num * d
            if b.open:
                tests.append(lambda parts, i=b.index - 1, r=rhs, dn=den: parts[i] * dn < r)
            else:
                tests.append(lambda parts, i=b.index - 1, r=rhs, dn=den: parts[i] * dn <= r)
    return tests


def brute_force_region(sheaf: SheafNumerics, spec: GridSpec,
                       bounds: Sequence[WeightBound] = ()) -> list[Polarization]:
    """Grid points satisfying the slope inequalities (and any weight bounds).

    The inner loop multiplies everything by the common denominator and works
    in integers; survivors are re-asserted with the exact rational check.
    """
    m = sheaf.uniform_rank()
    if m is None or m < 1:
        raise UnsupportedData("grid filtering requires uniform positive multirank")
    if spec.n != sheaf.n:
        raise ValidationError(f"grid has {spec.n} components, sheaf has {sheaf.n}")
    chi = sheaf.require_chi()
    d = spec.denominator
    lo_consts = []
    hi_consts = []
    part = 0
    for i in range(1, sheaf.n):
        part += sheaf.chi_components[i - 1]
        lo_consts.append((part - m * i) * d)
        hi_consts.append((part - m * (i - 1)) * d)
    tests = _bound_tests(bounds, d)

    survivors = []
    for cuts in itertools.combinations(range(1, d), spec.n - 1):
        ok = True
        for a, lo, hi in zip(cuts, lo_consts, hi_consts):
            t = a * chi
            if not lo <= t <= hi:
                ok = False
                break
        if not ok:
            continue
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(d - prev)
        if all(t(parts) for t in tests):
            survivors.append(Polarization(tuple(Fraction(a, d) for a in parts)))
    for w in survivors:
        if not check_bigas(sheaf, w):
            raise InternalInvariantError("integer grid filter disagreed with the exact check")
    return survivors


@dataclass(frozen=True)
class DestabilizerWitness:
    """A component subsheaf whose slope strictly exceeds the subject's slope."""

    component: int
    subsheaf_slope: Fraction
    target_slope: Fraction

    def __post_init__(self):
        if not self.subsheaf_slope > self.target_slope:
            raise ValidationError("a destabilizer must strictly exceed the target slope")


def destabilizer_witness(curve: ChainCurve, pair: GeneratedPairData, w: Polarization,
                         line: LineBundleTwist) -> Optional[DestabilizerWitness]:
    """First component whose twisted kernel subsheaf destabilizes under ``w``.

    For each component j with a non-zero restriction kernel, the subsheaf
    slope is (deg L_j - delta_j + 1 - g_j) / w_j; the target is the twisted
    kernel's own slope.  Components are scanned in increasing order so the
    output is deterministic.
    """
    validate_pair(curve, pair)
    if w.n != curve.n or line.n != curve.n:
        raise ValidationError("polarization and twist must match the curve's components")
    m = pair.kernel_rank
    target = Fraction(kernel_twisted_chi(curve, pair, line), m)
    for j in range(1, curve.n + 1):
        if not pair.ker_rho_nonzero[j - 1]:
            continue
        numer = line.multidegree[j - 1] - curve.node_count(j) + 1 - curve.genera[j - 1]
        s = Fraction(numer) / w.weights[j - 1]
        if s > target:
            return DestabilizerWitness(j, s, target)
    return None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one cross-validation run; discrepancies are data, not errors."""

    region_status: str
    grid_count: int
    agreement: bool
    discrepancies: tuple[str, ...]
    witness_checks: int
    witness_failures: tuple[tuple[Polarization, LineBundleTwist], ...]
    notes: tuple[str, ...] = ()


def _twist_sample(n: int, twist_range: int) -> list[LineBundleTwist]:
    span = range(-twist_range, twist_range + 1)
    return [LineBundleTwist(degs) for degs in itertools.product(span, repeat=n)]


def cross_validate(curve: ChainCurve, grid: GridSpec, sheaf: Optional[SheafNumerics] = None,
                   pair: Optional[GeneratedPairData] = None,
                   line: Optional[LineBundleTwist] = None,
                   twist_range: int = 3) -> ValidationReport:
    """Compare the sweep's verdict with grid enumeration, and sweep destabilizers.

    Agreement rules: a non-empty grid requires a feasible region; a feasible
    region whose witness denominator divides the grid denominator requires
    the witness to appear among the grid points.  For scenarios meeting the
    twist-independent instability condition, a destabilizer must exist for
    every grid polarization and every sampled twist.
    """
    if (sheaf is None) == (pair is None):
        raise ValidationError("provide exactly one of sheaf or pair")
    if twist_range < 0:
        raise ValidationError(f"twist range must be non-negative, got {twist_range}")
    notes = []
    if pair is not None:
        validate_pair(curve, pair)
        twist_line = line if line is not None else LineBundleTwist.trivial(curve.n)
        subject = twist(kernel_numerics(curve, pair), twist_line)
        target = Fraction(subject.chi, pair.kernel_rank)
        bounds = subsheaf_slope_constraints(curve, pair, twist_line, target)
        region = simplex_intersect(bigas_intervals(subject), bounds)
    else:
        subject = sheaf
        bounds = ()
        region = find_polarization(subject)
    if grid.n != curve.n:
        raise ValidationError(f"grid has {grid.n} components, curve has {curve.n}")

    grid_points = brute_force_region(subject, grid, bounds)
    discrepancies = []
    if grid_points and region.status != FEASIBLE:
        discrepancies.append(
            f"sweep reports {region.status} but {len(grid_points)} grid points satisfy "
            f"the system, first {[str(x) for x in grid_points[0].weights]}")
    if region.status == FEASIBLE:
        wit = region.witness
        den = math.lcm(*(w.denominator for w in wit.weights))
        if grid.denominator % den == 0:
            if wit not in grid_points:
                discrepancies.append(
                    f"feasible witness {[str(x) for x in wit.weights]} has denominator "
                    f"dividing {grid.denominator} but is missing from the grid")
        elif not grid_points:
            notes.append("region feasible but its witness denominator does not divide "
                         "the grid denominator; empty grid is not conclusive")

    witness_checks = 0
    failures = []
    if (pair is not None and all(pair.ker_rho_nonzero)
            and Fraction(pair.total_degree, pair.kernel_rank) > curve.n - 1):
        polarizations = list(enumerate_polarizations(grid))
        for tw in _twist_sample(curve.n, twist_range):
            for w in polarizations:
                witness_checks += 1
                if destabilizer_witness(curve, pair, w, tw) is None:
                    failures.append((w, tw))
        if failures:
            discrepancies.append(
                f"{len(failures)} grid/twist pairs admit no destabilizer")

    return ValidationReport(region_status=region.status,
                            grid_count=len(grid_points),
                            agreement=not discrepancies,
                            discrepancies=tuple(discrepancies),
                            witness_checks=witness_checks,
                            witness_failures=tuple(failures),
                            notes=tuple(notes))
