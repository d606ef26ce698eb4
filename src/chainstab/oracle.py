"""Brute-force cross-validation of the feasibility engine.

Enumerates every polarization with a fixed common denominator D (integer
compositions of D into n positive parts) and checks the subject's weight
system pointwise, independently of the interval sweep.  The subject (a
sheaf or a pair's kernel, twisted when a twist is given) and its system
come from ``feasibility.weight_system``, as for ``check`` and ``polarize``.
Also sweeps the known family of component-supported destabilizing
subsheaves over grids of polarizations and twists to corroborate
twist-independent instability verdicts.  The work a run will do is
estimated up front and refused above ``ORACLE_WORK_LIMIT``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          kernel_numerics, kernel_twisted_chi, validate_pair)
from .errors import InternalInvariantError, UnsupportedData, ValidationError
from .feasibility import (FEASIBLE, Polarization, WeightBound, check_bigas, simplex_intersect,
                          weight_system)

# Most work units (grid points plus destabilizer checks) one cross-validation
# may do; at a few microseconds per unit this is well under a minute.
ORACLE_WORK_LIMIT = 10**7
# Work estimates are exact up to this many units and print as "more than" it beyond.
_WORK_CAP = 10**18


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


def _parts(cuts: tuple[int, ...], d: int) -> list[int]:
    """Composition parts a_1..a_n of ``d`` from the cut positions 0 < c_1 < ... < d."""
    return [hi - lo for lo, hi in zip((0,) + cuts, cuts + (d,))]


def enumerate_polarizations(spec: GridSpec) -> Iterator[Polarization]:
    """Yield every composition of the denominator into n positive parts.

    Deterministic lexicographic order by cut positions; fractions reduce
    automatically, so the count is exactly C(D-1, n-1).
    """
    d = spec.denominator
    for cuts in itertools.combinations(range(1, d), spec.n - 1):
        yield Polarization(tuple(Fraction(a, d) for a in _parts(cuts, d)))


def _admits(bound: WeightBound, a: int, d: int) -> bool:
    """Whether the weight a/d meets ``bound``, by integer cross-multiplication."""
    num, den = bound.upper.numerator, bound.upper.denominator
    if bound.complement:
        # a/d >= 1 - num/den
        lhs, rhs = (den - num) * d, a * den
    else:
        # a/d <= num/den
        lhs, rhs = a * den, num * d
    return lhs < rhs if bound.open else lhs <= rhs


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
        parts = _parts(cuts, d)
        if all(_admits(b, parts[b.index - 1], d) for b in bounds):
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


def _sweeps_twists(pair: Optional[GeneratedPairData]) -> bool:
    """Whether ``cross_validate`` runs the destabilizer sweep over all sampled twists."""
    return pair is not None and all(pair.ker_rho_nonzero) and pair.degree_ratio_exceeds()


def work_estimate(grid: GridSpec, pair: Optional[GeneratedPairData] = None,
                  twist_range: int = 3) -> int:
    """Work units ``cross_validate`` will do: grid points, plus one destabilizer
    check per grid point and sampled twist when the sweep runs.

    The twist count (2B+1)^n is only multiplied in while the grid alone is
    within ``ORACLE_WORK_LIMIT``, and only as far as ``_WORK_CAP``: the
    estimate is exact up to that cap and ``_WORK_CAP + 1`` beyond it.
    """
    work = grid.count
    if work <= ORACLE_WORK_LIMIT and _sweeps_twists(pair):
        checks = work
        for _ in range(grid.n):
            checks *= 2 * twist_range + 1
            if checks > _WORK_CAP:
                break
        work += checks
    return min(work, _WORK_CAP + 1)


def cross_validate(curve: ChainCurve, grid: GridSpec, sheaf: Optional[SheafNumerics] = None,
                   pair: Optional[GeneratedPairData] = None,
                   line: Optional[LineBundleTwist] = None,
                   twist_range: int = 3) -> ValidationReport:
    """Compare the sweep's verdict with grid enumeration, and sweep destabilizers.

    The subject is ``sheaf``, or the kernel of ``pair``, twisted by ``line``;
    its weight system (with a pair's declared subsheaf bounds) is decided
    both by the sweep and on the grid.  Agreement rules: a non-empty grid
    requires a feasible region; a feasible region whose witness denominator
    divides the grid denominator requires the witness to appear among the
    grid points.  For scenarios meeting the twist-independent instability
    condition, a destabilizer must exist for every grid polarization and
    every sampled twist.  A run whose ``work_estimate`` exceeds
    ``ORACLE_WORK_LIMIT`` is refused before it starts.
    """
    if (sheaf is None) == (pair is None):
        raise ValidationError("provide exactly one of sheaf or pair")
    if twist_range < 0:
        raise ValidationError(f"twist range must be non-negative, got {twist_range}")
    if grid.n != curve.n:
        raise ValidationError(f"grid has {grid.n} components, curve has {curve.n}")
    work = work_estimate(grid, pair, twist_range)
    if work > ORACLE_WORK_LIMIT:
        shown = f"more than {_WORK_CAP}" if work > _WORK_CAP else str(work)
        raise ValidationError(
            f"oracle work estimate {shown} units (grid points plus destabilizer checks) "
            f"exceeds the limit {ORACLE_WORK_LIMIT}; lower the grid denominator or "
            "the twist range")
    system = weight_system(curve, sheaf if sheaf is not None else kernel_numerics(curve, pair),
                           line, pair)
    region = simplex_intersect(system.intervals, system.declared)
    grid_points = brute_force_region(system.subject, grid, system.declared)
    notes = []
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
    if _sweeps_twists(pair):
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
