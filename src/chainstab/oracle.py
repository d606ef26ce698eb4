"""Brute-force cross-validation of the feasibility engine.

Checks the subject's weight system on every polarization with a fixed
common denominator D (integer compositions of D into n positive parts),
independently of the interval sweep.  The grid is walked level by level:
the cut c_i = D*S_i is placed within the integer range that the i-th
interval of the system's ``IntervalChain`` allows, so the walk visits
only points that meet every interval, in lexicographic order.  The
subject (a sheaf or a pair, twisted when a twist is given) and its chain
come from ``feasibility.weight_system``, as for ``check`` and
``polarize``; the walk reads the chain, as ``simplex_intersect`` does,
and states no inequality of its own.

For a pair meeting the twist-independent instability condition, the
component-supported subsheaves, whose bounds ``WeightBound.admits`` tests
at a weight, destabilize the kernel at every grid point and every sampled
twist.  That follows from one integer identity (see
``stability._all_twists``), which is checked on the subject's own numbers
in O(n) steps: nothing is enumerated per twist, and the
C(D-1, n-1) * (2B+1)^n grid/twist pairs are reported as checks the
identity decides.  The work a run may do is estimated up front, exactly
up to a cap, and refused above ``ORACLE_WORK_LIMIT``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence

from .curve_model import ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics
from .errors import InternalInvariantError, ValidationError
from .feasibility import (FEASIBLE, IntervalChain, Polarization, WeightBound, _ratio,
                          _subsheaf_chi, declared_bounds, simplex_intersect, weight_system)
from .record import Record

# Most work units (grid points plus destabilizer checks) one cross-validation
# may do.  Units count every point of the grid, C(D-1, n-1), and every point
# of every sampled twist, although the level-by-level walk visits only the
# points that meet the inequalities and the grid/twist checks are all
# decided by one O(n) identity, with nothing enumerated per twist: the
# estimate bounds the work from above rather than measuring its cost.
ORACLE_WORK_LIMIT = 10**7
# Work estimates are exact up to this many units and print as "more than" it beyond.
_WORK_CAP = 10**18


class GridSpec(Record):
    """All polarizations with weights a_j / denominator, a_j >= 1 integers."""

    __slots__ = ("denominator", "n")

    def __init__(self, denominator: int, n: int):
        if isinstance(denominator, bool) or not isinstance(denominator, int):
            raise ValidationError("denominator must be an integer")
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ValidationError("grid needs at least two components")
        if denominator < n:
            raise ValidationError(
                f"denominator {denominator} < {n}: no strictly positive composition exists")
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "n", n)


def _cut_ranges(chain: IntervalChain, d: int) -> tuple[list[int], list[int]]:
    """Least and greatest cut c_i = D*S_i allowed at each level i = 1..n-1
    (index 0 unused); a level that admits no cut has greatest < least.

    Level i keeps the integers c with c / D in the chain's i-th interval,
    within i <= c <= D-(n-i): a closed lower end lo / den gives
    c >= ceil(lo*D/den), an open one c >= floor(lo*D/den) + 1, the upper
    ends likewise, and an unbounded end no bound.  Each greatest cut is
    then lowered below the next level's, so every cut in range extends to
    a full grid point.
    """
    n, den = len(chain.lower) + 1, chain.den
    first, last = [0] * n, [0] * n
    for i, lo, lo_open, hi, hi_open in zip(range(1, n), chain.lower, chain.lower_open,
                                           chain.upper, chain.upper_open):
        a, b = i, d - (n - i)
        if lo is not None:
            a = max(a, lo * d // den + 1 if lo_open else -(-lo * d // den))
        if hi is not None:
            b = min(b, -(-hi * d // den) - 1 if hi_open else hi * d // den)
        first[i], last[i] = a, b
    for i in range(n - 2, 0, -1):
        last[i] = min(last[i], last[i + 1] - 1)
    return first, last


def brute_force_region(intervals: IntervalChain, spec: GridSpec,
                       bounds: Sequence[WeightBound] = ()) -> list[Polarization]:
    """Grid points meeting every interval of the chain (and any weight bounds).

    Places the cuts c_i = D*S_i level by level, each within the integer range
    the chain's i-th interval allows (``_cut_ranges``), so every cut placed
    extends to a point inside every interval.  A bound on w_j is tested as
    soon as c_j is placed, one on w_n at the last level.  Points come in the
    lexicographic order of their cuts, and survivors are re-asserted with
    ``IntervalChain.admits``.
    """
    n, d = spec.n, spec.denominator
    if n != len(intervals.lower) + 1:
        raise ValidationError(f"grid has {n} components, chain needs {len(intervals.lower) + 1}")
    at = [[] for _ in range(n + 1)]   # at[j]: the bounds on w_j
    for b in bounds:
        if b.index > n:
            raise ValidationError(f"bound index {b.index} out of range 1..{n}")
        at[b.index].append(b)
    first, last = _cut_ranges(intervals, d)

    survivors = []
    cuts = [0] * n + [d]   # c_0 = 0 and c_n = D frame the cuts c_1..c_{n-1}
    level = 1
    cuts[1] = first[1] - 1
    while level:
        c = cuts[level] + 1
        if c > last[level]:
            level -= 1
            continue
        cuts[level] = c
        if at[level] and not all(b.admits(c - cuts[level - 1], d) for b in at[level]):
            continue
        if level < n - 1:
            level += 1
            cuts[level] = max(first[level], c + 1) - 1
        elif all(b.admits(d - c, d) for b in at[n]):
            survivors.append(Polarization([hi - lo for lo, hi in zip(cuts, cuts[1:])], d))
    for w in survivors:
        if not intervals.admits(w):
            raise InternalInvariantError("integer grid walk disagreed with the exact check")
    return survivors


class ValidationReport(namedtuple("ValidationReport", "region_status grid_count agreement "
                                  "discrepancies witness_checks notes", defaults=((),))):
    """Outcome of one cross-validation run; discrepancies are data, not errors.

    ``witness_checks`` counts the grid/twist pairs the destabilizer identity
    decides; none of them can fail.

    Fields::

        region_status: str
        grid_count: int
        agreement: bool
        discrepancies: tuple[str, ...]
        witness_checks: int
        notes: tuple[str, ...] = ()
    """

    __slots__ = ()


def _sweeps_twists(pair: Optional[GeneratedPairData]) -> bool:
    """Whether ``cross_validate`` decides destabilizers for every grid point and twist."""
    return pair is not None and all(pair.ker_rho_nonzero) and pair.degree_ratio_exceeds()


def _grid_count(grid: GridSpec) -> int:
    """C(D-1, n-1), the points of the grid, or ``_WORK_CAP + 1`` if more.

    Multiplied out term by term, C(D-1-k+i, i) for i = 1..k with
    k = min(n-1, D-n), so it costs at most k steps whatever the size of D;
    the terms never decrease, so the first one past the cap settles it.
    """
    top, k = grid.denominator - 1, min(grid.n - 1, grid.denominator - grid.n)
    count = 1
    for i in range(1, k + 1):
        count = count * (top - k + i) // i
        if count > _WORK_CAP:
            return _WORK_CAP + 1
    return count


def work_estimate(grid: GridSpec, pair: Optional[GeneratedPairData] = None,
                  twist_range: int = 3) -> int:
    """Work units ``cross_validate`` may do: grid points, plus one destabilizer
    check per grid point and sampled twist when the all-twists condition holds.

    Both terms bound the work rather than measure it: the grid walk visits
    only points meeting the inequalities, and one O(n) identity decides
    every check, with nothing enumerated per twist.  The checks term,
    C(D-1, n-1) * (2B+1)^n, is the count of checks decided that
    ``cross_validate`` reports as ``witness_checks``.

    The twist count (2B+1)^n is only multiplied in while the grid alone is
    within ``ORACLE_WORK_LIMIT``, and only as far as ``_WORK_CAP``: the
    estimate is exact up to that cap and ``_WORK_CAP + 1`` beyond it.
    """
    work = _grid_count(grid)
    if work <= ORACLE_WORK_LIMIT and _sweeps_twists(pair):
        checks = work
        for _ in range(grid.n):
            checks *= 2 * twist_range + 1
            if checks > _WORK_CAP:
                break
        work += checks
    return min(work, _WORK_CAP + 1)


def cross_validate(curve: ChainCurve, grid: GridSpec,
                   subject: SheafNumerics | GeneratedPairData,
                   line: Optional[LineBundleTwist] = None,
                   twist_range: int = 3) -> ValidationReport:
    """Compare the sweep's verdict with grid enumeration, and check destabilizers.

    The subject is a sheaf, or the kernel of a pair, twisted by ``line``;
    its weight system (with a pair's declared subsheaf bounds) is decided
    both by the sweep and on the grid.  Agreement rules: a non-empty grid
    requires a feasible region; a feasible region whose witness denominator
    divides the grid denominator requires the witness to appear among the
    grid points.  For scenarios meeting the twist-independent instability
    condition, a destabilizer must exist for every grid polarization and
    every sampled twist: the subject's numbers must meet the identity
    m * sum_k numer_k - chi = d - (n-1)m of ``stability._all_twists``, whose
    positive right side leaves no grid/twist pair without one.  The twist
    cancels from the identity, so the (twisted) subject of the weight system
    stands for every twist.  A run whose ``work_estimate`` exceeds
    ``ORACLE_WORK_LIMIT`` is refused before it starts.
    """
    pair = subject if isinstance(subject, GeneratedPairData) else None
    if isinstance(twist_range, bool) or not isinstance(twist_range, int):
        raise ValidationError(f"twist range must be an integer, got {twist_range!r}")
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
    system = weight_system(curve, subject, line)
    declared = declared_bounds(system)
    region = simplex_intersect(system.intervals, declared)
    grid_points = brute_force_region(system.intervals, grid, declared)
    notes = []
    discrepancies = []
    if grid_points and region.status != FEASIBLE:
        discrepancies.append(
            f"sweep reports {region.status} but {len(grid_points)} grid points satisfy "
            f"the system, first {[_ratio(a, grid_points[0].den) for a in grid_points[0].nums]}")
    if region.status == FEASIBLE:
        wit = region.witness
        if grid.denominator % wit.den == 0:
            if wit not in grid_points:
                discrepancies.append(
                    f"feasible witness {[_ratio(a, wit.den) for a in wit.nums]} has denominator "
                    f"dividing {grid.denominator} but is missing from the grid")
        elif not grid_points:
            notes.append("region feasible but its witness denominator does not divide "
                         "the grid denominator; empty grid is not conclusive")

    witness_checks = 0
    if _sweeps_twists(pair):
        m = pair.kernel_rank
        witness_checks = _grid_count(grid) * (2 * twist_range + 1) ** curve.n
        degs = system.line.multidegree
        excess = m * sum([_subsheaf_chi(curve, j, degs[j - 1])
                          for j in range(1, curve.n + 1)]) - system.subject.chi
        expected = pair.total_degree - (curve.n - 1) * m
        if excess != expected:
            discrepancies.append(
                f"destabilizer identity fails: m * sum of subsheaf chi - chi = {excess}, "
                f"but d - (n-1)m = {expected}")

    return ValidationReport(region_status=region.status,
                            grid_count=len(grid_points),
                            agreement=not discrepancies,
                            discrepancies=tuple(discrepancies),
                            witness_checks=witness_checks,
                            notes=tuple(notes))
