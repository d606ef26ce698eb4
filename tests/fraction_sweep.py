"""Reference sweep: the Fraction implementation of ``simplex_intersect``.

This is the forward/backward sweep that ``chainstab.feasibility`` used
before it decided systems in integers over a common denominator, kept
verbatim as a test-only reference: every rational is a ``Fraction``, every
candidate bound carries its reason as a tuple of strings, and ``_shift``
concatenates them.  ``simplex_intersect`` here must agree with the
library's in status, witness and every certificate field.  It takes the
library's integer ``IntervalChain`` and reads its endpoints back as
Fractions first.  Its ``Certificate`` is the library's certificate as it
was before it held integer numerators: the two bounds are Fractions.  The
relaxed sweep runs after every failed strict sweep, ties or not.  It is
quadratic in the chain length when accumulated bounds carry the reach, so
use it on short and moderate chains only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from chainstab.errors import InternalInvariantError, ValidationError
from chainstab.feasibility import (BOUNDARY_ONLY, FEASIBLE, INFEASIBLE, FeasibleRegion,
                                   IntervalChain, Polarization, WeightBound)
from reference import fractions_of


def _clash(lower: Fraction, lower_open: bool, upper: Fraction, upper_open: bool) -> bool:
    """A lower bound excludes an upper one: it exceeds it, or they meet with an open side."""
    return lower > upper or (lower == upper and (lower_open or upper_open))


class Certificate(NamedTuple):
    """A clashing pair of one-sided bounds on a single quantity, in Fractions."""

    quantity: str
    lower: Fraction
    lower_open: bool
    lower_reason: str
    upper: Fraction
    upper_open: bool
    upper_reason: str

    def verify(self) -> bool:
        return _clash(self.lower, self.lower_open, self.upper, self.upper_open)


# --------------------------------------------------------------------------
# Sweep internals: one-sided bounds with provenance, combined exactly.
# --------------------------------------------------------------------------

class _Bound(NamedTuple):
    value: Optional[Fraction]   # None = unbounded on this side
    open: bool
    why: tuple[str, ...]


_NO_BOUND = _Bound(None, True, ())


def _tightest_lower(*cands: _Bound) -> _Bound:
    best = None
    for c in cands:
        if c.value is None:
            continue
        if best is None or c.value > best.value or (
                c.value == best.value and c.open and not best.open):
            best = c
    return best if best is not None else _NO_BOUND


def _tightest_upper(*cands: _Bound) -> _Bound:
    best = None
    for c in cands:
        if c.value is None:
            continue
        if best is None or c.value < best.value or (
                c.value == best.value and c.open and not best.open):
            best = c
    return best if best is not None else _NO_BOUND


def _shift(a: _Bound, b: _Bound) -> _Bound:
    if a.value is None or b.value is None:
        return _NO_BOUND
    return _Bound(a.value + b.value, a.open or b.open, a.why + b.why)


def _excludes(lo: _Bound, hi: _Bound) -> bool:
    return (lo.value is not None and hi.value is not None
            and _clash(lo.value, lo.open, hi.value, hi.open))


def _midpoint(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """The witness rule: the midpoint, or one step inside a single finite end."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


class _Edge(NamedTuple):
    """Constraint on one step w_j = S_j - S_{j-1}."""
    lower: _Bound
    upper: _Bound


def _build_edges(n: int, bounds: Sequence[WeightBound], strict: bool) -> list[_Edge]:
    lows = []
    ups = []
    for j in range(1, n + 1):
        rel = ">" if strict else ">="
        lows.append(_Bound(Fraction(0), strict, (f"w_{j} {rel} 0",)))
        ups.append(_NO_BOUND)
    for b in bounds:
        if not 1 <= b.index <= n:
            raise ValidationError(f"bound index {b.index} out of range 1..{n}")
        i = b.index - 1
        val = Fraction(b.num, b.den)
        if b.lower:
            rel = ">" if b.open else ">="
            cand = _Bound(val, b.open, (f"w_{b.index} {rel} {val} ({b.label})",))
            lows[i] = _tightest_lower(lows[i], cand)
        else:
            rel = "<" if b.open else "<="
            cand = _Bound(val, b.open, (f"w_{b.index} {rel} {val} ({b.label})",))
            ups[i] = _tightest_upper(ups[i], cand)
    return [_Edge(lo, up) for lo, up in zip(lows, ups)]


@dataclass
class _SweepResult:
    partial_sums: Optional[list[Fraction]]
    fail_quantity: str = ""
    fail_lower: Optional[_Bound] = None
    fail_upper: Optional[_Bound] = None


def _sweep(intervals: Sequence[tuple], edges: Sequence[_Edge],
           strict: bool) -> _SweepResult:
    n = len(intervals) + 1

    def fail(quantity, lo, hi):
        return _SweepResult(None, quantity, lo, hi)

    lo = _Bound(Fraction(0), False, ("S_0 = 0",))
    hi = lo
    reach: list[tuple[_Bound, _Bound]] = []
    gt, lt = (">", "<") if strict else (">=", "<=")
    for i in range(1, n):
        edge = edges[i - 1]
        if _excludes(edge.lower, edge.upper):
            return fail(f"w_{i}", edge.lower, edge.upper)
        cands_lo = [_shift(lo, edge.lower), _Bound(Fraction(0), strict, (f"S_{i} {gt} 0",))]
        cands_hi = [_shift(hi, edge.upper), _Bound(Fraction(1), strict, (f"S_{i} {lt} 1",))]
        iv_lower, iv_upper, iv_lower_open, iv_upper_open = intervals[i - 1]
        if iv_lower is not None:
            rel = ">" if iv_lower_open else ">="
            cands_lo.append(_Bound(iv_lower, iv_lower_open,
                                   (f"S_{i} {rel} {iv_lower} (slope inequalities)",)))
        if iv_upper is not None:
            rel = "<" if iv_upper_open else "<="
            cands_hi.append(_Bound(iv_upper, iv_upper_open,
                                   (f"S_{i} {rel} {iv_upper} (slope inequalities)",)))
        lo = _tightest_lower(*cands_lo)
        hi = _tightest_upper(*cands_hi)
        if _excludes(lo, hi):
            return fail(f"S_{i}", lo, hi)
        reach.append((lo, hi))

    edge = edges[n - 1]
    if _excludes(edge.lower, edge.upper):
        return fail(f"w_{n}", edge.lower, edge.upper)
    anchor = (f"S_{n} = 1",)
    if edge.upper.value is not None:
        flo = _Bound(1 - edge.upper.value, edge.upper.open, anchor + edge.upper.why)
    else:
        flo = _NO_BOUND
    fhi = _Bound(1 - edge.lower.value, edge.lower.open, anchor + edge.lower.why)
    lo = _tightest_lower(lo, flo)
    hi = _tightest_upper(hi, fhi)
    if _excludes(lo, hi):
        return fail(f"S_{n - 1}", lo, hi)

    # Backward pass: fix S_{n-1} at the midpoint of its final interval, then
    # walk down, restricting each earlier reach interval by the step out of it.
    sums: list[Optional[Fraction]] = [None] * (n - 1)
    sums[n - 2] = _midpoint(lo.value, hi.value)
    for i in range(n - 2, 0, -1):
        rlo, rhi = reach[i - 1]
        step = edges[i]
        s_next = sums[i]
        if step.upper.value is not None:
            blo = _Bound(s_next - step.upper.value, step.upper.open, ())
        else:
            blo = _NO_BOUND
        bhi = _Bound(s_next - step.lower.value, step.lower.open, ())
        clo = _tightest_lower(rlo, blo)
        chi_ = _tightest_upper(rhi, bhi)
        if _excludes(clo, chi_):
            raise InternalInvariantError("backward witness extraction hit an empty interval")
        sums[i - 1] = _midpoint(clo.value, chi_.value)
    return _SweepResult(sums)


def _weights_from_sums(sums: Sequence[Fraction]) -> Polarization:
    weights = []
    prev = Fraction(0)
    for s in sums:
        weights.append(s - prev)
        prev = s
    weights.append(1 - prev)
    den = math.lcm(*(w.denominator for w in weights))
    return Polarization(tuple(w.numerator * (den // w.denominator) for w in weights), den)


def _certificate(res: _SweepResult) -> Certificate:
    """The clashing pair of accumulated bounds where a strict sweep ran dry."""
    cert = Certificate(
        quantity=res.fail_quantity,
        lower=res.fail_lower.value,
        lower_open=res.fail_lower.open,
        lower_reason="; ".join(res.fail_lower.why),
        upper=res.fail_upper.value,
        upper_open=res.fail_upper.open,
        upper_reason="; ".join(res.fail_upper.why),
    )
    if not cert.verify():
        raise InternalInvariantError("infeasibility certificate failed self-verification")
    return cert


def simplex_intersect(intervals: IntervalChain,
                      bounds: Sequence[WeightBound] = ()) -> FeasibleRegion:
    """Decide whether the interval chain meets the open weight simplex.

    Feasible means a strict polarization exists (with a witness extracted by
    the midpoint rule); boundary-only means the closed relaxation of the
    simplex constraints is solvable but every solution degenerates some
    weight to 0 or pins a partial sum to a forbidden open endpoint;
    infeasible means not even the closed relaxation is solvable.  Supplied
    weight bounds keep their own strictness in both systems.  A region that
    is not feasible carries the certificate of the strict sweep's failure;
    the relaxed sweep runs only to tell boundary-only from infeasible.
    """
    ivs = fractions_of(intervals)
    if not ivs:
        raise ValidationError("at least one partial-sum interval is required")
    n = len(ivs) + 1
    res = _sweep(ivs, _build_edges(n, bounds, True), True)
    if res.partial_sums is not None:
        return FeasibleRegion(intervals, FEASIBLE, _weights_from_sums(res.partial_sums))
    relaxed = _sweep(ivs, _build_edges(n, bounds, False), False)
    status = BOUNDARY_ONLY if relaxed.partial_sums is not None else INFEASIBLE
    return FeasibleRegion(intervals, status, None, _certificate(res))

