"""Exact-rational feasibility engine for polarization weight systems.

A polarization is a tuple of rational weights w_1..w_n, each strictly
between 0 and 1, summing to 1.  Every constraint handled here is expressed
on the partial sums S_i = w_1 + ... + w_i (S_0 = 0, S_n = 1 fixed): the
slope inequalities become one closed interval per S_i, and per-weight
bounds become bounds on the steps S_j - S_{j-1}.  In these coordinates the
constraint graph is a simple path, so a single forward interval-propagation
sweep computes the exact reachable set of every S_i, with endpoint openness
tracked exactly; a backward sweep then extracts a concrete witness by
taking midpoints.

Strictness policy: the slope-inequality intervals are closed; the
polarization definition itself contributes the strict constraints w_j > 0
and 0 < S_i < 1.  A system solvable only when some weight degenerates to 0
is reported ``boundary-only``, never feasible.

Every rational is a ``fractions.Fraction``, so values are automatically in
lowest terms with positive denominator and equality is structural.

``weight_system`` is the one place that decides what a subject's system is:
it twists the subject (a sheaf, or a pair's kernel) and builds its
intervals and, for a pair, the declared subsheaf bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics, twist,
                          validate_pair)
from .errors import InternalInvariantError, UnsupportedData, ValidationError

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BOUNDARY_ONLY = "boundary-only"


def _clash(lower: Fraction, lower_open: bool, upper: Fraction, upper_open: bool) -> bool:
    """A lower bound excludes an upper one: it exceeds it, or they meet with an open side."""
    return lower > upper or (lower == upper and (lower_open or upper_open))


def _as_fraction(name: str, value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(f"{name} must be an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be an exact rational, got {value!r}") from exc


@dataclass(frozen=True)
class Polarization:
    """Strictly positive rational weights summing to 1, one per component."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(_as_fraction("weight", w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) < 2:
            raise ValidationError("a polarization needs at least two weights")
        if any(not 0 < w < 1 for w in ws):
            raise ValidationError(f"every weight must lie strictly between 0 and 1, got {ws}")
        if sum(ws) != 1:
            raise ValidationError(f"weights must sum to exactly 1, got {sum(ws)}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def partial_sums(self) -> tuple[Fraction, ...]:
        """S_1 .. S_{n-1} (the interior partial sums)."""
        sums = []
        acc = Fraction(0)
        for w in self.weights[:-1]:
            acc += w
            sums.append(acc)
        return tuple(sums)


@dataclass(frozen=True)
class RationalInterval:
    """Interval with exact rational endpoints; ``None`` means unbounded.

    Endpoint openness is tracked explicitly.  An interval whose bounds
    exclude each other represents the empty set (``is_empty``); the
    canonical empty interval is (0, 0) with both endpoints open.
    """

    lower: Optional[Fraction]
    upper: Optional[Fraction]
    lower_open: bool = False
    upper_open: bool = False

    def __post_init__(self):
        lo = None if self.lower is None else _as_fraction("lower", self.lower)
        hi = None if self.upper is None else _as_fraction("upper", self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo is None:
            object.__setattr__(self, "lower_open", True)
        if hi is None:
            object.__setattr__(self, "upper_open", True)

    @classmethod
    def closed(cls, lower, upper) -> "RationalInterval":
        return cls(Fraction(lower), Fraction(upper))

    @classmethod
    def point(cls, value) -> "RationalInterval":
        return cls(Fraction(value), Fraction(value))

    @classmethod
    def unbounded(cls) -> "RationalInterval":
        return cls(None, None)

    @classmethod
    def empty(cls) -> "RationalInterval":
        return cls(Fraction(0), Fraction(0), True, True)

    def is_empty(self) -> bool:
        return (self.lower is not None and self.upper is not None
                and _clash(self.lower, self.lower_open, self.upper, self.upper_open))

    def contains(self, value) -> bool:
        v = Fraction(value)
        if self.lower is not None and (v < self.lower or (v == self.lower and self.lower_open)):
            return False
        if self.upper is not None and (v > self.upper or (v == self.upper and self.upper_open)):
            return False
        return True

    def midpoint(self) -> Fraction:
        if self.is_empty():
            raise ValidationError("empty interval has no midpoint")
        return _midpoint(self.lower, self.upper)

    def closure(self) -> "RationalInterval":
        return RationalInterval(self.lower, self.upper,
                                self.lower is None, self.upper is None)


@dataclass(frozen=True)
class WeightBound:
    """Upper bound on one weight: w_index <= upper (strict when ``open``).

    With ``complement=True`` the bound constrains the sum of the other
    weights instead, 1 - w_index <= upper, i.e. a lower bound
    w_index >= 1 - upper; this is how lower bounds are folded into the
    forward sweep as step constraints.
    """

    index: int
    upper: Fraction
    open: bool = False
    complement: bool = False
    label: str = "weight bound"

    def __post_init__(self):
        if isinstance(self.index, bool) or not isinstance(self.index, int) or self.index < 1:
            raise ValidationError(f"bound index must be a positive integer, got {self.index!r}")
        object.__setattr__(self, "upper", _as_fraction("bound", self.upper))


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A clashing pair of one-sided bounds on a single quantity.

    The contradiction re-verifies by a single rational comparison: the lower
    bound exceeds the upper bound (or they meet with a strict side).
    """

    quantity: str
    lower: Fraction
    lower_open: bool
    lower_reason: str
    upper: Fraction
    upper_open: bool
    upper_reason: str

    def verify(self) -> bool:
        return _clash(self.lower, self.lower_open, self.upper, self.upper_open)


@dataclass(frozen=True)
class FeasibleRegion:
    """Outcome of a weight-system feasibility check.

    ``s_intervals`` echoes the per-index partial-sum constraints the system
    was built from.  ``witness`` is present exactly when the status is
    feasible, and then satisfies every stored interval and the strict
    simplex chain 0 < S_1 < ... < S_{n-1} < 1.  ``certificate`` is the
    clash at which the strict sweep ran dry; it is evidence for a verdict
    and is not part of the region's serialized form.
    """

    s_intervals: tuple[RationalInterval, ...]
    status: str
    witness: Optional[Polarization] = None
    certificate: Optional[InfeasibilityCertificate] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s_intervals", tuple(self.s_intervals))
        if self.status not in (FEASIBLE, INFEASIBLE, BOUNDARY_ONLY):
            raise ValidationError(f"unknown status {self.status!r}")
        if (self.status == FEASIBLE) != (self.witness is not None):
            raise ValidationError("witness must be present exactly for feasible regions")


def slope(sheaf: SheafNumerics, w: Polarization) -> Fraction:
    """Polarized slope: global chi over the weighted total rank."""
    if w.n != sheaf.n:
        raise ValidationError(f"polarization has {w.n} weights, sheaf has {sheaf.n} components")
    denom = sum((wj * rj for wj, rj in zip(w.weights, sheaf.multirank)), Fraction(0))
    if denom == 0:
        raise ValidationError("slope undefined for a sheaf of zero rank")
    return Fraction(sheaf.require_chi()) / denom


def bigas_intervals(sheaf: SheafNumerics) -> list[RationalInterval]:
    """Per-index intervals for the partial sums S_i implied by semistability.

    For uniform rank m the system reads, for i = 1..n-1 and X_i the partial
    chi sum,

        X_i - m*i  <=  S_i * chi  <=  X_i - m*(i-1)

    with closed endpoints.  Feasibility of these intervals is necessary for
    w-semistability and, when every component restriction is semistable,
    sufficient.  The sign of chi decides the orientation after division;
    chi = 0 leaves a constant inequality that is either vacuous or
    unsatisfiable.
    """
    m = sheaf.uniform_rank()
    if m is None:
        raise UnsupportedData("partial-sum intervals require uniform multirank")
    if m < 1:
        raise ValidationError("partial-sum intervals require positive rank")
    chi = sheaf.require_chi()
    out = []
    part = 0
    for i in range(1, sheaf.n):
        part += sheaf.chi_components[i - 1]
        lo_const = part - m * i          # lo_const <= S_i * chi
        hi_const = part - m * (i - 1)    # S_i * chi <= hi_const
        if chi < 0:
            out.append(RationalInterval(Fraction(hi_const, chi), Fraction(lo_const, chi)))
        elif chi > 0:
            out.append(RationalInterval(Fraction(lo_const, chi), Fraction(hi_const, chi)))
        elif lo_const <= 0 <= hi_const:
            out.append(RationalInterval.unbounded())
        else:
            out.append(RationalInterval.empty())
    return out


def check_bigas(sheaf: SheafNumerics, w: Polarization) -> bool:
    """Exact membership test for the partial-sum inequality system."""
    m = sheaf.uniform_rank()
    if m is None:
        raise UnsupportedData("the inequality system requires uniform multirank")
    if w.n != sheaf.n:
        raise ValidationError(f"polarization has {w.n} weights, sheaf has {sheaf.n} components")
    chi = sheaf.require_chi()
    part = 0
    s = Fraction(0)
    for i in range(1, sheaf.n):
        part += sheaf.chi_components[i - 1]
        s += w.weights[i - 1]
        t = s * chi
        if not (part - m * i <= t <= part - m * (i - 1)):
            return False
    return True


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
        if b.complement:
            val = 1 - b.upper
            rel = ">" if b.open else ">="
            cand = _Bound(val, b.open, (f"w_{b.index} {rel} {val} ({b.label})",))
            lows[i] = _tightest_lower(lows[i], cand)
        else:
            rel = "<" if b.open else "<="
            cand = _Bound(b.upper, b.open, (f"w_{b.index} {rel} {b.upper} ({b.label})",))
            ups[i] = _tightest_upper(ups[i], cand)
    return [_Edge(lo, up) for lo, up in zip(lows, ups)]


@dataclass
class _SweepResult:
    partial_sums: Optional[list[Fraction]]
    fail_quantity: str = ""
    fail_lower: Optional[_Bound] = None
    fail_upper: Optional[_Bound] = None


def _sweep(intervals: Sequence[RationalInterval], edges: Sequence[_Edge],
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
        iv = intervals[i - 1]
        if iv.lower is not None:
            rel = ">" if iv.lower_open else ">="
            cands_lo.append(_Bound(iv.lower, iv.lower_open,
                                   (f"S_{i} {rel} {iv.lower} (slope inequalities)",)))
        if iv.upper is not None:
            rel = "<" if iv.upper_open else "<="
            cands_hi.append(_Bound(iv.upper, iv.upper_open,
                                   (f"S_{i} {rel} {iv.upper} (slope inequalities)",)))
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
    return Polarization(tuple(weights))


def _certificate(res: _SweepResult) -> InfeasibilityCertificate:
    """The clashing pair of accumulated bounds where a strict sweep ran dry."""
    cert = InfeasibilityCertificate(
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


def simplex_intersect(intervals: Sequence[RationalInterval],
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
    ivs = tuple(intervals)
    if not ivs:
        raise ValidationError("at least one partial-sum interval is required")
    n = len(ivs) + 1
    res = _sweep(ivs, _build_edges(n, bounds, True), True)
    if res.partial_sums is not None:
        return FeasibleRegion(ivs, FEASIBLE, _weights_from_sums(res.partial_sums))
    relaxed = _sweep(ivs, _build_edges(n, bounds, False), False)
    status = BOUNDARY_ONLY if relaxed.partial_sums is not None else INFEASIBLE
    return FeasibleRegion(ivs, status, None, _certificate(res))


def find_polarization(sheaf: SheafNumerics) -> FeasibleRegion:
    """Feasibility region of the plain slope-inequality system for a sheaf.

    When chi < 0 and every chi_j < 0 (uniform rank) the system is always
    feasible and the returned witness is the midpoint-rule polarization.
    """
    return simplex_intersect(bigas_intervals(sheaf))


def prove_infeasible_with_certificate(
        sheaf: SheafNumerics,
        bounds: Sequence[WeightBound] = ()) -> Optional[InfeasibilityCertificate]:
    """Certificate for the strict system's emptiness, or ``None`` if solvable.

    The certificate is the clashing pair of accumulated one-sided bounds at
    the first index where the forward sweep ran dry; a reader re-verifies it
    by one rational comparison.
    """
    return simplex_intersect(bigas_intervals(sheaf), bounds).certificate


def subsheaf_slope_constraints(curve, pair, line, target_slope) -> list[WeightBound]:
    """Weight bounds forced by the component-supported kernel subsheaves.

    For every component j whose restriction kernel is declared non-zero, the
    twisted component subsheaf has slope (deg L_j - delta_j + 1 - g_j) / w_j
    (delta_j nodes on the component).  Requiring that slope to stay at or
    below ``target_slope`` (the subject's own slope) converts, for negative
    target, into a closed upper bound on w_j; for zero target the constraint
    is weight-free (an unsatisfiable marker bound is emitted when violated);
    for positive target it becomes a lower bound, encoded as a bound on the
    complementary sum.
    """
    validate_pair(curve, pair)
    if line.n != curve.n:
        raise ValidationError(f"twist multidegree must have length {curve.n}, got {line.n}")
    target = _as_fraction("target_slope", target_slope)
    bounds = (subsheaf_weight_bound(curve, line, target, j)
              for j in range(1, curve.n + 1) if pair.ker_rho_nonzero[j - 1])
    return [b for b in bounds if b is not None]


def subsheaf_weight_bound(curve, line, target: Fraction, j: int) -> Optional[WeightBound]:
    """The weight bound forced by component j's kernel subsheaf, if any.

    The subsheaf's slope (deg L_j - delta_j + 1 - g_j) / w_j must stay at or
    below ``target``; ``None`` when that holds for every weight.  See
    ``subsheaf_slope_constraints`` for the three signs of the target.
    """
    label = "subsheaf slope bound"
    numer = line.multidegree[j - 1] - curve.node_count(j) + 1 - curve.genera[j - 1]
    if target < 0:
        return WeightBound(j, Fraction(numer) / target, label=label)
    if numer <= 0:
        return None
    if target == 0:
        return WeightBound(j, Fraction(0), open=True, label=label + " (unsatisfiable)")
    return WeightBound(j, 1 - Fraction(numer) / target, complement=True, label=label)


class WeightSystem(NamedTuple):
    """A subject's weight system before any rule contributes to it.

    ``subject`` is the twisted sheaf whose slope inequalities give
    ``intervals``; ``target`` (its slope per kernel rank) and the
    ``declared`` subsheaf bounds exist only for a pair's kernel.
    """

    curve: ChainCurve
    pair: Optional[GeneratedPairData]
    line: LineBundleTwist
    subject: SheafNumerics
    target: Optional[Fraction]
    intervals: list[RationalInterval]
    declared: list[WeightBound]


def weight_system(curve: ChainCurve, sheaf: SheafNumerics,
                  line: Optional[LineBundleTwist] = None,
                  pair: Optional[GeneratedPairData] = None) -> WeightSystem:
    """The weight system of ``sheaf`` twisted by ``line``.

    ``sheaf`` is the untwisted subject: raw sheaf numerics, or the kernel
    ``kernel_numerics(curve, pair)`` of a generated pair.  Without ``line``
    the subject is not twisted.  With ``pair`` the system also holds the
    kernel's target slope and every declared subsheaf bound for that slope.
    """
    subject = sheaf if line is None else twist(sheaf, line)
    line = line if line is not None else LineBundleTwist.trivial(curve.n)
    intervals = bigas_intervals(subject)
    if pair is None:
        return WeightSystem(curve, None, line, subject, None, intervals, [])
    target = Fraction(subject.chi, pair.kernel_rank)
    return WeightSystem(curve, pair, line, subject, target, intervals,
                        subsheaf_slope_constraints(curve, pair, line, target))
