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

A subject's slope inequalities stay integers from construction to output:
``bigas_intervals``, the one place that states them, returns an
``IntervalChain``, whose endpoints are numerators over |chi|, and every
other reader reads that chain: ``IntervalChain.admits`` tests a
polarization against it, and the oracle's grid walk places its cuts
within it.  ``simplex_intersect`` rescales the chain only when a
``WeightBound``'s integer denominator does not divide it, and propagates
per-index ``(numerator, open)`` reach bounds over that one denominator.  A
subject's own subsheaf bounds are already over |chi| (1 when chi = 0), so
only a bound built with another denominator rescales the chain.  Each reach
bound keeps only a source tag: shifted from S_{i-1} by the step w_i, the
simplex's S_i < 1, the slope-inequality interval, S_0 = 0, or S_n = 1
shifted back by w_n; each step bound keeps the position of the
``WeightBound`` it came from.  The witness stays integer too: the
backward pass, run only after a solvable strict sweep, keeps each weight
as a numerator over den * 2**e, because midpoints halve, and the
``Polarization`` holds them over their least common denominator.  The
certificate of a failed strict sweep holds the clashing reach numerators
over the system's denominator; its reasons are rendered from the tags by
one walk back from the failing index and cite the one slope endpoint they
use.  Every ratio of a certificate, reason or message is written by
``_ratio``.  The relaxed sweep, which only tells boundary-only from
infeasible, runs only after a tie and stops after its forward pass.

``weight_system`` is the one place that decides what a subject's system is:
given a sheaf, or a pair whose kernel it builds, it twists the subject and
builds its intervals.  A pair's declared subsheaf bounds are built from
that system by ``declared_bounds``, only where a command reads them
(``check`` and ``oracle``), as integer ratios over the twisted kernel's
|chi|.  A bound's own ``WeightBound.admits`` is the one pointwise test:
a weight it does not admit is one at which that component's subsheaf
destabilizes the twisted kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, compress, repeat
from operator import add, floordiv, neg, sub
from typing import Optional, Sequence

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          kernel_numerics, twist)
from .errors import InternalInvariantError, UnsupportedData, ValidationError
from .record import Record

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BOUNDARY_ONLY = "boundary-only"


def _clash(lower: int, lower_open: bool, upper: int, upper_open: bool) -> bool:
    """A lower bound excludes an upper one: it exceeds it, or they meet with an open side."""
    return lower > upper or (lower == upper and (lower_open or upper_open))


def _ratio(num: int, den: int, slash: bool = False) -> str:
    """The ratio num / den, for a positive ``den``, reduced, as text.

    Two cases: with ``slash``, as certificate JSON writes it, always "p/q",
    an integer included ("0/1", "-2/1"); without, as reason and message
    texts write it, what ``str(Fraction(num, den))`` prints ("0", "2/9").
    """
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if slash or den != g else str(num // g)


class Polarization(Record):
    """Strictly positive rational weights summing to 1, one per component:
    the weights nums[i] / den, for integers ``nums`` and a positive integer
    ``den``.

    Held in lowest terms, so equality, hashing and ``repr`` go by value.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int):
        nums = tuple(nums)
        if {*map(type, nums), type(den)} != {int}:  # bool is refused too
            bad = next(v for v in (*nums, den) if type(v) is not int)
            raise ValidationError(f"polarization parts must be integers, got {bad!r}")
        if den < 1:
            raise ValidationError(f"polarization denominator must be positive, got {den}")
        g = math.gcd(den, *nums)
        object.__setattr__(self, "nums", nums if g == 1 else tuple(map(floordiv, nums, repeat(g))))
        object.__setattr__(self, "den", den // g)
        if len(nums) < 2:
            raise ValidationError("a polarization needs at least two weights")
        if min(nums) <= 0 or max(nums) >= den:
            raise ValidationError("every weight must lie strictly between 0 and 1, got "
                                  f"({', '.join([_ratio(a, den) for a in nums])})")
        if sum(nums) != den:
            raise ValidationError(f"weights must sum to exactly 1, got {_ratio(sum(nums), den)}")

    @property
    def n(self) -> int:
        return len(self.nums)


class IntervalChain(namedtuple("IntervalChain", "den lower lower_open upper upper_open")):
    """Intervals on S_1..S_{n-1}, at tuple index i - 1, as integer numerators
    over the one positive denominator ``den``.

    An endpoint is ``None`` where unbounded, and an unbounded endpoint is
    open.  Bounds that exclude each other give the empty set; the canonical
    empty interval is (0, 0) with both endpoints open.

    Fields::

        den: int
        lower: tuple
        lower_open: tuple
        upper: tuple
        upper_open: tuple
    """

    __slots__ = ()

    def admits(self, w: Polarization) -> bool:
        """Whether every partial sum S_i of ``w`` lies in its interval, an open
        end excluding its own value, by one integer cross-multiplication per
        finite end: S_i = s / w.den against v / den compares s*den with v*w.den.
        """
        if w.n != len(self.lower) + 1:
            raise ValidationError(
                f"polarization has {w.n} weights, chain needs {len(self.lower) + 1}")
        den, d = self.den, w.den
        s = 0
        for a, lo, lo_open, hi, hi_open in zip(w.nums, self.lower, self.lower_open,
                                               self.upper, self.upper_open):
            s += a
            x = s * den
            if lo is not None and (x < lo * d or (lo_open and x == lo * d)):
                return False
            if hi is not None and (x > hi * d or (hi_open and x == hi * d)):
                return False
        return True


class WeightBound(Record):
    """A bound on one weight as an integer ratio: w_index <= num / den, or
    w_index >= num / den when ``lower`` is set; strict when ``open``.

    ``num`` and ``den`` are kept as given, not reduced.
    """

    __slots__ = ("index", "num", "den", "lower", "open", "label")

    def __init__(self, index: int, num: int, den: int, lower: bool = False, open: bool = False,
                 label: str = "weight bound"):
        if type(index) is not int or index < 1:  # bool is refused too
            raise ValidationError(f"bound index must be a positive integer, got {index!r}")
        if type(num) is not int:
            raise ValidationError(f"bound numerator must be an integer, got {num!r}")
        if type(den) is not int or den < 1:
            raise ValidationError(f"bound denominator must be a positive integer, got {den!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "open", open)
        object.__setattr__(self, "label", label)

    def admits(self, a: int, d: int) -> bool:
        """Whether the weight a/d, for a positive ``d``, meets the bound, by one
        integer cross-multiplication.

        For component j's ``subsheaf_weight_bound``, with numer_j that
        subsheaf's chi and chi / m the twisted kernel's slope, a/d fails the
        bound exactly when numer_j*d*m > chi*a: the subsheaf's slope
        numer_j / w_j then exceeds the kernel's, and it destabilizes at w_j.
        """
        lhs, rhs = a * self.den, self.num * d
        if self.lower:
            lhs, rhs = rhs, lhs
        return lhs < rhs if self.open else lhs <= rhs


class InfeasibilityCertificate(namedtuple(
        "InfeasibilityCertificate",
        "quantity den lower lower_open lower_reason upper upper_open upper_reason")):
    """A clashing pair of one-sided bounds on a single quantity, the values
    ``lower`` / ``den`` and ``upper`` / ``den`` for integer numerators over
    the swept system's positive denominator.

    The contradiction re-verifies by a single integer comparison: the lower
    bound exceeds the upper bound (or they meet with a strict side).

    Fields::

        quantity: str
        den: int
        lower: int
        lower_open: bool
        lower_reason: str
        upper: int
        upper_open: bool
        upper_reason: str
    """

    __slots__ = ()

    def verify(self) -> bool:
        return _clash(self.lower, self.lower_open, self.upper, self.upper_open)


class FeasibleRegion(Record):
    """Outcome of a weight-system feasibility check.

    ``s_intervals`` is the integer chain of partial-sum intervals the system
    was built from, as given, over its own denominator; reports print it as
    it is.  ``witness`` is present exactly when the status is feasible, as
    integer numerators over one denominator, and then satisfies every
    interval of the chain and the strict simplex chain
    0 < S_1 < ... < S_{n-1} < 1.  ``certificate`` is the clash at which the
    strict sweep ran dry; it is evidence for a verdict and is not part of
    the region's serialized form or of its equality.
    """

    __slots__ = ("s_intervals", "status", "witness", "certificate")

    def __init__(self, s_intervals: IntervalChain, status: str,
                 witness: Optional[Polarization] = None,
                 certificate: Optional[InfeasibilityCertificate] = None):
        if status not in (FEASIBLE, INFEASIBLE, BOUNDARY_ONLY):
            raise ValidationError(f"unknown status {status!r}")
        if (status == FEASIBLE) != (witness is not None):
            raise ValidationError("witness must be present exactly for feasible regions")
        object.__setattr__(self, "s_intervals", s_intervals)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)

    def _key(self) -> tuple:
        return self.s_intervals, self.status, self.witness


def bigas_intervals(sheaf: SheafNumerics) -> IntervalChain:
    """Per-index intervals for the partial sums S_i implied by semistability.

    For uniform rank m the system reads, for i = 1..n-1 and X_i the partial
    chi sum,

        X_i - m*i  <=  S_i * chi  <=  X_i - m*(i-1)

    with closed endpoints.  Feasibility of these intervals is necessary for
    w-semistability and, when every component restriction is semistable,
    sufficient.  The chain's denominator is |chi|, so the numerators are the
    two constants, with their signs flipped and their sides swapped when
    chi < 0; chi = 0 leaves a constant inequality that is either vacuous
    (unbounded) or unsatisfiable (the empty interval), over 1.
    """
    m = sheaf.uniform_rank()
    if m is None:
        raise UnsupportedData("partial-sum intervals require uniform multirank")
    if m < 1:
        raise ValidationError("partial-sum intervals require positive rank")
    chi = sheaf.chi
    # X_i - m*i, the lower constant; the upper one is m more
    lo = tuple(accumulate(map(sub, sheaf.chi_components[:-1], repeat(m))))
    closed = (False,) * len(lo)
    if chi > 0:
        return IntervalChain(chi, lo, closed, tuple(map(add, lo, repeat(m))), closed)
    if chi < 0:
        return IntervalChain(-chi, tuple(map(sub, repeat(-m), lo)), closed,
                             tuple(map(neg, lo)), closed)
    ends = tuple([None if -m <= v <= 0 else 0 for v in lo])
    return IntervalChain(1, ends, (True,) * len(lo), ends, (True,) * len(lo))


# --------------------------------------------------------------------------
# The sweep: integer numerators over the system's common denominator.
# --------------------------------------------------------------------------

# Source tag of a reach bound on S_i: the bound on S_{i-1} shifted by the
# step w_i, the simplex's S_i < 1, the slope-inequality interval of S_i,
# S_0 = 0 itself, or S_n = 1 shifted back by the step w_n.
_SHIFT, _SIMPLEX, _SLOPE, _ORIGIN, _FINAL = range(5)


def _scale(chain: IntervalChain, bounds: Sequence[WeightBound]) -> tuple[IntervalChain, list]:
    """The chain over the lcm of its denominator and the bounds', and the
    bounds' values as numerators over that lcm.  The chain is rebuilt only
    when some bound's ``den`` does not divide its own, which a subject's
    own subsheaf bounds, over its |chi| (1 when chi = 0) like the chain,
    never cause."""
    n = len(chain.lower) + 1
    for b in bounds:
        if not 1 <= b.index <= n:
            raise ValidationError(f"bound index {b.index} out of range 1..{n}")
    den = math.lcm(chain.den, *[b.den for b in bounds])
    if den != chain.den:
        k = den // chain.den
        chain = chain._replace(
            den=den, lower=tuple([None if v is None else v * k for v in chain.lower]),
            upper=tuple([None if v is None else v * k for v in chain.upper]))
    return chain, [b.num * (den // b.den) for b in bounds]


class _Edges(namedtuple("_Edges", "lower lower_open lower_src upper upper_open upper_src")):
    """The tightest bounds on each step w_j = S_j - S_{j-1}, at list index j - 1.

    ``lower_src``/``upper_src`` hold the position of the ``WeightBound`` a
    bound came from, or ``None`` for the simplex's w_j > 0 and for a missing
    upper bound (whose value is then ``None`` too).

    Fields::

        lower: list
        lower_open: list
        lower_src: list
        upper: list
        upper_open: list
        upper_src: list
    """

    __slots__ = ()


def _edges(n: int, values: Sequence[int], bounds: Sequence[WeightBound],
           strict: bool) -> _Edges:
    lo, lo_open, lo_src = [0] * n, [strict] * n, [None] * n
    up, up_open, up_src = [None] * n, [False] * n, [None] * n
    for k, (b, v) in enumerate(zip(bounds, values)):
        i = b.index - 1
        if b.lower:
            if v > lo[i] or (v == lo[i] and b.open and not lo_open[i]):
                lo[i], lo_open[i], lo_src[i] = v, b.open, k
        elif up[i] is None or v < up[i] or (v == up[i] and b.open and not up_open[i]):
            up[i], up_open[i], up_src[i] = v, b.open, k
    return _Edges(lo, lo_open, lo_src, up, up_open, up_src)


class _Dry(namedtuple("_Dry", "on_step index reach")):
    """Where a sweep ran dry: on the step w_index, or on S_index.

    ``reach[i]`` is ``(lower, lower_open, lower_tag, upper, upper_open,
    upper_tag)`` for S_i, from S_0 up to the failing index.

    Fields::

        on_step: bool
        index: int
        reach: list
    """

    __slots__ = ()


def _sweep(system: IntervalChain, edges: _Edges, strict: bool):
    """Forward sweep of the reach of every S_i.

    Each S_i's reach bound is the tightest of its candidates, taken in the
    order: shift from S_{i-1}, simplex constraint, interval endpoint.  A
    later candidate replaces the current one only when it is strictly
    tighter, or equal and open where the current one is closed.  The
    simplex's S_i > 0 (S_i >= 0 when relaxed) never replaces the shifted
    lower bound: that bound is at least 0, and when it is 0 in the strict
    sweep it is open, since the step bound w_i > 0 yields only to a greater
    one.  Returns a ``_Dry`` record, or the reach of S_0..S_{n-1} when the
    system is solvable.  Each step tests ``_clash`` written out inline.
    """
    one = system.den
    n = len(system.lower) + 1
    lo = hi = 0
    lo_open = hi_open = False
    reach = [(0, False, _ORIGIN, 0, False, _ORIGIN)]
    for i, el, el_open, eu, eu_open, vlo, vlo_open, vhi, vhi_open in zip(
            range(1, n), edges.lower, edges.lower_open, edges.upper, edges.upper_open,
            system.lower, system.lower_open, system.upper, system.upper_open):
        if eu is not None and (el > eu or (el == eu and (el_open or eu_open))):
            return _Dry(True, i, reach)
        lo += el
        lo_open = lo_open or el_open
        lo_tag = _SHIFT
        if vlo is not None and (vlo > lo or (vlo == lo and vlo_open and not lo_open)):
            lo, lo_open, lo_tag = vlo, vlo_open, _SLOPE
        if eu is None:
            hi, hi_open, hi_tag = one, strict, _SIMPLEX
        else:
            hi += eu
            hi_open = hi_open or eu_open
            hi_tag = _SHIFT
            if hi > one or (hi == one and strict and not hi_open):
                hi, hi_open, hi_tag = one, strict, _SIMPLEX
        if vhi is not None and (vhi < hi or (vhi == hi and vhi_open and not hi_open)):
            hi, hi_open, hi_tag = vhi, vhi_open, _SLOPE
        reach.append((lo, lo_open, lo_tag, hi, hi_open, hi_tag))
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return _Dry(False, i, reach)

    # S_{n-1} = 1 - w_n: the step bounds on w_n, read from S_n = 1.
    el, el_open = edges.lower[-1], edges.lower_open[-1]
    eu, eu_open = edges.upper[-1], edges.upper_open[-1]
    if eu is not None and _clash(el, el_open, eu, eu_open):
        return _Dry(True, n, reach)
    if eu is not None:
        v = one - eu
        if v > lo or (v == lo and eu_open and not lo_open):
            lo, lo_open, lo_tag = v, eu_open, _FINAL
    v = one - el
    if v < hi or (v == hi and el_open and not hi_open):
        hi, hi_open, hi_tag = v, el_open, _FINAL
    reach[n - 1] = (lo, lo_open, lo_tag, hi, hi_open, hi_tag)
    if _clash(lo, lo_open, hi, hi_open):
        return _Dry(False, n - 1, reach)

    return reach


def _witness(system: IntervalChain, edges: _Edges, reach: list) -> Polarization:
    """The witness of a solvable strict sweep, from its forward ``reach``.

    From S_n = 1 down, restrict each reach interval by the step out of it,
    fix S_i at the midpoint and read off w_{i+1} as the difference of two
    partial sums.  S_{i+1} is num / (den * 2**e) here, and w_{i+1} is kept
    as a numerator over den * 2**(e+1); the midpoint's power of two is then
    cancelled as far as it goes.  Restricting S_{n-1} again by the step w_n
    changes nothing.
    """
    one = system.den
    n = len(reach)
    nums, exps = [0] * n, [0] * n
    num, e = one, 0
    for i, (lo, lo_open, _, hi, hi_open, _), el, el_open, eu, eu_open in zip(
            range(n - 1, 0, -1), reach[:0:-1], edges.lower[:0:-1], edges.lower_open[:0:-1],
            edges.upper[:0:-1], edges.upper_open[:0:-1]):
        lo <<= e
        hi <<= e
        if eu is not None:
            v = num - (eu << e)
            if v > lo or (v == lo and eu_open and not lo_open):
                lo, lo_open = v, eu_open
        v = num - (el << e)
        if v < hi or (v == hi and el_open and not hi_open):
            hi, hi_open = v, el_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            raise InternalInvariantError("backward witness extraction hit an empty interval")
        mid = lo + hi
        e += 1
        nums[i], exps[i] = (num << 1) - mid, e
        k = min(e, (mid & -mid).bit_length() - 1) if mid else e
        num, e = mid >> k, e - k
    nums[0], exps[0] = num, e
    top = max(exps)
    return Polarization([a << (top - k) for a, k in zip(nums, exps)], one << top)


def _step_term(bounds: Sequence[WeightBound], edges: _Edges, j: int, upper: bool) -> str:
    """The reason of the strict sweep's lower (or upper) bound on w_j."""
    src = (edges.upper_src if upper else edges.lower_src)[j - 1]
    if src is None:
        return f"w_{j} > 0"
    b = bounds[src]
    rel = ("<" if upper else ">") + ("" if b.open else "=")
    return f"w_{j} {rel} {_ratio(b.num, b.den)} ({b.label})"


def _reach_reason(system: IntervalChain, bounds: Sequence[WeightBound],
                  edges: _Edges, dry: _Dry, upper: bool) -> str:
    """The terms of S_index's lower (or upper) bound, found by one walk back."""
    n = len(system.lower) + 1
    slot = 5 if upper else 2
    k = dry.index
    terms = []
    while dry.reach[k][slot] == _SHIFT:
        terms.append(_step_term(bounds, edges, k, upper))
        k -= 1
    tag = dry.reach[k][slot]
    if tag == _ORIGIN:
        terms.append("S_0 = 0")
    elif tag == _SIMPLEX:
        terms.append(f"S_{k} < 1")
    elif tag == _FINAL:
        terms += [_step_term(bounds, edges, n, not upper), f"S_{n} = 1"]
    else:
        ends, opens = ((system.upper, system.upper_open) if upper
                       else (system.lower, system.lower_open))
        rel = ("<" if upper else ">") + ("" if opens[k - 1] else "=")
        terms.append(f"S_{k} {rel} {_ratio(ends[k - 1], system.den)} (slope inequalities)")
    return "; ".join(reversed(terms))


def _certificate(system: IntervalChain, bounds: Sequence[WeightBound],
                 edges: _Edges, dry: _Dry) -> InfeasibilityCertificate:
    """The clashing pair of accumulated bounds where a strict sweep ran dry."""
    i = dry.index
    if dry.on_step:
        lo, lo_open = edges.lower[i - 1], edges.lower_open[i - 1]
        hi, hi_open = edges.upper[i - 1], edges.upper_open[i - 1]
        quantity = f"w_{i}"
        lower_reason = _step_term(bounds, edges, i, False)
        upper_reason = _step_term(bounds, edges, i, True)
    else:
        lo, lo_open, _, hi, hi_open, _ = dry.reach[i]
        quantity = f"S_{i}"
        lower_reason = _reach_reason(system, bounds, edges, dry, False)
        upper_reason = _reach_reason(system, bounds, edges, dry, True)
    cert = InfeasibilityCertificate(quantity, system.den, lo, lo_open, lower_reason,
                                    hi, hi_open, upper_reason)
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
    is not feasible carries the certificate of the strict sweep's failure.

    The relaxed sweep has the strict one's reach numerators and a subset of
    its open ends, so where the strict sweep runs dry on a numeric clash
    (lower > upper), the relaxed one does too, and the region is infeasible.
    Only a tie (equal numerators with an open side) runs the relaxed sweep,
    to tell boundary-only from infeasible.
    """
    if not intervals.lower:
        raise ValidationError("at least one partial-sum interval is required")
    bounds = tuple(bounds)
    n = len(intervals.lower) + 1
    system, values = _scale(intervals, bounds)
    edges = _edges(n, values, bounds, True)
    res = _sweep(system, edges, True)
    if not isinstance(res, _Dry):
        return FeasibleRegion(intervals, FEASIBLE, _witness(system, edges, res))
    cert = _certificate(system, bounds, edges, res)
    infeasible = cert.lower > cert.upper or isinstance(
        _sweep(system, _edges(n, values, bounds, False), False), _Dry)
    return FeasibleRegion(intervals, INFEASIBLE if infeasible else BOUNDARY_ONLY, None, cert)


def _subsheaf_chi(curve: ChainCurve, j: int, deg: int) -> int:
    """chi of component j's kernel subsheaf twisted by a line bundle of degree
    ``deg`` on that component: deg - delta_j + 1 - g_j (delta_j nodes on it).

    Under weights w the subsheaf has slope chi / w_j.
    """
    return deg - curve.node_count(j) + 1 - curve.genera[j - 1]


def subsheaf_weight_bound(system: WeightSystem, j: int) -> Optional[WeightBound]:
    """The weight bound forced by component j's kernel subsheaf, if any.

    ``system`` is a pair's weight system.  The twisted subsheaf's slope
    numer / w_j, numer = deg L_j - delta_j + 1 - g_j, must stay at or below
    the twisted kernel's chi / m: numer * m <= chi * w_j.  ``None`` when
    that holds for every weight.  Over |chi|, chi < 0 gives the closed upper
    bound w_j <= -numer*m / |chi| and chi > 0 the closed lower bound
    w_j >= numer*m / chi; for chi = 0 the constraint is weight-free, and
    the open bound w_j < 0 (0 over 1) marks it violated.
    """
    label = "subsheaf slope bound"
    chi, m = system.subject.chi, system.pair.kernel_rank
    numer = _subsheaf_chi(system.curve, j, system.line.multidegree[j - 1])
    if chi < 0:
        return WeightBound(j, -numer * m, -chi, label=label)
    if numer <= 0:
        return None
    if chi == 0:
        return WeightBound(j, 0, 1, open=True, label=label + " (unsatisfiable)")
    return WeightBound(j, numer * m, chi, lower=True, label=label)


def declared_bounds(system: WeightSystem) -> list[WeightBound]:
    """The ``subsheaf_weight_bound`` of every component of a pair's system
    whose restriction kernel is declared non-zero; none for a sheaf's."""
    if system.pair is None:
        return []
    bounds = [subsheaf_weight_bound(system, j)
              for j in compress(range(1, system.curve.n + 1), system.pair.ker_rho_nonzero)]
    return [b for b in bounds if b is not None]


class WeightSystem(namedtuple("WeightSystem", "curve pair line subject intervals")):
    """A subject's weight system before any rule contributes to it.

    ``subject`` is the twisted sheaf whose slope inequalities give
    ``intervals``; ``pair`` is set only for a pair's kernel, whose declared
    subsheaf bounds ``declared_bounds`` builds.

    Fields::

        curve: ChainCurve
        pair: Optional[GeneratedPairData]
        line: LineBundleTwist
        subject: SheafNumerics
        intervals: IntervalChain
    """

    __slots__ = ()


def weight_system(curve: ChainCurve, subject: SheafNumerics | GeneratedPairData,
                  line: Optional[LineBundleTwist] = None) -> WeightSystem:
    """The weight system of ``subject`` twisted by ``line``.

    ``subject`` is sheaf numerics on ``curve``, or a generated pair, whose
    kernel ``kernel_numerics(curve, pair)`` is then built here; a sheaf on
    another curve, or a pair of another length, is refused.  Without
    ``line`` the subject is not twisted.  It builds no weight bound.
    """
    pair = subject if isinstance(subject, GeneratedPairData) else None
    if pair is not None:
        subject = kernel_numerics(curve, pair)
    elif subject.curve != curve:
        raise ValidationError("the sheaf lies on another curve than the one given")
    subject = subject if line is None else twist(subject, line)
    line = line if line is not None else LineBundleTwist.trivial(curve.n)
    return WeightSystem(curve, pair, line, subject, bigas_intervals(subject))
