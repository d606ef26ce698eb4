"""Test-only references for quantities the library no longer computes itself.

``slope`` is the polarized slope chi / sum(w_j * r_j) of a sheaf, which the
weight system encodes as intervals on partial sums but never evaluates; a
sheaf of non-uniform multirank has no derived chi, so it is passed in.
``enumerate_polarizations`` lists a whole grid, independently of the
oracle's level-by-level walk, so the walk can be held to a plain filter.

The library keeps partial-sum intervals as an integer ``IntervalChain``.
``chain`` builds one from rational endpoints, ``fractions_of`` reads one
back, and ``bigas_fractions`` is the Fraction formula that
``bigas_intervals`` used before it returned chains, kept as its oracle;
``inside`` tests a polarization against such Fraction intervals, and
``twisted_sheaf`` draws a subject of every kind of chain.
``weight_bound`` builds the integer ``WeightBound`` of a rational value.

The library holds every ratio as integers: a ``Polarization`` its weights
as ``nums`` over ``den``, an ``InfeasibilityCertificate`` its two bounds
as numerators over ``den``.  ``weights`` and ``cert_bound`` read them back
as Fractions, and ``frac_str`` is the "p/q" text that canonical JSON prints
for a Fraction, so tests state their values as rationals.
An interval here is a tuple ``(lower, upper, lower_open, upper_open)``
with ``None`` for an unbounded end; the two flags default to closed, and
an unbounded end is always open, as in the library.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from chainstab.curve_model import ChainCurve, LineBundleTwist, SheafNumerics, twist
from chainstab.feasibility import (InfeasibilityCertificate, IntervalChain, Polarization,
                                   WeightBound)
from chainstab.oracle import GridSpec


def weights(w: Polarization) -> tuple[Fraction, ...]:
    """The weights of ``w`` as Fractions."""
    return tuple(Fraction(a, w.den) for a in w.nums)


def cert_bound(cert: InfeasibilityCertificate, side: str) -> Fraction:
    """The ``side`` ("lower" or "upper") bound of ``cert`` as a Fraction."""
    return Fraction(getattr(cert, side), cert.den)


def frac_str(value: Fraction) -> str:
    """``value`` as canonical JSON prints a rational: "p/q", "0/1" for zero."""
    return f"{value.numerator}/{value.denominator}"


def slope(sheaf: SheafNumerics, w: Polarization, chi: Optional[int] = None) -> Fraction:
    """Polarized slope: global chi (``sheaf.chi`` unless given) over the weighted total rank."""
    chi = sheaf.chi if chi is None else chi
    return chi / sum(wj * rj for wj, rj in zip(weights(w), sheaf.multirank))


def weight_bound(index: int, value, lower: bool = False, **kwargs) -> WeightBound:
    """The bound w_index <= value, or w_index >= value when ``lower``, for a
    rational ``value``, as the library's integer ratio in lowest terms."""
    value = Fraction(value)
    return WeightBound(index, value.numerator, value.denominator, lower, **kwargs)


def enumerate_polarizations(spec: GridSpec) -> Iterator[Polarization]:
    """Every composition of the denominator into n positive parts, as weights.

    Lexicographic order by cut positions; weights reduce to lowest terms, so
    the count is exactly C(D-1, n-1).
    """
    d = spec.denominator
    for cuts in itertools.combinations(range(1, d), spec.n - 1):
        yield Polarization(tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (d,))), d)


UNBOUNDED = (None, None, True, True)
EMPTY = (Fraction(0), Fraction(0), True, True)


def _interval(iv) -> tuple:
    lo, hi, lo_open, hi_open = (tuple(iv) + (False, False))[:4]
    lo = None if lo is None else Fraction(lo)
    hi = None if hi is None else Fraction(hi)
    return lo, hi, lo_open or lo is None, hi_open or hi is None


def chain(intervals: Sequence[tuple]) -> IntervalChain:
    """The integer chain of ``intervals``, over the lcm of their denominators."""
    ivs = [_interval(iv) for iv in intervals]
    den = math.lcm(*(v.denominator for iv in ivs for v in iv[:2] if v is not None))

    def num(v):
        return None if v is None else v.numerator * (den // v.denominator)

    return IntervalChain(den, tuple(num(iv[0]) for iv in ivs), tuple(iv[2] for iv in ivs),
                         tuple(num(iv[1]) for iv in ivs), tuple(iv[3] for iv in ivs))


def fractions_of(c: IntervalChain) -> list[tuple]:
    """The intervals of ``c`` with Fraction ends, reduced."""
    def value(v):
        return None if v is None else Fraction(v, c.den)

    return [(value(lo), value(hi), lo_open, hi_open)
            for lo, lo_open, hi, hi_open in zip(c.lower, c.lower_open, c.upper, c.upper_open)]


def bigas_fractions(sheaf: SheafNumerics) -> list[tuple]:
    """The slope-inequality intervals X_i - m*i <= S_i * chi <= X_i - m*(i-1),
    divided out in Fractions index by index."""
    m = sheaf.uniform_rank()
    chi = sheaf.chi
    out = []
    part = 0
    for i in range(1, sheaf.n):
        part += sheaf.chi_components[i - 1]
        lo_const = part - m * i
        hi_const = part - m * (i - 1)
        if chi < 0:
            out.append((Fraction(hi_const, chi), Fraction(lo_const, chi), False, False))
        elif chi > 0:
            out.append((Fraction(lo_const, chi), Fraction(hi_const, chi), False, False))
        elif lo_const <= 0 <= hi_const:
            out.append(UNBOUNDED)
        else:
            out.append(EMPTY)
    return out


def inside(intervals: Sequence[tuple], w: Polarization) -> bool:
    """Whether every partial sum S_i of ``w`` lies in the i-th of ``intervals``,
    an open end excluding its own value, computed in Fractions."""
    s = Fraction(0)
    for x, iv in zip(weights(w), intervals):
        s += x
        lo, hi, lo_open, hi_open = _interval(iv)
        if lo is not None and (s < lo or (s == lo and lo_open)):
            return False
        if hi is not None and (s > hi or (s == hi and hi_open)):
            return False
    return True


def twisted_sheaf(rng: random.Random) -> SheafNumerics:
    """A uniform-rank sheaf twisted by a line bundle; half of them twisted to chi = 0."""
    n = rng.randint(2, 7)
    curve = ChainCurve(tuple(rng.randint(2, 5) for _ in range(n)))
    m = rng.randint(1, 4)
    degs = [rng.randint(-10, 10) for _ in range(n)]
    zero = rng.random() < 0.5
    if zero:
        degs[0] -= sum(degs) % m      # chi = sum(degs) mod m, so m now divides chi
    sheaf = SheafNumerics(curve, (m,) * n, degs)
    tw = [rng.randint(-4, 4) for _ in range(n)]
    if zero:
        # the twist adds m * sum(tw) to chi
        tw[-1] = -sheaf.chi // m - sum(tw[:-1])
    return twist(sheaf, LineBundleTwist(tuple(tw)))
