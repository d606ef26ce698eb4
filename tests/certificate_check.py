"""Rebuild both bounds of an infeasibility certificate from its weight system.

``check_certificate(cert, intervals, bounds)`` takes the system's integer
``IntervalChain`` and its weight bounds, and does not trust the numbers
printed in ``lower_reason`` and ``upper_reason``.  Each ``"; "``-separated
term names one constraint of the system:

* ``S_0 = 0`` or ``S_n = 1``, the fixed ends of the partial sums;
* ``S_k > 0``, ``S_k < 1`` or ``w_j > 0``, the open simplex;
* ``S_k <rel> ... (slope inequalities)``, an endpoint of the k-th interval;
* ``w_j <rel> ... (label)``, the tightest ``WeightBound`` on w_j of that
  side (``lower`` or not), strictness and label.

The checker takes each named constraint's value and strictness from the
system, recombines the terms into the bound they claim on the certificate's
quantity, and asserts that value and openness equal the certificate's.  A
bound on S_i is either a bound on some S_k shifted by same-side bounds on
the steps w_{k+1}..w_i, or S_n = 1 shifted back by the opposite-side bound
on w_n (then i = n - 1).  A bound on w_j is a single term on w_j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from chainstab import InfeasibilityCertificate, WeightBound
from chainstab.feasibility import IntervalChain
from reference import cert_bound, fractions_of

_TERM = re.compile(r"(S|w)_(\d+) (<=|>=|<|>|=) (\S+)(?: \((.*)\))?")
_LOWER = (">", ">=")
_UPPER = ("<", "<=")


class _Term(NamedTuple):
    var: str          # "S" or "w"
    index: int
    side: str         # "lower", "upper" or "anchor" (S_0 = 0, S_n = 1)
    value: Fraction   # taken from the system, never from the text
    open: bool


def _resolve(text: str, intervals: Sequence[tuple], by_key: dict) -> _Term:
    """The constraint ``text`` names, with its value and strictness from the system."""
    n = len(intervals) + 1
    match = _TERM.fullmatch(text)
    assert match, f"unparsable term {text!r}"
    var, index, rel, shown, label = match.groups()
    index = int(index)
    side = "lower" if rel in _LOWER else "upper" if rel in _UPPER else "anchor"
    strict = rel in (">", "<")
    if side == "anchor":
        assert var == "S" and label is None and (index, shown) in ((0, "0"), (n, "1")), text
        return _Term(var, index, side, Fraction(1 if index == n else 0), False)
    if label is None:
        # the open simplex: S_k > 0, S_k < 1, w_j > 0
        assert strict and (var, side, shown) in (("S", "lower", "0"), ("S", "upper", "1"),
                                                 ("w", "lower", "0")), text
        assert 1 <= index <= (n - 1 if var == "S" else n), text
        return _Term(var, index, side, Fraction(1 if side == "upper" else 0), True)
    if var == "S":
        assert label == "slope inequalities" and 1 <= index <= n - 1, text
        lower, upper, lower_open, upper_open = intervals[index - 1]
        value, is_open = (lower, lower_open) if side == "lower" else (upper, upper_open)
        assert value is not None and is_open == strict, text
        return _Term(var, index, side, value, is_open)
    matches = by_key.get((index, side == "lower", strict, label))
    assert matches, f"no weight bound of the system matches {text!r}"
    values = [Fraction(b.num, b.den) for b in matches]
    return _Term(var, index, side, max(values) if side == "lower" else min(values), strict)


def _combine(reason: str, quantity: str, side: str, intervals, by_key) -> tuple[Fraction, bool]:
    """The bound on ``quantity`` that the terms of ``reason`` add up to."""
    n = len(intervals) + 1
    terms = [_resolve(t, intervals, by_key) for t in reason.split("; ")]
    var, index = quantity.split("_")
    index = int(index)
    if var == "w":
        assert len(terms) == 1, reason
        (t,) = terms
        assert (t.var, t.index, t.side) == ("w", index, side), reason
        return t.value, t.open
    first, steps = terms[0], terms[1:]
    if first.side == "anchor" and first.index == n:
        other = "upper" if side == "lower" else "lower"
        assert index == n - 1 and len(steps) == 1, reason
        (t,) = steps
        assert (t.var, t.index, t.side) == ("w", n, other), reason
        return 1 - t.value, t.open
    assert first.var == "S" and first.side in (side, "anchor"), reason
    k = first.index
    assert k + len(steps) == index, reason
    for offset, t in enumerate(steps, start=1):
        assert (t.var, t.index, t.side) == ("w", k + offset, side), reason
    return (first.value + sum(t.value for t in steps),
            first.open or any(t.open for t in steps))


def check_certificate(cert: InfeasibilityCertificate, intervals: IntervalChain,
                      bounds: Sequence[WeightBound] = ()) -> None:
    """Assert that ``cert``'s two bounds follow from the system, and clash."""
    by_key: dict = {}
    for b in bounds:
        by_key.setdefault((b.index, b.lower, b.open, b.label), []).append(b)
    intervals = fractions_of(intervals)
    lower = _combine(cert.lower_reason, cert.quantity, "lower", intervals, by_key)
    upper = _combine(cert.upper_reason, cert.quantity, "upper", intervals, by_key)
    assert lower == (cert_bound(cert, "lower"), cert.lower_open), (cert, lower)
    assert upper == (cert_bound(cert, "upper"), cert.upper_open), (cert, upper)
    assert cert.verify()
