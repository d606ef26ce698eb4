"""Test-only references for quantities the library no longer computes itself.

``slope`` is the polarized slope chi / sum(w_j * r_j) of a sheaf, which the
weight system encodes as intervals on partial sums but never evaluates; a
sheaf of non-uniform multirank has no derived chi, so it is passed in.
``enumerate_polarizations`` lists a whole grid, independently of the
oracle's level-by-level walk, so the walk can be held to a plain filter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional

from chainstab.curve_model import SheafNumerics
from chainstab.feasibility import Polarization
from chainstab.oracle import GridSpec


def slope(sheaf: SheafNumerics, w: Polarization, chi: Optional[int] = None) -> Fraction:
    """Polarized slope: global chi (``sheaf.chi`` unless given) over the weighted total rank."""
    chi = sheaf.chi if chi is None else chi
    return chi / sum(wj * rj for wj, rj in zip(w.weights, sheaf.multirank))


def enumerate_polarizations(spec: GridSpec) -> Iterator[Polarization]:
    """Every composition of the denominator into n positive parts, as weights.

    Lexicographic order by cut positions; fractions reduce automatically, so
    the count is exactly C(D-1, n-1).
    """
    d = spec.denominator
    for cuts in itertools.combinations(range(1, d), spec.n - 1):
        yield Polarization(tuple(Fraction(hi - lo, d)
                                 for lo, hi in zip((0,) + cuts, cuts + (d,))))
