"""Exact-arithmetic polarization stability analysis on chain-like nodal curves.

The package exports what the ``chainstab`` command uses: the entry points
``analyze``, ``analyze_sheaf``, ``weight_system``, ``simplex_intersect`` and
``cross_validate``, the types they take and return (``SheafNumerics`` builds
a sheaf from its ranks and degrees), the kernel builder ``kernel_numerics``
and the error classes.  Everything else is reached through its module.

A weight system's slope-inequality intervals are integers throughout: a
``feasibility.IntervalChain`` of numerators over |chi| (1 when chi = 0),
held by ``WeightSystem.intervals`` and ``FeasibleRegion.s_intervals`` and
printed as reduced "p/q" strings.  A ``WeightBound`` is an integer ratio
too, built by ``feasibility.declared_bounds`` only for the ``check`` and
``oracle`` sweeps and tested at a weight by ``WeightBound.admits``.  So is
everything else: a ``Polarization`` holds integer numerators over one
denominator, and an ``InfeasibilityCertificate`` its two bounds as
numerators over the swept system's denominator.  No module imports
``fractions``; ratios become text only when printed.
"""

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          kernel_numerics)
from .errors import (ChainstabError, ContradictoryHypotheses, InternalInvariantError,
                     RuleNotApplicable, UnsupportedData, ValidationError)
from .feasibility import (FeasibleRegion, InfeasibilityCertificate, Polarization,
                          WeightBound, WeightSystem, simplex_intersect, weight_system)
from .oracle import ORACLE_WORK_LIMIT, GridSpec, ValidationReport, cross_validate
from .stability import Report, Verdict, analyze, analyze_sheaf

__version__ = "0.1.0"

__all__ = [
    "ChainCurve", "GeneratedPairData", "LineBundleTwist", "SheafNumerics", "kernel_numerics",
    "ChainstabError", "ContradictoryHypotheses", "InternalInvariantError",
    "RuleNotApplicable", "UnsupportedData", "ValidationError",
    "FeasibleRegion", "InfeasibilityCertificate", "Polarization", "WeightBound",
    "WeightSystem", "simplex_intersect", "weight_system", "ORACLE_WORK_LIMIT", "GridSpec",
    "ValidationReport", "cross_validate", "Report", "Verdict", "analyze", "analyze_sheaf",
    "__version__",
]
