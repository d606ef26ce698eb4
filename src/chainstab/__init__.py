"""Exact-arithmetic polarization stability analysis on chain-like nodal curves."""

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          arithmetic_genus, chi_structure_sheaf, kernel_numerics,
                          kernel_twisted_chi, sheaf_from_multidegree, twist, validate_pair)
from .errors import (ChainstabError, ContradictoryHypotheses, InternalInvariantError,
                     RuleNotApplicable, UnsupportedData, ValidationError)
from .feasibility import (BOUNDARY_ONLY, FEASIBLE, INFEASIBLE, FeasibleRegion,
                          InfeasibilityCertificate, Polarization, RationalInterval,
                          WeightBound, WeightSystem, bigas_intervals, check_bigas,
                          find_polarization, prove_infeasible_with_certificate,
                          simplex_intersect, slope, subsheaf_slope_constraints, weight_system)
from .oracle import (ORACLE_WORK_LIMIT, DestabilizerWitness, GridSpec, ValidationReport,
                     brute_force_region, cross_validate, destabilizer_witness,
                     enumerate_polarizations, work_estimate)
from .stability import (INCONCLUSIVE, STRONGLY_UNSTABLE, W_SEMISTABLE, W_STABLE, H0Bound,
                        KBoundResult, Report, Verdict, analyze, analyze_sheaf,
                        clifford_h0_bound, h0_global_bound, k_bound_check)

__version__ = "0.1.0"
