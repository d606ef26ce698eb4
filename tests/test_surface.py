"""The package's public surface, and the names the benchmark looks up.

``chainstab`` exports what the command line uses and the types that flow
through it; everything else is reached through its module.  The benchmark
(``bench/``) finds its per-layer entry points by module and name, so a rename
there would silently zero its per-layer metrics instead of failing.
"""

import importlib
import inspect

import chainstab

EXPORTED = [
    "ChainCurve", "GeneratedPairData", "LineBundleTwist", "SheafNumerics",
    "kernel_numerics",
    "ChainstabError", "ContradictoryHypotheses", "InternalInvariantError",
    "RuleNotApplicable", "UnsupportedData", "ValidationError",
    "FeasibleRegion", "InfeasibilityCertificate", "Polarization",
    "WeightBound", "WeightSystem", "simplex_intersect", "weight_system",
    "ORACLE_WORK_LIMIT", "GridSpec", "ValidationReport", "cross_validate",
    "Report", "Verdict", "analyze", "analyze_sheaf",
    "__version__",
]

BENCH_LOOKUPS = {
    "cli": ("parse_scenario", "cmd_check", "cmd_polarize", "cmd_oracle", "canonical_json"),
    "oracle": ("cross_validate", "brute_force_region"),
}


def test_all_is_the_documented_list():
    assert chainstab.__all__ == EXPORTED
    public = {name for name, value in vars(chainstab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(EXPORTED) - {"__version__"}
    assert all(hasattr(chainstab, name) for name in EXPORTED)


def test_bench_entry_points_are_public_module_functions():
    for layer, names in BENCH_LOOKUPS.items():
        module = importlib.import_module(f"chainstab.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
                f"chainstab.{layer}.{name}"
