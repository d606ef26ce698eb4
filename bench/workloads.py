"""Seeded inputs for the three benchmark workloads.

Every workload is a list of ops, one *pass*; the timed loop repeats the pass.
An op is one scenario dict plus the command that takes it through the
library path a caller uses (``parse_scenario`` -> ``cmd_*`` ->
``canonical_json``).  The same seed always yields the same pass.

The seed changes the content of scenarios (genera, degrees, flags, where a
long chain runs dry) but never their sizes, so runs with different seeds
measure the same amount of work.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional


class Op(NamedTuple):
    command: str                     # "check", "polarize" or "oracle"
    data: dict                       # scenario, integers and booleans only
    denominator: Optional[int] = None
    twist_range: Optional[int] = None


class WorkloadSpec(NamedTuple):
    why: str
    min_passes: int    # the timed loop always completes this many passes


WORKLOADS = {
    "corpus": WorkloadSpec(
        "many small mixed scenarios: per-op overhead of parsing, rules, kernel "
        "numerics and tiny sweeps", 1),
    "long_chain": WorkloadSpec(
        "chains of 10^3..10^4 components: the per-index cost of the sweep and of "
        "serializing n intervals", 7),
    "oracle": WorkloadSpec(
        "brute-force grid enumeration and destabilizer sweeps; the stability "
        "rules are bypassed", 8),
}

CORPUS_SIZE = 4000
LONG_SIZES = (1000, 3000, 10000)

# Oracle work is C(D-1, n-1) grid points plus, when the scenario meets the
# twist-independent instability condition, C(D-1, n-1) * (2B+1)^n
# destabilizer checks.  Any oracle op estimated above this many units is
# refused before anything runs: the largest op here is about 5.0e6, while
# the CLI defaults on a 6-component chain would be about 5.9e11.
ORACLE_WORK_LIMIT = 10_000_000

README_PAIR = {"curve": {"genera": [2, 2]},
               "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [6, 6],
                                    "twisted_sections_nonzero": [True, False],
                                    "restriction_semistable": [True, False],
                                    "ker_rho_nonzero": [True, False]}}}
UNBALANCED_LINE_BUNDLE = {"curve": {"genera": [2, 2]},
                          "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 4]}}}
TRIVIAL_BUNDLE = {"curve": {"genera": [2, 2]},
                  "subject": {"sheaf": {"multirank": [1, 1], "multidegree": [0, 0]}}}
ALL_TWISTS_3 = {"curve": {"genera": [2, 2, 2]},
                "subject": {"pair": {"rank": 2, "sections": 4, "multidegree": [3, 3, 3],
                                     "ker_rho_nonzero": [True, True, True]}}}
ALL_TWISTS_4 = {"curve": {"genera": [2, 2, 2, 2]},
                "subject": {"pair": {"rank": 1, "sections": 3, "multidegree": [3, 3, 3, 3],
                                     "ker_rho_nonzero": [True, True, True, True]}}}

PAIR_FLAGS = ("restriction_semistable", "restriction_stable",
              "kernel_restriction_semistable", "kernel_restriction_stable",
              "ker_rho_nonzero", "twisted_sections_nonzero", "h1_vanishes")


def build(workload: str, seed: int) -> list[Op]:
    """One pass of ``workload`` for ``seed``."""
    if workload == "corpus":
        ops = corpus_ops(seed)
    elif workload == "long_chain":
        ops = long_chain_ops(seed)
    elif workload == "oracle":
        ops = oracle_ops(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    for op in ops:
        if op.command == "oracle":
            work = oracle_estimate(op)
            if work["grid_points"] + work["checks"] > ORACLE_WORK_LIMIT:
                raise ValueError(
                    f"oracle op estimated at {work['grid_points']} grid points and "
                    f"{work['checks']} destabilizer checks, above the limit of "
                    f"{ORACLE_WORK_LIMIT} units")
    return ops


# --------------------------------------------------------------------------
# corpus: seeded small scenarios covering every verdict path.
# --------------------------------------------------------------------------

def corpus_ops(seed: int, size: int = CORPUS_SIZE) -> list[Op]:
    rng = random.Random(f"corpus:{seed}")
    ops = [Op("check", README_PAIR), Op("polarize", README_PAIR),
           Op("check", UNBALANCED_LINE_BUNDLE), Op("polarize", TRIVIAL_BUNDLE),
           Op("check", TRIVIAL_BUNDLE), Op("check", ALL_TWISTS_3)]
    while len(ops) < size:
        command = "check" if rng.random() < 0.75 else "polarize"
        n = rng.randint(2, 6)
        genera = [rng.randint(2, 6) for _ in range(n)]
        if rng.random() < 0.8:
            subject = {"pair": _corpus_pair(rng, n)}
        else:
            subject = {"sheaf": _corpus_sheaf(rng, n)}
        data = {"curve": {"genera": genera}, "subject": subject}
        if rng.random() < 0.3:
            data["twist"] = {"multidegree": [rng.randint(-3, 3) for _ in range(n)]}
        ops.append(Op(command, data))
    return ops


def _corpus_sheaf(rng: random.Random, n: int) -> dict:
    m = rng.randint(1, 3)
    if rng.random() < 0.1:
        ranks = [rng.randint(1, 3) for _ in range(n)]   # non-uniform: often refused
    else:
        ranks = [m] * n
    return {"multirank": ranks, "multidegree": [rng.randint(-8, 8) for _ in range(n)]}


def _corpus_pair(rng: random.Random, n: int) -> dict:
    """Flags drawn per recipe so that every criterion fires somewhere in the corpus."""
    rank = rng.randint(1, 3)
    m = rng.randint(1, 4)
    degs = [rng.randint(0, 3 * rank + 4) for _ in range(n)]
    flags = {name: [False] * n for name in PAIR_FLAGS}
    recipe = rng.choice(("endpoint", "middle", "all_twists", "two_component", "genus",
                         "semistable", "semistable", "random", "random", "none",
                         "contradictory"))
    if recipe == "endpoint":
        j = rng.choice((0, n - 1))
        degs[j] = max(degs[j], rank, m + 1)
        flags["twisted_sections_nonzero"][j] = flags["restriction_semistable"][j] = True
        flags["ker_rho_nonzero"][j] = rng.random() < 0.5
    elif recipe == "middle" and n >= 3:
        j = rng.randint(1, n - 2)
        degs[j] = max(degs[j], rank, 2 * m + 1)
        flags["twisted_sections_nonzero"][j] = flags["restriction_semistable"][j] = True
    elif recipe == "all_twists":
        flags["ker_rho_nonzero"] = [True] * n
        while sum(degs) <= m * (n - 1):
            degs[rng.randrange(n)] += rank + 1
    elif recipe == "two_component":
        flags["ker_rho_nonzero"] = [True] * n
        flags["restriction_semistable"] = [True] * n
    elif recipe == "genus":
        flags["h1_vanishes"] = [True] * n
        flags["ker_rho_nonzero"] = [True] * n
    elif recipe == "semistable":
        flags["kernel_restriction_semistable"] = [True] * n
        flags["kernel_restriction_stable"] = [rng.random() < 0.2 for _ in range(n)]
        flags["ker_rho_nonzero"] = [rng.random() < 0.3 for _ in range(n)]
        flags["restriction_semistable"] = [rng.random() < 0.5 for _ in range(n)]
    elif recipe == "random":
        for name in PAIR_FLAGS:
            flags[name] = [rng.random() < 0.3 for _ in range(n)]
    elif recipe == "contradictory":
        # a twisted section on a semistable restriction obstructs kernel
        # semistability, which is then declared anyway
        j = rng.randrange(n)
        degs[j] = max(degs[j], rank)
        flags["twisted_sections_nonzero"][j] = flags["restriction_semistable"][j] = True
        flags["kernel_restriction_semistable"] = [True] * n
    # keep the declared flags self-consistent so that refusals come from the
    # hypotheses the analyzer screens, not from malformed data
    for j in range(n):
        if flags["restriction_stable"][j]:
            flags["restriction_semistable"][j] = True
        if flags["kernel_restriction_stable"][j]:
            flags["kernel_restriction_semistable"][j] = True
        if (flags["twisted_sections_nonzero"][j] and flags["restriction_semistable"][j]
                and degs[j] < rank):
            degs[j] = rank
    pair = {"rank": rank, "sections": rank + m, "multidegree": degs}
    pair.update({name: vals for name, vals in flags.items() if any(vals)})
    return pair


# --------------------------------------------------------------------------
# long_chain: n in LONG_SIZES, feasible and late-infeasible systems.
# --------------------------------------------------------------------------

def long_chain_ops(seed: int) -> list[Op]:
    """Five ops per chain length.

    * a pair whose kernel is feasible, through ``polarize`` and ``check``;
    * the same pair twisted so that the sweep runs dry at an index in the
      last tenth of the chain, through ``polarize`` and ``check``;
    * a raw sheaf with negative chi on every component, through ``check``.

    Five ops per length make 15 per pass, an odd count, so the median op
    and the tail op each sit inside one op's cluster of samples rather than
    on the gap between two.
    """
    rng = random.Random(f"long_chain:{seed}")
    ops = []
    for n in LONG_SIZES:
        genera = [rng.randint(2, 6) for _ in range(n)]
        rank = rng.randint(1, 3)
        m = rng.randint(1, 3)
        degs = [rng.randint(0, 12) for _ in range(n)]
        pair = {"curve": {"genera": genera},
                "subject": {"pair": {"rank": rank, "sections": rank + m, "multidegree": degs}}}
        # kernel chi_j = m(1 - g_j) - d_j; the strict sweep at S_k fails as
        # soon as the twisted chi_k reaches 2m, and the closed relaxation
        # fails too once it exceeds 2m
        k = rng.randint(n - n // 10, n - 2)
        chi_k = m * (1 - genera[k]) - degs[k]
        tw = [0] * n
        tw[k] = (3 * m - chi_k) // m + 1
        dry = dict(pair, twist={"multidegree": tw})
        sheaf_ranks = [m] * n
        sheaf_degs = [rng.randint(-6, m * (g - 1) - 1) for g in genera]
        sheaf = {"curve": {"genera": genera},
                 "subject": {"sheaf": {"multirank": sheaf_ranks, "multidegree": sheaf_degs}}}
        ops += [Op("polarize", pair), Op("check", pair),
                Op("polarize", dry), Op("check", dry), Op("check", sheaf)]
    return ops


# --------------------------------------------------------------------------
# oracle: all-twists destabilizer sweeps plus grid-only enumerations.
# --------------------------------------------------------------------------

GRID_ONLY_SHAPES = ((60, 4), (30, 6), (60, 6))


def oracle_ops(seed: int) -> list[Op]:
    """Acceptance-6, a 4-component all-twists case and three grid-only grids.

    The two all-twists scenarios are fixed.  The grid-only subjects are
    kernels of pairs with no restriction kernel declared, so the
    destabilizer sweep stays off.  A kernel's partial-sum intervals are
    disjoint and about one grid step wide here, so enumerating the
    C(D-1, n-1) cut positions dominates.  The seed shuffles the genera and
    degrees of components 2..n; the first component and the totals stay
    fixed, and with them the first interval, which decides how far most
    cut positions get, so the cost barely depends on the seed.
    """
    rng = random.Random(f"oracle:{seed}")
    ops = [Op("oracle", ALL_TWISTS_3, 24, 3), Op("oracle", ALL_TWISTS_4, 12, 2)]
    for d, n in GRID_ONLY_SHAPES:
        genera = [2 + j % 3 for j in range(n)]
        degs = [2 + 3 * j % 7 for j in range(n)]
        for values in (genera, degs):
            rest = values[1:]
            rng.shuffle(rest)
            values[1:] = rest
        rank = rng.randint(1, 2)
        data = {"curve": {"genera": genera},
                "subject": {"pair": {"rank": rank, "sections": rank + 1, "multidegree": degs}}}
        ops.append(Op("oracle", data, d, 3))
    return ops


def all_twists_condition(data: dict) -> bool:
    """The condition under which ``oracle`` runs the destabilizer sweep."""
    pair = data["subject"].get("pair")
    if pair is None:
        return False
    n = len(data["curve"]["genera"])
    ker = pair.get("ker_rho_nonzero", [False] * n)
    m = pair["sections"] - pair["rank"]
    return all(ker) and sum(pair["multidegree"]) > m * (n - 1)


def oracle_estimate(op: Op) -> dict:
    """Grid points and destabilizer checks an oracle op will perform."""
    n = len(op.data["curve"]["genera"])
    grid = math.comb(op.denominator - 1, n - 1)
    checks = grid * (2 * op.twist_range + 1) ** n if all_twists_condition(op.data) else 0
    return {"grid_points": grid, "checks": checks}
