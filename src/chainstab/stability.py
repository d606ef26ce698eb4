"""Stability criteria for kernel bundles of generated pairs, as verdict rules.

Each rule certifies exactly what its hypotheses support and nothing more:
absence of a firing rule is always ``inconclusive``, never "stable".  The
rules split into two families whose hypotheses exclude each other, and
contradictory inputs are rejected before any rule fires:

* semistability: if every component restriction of the kernel bundle is
  semistable, some polarization makes the kernel w-semistable (w-stable if
  one restriction is stable); the witness is constructive.
* strong instability: a component with enough degree relative to the kernel
  rank, together with a declared section vanishing at its nodes, forces a
  weight bound that clashes with the necessary slope inequalities for every
  polarization at once.

A subject has one weight system, built by ``feasibility.weight_system``:
the slope-inequality intervals of the (possibly twisted) kernel and the
weight bound of every declared destabilizing subsheaf.  The rules are
predicates over that system that report whether they fire and which bounds
they add; ``analyze`` builds the system once, adds the firing rules'
bounds and decides it with one sweep, so the certificate or witness of a
verdict always comes from the region printed beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          arithmetic_genus, kernel_numerics, validate_pair)
from .errors import (ContradictoryHypotheses, InternalInvariantError, RuleNotApplicable,
                     ValidationError)
from .feasibility import (FEASIBLE, FeasibleRegion, InfeasibilityCertificate, Polarization,
                          WeightBound, WeightSystem, simplex_intersect, subsheaf_weight_bound,
                          weight_system)
from .oracle import destabilizer_witness

W_SEMISTABLE = "w_semistable"
W_STABLE = "w_stable"
STRONGLY_UNSTABLE = "strongly_unstable"
INCONCLUSIVE = "inconclusive"

CRITERION_KERNEL_RESTRICTIONS = "kernel-restrictions-semistable"
CRITERION_ENDPOINT = "endpoint-degree-excess"
CRITERION_MIDDLE = "middle-degree-excess"
CRITERION_ALL_TWISTS = "all-twists-degree-ratio"
CRITERION_TWO_COMPONENT = "two-component-kernel-sections"
CRITERION_GENUS_BOUND = "genus-bound"
CRITERION_GENERIC = "weight-system-infeasible"
CRITERION_NONE = "none"

_KINDS = (W_SEMISTABLE, W_STABLE, STRONGLY_UNSTABLE, INCONCLUSIVE)

_EVERY_TWIST = ("instability holds for every line-bundle twist: the firing condition "
                "does not involve the twist")
_SCREEN_CONFLICT = ("the declared subsheaf bounds exclude every polarization while every "
                    "kernel restriction is declared semistable")
# Rules whose firing condition alone empties the weight system.
_CLASHING = (CRITERION_ENDPOINT, CRITERION_MIDDLE, CRITERION_ALL_TWISTS)

METHOD_CLIFFORD = "clifford"
METHOD_RIEMANN_ROCH = "riemann_roch_h1_zero"
METHOD_UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one rule: what it certifies, and the evidence."""

    kind: str
    criterion: str
    witness: Optional[Polarization] = None
    certificate: Optional[InfeasibilityCertificate] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown verdict kind {self.kind!r}")
        if self.kind in (W_SEMISTABLE, W_STABLE) and self.witness is None:
            raise ValidationError("a semistability verdict requires a witness polarization")


@dataclass(frozen=True)
class H0Bound:
    """Per-component and global upper bounds for the section count.

    ``total`` is sum(per_component) - (n-1)*rank when every component has a
    bound, else ``None``.
    """

    per_component: tuple[Optional[int], ...]
    methods: tuple[str, ...]
    total: Optional[int]


@dataclass(frozen=True)
class KBoundResult:
    """Result of the global section-count bound check.

    ``holds`` records that the bound is strictly below total degree + rank
    (guaranteed whenever the check's preconditions are met);
    ``k_within_bound`` compares the declared section count against the bound.
    """

    bound: int
    holds: bool
    k_within_bound: bool
    h0: H0Bound


@dataclass(frozen=True)
class Report:
    """Aggregated analysis: strongest verdict plus all diagnostics."""

    verdict: Verdict
    region: Optional[FeasibleRegion]
    sheaf: SheafNumerics
    obstructions: tuple[bool, ...]
    fired: tuple[str, ...]
    k_bound: Optional[KBoundResult]
    notes: tuple[str, ...] = ()


class _Rule(NamedTuple):
    """One rule's evaluation: whether it fired, why, and the bounds it adds."""

    criterion: str
    fired: bool
    notes: tuple[str, ...]
    bounds: tuple[WeightBound, ...] = ()


def _obstructions(pair: GeneratedPairData) -> tuple[tuple[bool, ...], list[int]]:
    """Obstructed components, and the 1-based ones also declared kernel-semistable."""
    obstructed = tuple(ts and ss for ts, ss in
                       zip(pair.twisted_sections_nonzero, pair.restriction_semistable))
    conflicts = [j + 1 for j, (o, ks) in
                 enumerate(zip(obstructed, pair.kernel_restriction_semistable)) if o and ks]
    return obstructed, conflicts


def restriction_obstruction(curve: ChainCurve, pair: GeneratedPairData) -> list[bool]:
    """Components where the kernel restriction is certified non-semistable.

    A semistable component restriction together with a section vanishing at
    the component's nodes forces degree >= rank > 0 there, so the trivial
    subbundle of constant kernel sections destabilizes the restricted kernel.
    Claiming kernel_restriction_semistable on such a component is a
    contradiction and is rejected.
    """
    validate_pair(curve, pair)
    obstructed, conflicts = _obstructions(pair)
    if conflicts:
        raise ContradictoryHypotheses(
            f"components {conflicts}: the kernel restriction cannot be semistable when a "
            "twisted section exists and the bundle restriction is semistable")
    return list(obstructed)


def _semistable(pair: GeneratedPairData, region: FeasibleRegion,
                notes: tuple[str, ...] = ()) -> Verdict:
    kind = W_STABLE if any(pair.kernel_restriction_stable) else W_SEMISTABLE
    return Verdict(kind, CRITERION_KERNEL_RESTRICTIONS, witness=region.witness, notes=notes)


def certify_w_semistable(curve: ChainCurve, pair: GeneratedPairData) -> Verdict:
    """Constructive semistability certificate for the kernel bundle.

    Requires every kernel restriction to be declared semistable; the witness
    satisfies the slope inequalities and every declared subsheaf bound, and
    declared bounds that exclude every polarization contradict the
    semistability claim.  A stable restriction on any component upgrades
    the verdict to w-stable.
    """
    kernel = kernel_numerics(curve, pair)
    if not all(pair.kernel_restriction_semistable):
        missing = [j + 1 for j, f in enumerate(pair.kernel_restriction_semistable) if not f]
        return Verdict(INCONCLUSIVE, CRITERION_KERNEL_RESTRICTIONS,
                       notes=(f"kernel restriction semistability not asserted for "
                              f"components {missing}",))
    system = weight_system(curve, kernel, pair=pair)
    region = simplex_intersect(system.intervals, system.declared)
    if region.status != FEASIBLE:
        raise ContradictoryHypotheses(_SCREEN_CONFLICT)
    return _semistable(pair, region)


def clifford_h0_bound(genus: int, rank: int, degree: int, semistable: bool = True,
                      h1_vanishes: bool = False) -> tuple[Optional[int], str]:
    """Section-count bound for one semistable component bundle.

    In the slope range [0, 2g-2] the bound is floor(d/2) + r; above the
    range (where h1 vanishes for semistable bundles, or when h1 vanishing is
    declared) it is the Euler characteristic d + r(1-g).  Returns
    ``(None, "unbounded")`` when neither applies.
    """
    if genus < 2 or rank < 1 or degree < 0:
        raise ValidationError("the section bound needs genus >= 2, rank >= 1, degree >= 0")
    mu = Fraction(degree, rank)
    if mu <= 2 * genus - 2:
        if semistable:
            return degree // 2 + rank, METHOD_CLIFFORD
        if h1_vanishes:
            return degree + rank * (1 - genus), METHOD_RIEMANN_ROCH
        return None, METHOD_UNBOUNDED
    if semistable or h1_vanishes:
        return degree + rank * (1 - genus), METHOD_RIEMANN_ROCH
    return None, METHOD_UNBOUNDED


def h0_global_bound(curve: ChainCurve, pair: GeneratedPairData) -> H0Bound:
    """Global section bound from per-component bounds and the node correction."""
    validate_pair(curve, pair)
    per = []
    methods = []
    for j in range(curve.n):
        b, meth = clifford_h0_bound(curve.genera[j], pair.rank, pair.multidegree[j],
                                    semistable=pair.restriction_semistable[j],
                                    h1_vanishes=pair.h1_vanishes[j])
        per.append(b)
        methods.append(meth)
    total = None
    if all(b is not None for b in per):
        total = sum(per) - (curve.n - 1) * pair.rank
    return H0Bound(tuple(per), tuple(methods), total)


def k_bound_check(curve: ChainCurve, pair: GeneratedPairData) -> KBoundResult:
    """Check the strict bound (section count) < degree + rank.

    Applicable when every restriction is semistable and some component has
    positive degree; the computed global bound is then always strictly below
    d + r, and the declared section count is validated against it.
    """
    validate_pair(curve, pair)
    if not all(pair.restriction_semistable):
        raise RuleNotApplicable("the section bound needs every restriction semistable")
    if all(d == 0 for d in pair.multidegree):
        raise RuleNotApplicable("the section bound needs a component of positive degree")
    h0 = h0_global_bound(curve, pair)
    if h0.total is None:
        raise InternalInvariantError("semistable components always yield a finite bound")
    bound = h0.total
    return KBoundResult(bound=bound,
                        holds=bound < pair.total_degree + pair.rank,
                        k_within_bound=pair.sections <= bound,
                        h0=h0)


def _component_bound(system: WeightSystem, j: int) -> tuple[WeightBound, ...]:
    bound = subsheaf_weight_bound(system.curve, system.line, system.target, j)
    return () if bound is None else (bound,)


def _endpoint(system: WeightSystem) -> _Rule:
    pair, m = system.pair, system.pair.kernel_rank
    for j in (1, system.curve.n):
        if (pair.twisted_sections_nonzero[j - 1] and pair.restriction_semistable[j - 1]
                and m < pair.multidegree[j - 1]):
            return _Rule(CRITERION_ENDPOINT, True,
                         (f"component {j}: kernel rank {m} < degree {pair.multidegree[j - 1]}",),
                         _component_bound(system, j))
    return _Rule(CRITERION_ENDPOINT, False, ("end-component conditions not met",))


def _middle(system: WeightSystem) -> _Rule:
    pair, m = system.pair, system.pair.kernel_rank
    for j in range(2, system.curve.n):
        if (pair.twisted_sections_nonzero[j - 1] and pair.restriction_semistable[j - 1]
                and m < Fraction(pair.multidegree[j - 1], 2)):
            return _Rule(CRITERION_MIDDLE, True,
                         (f"component {j}: kernel rank {m} < degree "
                          f"{pair.multidegree[j - 1]}/2",),
                         _component_bound(system, j))
    if system.curve.n == 2:
        return _Rule(CRITERION_MIDDLE, False, ("no middle component on a two-component chain",))
    return _Rule(CRITERION_MIDDLE, False, ("middle-component conditions not met",))


def _all_twists(system: WeightSystem) -> _Rule:
    curve, pair, m = system.curve, system.pair, system.pair.kernel_rank
    if not all(pair.ker_rho_nonzero):
        return _Rule(CRITERION_ALL_TWISTS, False,
                     ("restriction kernels are not declared non-zero everywhere",))
    if not pair.degree_ratio_exceeds():
        return _Rule(CRITERION_ALL_TWISTS, False,
                     (f"degree ratio {pair.total_degree}/{m} does not exceed {curve.n - 1}",))
    notes = [_EVERY_TWIST]
    if not system.line.is_trivial():
        w = Polarization(tuple(Fraction(1, curve.n) for _ in range(curve.n)))
        witness = destabilizer_witness(curve, pair, w, system.line)
        if witness is not None:
            notes.append(
                f"supplied twist, barycentric weights: component {witness.component} "
                f"subsheaf slope {witness.subsheaf_slope} exceeds {witness.target_slope}")
    return _Rule(CRITERION_ALL_TWISTS, True, tuple(notes))


def _two_component(system: WeightSystem) -> _Rule:
    curve, pair = system.curve, system.pair
    if curve.n != 2:
        return _Rule(CRITERION_TWO_COMPONENT, False,
                     ("rule applies to two-component chains only",))
    if not (all(pair.ker_rho_nonzero) and all(pair.restriction_semistable)):
        return _Rule(CRITERION_TWO_COMPONENT, False,
                     ("needs non-zero restriction kernels and semistable restrictions on "
                      "both components",))
    try:
        kb = k_bound_check(curve, pair)
    except RuleNotApplicable as exc:
        return _Rule(CRITERION_TWO_COMPONENT, False, (str(exc),))
    if not pair.degree_ratio_exceeds():
        return _Rule(CRITERION_TWO_COMPONENT, False,
                     ("declared section count is inconsistent with the derived "
                      f"bound {kb.bound}; degree condition not confirmed",))
    return _Rule(CRITERION_TWO_COMPONENT, True,
                 (f"section bound {kb.bound} < degree + rank = "
                  f"{pair.total_degree + pair.rank} forces the degree ratio", _EVERY_TWIST))


def _genus_bound(system: WeightSystem) -> _Rule:
    curve, pair, m = system.curve, system.pair, system.pair.kernel_rank
    if not (all(pair.h1_vanishes) and all(pair.ker_rho_nonzero)):
        return _Rule(CRITERION_GENUS_BOUND, False,
                     ("needs h1 vanishing and non-zero restriction kernels everywhere",))
    p_a = arithmetic_genus(curve)
    threshold = Fraction((curve.n - 2) * m, pair.rank)
    if p_a <= threshold:
        return _Rule(CRITERION_GENUS_BOUND, False,
                     (f"arithmetic genus {p_a} does not exceed {threshold}",))
    notes = [f"arithmetic genus {p_a} > {threshold}; instability holds for every "
             "line-bundle twist"]
    if not pair.degree_ratio_exceeds():
        notes.append("declared section count is inconsistent with the h1-vanishing "
                     "section count")
    return _Rule(CRITERION_GENUS_BOUND, True, tuple(notes))


# The fixed order in which rules are evaluated; the first that fires names the verdict.
_RULES = (_endpoint, _middle, _all_twists, _two_component, _genus_bound)


def _unstable(named: _Rule, fired: Sequence[str], region: FeasibleRegion) -> Verdict:
    if region.status == FEASIBLE and any(c in fired for c in _CLASHING):
        raise InternalInvariantError(
            f"the firing conditions of {', '.join(fired)} guarantee a clash with the "
            "slope inequalities; the sweep disagreed")
    return Verdict(STRONGLY_UNSTABLE, named.criterion, certificate=region.certificate,
                   notes=named.notes)


def _evaluate(rule, curve: ChainCurve, pair: GeneratedPairData,
              line: Optional[LineBundleTwist] = None) -> Verdict:
    """One rule alone on the subject's system, decided by one sweep."""
    system = weight_system(curve, kernel_numerics(curve, pair), line, pair)
    result = rule(system)
    if not result.fired:
        return Verdict(INCONCLUSIVE, result.criterion, notes=result.notes)
    region = simplex_intersect(system.intervals, system.declared + list(result.bounds))
    return _unstable(result, (result.criterion,), region)


def strongly_unstable_endpoint(curve: ChainCurve, pair: GeneratedPairData) -> Verdict:
    """End-component criterion: kernel rank strictly below the end degree.

    Fires at component 1 or n when a twisted section exists there, the
    restriction is semistable, and (sections - rank) < degree.  The firing
    component's subsheaf bound joins the system, which then has no solution.
    """
    return _evaluate(_endpoint, curve, pair)


def strongly_unstable_middle(curve: ChainCurve, pair: GeneratedPairData) -> Verdict:
    """Middle-component criterion: kernel rank strictly below half the degree.

    Fires at some j in 2..n-1 when a twisted section exists there, the
    restriction is semistable, and (sections - rank) < degree/2 (exact
    rational comparison, never floored).  The firing component's subsheaf
    bound joins the system, which then has no solution.
    """
    return _evaluate(_middle, curve, pair)


def strongly_unstable_all_twists(curve: ChainCurve, pair: GeneratedPairData,
                                 line: Optional[LineBundleTwist] = None) -> Verdict:
    """Twist-independent criterion: total degree over kernel rank above n-1.

    Fires when the restriction kernel is non-zero on every component and
    d/(sections - rank) > n - 1 (exact).  The firing condition does not
    mention the twist, so the conclusion holds for every line bundle twist;
    the certificate is computed for the kernel twisted by ``line``, and a
    non-trivial twist also attaches a sample destabilizer for the
    barycentric polarization as corroboration.
    """
    return _evaluate(_all_twists, curve, pair, line)


def strongly_unstable_two_component(curve: ChainCurve, pair: GeneratedPairData) -> Verdict:
    """Two-component criterion: non-zero restriction kernels plus semistability.

    On a two-component chain, non-zero restriction kernels on both sides and
    semistable restrictions force total degree > kernel rank through the
    section-count bound, which is exactly the degree-ratio condition of the
    twist-independent rule.
    """
    return _evaluate(_two_component, curve, pair)


def strongly_unstable_genus_bound(curve: ChainCurve, pair: GeneratedPairData) -> Verdict:
    """Genus criterion: arithmetic genus above (n-2)(sections-rank)/rank.

    Needs h1 vanishing and a non-zero restriction kernel on every component;
    the conclusion holds for every line-bundle twist.  A certificate is
    attached when the weight system has no solution.
    """
    return _evaluate(_genus_bound, curve, pair)


def analyze_sheaf(sheaf: SheafNumerics, line: Optional[LineBundleTwist] = None) -> Report:
    """Feasibility-only analysis for raw sheaf numerics (no hypothesis flags).

    The subject is ``sheaf`` twisted by ``line``.  Emptiness of the
    necessary slope-inequality system certifies strong instability;
    feasibility alone is inconclusive because no sufficiency hypothesis is
    available.
    """
    system = weight_system(sheaf.curve, sheaf, line)
    region = simplex_intersect(system.intervals)
    if region.status == FEASIBLE:
        verdict = Verdict(INCONCLUSIVE, CRITERION_NONE,
                          notes=("weight system feasible; component semistability unknown, "
                                 "so no sufficiency criterion applies",))
    else:
        verdict = Verdict(STRONGLY_UNSTABLE, CRITERION_GENERIC, certificate=region.certificate,
                          notes=("no polarization satisfies the necessary slope "
                                 "inequalities",))
    return Report(verdict=verdict, region=region, sheaf=system.subject, obstructions=(),
                  fired=(), k_bound=None)


def analyze(curve: ChainCurve, pair: GeneratedPairData,
            line: Optional[LineBundleTwist] = None) -> Report:
    """Full analysis of a generated pair's kernel bundle (optionally twisted).

    Builds the subject's weight system once: the slope-inequality intervals
    of the kernel twisted by ``line``, every declared subsheaf bound, and
    the bounds of every strong-instability rule that fires.  Contradictory
    hypothesis sets are rejected first.  One sweep then decides the system:
    the first firing rule, in a fixed order, names a strong-instability
    verdict; otherwise an empty system is itself the verdict, and a
    non-empty one yields the semistability witness when every kernel
    restriction is declared semistable.  The certificate or witness is that
    of the printed region.
    """
    kernel = kernel_numerics(curve, pair)
    system = weight_system(curve, kernel, line, pair)
    problems = []
    obstructed, conflicts = _obstructions(pair)
    if conflicts:
        problems.append(
            f"components {conflicts}: kernel restriction declared semistable but "
            "certified non-semistable by the twisted-section obstruction")
    rules = [rule(system) for rule in _RULES]
    fired = tuple(r.criterion for r in rules if r.fired)

    region = None
    if all(pair.kernel_restriction_semistable):
        if fired:
            problems.append(
                f"strong-instability conditions ({', '.join(fired)}) hold while every "
                "kernel restriction is declared semistable")
        else:
            # Semistability is declared for the untwisted kernel, so the screen
            # decides its system; with no rule fired that system holds the
            # declared bounds only, and without a twist it is the subject's own.
            untwisted = system
            if not system.line.is_trivial():
                untwisted = weight_system(curve, kernel, pair=pair)
            screen = simplex_intersect(untwisted.intervals, untwisted.declared)
            if screen.status != FEASIBLE:
                problems.append(_SCREEN_CONFLICT)
            if untwisted is system:
                region = screen
    if problems:
        raise ContradictoryHypotheses("; ".join(problems))
    if region is None:
        region = simplex_intersect(system.intervals,
                                   system.declared + [b for r in rules for b in r.bounds])

    notes = []
    if fired:
        verdict = _unstable(next(r for r in rules if r.fired), fired, region)
    elif region.status != FEASIBLE:
        extra = () if system.line.is_trivial() else \
            (f"instability certified for the kernel twisted by {system.line.multidegree}",)
        verdict = Verdict(STRONGLY_UNSTABLE, CRITERION_GENERIC, certificate=region.certificate,
                          notes=("no polarization satisfies the slope inequalities "
                                 "together with the declared subsheaf bounds",) + extra)
    elif all(pair.kernel_restriction_semistable):
        verdict = _semistable(pair, region, () if system.line.is_trivial() else
                              ("component semistability is preserved under line-bundle "
                               "twists, so the twisted kernel inherits the verdict",))
    else:
        verdict = Verdict(INCONCLUSIVE, CRITERION_NONE,
                          notes=("no instability criterion fired and kernel restriction "
                                 "semistability is not asserted for every component",))

    k_bound = None
    try:
        k_bound = k_bound_check(curve, pair)
        if not k_bound.k_within_bound:
            notes.append(f"declared section count {pair.sections} exceeds the derived "
                         f"global bound {k_bound.bound}")
    except RuleNotApplicable as exc:
        notes.append(f"section bound not applicable: {exc}")

    return Report(verdict=verdict, region=region, sheaf=system.subject,
                  obstructions=obstructed, fired=fired, k_bound=k_bound,
                  notes=tuple(notes))
