"""Stability criteria for kernel bundles of generated pairs, as one rule chain.

Each rule certifies exactly what its hypotheses support and nothing more:
absence of a firing rule is always ``inconclusive``, never "stable".  The
rules split into two families whose hypotheses exclude each other, and
contradictory inputs are rejected before any verdict is named:

* semistability: if every component restriction of the kernel bundle is
  semistable, some polarization makes the kernel w-semistable (w-stable if
  one restriction is stable); the witness is constructive.
* strong instability: three rules, evaluated in this order.  A component
  with enough degree relative to the kernel rank, together with a declared
  section vanishing at its nodes, forces a weight bound that clashes with
  the necessary slope inequalities for every polarization at once (the end
  components, then the middle ones).  Non-zero restriction kernels
  everywhere and the degree ratio d/(k - r) > n - 1 empty the slope
  inequalities alone, whatever the line-bundle twist.

The two-component and genus criteria are routes to that degree ratio, not
rules of their own.  When the ratio rule fires, ``analyze`` records them as
further reasons in ``fired``: ``two-component-kernel-sections`` on two
components with every restriction semistable, and ``genus-bound`` with h1
vanishing everywhere and p_a * r > (n - 2)(k - r).  Genus data without the
degree ratio declares more sections than h1 vanishing leaves (see
``_genus_condition``) and is refused as contradictory.

A subject has one weight system, built by ``feasibility.weight_system``
from the pair itself: the slope-inequality intervals of the (possibly
twisted) kernel.  ``feasibility.declared_bounds`` adds the weight bound of
every declared destabilizing subsheaf, an integer ratio over the twisted
kernel's |chi|, and ``analyze`` builds those bounds only for the sweeps
that read them.  A bound's ``WeightBound.admits`` tests a subsheaf at one
weight, which the all-twists rule reports for a supplied twist.  The rules
are predicates over that system that report whether they fire and which
bounds they add; ``analyze`` builds the system once, adds the firing
rules' bounds and decides it with one sweep, so the certificate or witness
of a verdict always comes from the region printed beside it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, count
from operator import and_
from typing import Optional, Sequence

from .curve_model import (ChainCurve, GeneratedPairData, LineBundleTwist, SheafNumerics,
                          arithmetic_genus, validate_pair)
from .errors import (ContradictoryHypotheses, InternalInvariantError, RuleNotApplicable,
                     ValidationError)
from .feasibility import (FEASIBLE, FeasibleRegion, InfeasibilityCertificate, Polarization,
                          WeightBound, WeightSystem, declared_bounds, _ratio, _subsheaf_chi,
                          simplex_intersect, subsheaf_weight_bound, weight_system)
from .record import Record

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

METHOD_CLIFFORD = "clifford"
METHOD_RIEMANN_ROCH = "riemann_roch_h1_zero"


class Verdict(Record):
    """Outcome of one rule: what it certifies, and the evidence."""

    __slots__ = ("kind", "criterion", "witness", "certificate", "notes")

    def __init__(self, kind: str, criterion: str, witness: Optional[Polarization] = None,
                 certificate: Optional[InfeasibilityCertificate] = None,
                 notes: Sequence[str] = ()):
        if kind not in _KINDS:
            raise ValidationError(f"unknown verdict kind {kind!r}")
        if kind in (W_SEMISTABLE, W_STABLE) and witness is None:
            raise ValidationError("a semistability verdict requires a witness polarization")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "notes", tuple(notes))


class KBoundResult(namedtuple("KBoundResult", "bound k_within_bound per_component methods")):
    """Result of the global section-count bound check.

    ``bound`` is sum(per_component) - (n-1)*rank, from the per-component
    bounds and the ``methods`` that gave them; ``k_within_bound`` compares
    the declared section count against the bound.

    Fields::

        bound: int
        k_within_bound: bool
        per_component: tuple[int, ...]
        methods: tuple[str, ...]
    """

    __slots__ = ()


class Report(namedtuple("Report", "verdict region sheaf obstructions fired k_bound notes",
                        defaults=((),))):
    """Aggregated analysis: strongest verdict plus all diagnostics.

    Fields::

        verdict: Verdict
        region: Optional[FeasibleRegion]
        sheaf: SheafNumerics
        obstructions: tuple[bool, ...]
        fired: tuple[str, ...]
        k_bound: Optional[KBoundResult]
        notes: tuple[str, ...] = ()
    """

    __slots__ = ()


class _Rule(namedtuple("_Rule", "criterion fired notes bounds", defaults=((),))):
    """One rule's evaluation: whether it fired, why, and the bounds it adds.

    Fields::

        criterion: str
        fired: bool
        notes: tuple[str, ...]
        bounds: tuple[WeightBound, ...] = ()
    """

    __slots__ = ()


def clifford_h0_bounds(genera: Sequence[int], rank: int,
                       degrees: Sequence[int]) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Section-count bounds of semistable bundles of rank ``rank``, one per
    component of genus ``genera[i]`` and degree ``degrees[i]``, and the
    method that gave each.

    In the slope range [0, 2g-2] the bound is floor(d/2) + r; above the
    range h1 vanishes and it is the Euler characteristic d + r(1-g).
    """
    if min(genera) < 2 or rank < 1 or min(degrees) < 0:
        raise ValidationError("the section bound needs genus >= 2, rank >= 1, degree >= 0")
    clifford = [d <= (2 * g - 2) * rank for g, d in zip(genera, degrees)]
    return (tuple([d // 2 + rank if c else d + rank * (1 - g)
                   for g, d, c in zip(genera, degrees, clifford)]),
            tuple([METHOD_CLIFFORD if c else METHOD_RIEMANN_ROCH for c in clifford]))


def k_bound_check(curve: ChainCurve, pair: GeneratedPairData) -> KBoundResult:
    """The section-count bound of a pair whose restrictions are all semistable.

    Applicable when every restriction is semistable and some component has
    positive degree.  The global bound is the sum of the per-component
    bounds b_j of ``clifford_h0_bounds`` less the node correction (n-1)*r,
    and the declared section count is compared against it.

    The bound is always strictly below d + r (d the total degree, r the
    rank).  Each b_j is at most d_j + r, with equality only for d_j = 0:
    in the Clifford branch floor(d_j/2) + r <= d_j + r, with equality
    exactly when floor(d_j/2) = d_j, that is d_j = 0; in the Riemann-Roch
    branch d_j + r(1 - g_j) <= d_j - r, as g_j >= 2.  Some d_j is positive,
    so sum_j b_j < d + n*r, and the bound sum_j b_j - (n-1)*r < d + r.
    """
    validate_pair(curve, pair)
    if not all(pair.restriction_semistable):
        raise RuleNotApplicable("the section bound needs every restriction semistable")
    if not any(pair.multidegree):
        raise RuleNotApplicable("the section bound needs a component of positive degree")
    per, methods = clifford_h0_bounds(curve.genera, pair.rank, pair.multidegree)
    bound = sum(per) - (curve.n - 1) * pair.rank
    return KBoundResult(bound=bound, k_within_bound=pair.sections <= bound,
                        per_component=per, methods=methods)


def _component_bound(system: WeightSystem, j: int) -> tuple[WeightBound, ...]:
    """Component j's subsheaf bound, unless ``declared_bounds`` already adds it."""
    if system.pair.ker_rho_nonzero[j - 1]:
        return ()
    bound = subsheaf_weight_bound(system, j)
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
                and 2 * m < pair.multidegree[j - 1]):
            return _Rule(CRITERION_MIDDLE, True,
                         (f"component {j}: kernel rank {m} < degree "
                          f"{pair.multidegree[j - 1]}/2",),
                         _component_bound(system, j))
    if system.curve.n == 2:
        return _Rule(CRITERION_MIDDLE, False, ("no middle component on a two-component chain",))
    return _Rule(CRITERION_MIDDLE, False, ("middle-component conditions not met",))


def _all_twists(system: WeightSystem) -> _Rule:
    """Fires when every restriction kernel is declared non-zero and d/m > n - 1
    (d the total degree, m = k - r the kernel rank): then some component
    subsheaf destabilizes the kernel for every twist L and polarization w.

    With numer_k = deg L_k - delta_k + 1 - g_k the chi of the component-k
    subsheaf twisted by L, and chi_L the twisted kernel's chi,
    m * sum_k numer_k - chi_L = d - (n - 1)m.  Proof: chi_L =
    -d + m(1 - p_a) + m deg L and sum_k delta_k = 2(n - 1) give
    m * sum_k numer_k = m deg L - m(n - 2) - m p_a, so the twist cancels.
    As sum_k w_k = 1, sum_k w_k (numer_k / w_k - chi_L / m) =
    (d - (n - 1)m) / m > 0, and some subsheaf slope numer_k / w_k exceeds
    the kernel's chi_L / m.  ``oracle.cross_validate`` checks the identity
    on the subject's own numbers.  For a supplied twist the rule notes the
    first component whose ``subsheaf_weight_bound`` does not admit the
    barycentric weight 1/n; the identity read at w = (1/n, .., 1/n) says
    that one does.
    """
    curve, pair, m = system.curve, system.pair, system.pair.kernel_rank
    if not all(pair.ker_rho_nonzero):
        return _Rule(CRITERION_ALL_TWISTS, False,
                     ("restriction kernels are not declared non-zero everywhere",))
    if not pair.degree_ratio_exceeds():
        return _Rule(CRITERION_ALL_TWISTS, False,
                     (f"degree ratio {pair.total_degree}/{m} does not exceed {curve.n - 1}",))
    notes = [_EVERY_TWIST]
    if not system.line.is_trivial():
        n, degs = curve.n, system.line.multidegree
        bounds = (subsheaf_weight_bound(system, j) for j in range(1, n + 1))
        j = next((b.index for b in bounds if b is not None and not b.admits(1, n)), None)
        if j is None:
            raise InternalInvariantError("the all-twists identity guarantees a subsheaf "
                                         "destabilizing at the barycentric weights")
        notes.append(f"supplied twist, barycentric weights: component {j} subsheaf slope "
                     f"{_subsheaf_chi(curve, j, degs[j - 1]) * n} exceeds "
                     f"{_ratio(system.subject.chi, m)}")
    return _Rule(CRITERION_ALL_TWISTS, True, tuple(notes))


# The fixed order in which rules are evaluated; the first that fires names the verdict.
_RULES = (_endpoint, _middle, _all_twists)


def _genus_condition(curve: ChainCurve, pair: GeneratedPairData) -> bool:
    """The genus criterion: h1 vanishing and non-zero restriction kernels
    everywhere, and arithmetic genus p_a > (n - 2)(k - r)/r.

    On consistent data it implies the degree ratio d/(k - r) > n - 1.  The
    sections span V inside H0(E), so k <= h0(E).  Per-component h1 vanishing
    and global generation on a chain give h1(E) = 0: in the normalization
    sequence 0 -> E -> sum E_j -> sum of the node fibres -> 0 the component
    sections must reach every tuple of differences at the nodes, and
    setting s_1 = 0, then picking on each later component a section with
    the required value at its left node, reaches it.  So
    h0(E) = chi(E) = d + r(1 - p_a).  With m = k - r, the genus
    condition r * p_a > (n - 2)m and a failed ratio d <= (n - 1)m give
    d - r * p_a < m, that is k > chi(E): the declared section count then
    contradicts the declared h1 vanishing.
    """
    return (all(pair.h1_vanishes) and all(pair.ker_rho_nonzero)
            and arithmetic_genus(curve) * pair.rank > (curve.n - 2) * pair.kernel_rank)


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
    hypothesis sets are rejected first, all of them in one error:

    * a component obstructed by a twisted section and a semistable
      restriction (which makes its kernel restriction non-semistable) that
      is also declared kernel-semistable;
    * the genus condition without the degree ratio (``_genus_condition``);
    * a fired rule, or declared subsheaf bounds that exclude every
      polarization, while every kernel restriction is declared semistable.

    One sweep then decides the system: the first firing rule, in a fixed
    order, names a strong-instability verdict; otherwise an empty system is
    itself the verdict, and a non-empty one yields the semistability
    witness when every kernel restriction is declared semistable.  The
    certificate or witness is that of the printed region.
    """
    system = weight_system(curve, pair, line)
    problems = []
    obstructed = tuple(map(and_, pair.twisted_sections_nonzero, pair.restriction_semistable))
    conflicts = list(compress(count(1), map(and_, obstructed, pair.kernel_restriction_semistable)))
    if conflicts:
        problems.append(
            f"components {conflicts}: kernel restriction declared semistable but "
            "certified non-semistable by the twisted-section obstruction")
    rules = [rule(system) for rule in _RULES]
    fired = [r.criterion for r in rules if r.fired]
    genus = _genus_condition(curve, pair)
    if CRITERION_ALL_TWISTS in fired:
        if curve.n == 2 and all(pair.restriction_semistable):
            fired.append(CRITERION_TWO_COMPONENT)
        if genus:
            fired.append(CRITERION_GENUS_BOUND)
    elif genus:
        chi = SheafNumerics(curve, (pair.rank,) * curve.n, pair.multidegree).chi
        problems.append(
            f"declared section count {pair.sections} exceeds chi = d + r(1 - p_a) = {chi}, "
            "the section count under h1 vanishing on every component; the genus condition "
            "holds without the degree ratio")

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
                untwisted = weight_system(curve, pair)
            screen = simplex_intersect(untwisted.intervals, declared_bounds(untwisted))
            if screen.status != FEASIBLE:
                problems.append(_SCREEN_CONFLICT)
            if untwisted is system:
                region = screen
    if problems:
        raise ContradictoryHypotheses("; ".join(problems))
    if region is None:
        region = simplex_intersect(system.intervals,
                                   declared_bounds(system) + [b for r in rules for b in r.bounds])

    notes = []
    if fired:
        if region.status == FEASIBLE:
            raise InternalInvariantError(
                f"the firing conditions of {', '.join(fired)} guarantee a clash with the "
                "slope inequalities; the sweep disagreed")
        named = next(r for r in rules if r.fired)
        verdict = Verdict(STRONGLY_UNSTABLE, named.criterion, certificate=region.certificate,
                          notes=named.notes)
    elif region.status != FEASIBLE:
        extra = () if system.line.is_trivial() else \
            (f"instability certified for the kernel twisted by {system.line.multidegree}",)
        verdict = Verdict(STRONGLY_UNSTABLE, CRITERION_GENERIC, certificate=region.certificate,
                          notes=("no polarization satisfies the slope inequalities "
                                 "together with the declared subsheaf bounds",) + extra)
    elif all(pair.kernel_restriction_semistable):
        kind = W_STABLE if any(pair.kernel_restriction_stable) else W_SEMISTABLE
        verdict = Verdict(kind, CRITERION_KERNEL_RESTRICTIONS, witness=region.witness,
                          notes=() if system.line.is_trivial() else
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
                  obstructions=obstructed, fired=tuple(fired), k_bound=k_bound,
                  notes=tuple(notes))
