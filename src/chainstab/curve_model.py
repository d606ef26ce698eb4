"""Exact numerical invariants of sheaf data on chain-like nodal curves.

A chain-like curve has smooth components 1..n (n >= 2), each of genus >= 2,
with component j meeting component j+1 in a single node and no other
intersections.  Everything here is arbitrary-precision integer arithmetic:
per-component Euler characteristics come from the Riemann-Roch identity

    chi_j = d_j + r_j * (1 - g_j)

and the global Euler characteristic of a locally free sheaf of uniform rank
r is glued from the components, one correction per node:

    chi = sum_j chi_j - r * (n - 1)

``SheafNumerics`` is the only place these two identities are written: every
sheaf, kernel and twist is built from its ranks and degrees, and its Euler
characteristics are derived, never supplied.  For non-uniform multirank the
gluing correction at a node is not determined by (multirank, multidegree)
alone, so the global value is left undefined (``None``).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, mul, neg, sub
from typing import Optional, Sequence

from .errors import UnsupportedData, ValidationError
from .record import Record


def _int_tuple(path: str, values: Sequence[int]) -> tuple[int, ...]:
    """``values`` as a tuple, refused unless every entry is an int (not a bool).

    ``path`` names the list as a scenario file does ("curve.genera"), so the
    library and the command line refuse it with one text:
    "curve.genera: expected an integer, got 0.5".
    """
    out = tuple(values)
    if {*map(type, out)} <= {int}:  # the common case, checked at C speed
        return out
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(f"{path}: expected an integer, got {v!r}")
    return out


def _bool_tuple(name: str, values, n: int) -> tuple[bool, ...]:
    """The pair flag list ``name`` as a tuple of ``n`` bools; all false if omitted.

    A non-boolean entry is refused with the flag's scenario path, as the
    command line prints it: "pair.h1_vanishes: expected booleans, got 1".
    ``n`` is the length of ``pair.multidegree``, which a length refusal names
    beside the flag list, since either of the two may be the one at fault.
    """
    if values is None:
        return (False,) * n
    out = tuple(values)
    if not {*map(type, out)} <= {bool}:  # bool has no subclasses
        raise ValidationError(f"pair.{name}: expected booleans, "
                              f"got {next(v for v in out if type(v) is not bool)!r}")
    if len(out) != n:
        raise ValidationError(
            f"pair.{name} has length {len(out)} but pair.multidegree has length {n}")
    return out


class ChainCurve(Record):
    """Chain of n >= 2 smooth components; ``genera[j-1]`` is the genus of component j."""

    __slots__ = ("genera",)

    def __init__(self, genera: Sequence[int]):
        genera = _int_tuple("curve.genera", genera)
        if len(genera) < 2:
            raise ValidationError("curve.genera: a chain-like curve needs at least two components")
        if min(genera) < 2:
            raise ValidationError("curve.genera: every component genus must be at least 2, "
                                  f"got {[g for g in genera if g < 2]}")
        object.__setattr__(self, "genera", genera)

    @property
    def n(self) -> int:
        return len(self.genera)

    def node_count(self, index: int) -> int:
        """Nodes on component ``index``: one at either end of the chain, two in the middle."""
        self._check_component(index)
        return 1 if index in (1, self.n) else 2

    def _check_component(self, index: int) -> None:
        if not 1 <= index <= self.n:
            raise ValidationError(f"component index {index} out of range 1..{self.n}")


def arithmetic_genus(curve: ChainCurve) -> int:
    """Arithmetic genus of the chain, the sum of the component genera."""
    return sum(curve.genera)


class SheafNumerics(Record):
    """Multirank, multidegree and Euler characteristics of a pure dimension-one sheaf.

    Built from ``(curve, multirank, multidegree)`` alone: ``chi_components``
    comes from Riemann-Roch on each component and ``chi`` from gluing them,
    which needs a uniform multirank; for a non-uniform one ``chi`` is
    ``None``.
    """

    __slots__ = ("curve", "multirank", "multidegree", "chi_components", "chi")

    def __init__(self, curve: ChainCurve, multirank: Sequence[int], multidegree: Sequence[int]):
        multirank = _int_tuple("sheaf.multirank", multirank)
        multidegree = _int_tuple("sheaf.multidegree", multidegree)
        n = curve.n
        for name, seq in (("multirank", multirank), ("multidegree", multidegree)):
            if len(seq) != n:
                raise ValidationError(
                    f"sheaf.{name} has length {len(seq)} but the curve has {n} components")
        if min(multirank) < 0:
            raise ValidationError("sheaf.multirank: entries must be non-negative")
        # chi_j = d_j + r_j * (1 - g_j)
        chis = tuple(map(add, multidegree, map(mul, multirank, map(sub, repeat(1), curve.genera))))
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "multirank", multirank)
        object.__setattr__(self, "multidegree", multidegree)
        object.__setattr__(self, "chi_components", chis)
        r = self.uniform_rank()
        object.__setattr__(self, "chi", None if r is None else sum(chis) - r * (n - 1))

    @property
    def n(self) -> int:
        return len(self.multirank)

    def uniform_rank(self) -> Optional[int]:
        """The common rank when the multirank is constant, else ``None``."""
        r = self.multirank[0]
        return r if self.multirank.count(r) == len(self.multirank) else None


class LineBundleTwist(Record):
    """Per-component degrees of a line bundle used to twist a sheaf."""

    __slots__ = ("multidegree",)

    def __init__(self, multidegree: Sequence[int]):
        multidegree = _int_tuple("twist.multidegree", multidegree)
        if not multidegree:
            raise ValidationError("twist.multidegree must be non-empty")
        object.__setattr__(self, "multidegree", multidegree)

    @property
    def n(self) -> int:
        return len(self.multidegree)

    @property
    def total_degree(self) -> int:
        return sum(self.multidegree)

    def is_trivial(self) -> bool:
        return not any(self.multidegree)

    @classmethod
    def trivial(cls, n: int) -> "LineBundleTwist":
        return cls((0,) * n)


# The hypothesis flags of a generated pair, each a list of n booleans.
PAIR_FLAGS = ("restriction_semistable", "restriction_stable",
              "kernel_restriction_semistable", "kernel_restriction_stable",
              "ker_rho_nonzero", "twisted_sections_nonzero", "h1_vanishes")


class GeneratedPairData(Record):
    """Numerical type (rank, multidegree, section count) of a generated pair,
    plus the geometric hypothesis flags the criteria consume.

    The flags are declared inputs, not computed facts: each one asserts a
    property of the pair (semistability of a restriction, non-vanishing of a
    section space, ...) that the analysis is allowed to rely on.  Omitted
    flag lists default to all-false.
    """

    __slots__ = ("rank", "sections", "multidegree", *PAIR_FLAGS)

    def __init__(self, rank: int, sections: int, multidegree: Sequence[int],
                 restriction_semistable: Optional[Sequence[bool]] = None,
                 restriction_stable: Optional[Sequence[bool]] = None,
                 kernel_restriction_semistable: Optional[Sequence[bool]] = None,
                 kernel_restriction_stable: Optional[Sequence[bool]] = None,
                 ker_rho_nonzero: Optional[Sequence[bool]] = None,
                 twisted_sections_nonzero: Optional[Sequence[bool]] = None,
                 h1_vanishes: Optional[Sequence[bool]] = None):
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ValidationError(f"pair.rank: expected an integer, got {rank!r}")
        if isinstance(sections, bool) or not isinstance(sections, int):
            raise ValidationError(f"pair.sections: expected an integer, got {sections!r}")
        multidegree = _int_tuple("pair.multidegree", multidegree)
        if rank < 1:
            raise ValidationError(f"pair.rank: expected a positive integer, got {rank!r}")
        if sections <= rank:
            raise ValidationError(f"pair.sections: a generated pair needs more sections than "
                                  f"rank, got {sections} <= {rank}")
        n = len(multidegree)
        if n < 2:
            raise ValidationError("pair.multidegree must cover at least two components")
        if min(multidegree) < 0:
            raise ValidationError(
                "pair.multidegree: a globally generated restriction has non-negative degree")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "multidegree", multidegree)
        for name, values in zip(PAIR_FLAGS, (
                restriction_semistable, restriction_stable, kernel_restriction_semistable,
                kernel_restriction_stable, ker_rho_nonzero, twisted_sections_nonzero,
                h1_vanishes)):
            object.__setattr__(self, name, _bool_tuple(name, values, n))
        # The three checks at C speed: a stable restriction (or restriction kernel)
        # that is not semistable, and a semistable restriction with a twisted section
        # of degree below the rank.  Only a failure runs the loop, to name the first
        # failing component.
        semi, twisted = self.restriction_semistable, self.twisted_sections_nonzero
        kstable, ksemi = self.kernel_restriction_stable, self.kernel_restriction_semistable
        if (False in compress(semi, self.restriction_stable) or False in compress(ksemi, kstable)
                or min(compress(compress(multidegree, twisted), compress(semi, twisted)),
                       default=rank) < rank):
            for j in range(n):
                if self.restriction_stable[j] and not semi[j]:
                    raise ValidationError(f"pair.restriction_stable: component {j + 1} "
                                          "requires pair.restriction_semistable")
                if kstable[j] and not ksemi[j]:
                    raise ValidationError(f"pair.kernel_restriction_stable: component {j + 1} "
                                          "requires pair.kernel_restriction_semistable")
                if twisted[j] and semi[j] and multidegree[j] < rank:
                    raise ValidationError(
                        f"pair.twisted_sections_nonzero: component {j + 1} has a twisted "
                        "section on a semistable restriction, which forces degree >= rank, "
                        f"got {multidegree[j]} < {rank}")

    @property
    def n(self) -> int:
        return len(self.multidegree)

    @property
    def kernel_rank(self) -> int:
        return self.sections - self.rank

    @property
    def total_degree(self) -> int:
        return sum(self.multidegree)

    def degree_ratio_exceeds(self) -> bool:
        """Total degree over kernel rank above n - 1; exact in integers, kernel rank >= 1."""
        return self.total_degree > (self.n - 1) * self.kernel_rank


def validate_pair(curve: ChainCurve, pair: GeneratedPairData) -> None:
    """Check that pair data refers to the same number of components as the curve."""
    if pair.n != curve.n:
        raise ValidationError(
            f"pair.multidegree has length {pair.n} but the curve has {curve.n} components")


def kernel_numerics(curve: ChainCurve, pair: GeneratedPairData) -> SheafNumerics:
    """Numerics of the kernel of the evaluation map onto the generated bundle:
    uniform rank k - r and component degrees -d_j."""
    validate_pair(curve, pair)
    return SheafNumerics(curve, (pair.kernel_rank,) * curve.n, tuple(map(neg, pair.multidegree)))


def twist(sheaf: SheafNumerics, line: LineBundleTwist) -> SheafNumerics:
    """Twist a uniform-rank sheaf by a line bundle: each degree d_j shifts by rank * t_j."""
    if line.n != sheaf.n:
        raise ValidationError(
            f"twist.multidegree has length {line.n} but the curve has {sheaf.n} components")
    r = sheaf.uniform_rank()
    if r is None:
        raise UnsupportedData("twisting is only defined here for uniform multirank")
    return SheafNumerics(sheaf.curve, sheaf.multirank,
                         tuple(map(add, sheaf.multidegree, map(mul, repeat(r), line.multidegree))))
