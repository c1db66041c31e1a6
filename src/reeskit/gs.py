"""G_s machinery: height thresholds, the concrete checker, closed forms.

For an ideal of t x t minors (or 2t x 2t Pfaffians) of generic height, G_s
holds exactly when every lower ideal of j x j minors (2j x 2j Pfaffians),
1 <= j <= t-1, has height at least min(theta_j, s), where theta_j is a
binomial threshold depending on the matrix kind.  `check_Gs` evaluates the
heights with Groebner bases; `max_Gs_generic` is the independent closed
form for generic matrices, including the one exceptional family
(3 <= t = m, n = m+3) where the answer is 18.

SPECIALIZATION_CASES holds the Prop 4.7 schedules of cases i-v (capped at d
by Cor 5.1.4); `bounds` and `resolutions` take their case split from it.

Convention: `t` counts minors for ordinary/symmetric matrices; for
alternating matrices `t` is half the Pfaffian size (the ideal is Pf_{2t}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable

from .errors import DomainError, NotApplicableError
from .groebner import LowerIdealCache, expected_generic_height
from .matrixalg import MatrixKind, PolyMatrix

_ORD, _SYM, _ALT = MatrixKind.ORDINARY, MatrixKind.SYMMETRIC, MatrixKind.ALTERNATING


@dataclass(frozen=True)
class ProblemInstance:
    """The parameter tuple every closed-form criterion reads.

    For alternating matrices t is half the Pfaffian size (Pf_{2t}); m = n
    is required for symmetric and alternating kinds.  d is the number of
    variables of the ambient ring, delta the common entry degree, char the
    field characteristic.
    """

    kind: MatrixKind
    m: int
    n: int
    t: int
    d: int
    delta: int
    char: int

    def __post_init__(self):
        object.__setattr__(self, "kind", MatrixKind(self.kind))
        if self.kind in (MatrixKind.SYMMETRIC, MatrixKind.ALTERNATING):
            if self.m != self.n:
                raise DomainError(f"{self.kind.value} instance must have m = n, got {self.m}x{self.n}")
        if self.kind is MatrixKind.ALTERNATING:
            if not 1 <= self.t or not self.size <= self.n:
                raise DomainError(f"need 2 <= 2t <= n, got 2t={self.size}, n={self.n}")
        else:
            if not 1 <= self.t <= self.m <= self.n:
                raise DomainError(f"need 1 <= t <= m <= n, got t={self.t}, m={self.m}, n={self.n}")
        if self.d < 1:
            raise DomainError(f"ambient variable count d must be >= 1, got {self.d}")
        if self.delta < 0:
            raise DomainError(f"entry degree must be >= 0, got {self.delta}")
        if self.char < 0:
            raise DomainError(f"characteristic must be >= 0, got {self.char}")

    def size_at(self, level: int) -> int:
        """Size of the minors (of the Pfaffians, when alternating) at a level."""
        return LowerIdealCache.ideal_at(self.kind, level)[1]

    @property
    def size(self) -> int:
        """Size of the minors or Pfaffians generating the ideal."""
        return self.size_at(self.t)

    @property
    def pfaffian_size(self) -> int:
        if self.kind is not MatrixKind.ALTERNATING:
            raise DomainError("pfaffian_size is only defined for alternating instances")
        return self.size

    @classmethod
    def from_matrix(cls, M: PolyMatrix, t: int) -> "ProblemInstance":
        """Instance of a concrete matrix; t follows the module convention.

        Requires a uniform homogeneous entry degree.
        """
        if M.entry_degree is None:
            raise DomainError("matrix entries are not homogeneous of one common degree")
        return cls(
            kind=M.kind,
            m=M.m,
            n=M.n,
            t=t,
            d=M.ring.nvars,
            delta=M.entry_degree,
            char=M.ring.field.characteristic,
        )


def matching(rules, inst: ProblemInstance):
    """The rules of a catalog table whose kind and shape fit, in table order."""
    return (rule for rule in rules if rule.kind is inst.kind and rule.shape(inst))


# -- specialization hypotheses (Prop 4.7, Cor 5.1.4) --------------------------


@dataclass(frozen=True)
class SpecializationCase:
    """Case i..v of Prop 4.7, and of its version capped at d, Cor 5.1.4.

    The hypothesis asks ht >= threshold(inst, j) of the level-j ideal for
    1 <= j <= t-1; capped, each threshold becomes min{threshold, d}.
    """

    tag: str
    kind: MatrixKind
    shape: Callable[[ProblemInstance], bool]
    threshold: Callable[[ProblemInstance, int], int]
    cohen_macaulay: Callable[[ProblemInstance], bool]

    def source(self, capped: bool) -> str:
        return f"Cor 5.1.4{self.tag}" if capped else f"Prop 4.7{self.tag}"

    def schedule(self, inst: ProblemInstance, capped: bool) -> list[tuple[int, int]]:
        """(j, required height) pairs, j ascending."""
        pairs = [(j, self.threshold(inst, j)) for j in range(1, inst.t)]
        return [(j, min(theta, inst.d)) for j, theta in pairs] if capped else pairs


def _generic_height_at(inst: ProblemInstance, j: int) -> int:
    """Maximal height of the level-j ideal (Notation 2.1)."""
    return expected_generic_height(inst.kind, inst.m, inst.n, inst.size_at(j))


def _cm_in_char(inst: ProblemInstance) -> bool:
    """char = 0 or char > min{s, m - s}, s the minor (ii) or Pfaffian (v) size."""
    return inst.char == 0 or inst.char > min(inst.size, inst.m - inst.size)


SPECIALIZATION_CASES = (
    SpecializationCase("i", _ORD, lambda i: i.t == i.m, lambda i, j: (i.m - j + 1) * (i.n - i.m) + 1, lambda i: True),
    SpecializationCase("ii", _ORD, lambda i: i.t < i.m, _generic_height_at, _cm_in_char),
    SpecializationCase("iii", _SYM, lambda i: True, _generic_height_at, lambda i: False),
    SpecializationCase("iv", _ALT, lambda i: i.size == i.n - 1, lambda i, j: i.n - i.size_at(j) + 2, lambda i: True),
    SpecializationCase("v", _ALT, lambda i: i.size < i.n - 1, _generic_height_at, _cm_in_char),
)


def specialization_case(inst: ProblemInstance) -> SpecializationCase:
    """The Prop 4.7 case covering the instance."""
    case = next(matching(SPECIALIZATION_CASES, inst), None)
    if case is None:
        raise NotApplicableError("alternating 2t = n (a single Pfaffian) has no specialization criterion")
    return case


@dataclass(frozen=True)
class GsRow:
    j: int
    threshold: int
    actual_height: object  # int or math.inf
    required: int
    satisfied: bool


@dataclass(frozen=True)
class GsReport:
    """Outcome of the G_s test at a requested s.

    max_s is +inf when every lower height clears its full threshold, and
    otherwise the minimum height over the thresholds that fail.
    """

    per_j: tuple[GsRow, ...]
    max_s: object  # int or math.inf
    requested_s: object
    satisfied: bool


def gs_threshold(inst: ProblemInstance, j: int) -> int:
    """Height threshold theta_j for the lower ideal at level j."""
    if not 1 <= j <= inst.t - 1:
        raise DomainError(f"j must satisfy 1 <= j <= t-1 = {inst.t - 1}, got {j}")
    m, n, t = inst.m, inst.n, inst.t
    if inst.kind is MatrixKind.ORDINARY:
        return comb(m - j + 1, m - t) * comb(n - j + 1, n - t)
    if inst.kind is MatrixKind.SYMMETRIC:
        num = comb(n - j + 2, n - t) * comb(n - j + 2, n - t + 1)
        if num % (n - j + 2) != 0:
            raise AssertionError(f"threshold is not integral for {inst}, j={j}")
        return num // (n - j + 2)
    return comb(n - inst.size_at(j) + 2, n - inst.size)


def check_Gs(M: PolyMatrix, t: int, s, cache: LowerIdealCache | None = None) -> GsReport:
    """Decide G_s for I_t(M) (Pf_{2t}(M) when alternating) via heights.

    Requires the ideal itself to be of generic height.  s is a positive
    integer or math.inf.
    """
    if s != math.inf and (not isinstance(s, int) or s < 1):
        raise DomainError(f"s must be a positive integer or +inf, got {s!r}")
    inst = ProblemInstance.from_matrix(M, t)
    cache = cache if cache is not None else LowerIdealCache(M)
    cache.require_generic(t)
    rows = []
    for j in range(1, inst.t):
        theta = gs_threshold(inst, j)
        actual = cache.lower_height(j)
        required = min(theta, s)
        rows.append(GsRow(j=j, threshold=theta, actual_height=actual, required=required, satisfied=actual >= required))
    failing = [r.actual_height for r in rows if r.actual_height < r.threshold]
    max_s = min(failing) if failing else math.inf
    return GsReport(
        per_j=tuple(rows),
        max_s=max_s,
        requested_s=s,
        satisfied=all(r.satisfied for r in rows),
    )


def max_Gs_generic(inst: ProblemInstance):
    """Largest s for which the generic ideal satisfies G_s (closed form)."""
    m, n, t = inst.m, inst.n, inst.t
    if inst.kind is MatrixKind.ORDINARY:
        if (
            t == 1
            or t == m == n
            or (m == n and t == n - 1)
            or (n == m + 1 and t == m)
            or (n == m + 2 and t == m)
            or (m == 2 and n == 5 and t == 2)
        ):
            return math.inf
        if 3 <= t == m and n == m + 3:
            return 18
        return (m - t + 2) * (n - t + 2)
    if inst.kind is MatrixKind.SYMMETRIC:
        if t in (1, n - 1, n):
            return math.inf
        return comb(n - t + 3, 2)
    if inst.size in (2, n, n - 1, n - 2):
        return math.inf
    return comb(n - inst.size + 4, 2)


def min_gens_generic(inst: ProblemInstance) -> int:
    """Minimal number of generators of the generic ideal."""
    m, n, t = inst.m, inst.n, inst.t
    if inst.kind is MatrixKind.ORDINARY:
        return comb(m, t) * comb(n, t)
    if inst.kind is MatrixKind.SYMMETRIC:
        num = comb(n + 1, t + 1) * comb(n + 1, t)
        if num % (n + 1) != 0:
            raise AssertionError(f"generator count is not integral for {inst}")
        return num // (n + 1)
    return comb(n, inst.size)
