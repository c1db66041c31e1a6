"""Decision engine: specialization hypotheses, degree bounds, classification.

Everything here evaluates closed-form criteria from the built-in catalog
(labels like "Thm 5.2.2b" or "Cor 5.4.4e"; see the README table) against a
parameter tuple, and verifies the height hypotheses of each criterion with
real Groebner computations on the matrix at hand.  Three kinds of output:

* hypothesis_check / specialization_check decide whether the Rees algebra
  of the ideal is the specialization of the generic one (capped=False,
  Prop 4.7) or satisfies the hypotheses capped at d that the degree bounds
  need (capped=True, Cor 5.1.4), and report Cohen-Macaulayness where the
  catalog settles it.
* degree_bounds evaluates the generation/concentration degree bounds for
  the k-th piece of the defining ideal, returning extended values: -inf
  (the piece vanishes), finite ints, +inf (no finite bound exists), or
  conditional values max{<symbolic generic term>, c} that keep the unknown
  generic degree symbolic instead of guessing it.
* classify emits every linear-type / fiber-type / annihilation conclusion
  whose shape matches and whose height hypotheses verify; conclusions with
  unverified hypotheses are never emitted.

CONCLUSION_RULES, STATUS_RULES and BOUND_RULES are ordered catalog tables.
Each conclusion checks the gs.SPECIALIZATION_CASES schedule of its instance,
uncapped or capped at d, through the same gs.height_rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .deadline import check_deadline
from .errors import CharacteristicError, DomainError, NotApplicableError, NotAttestedError
from .groebner import LowerIdealCache
from .gs import HeightRow, ProblemInstance, height_rows, matching, specialization_case
from .matrixalg import MatrixKind, PolyMatrix
from .resolutions import n_constants

_ORD, _SYM, _ALT = MatrixKind.ORDINARY, MatrixKind.SYMMETRIC, MatrixKind.ALTERNATING

# Claim kinds a classification can assert.
LINEAR_TYPE = "linear_type"
FIBER_TYPE = "fiber_type"
MAXIMAL_IDEAL_ANNIHILATES = "ideal_annihilated_by_maximal_ideal"
LOW_POWER_RELATIONS_VANISH = "low_power_relations_vanish"


@dataclass(frozen=True)
class BoundValue:
    """An extended degree bound.

    tag is one of neg_infinity (the module vanishes), finite,
    pos_infinity (no finite bound is claimed), conditional (the bound is
    max{symbol, finite_part}, or just the symbol when finite_part is None).
    """

    tag: str
    finite_part: int | None = None
    symbol: str | None = None
    note: str | None = None

    @classmethod
    def neg_inf(cls) -> "BoundValue":
        return cls("neg_infinity")

    @classmethod
    def finite(cls, value: int) -> "BoundValue":
        return cls("finite", finite_part=int(value))

    @classmethod
    def pos_inf(cls, note: str | None = None) -> "BoundValue":
        return cls("pos_infinity", note=note)

    @classmethod
    def conditional(cls, symbol: str, finite_part: int | None = None, note: str | None = None) -> "BoundValue":
        return cls("conditional", finite_part=None if finite_part is None else int(finite_part), symbol=symbol, note=note)

    def render(self) -> str:
        if self.tag == "neg_infinity":
            return "-inf"
        if self.tag == "finite":
            return str(self.finite_part)
        if self.tag == "pos_infinity":
            return "+inf"
        if self.finite_part is None:
            return self.symbol
        return f"max{{{self.symbol}, {self.finite_part}}}"


@dataclass(frozen=True)
class HypothesisReport:
    source: str  # names the case: "Prop 4.7i".."Prop 4.7v" or "Cor 5.1.4i".."Cor 5.1.4v"
    per_j: tuple[HeightRow, ...]
    all_satisfied: bool


@dataclass(frozen=True)
class SpecializationResult:
    """The Rees algebra specializes exactly when report.all_satisfied."""

    cohen_macaulay: str  # "yes" or "unknown"
    report: HypothesisReport


@dataclass(frozen=True)
class DegreeBoundsResult:
    applicable: bool
    source: str
    b0: BoundValue | None = None
    td: BoundValue | None = None
    note: str | None = None


@dataclass(frozen=True)
class Conclusion:
    claim: str
    source: str
    hypotheses_verified: bool
    detail: str | None = None


@dataclass(frozen=True)
class ClassificationReport:
    conclusions: tuple[Conclusion, ...]


@dataclass(frozen=True)
class GenericStatus:
    """Known behavior of the generic ideal; None means no statement.

    flag_sources maps each flag with a statement to the label that set it.
    """

    linear_type: bool | None = None
    fiber_type: bool | None = None
    td_finite_all_k: bool | None = None
    td_infinite_some_k: bool | None = None
    flag_sources: dict[str, str] = field(default_factory=dict, hash=False)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.flag_sources.values()))


def hypothesis_check(M: PolyMatrix, t: int, *, capped: bool, cache: LowerIdealCache | None = None) -> HypothesisReport:
    """Verify the height hypotheses of the specialization criteria
    (capped=False, Prop 4.7) or of the degree bounds (capped=True, each
    requirement capped at d, Cor 5.1.4) on a concrete matrix.

    For alternating matrices t is half the Pfaffian size.  The main ideal
    must be of generic height.
    """
    cache = cache if cache is not None else LowerIdealCache(M)
    cache.require_generic(t)
    inst = ProblemInstance.from_matrix(M, t)
    case = specialization_case(inst)
    rows = tuple(height_rows(cache, case.schedule(inst, capped)))
    return HypothesisReport(source=case.source(capped), per_j=rows, all_satisfied=all(r.satisfied for r in rows))


def specialization_check(M: PolyMatrix, t: int, cache: LowerIdealCache | None = None) -> SpecializationResult:
    """Does the Rees algebra of I_t(M) / Pf_{2t}(M) arise by specializing
    the generic one, and is it Cohen-Macaulay where the catalog says so."""
    report = hypothesis_check(M, t, capped=False, cache=cache)
    inst = ProblemInstance.from_matrix(M, t)
    cm = report.all_satisfied and specialization_case(inst).cohen_macaulay(inst)
    return SpecializationResult(cohen_macaulay="yes" if cm else "unknown", report=report)


# -- generic-case status ------------------------------------------------------


@dataclass(frozen=True)
class StatusRule:
    kind: MatrixKind
    shape: Callable[[ProblemInstance], bool]
    source: str
    flags: tuple[tuple[str, bool], ...]


_LINEAR = (("linear_type", True),)
_NOT_LINEAR = (("linear_type", False), ("td_infinite_some_k", True))
_TD_FINITE = (("td_finite_all_k", True),)

STATUS_RULES = (
    StatusRule(_ORD, lambda i: i.t == 1, "Prop 5.2.1a", _LINEAR),
    StatusRule(_ORD, lambda i: i.t == i.m and i.n <= i.m + 1, "Prop 5.2.1b", _LINEAR),
    StatusRule(_ORD, lambda i: i.t == i.m and i.n >= i.m + 2, "Prop 5.2.1c", _NOT_LINEAR),
    StatusRule(_ORD, lambda i: i.t == i.m, "Prop 5.2.1d", (("fiber_type", True),)),
    StatusRule(_ORD, lambda i: i.m == i.n and i.t == i.n - 1, "Prop 5.2.1e", _LINEAR),
    StatusRule(_ORD, lambda i: i.char == 0 and i.m == 3 and i.t == 2, "Prop 5.2.1f", (("fiber_type", True),)),
    StatusRule(_ORD, lambda i: i.t == 2, "Prop 5.2.1g", _TD_FINITE),
    StatusRule(_ORD, lambda i: 2 < i.t < i.m and not (i.t + 1 == i.m == i.n), "Prop 5.2.1h", _NOT_LINEAR),
    StatusRule(_SYM, lambda i: i.t == 1, "Prop 5.3.1a", _LINEAR),
    StatusRule(_SYM, lambda i: i.t == i.n, "Prop 5.3.1b", _LINEAR),
    StatusRule(_SYM, lambda i: i.t == i.n - 1, "Prop 5.3.1c", _LINEAR),
    StatusRule(_SYM, lambda i: i.t == 2, "Prop 5.3.1d", _TD_FINITE),
    StatusRule(_SYM, lambda i: 2 < i.t < i.n - 1, "Prop 5.3.1e", _NOT_LINEAR),
    StatusRule(_ALT, lambda i: i.size == 2, "Prop 5.4.1a", _LINEAR),
    StatusRule(_ALT, lambda i: i.size == i.n, "Prop 5.4.1b", _LINEAR),
    StatusRule(_ALT, lambda i: i.size == i.n - 1, "Prop 5.4.1c", _LINEAR),
    StatusRule(_ALT, lambda i: i.size == i.n - 2 and i.char != 2, "Prop 5.4.1d", _LINEAR),
    StatusRule(_ALT, lambda i: i.size == 4, "Prop 5.4.1e", _TD_FINITE),
    StatusRule(_ALT, lambda i: 4 < i.size < i.n - 2, "Prop 5.4.1f", _NOT_LINEAR),
)

# The two td flags contradict each other; the first rule to set one wins.
_RIVAL_FLAG = {"td_finite_all_k": "td_infinite_some_k", "td_infinite_some_k": "td_finite_all_k"}


def generic_status(inst: ProblemInstance) -> GenericStatus:
    """What is known about the generic ideal with these parameters; each
    flag keeps the value of the first matching rule that sets it."""
    flags: dict[str, bool] = {}
    flag_sources: dict[str, str] = {}
    for rule in matching(STATUS_RULES, inst):
        for name, value in rule.flags:
            if name not in flags and _RIVAL_FLAG.get(name) not in flags:
                flags[name] = value
                flag_sources[name] = rule.source
    return GenericStatus(**flags, flag_sources=flag_sources)


# -- degree bounds ------------------------------------------------------------


def _sym_generic(delta: int, fn: str, k: int) -> str:
    base = f"{fn}(A_{k}(J))"
    return base if delta == 1 else f"{delta}*{base}"


def _not_applicable(source: str, threshold: int) -> DegreeBoundsResult:
    return DegreeBoundsResult(
        applicable=False,
        source=source,
        note=f"no bound is stated below k = {threshold}",
    )


def _vanishing(source: str) -> DegreeBoundsResult:
    return DegreeBoundsResult(True, source, BoundValue.neg_inf(), BoundValue.neg_inf())


def _shifted(source: str, inst: ProblemInstance, extra: int = 0) -> DegreeBoundsResult:
    """b0 <= (d-1)(delta-1) + extra, td <= d(delta-1) + extra."""
    b0 = (inst.d - 1) * (inst.delta - 1) + extra
    return DegreeBoundsResult(True, source, BoundValue.finite(b0), BoundValue.finite(b0 + inst.delta - 1))


def _generic_b0(inst: ProblemInstance, k: int, extra: int = 0) -> BoundValue:
    """max{delta*b0(A_k(J)), (d-1)(delta-1) + extra}."""
    return BoundValue.conditional(_sym_generic(inst.delta, "b0", k), (inst.d - 1) * (inst.delta - 1) + extra)


def _generic_td(inst: ProblemInstance, k: int, extra: int, note: str) -> BoundValue:
    """max{delta*td(A_k(J)), d(delta-1) + extra}."""
    return BoundValue.conditional(_sym_generic(inst.delta, "td", k), inst.d * (inst.delta - 1) + extra, note=note)


def _rule_5_2_2(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    m, n, d, delta = inst.m, inst.n, inst.d, inst.delta
    if n == m:
        return _vanishing("Thm 5.2.2a")
    if n == m + 1:
        return _vanishing("Thm 5.2.2b") if d > min(k, m) else _shifted("Thm 5.2.2b", inst)
    length = min(k, m) * (n - m)
    b0 = BoundValue.finite(0) if d - 1 > length else BoundValue.finite((d - 1) * (delta - 1))
    td = BoundValue.pos_inf(note="the generic concentration degree is infinite for some power [Prop 5.2.1c]")
    return DegreeBoundsResult(True, "Thm 5.2.2c", b0, td)


def _rule_5_2_4(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    m, d, delta = inst.m, inst.d, inst.delta
    td_note = "the generic term is finite for every power [Prop 5.2.1g]"
    if m == 3:
        b0 = BoundValue.finite((d - 1) * (delta - 1))
        return DegreeBoundsResult(True, "Thm 5.2.4a", b0, _generic_td(inst, k, 0, td_note))
    if k < 2:
        return _not_applicable("Thm 5.2.4b", 2)
    extra = delta * (m - k - 1) if k <= m - 2 else 0
    return DegreeBoundsResult(True, "Thm 5.2.4b", _generic_b0(inst, k, extra), _generic_td(inst, k, extra, td_note))


def _rule_5_2_6(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    n = inst.n
    if k < n - 1:
        return _not_applicable("Thm 5.2.6", n - 1)
    return _shifted("Thm 5.2.6", inst, inst.delta * n_constants("square_submax", n))


def _rule_5_2_8(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    m = inst.m
    if k < m - 1:
        return _not_applicable("Thm 5.2.8", m - 1)
    return DegreeBoundsResult(
        True,
        "Thm 5.2.8",
        _generic_b0(inst, k, inst.delta * n_constants("ordinary_minors", inst.t)),
        BoundValue.pos_inf(note="the generic concentration degree is infinite for some power [Prop 5.2.1h]"),
    )


def _rule_5_3_2(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    d, delta = inst.d, inst.delta

    def sym(position: int, shift: int) -> str:
        base = f"b0(F^{k}_{position})"
        scaled = base if delta == 1 else f"{delta}*{base}"
        return scaled if shift == 0 else f"{scaled} - {shift}"

    return DegreeBoundsResult(
        True,
        "Prop 5.3.2",
        BoundValue.conditional(sym(d - 1, d - 1)),
        BoundValue.conditional(sym(d, d)),
        note="generation degrees of the symmetric resolutions are not on record; the bound stays symbolic",
    )


def _rule_5_4_3(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    n, d, delta = inst.n, inst.d, inst.delta
    if d >= n or k <= d - 2:
        return _vanishing("Thm 5.4.3d")
    if k == d - 1:
        if d % 2 == 1:
            return _vanishing("Thm 5.4.3c")
        base = (d - 1) * (delta - 1)
        return DegreeBoundsResult(
            True,
            "Thm 5.4.3b",
            BoundValue.finite(base),
            BoundValue.finite(base + delta * (n - d + 1) // 2 - 1),
        )
    return _shifted("Thm 5.4.3a", inst)


def _rule_5_4_5(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    n = inst.n
    source = "Thm 5.4.5a" if n % 4 == 0 else "Thm 5.4.5b"
    if k < n - 2:
        return _not_applicable(source, n - 2)
    return _shifted(source, inst, inst.delta * n_constants("pfaff_n_minus_2", n))


def _pfaffian_k_threshold(n: int) -> int:
    return n - 2 if n % 2 == 0 else n - 3


def _rule_5_4_7(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    threshold = _pfaffian_k_threshold(inst.n)
    if k < threshold:
        return _not_applicable("Thm 5.4.7", threshold)
    td_note = "the generic term is finite for every power [Prop 5.4.1e]"
    return DegreeBoundsResult(True, "Thm 5.4.7", _generic_b0(inst, k), _generic_td(inst, k, 0, td_note))


def _rule_5_4_8(inst: ProblemInstance, k: int) -> DegreeBoundsResult:
    threshold = _pfaffian_k_threshold(inst.n)
    if k < threshold:
        return _not_applicable("Thm 5.4.8", threshold)
    return DegreeBoundsResult(
        True,
        "Thm 5.4.8",
        _generic_b0(inst, k, inst.delta * n_constants("pfaff_general", inst.t)),
        BoundValue.pos_inf(note="the generic concentration degree is infinite for some power [Prop 5.4.1f]"),
    )


@dataclass(frozen=True)
class BoundRule:
    name: str
    kind: MatrixKind
    shape: Callable[[ProblemInstance], bool]
    char_zero: bool
    evaluate: Callable[[ProblemInstance, int], DegreeBoundsResult]


# Ordered: the first matching rule covers the instance.
BOUND_RULES = (
    BoundRule("5.2.2", _ORD, lambda i: i.t == i.m, False, _rule_5_2_2),
    BoundRule("5.2.6", _ORD, lambda i: i.m == i.n and i.t == i.n - 1, True, _rule_5_2_6),
    BoundRule("5.2.4", _ORD, lambda i: i.t == 2, True, _rule_5_2_4),
    BoundRule("5.2.8", _ORD, lambda i: 2 < i.t < i.m, True, _rule_5_2_8),
    BoundRule("5.3.2", _SYM, lambda i: i.t == i.n - 1, False, _rule_5_3_2),
    BoundRule("5.4.3", _ALT, lambda i: i.size == i.n - 1, False, _rule_5_4_3),
    BoundRule("5.4.5", _ALT, lambda i: i.size == i.n - 2, True, _rule_5_4_5),
    BoundRule("5.4.7", _ALT, lambda i: i.size == 4 < i.n - 2, True, _rule_5_4_7),
    BoundRule("5.4.8", _ALT, lambda i: 4 < i.size < i.n - 2, True, _rule_5_4_8),
)


def degree_bounds(inst: ProblemInstance, k: int, *, hypotheses_attested: bool = False) -> DegreeBoundsResult:
    """Bounds on b0 and td of the degree-k piece of the defining ideal.

    The caller must attest that hypothesis_check(capped=True) passed for
    the matrix the instance came from; evaluation itself is pure formula
    work, so tabulating over k after one verification is cheap.  Each call
    reads the deadline, so `time_limit` bounds a tabulation over many k.
    """
    if not hypotheses_attested:
        raise NotAttestedError(
            "degree_bounds requires hypotheses_attested=True after a passing hypothesis_check(capped=True)"
        )
    check_deadline("degree-bound evaluation")
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"power k must be a positive integer, got {k!r}")
    rule = next(matching(BOUND_RULES, inst), None)
    if rule is None:
        raise NotApplicableError(
            f"no degree-bound criterion covers kind={inst.kind.value}, t={inst.t}, m={inst.m}, n={inst.n}"
        )
    if rule.char_zero and inst.char != 0:
        raise CharacteristicError(
            f"criterion {rule.name} requires characteristic zero, the instance has characteristic {inst.char}"
        )
    return rule.evaluate(inst, k)


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ConclusionRule:
    """A classify conclusion, emitted when the shape fits and the
    instance's specialization schedule (capped at d or not) holds."""

    kind: MatrixKind
    shape: Callable[[ProblemInstance], bool]
    capped: bool
    claim: str
    source: str
    detail: Callable[[ProblemInstance], str] | None = None


def _maximal(i: ProblemInstance) -> bool:
    return i.t == i.m


def _almost_square(i: ProblemInstance) -> bool:
    return i.t == i.m and i.n == i.m + 1


def _submax_pf(i: ProblemInstance) -> bool:
    return i.size == i.n - 1


def _char0_3xn_t2(i: ProblemInstance) -> bool:
    return i.char == 0 and i.m == 3 and i.t == 2


def _cor_5_2_7(i: ProblemInstance) -> bool:
    return _char0_3xn_t2(i) and i.n == 3 and i.delta == 1


def _cor_5_4_6(i: ProblemInstance) -> bool:
    return i.char == 0 and i.n == 6 and i.size == 4 and i.delta == 1


def _vanish_below(shift: int) -> Callable[[ProblemInstance], str]:
    return lambda i: f"defining relations vanish in degrees k <= {i.d - shift}"


_ANNIHILATES, _VANISH = MAXIMAL_IDEAL_ANNIHILATES, LOW_POWER_RELATIONS_VANISH

# In emission order.
CONCLUSION_RULES = (
    ConclusionRule(_ORD, _almost_square, False, LINEAR_TYPE, "Cor 4.8i"),
    ConclusionRule(_ORD, lambda i: i.m == i.n and i.t == i.n - 1, False, LINEAR_TYPE, "Cor 4.8ii"),
    ConclusionRule(_ORD, _maximal, False, FIBER_TYPE, "Cor 4.8vi"),
    ConclusionRule(_ORD, _char0_3xn_t2, False, FIBER_TYPE, "Cor 4.8vii"),
    ConclusionRule(_ORD, lambda i: _maximal(i) and i.delta == 1, True, FIBER_TYPE, "Cor 5.2.3a"),
    ConclusionRule(_ORD, lambda i: _almost_square(i) and i.d > i.m, True, LINEAR_TYPE, "Cor 5.2.3b"),
    ConclusionRule(_ORD, lambda i: _almost_square(i) and i.d <= i.m and i.delta == 1, True, _ANNIHILATES, "Cor 5.2.3c"),
    ConclusionRule(
        _ORD, lambda i: _maximal(i) and i.n >= i.m + 2 and i.d > i.m * (i.n - i.m) + 1, True, FIBER_TYPE, "Cor 5.2.3d"
    ),
    ConclusionRule(_ORD, lambda i: _char0_3xn_t2(i) and i.delta == 1, True, FIBER_TYPE, "Cor 5.2.5"),
    ConclusionRule(_ORD, _cor_5_2_7, True, FIBER_TYPE, "Cor 5.2.7"),
    ConclusionRule(_ORD, _cor_5_2_7, True, _ANNIHILATES, "Cor 5.2.7"),
    ConclusionRule(_SYM, lambda i: i.t == i.n - 1, False, LINEAR_TYPE, "Cor 4.8iii"),
    ConclusionRule(_ALT, _submax_pf, False, LINEAR_TYPE, "Cor 4.8iv"),
    ConclusionRule(_ALT, lambda i: _submax_pf(i) and i.d >= i.n, True, LINEAR_TYPE, "Cor 5.4.4a"),
    ConclusionRule(_ALT, lambda i: _submax_pf(i) and i.delta == 1, True, FIBER_TYPE, "Cor 5.4.4b"),
    ConclusionRule(_ALT, lambda i: _submax_pf(i) and i.d >= 3, True, _VANISH, "Cor 5.4.4c", _vanish_below(2)),
    ConclusionRule(
        _ALT, lambda i: _submax_pf(i) and i.d % 2 == 1 and i.d >= 3, True, _VANISH, "Cor 5.4.4d", _vanish_below(1)
    ),
    ConclusionRule(_ALT, lambda i: _submax_pf(i) and i.d % 2 == 1 and i.delta == 1, True, _ANNIHILATES, "Cor 5.4.4e"),
    ConclusionRule(_ALT, lambda i: i.size == i.n - 2 and i.char != 2, False, LINEAR_TYPE, "Cor 4.8v"),
    ConclusionRule(_ALT, _cor_5_4_6, True, FIBER_TYPE, "Cor 5.4.6"),
    ConclusionRule(_ALT, _cor_5_4_6, True, _ANNIHILATES, "Cor 5.4.6"),
)


def classify(M: PolyMatrix, t: int, cache: LowerIdealCache | None = None) -> ClassificationReport:
    """Emit every matching catalog conclusion whose hypotheses verify.

    For alternating matrices t is half the Pfaffian size.  A matrix whose
    main ideal is not of generic height matches nothing (empty report).
    Each schedule (uncapped, capped) is checked at most once, lazily, and
    stops at its first failing level.
    """
    cache = cache if cache is not None else LowerIdealCache(M)
    if not cache.generic_report(t).ok:
        return ClassificationReport(())
    inst = ProblemInstance.from_matrix(M, t)
    holds: dict[bool, bool] = {}
    conclusions = []
    for rule in matching(CONCLUSION_RULES, inst):
        if rule.capped not in holds:
            schedule = specialization_case(inst).schedule(inst, rule.capped)
            holds[rule.capped] = all(row.satisfied for row in height_rows(cache, schedule))
        if holds[rule.capped]:
            detail = rule.detail(inst) if rule.detail else None
            conclusions.append(Conclusion(rule.claim, rule.source, hypotheses_verified=True, detail=detail))
    return ClassificationReport(tuple(conclusions))
