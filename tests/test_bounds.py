import random

import pytest

from reeskit.bounds import (
    BOUND_RULES,
    FIBER_TYPE,
    LINEAR_TYPE,
    LOW_POWER_RELATIONS_VANISH,
    MAXIMAL_IDEAL_ANNIHILATES,
    BoundValue,
    classify,
    degree_bounds,
    generic_status,
    hypothesis_check,
    specialization_check,
)
from reeskit.errors import (
    CharacteristicError,
    ComputationTimeout,
    DomainError,
    GenericHeightError,
    NotApplicableError,
    NotAttestedError,
)
from reeskit.groebner import LowerIdealCache, time_limit
from reeskit.gs import ProblemInstance, matching
from reeskit.matrixalg import PolyMatrix, generic_matrix
from reeskit.poly import FieldSpec, PolyRing, parse_poly

F32003 = FieldSpec.prime(32003)


def inst(kind, m, n, t, d=1, delta=1, char=0):
    return ProblemInstance(kind=kind, m=m, n=n, t=t, d=d, delta=delta, char=char)


class TestGenericStatus:
    def test_ordinary_t1_linear(self):
        status = generic_status(inst("ordinary", 3, 5, 1))
        assert status.linear_type is True
        assert "Prop 5.2.1a" in status.sources

    def test_maximal_minors_wide_gap(self):
        status = generic_status(inst("ordinary", 3, 5, 3))
        assert status.fiber_type is True
        assert status.linear_type is False
        assert status.td_infinite_some_k is True

    def test_submaximal_square(self):
        status = generic_status(inst("ordinary", 4, 4, 3))
        assert status.linear_type is True

    def test_three_by_n_char0(self):
        status = generic_status(inst("ordinary", 3, 6, 2))
        assert status.fiber_type is True
        assert status.td_finite_all_k is True

    def test_symmetric(self):
        assert generic_status(inst("symmetric", 5, 5, 1)).linear_type is True
        assert generic_status(inst("symmetric", 5, 5, 5)).linear_type is True
        assert generic_status(inst("symmetric", 5, 5, 4)).linear_type is True
        mid = generic_status(inst("symmetric", 6, 6, 3))
        assert mid.td_infinite_some_k is True and mid.linear_type is False
        assert generic_status(inst("symmetric", 6, 6, 2)).td_finite_all_k is True

    def test_alternating_n_minus_2_char_zero(self):
        status = generic_status(inst("alternating", 10, 10, 4))
        assert status.linear_type is True
        assert "Prop 5.4.1d" in status.sources

    def test_alternating_n_minus_2_char_two(self):
        status = generic_status(inst("alternating", 10, 10, 4, char=2))
        assert status.linear_type is None

    def test_alternating_small_and_mid(self):
        assert generic_status(inst("alternating", 9, 9, 1)).linear_type is True
        assert generic_status(inst("alternating", 9, 9, 2)).td_finite_all_k is True
        mid = generic_status(inst("alternating", 12, 12, 3))
        assert mid.td_infinite_some_k is True


class TestHypothesisCheck:
    def test_maximal_minors_2x3_specialization(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        report = hypothesis_check(M, 2, capped=False)
        assert report.source == "Prop 4.7i"
        (row,) = report.per_j
        assert (row.j, row.required, row.actual, row.satisfied) == (1, 3, 6, True)
        assert report.all_satisfied

    def test_maximal_minors_2x3_bounds_caps_at_d(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        report = hypothesis_check(M, 2, capped=True)
        assert report.source == "Cor 5.1.4i"
        (row,) = report.per_j
        assert row.required == min(3, 6) == 3
        assert report.all_satisfied

    def test_alternating_submaximal_5x5(self):
        M = generic_matrix(5, 5, "alternating", field=F32003)
        report = hypothesis_check(M, 2, capped=False)
        assert report.source == "Prop 4.7iv"
        (row,) = report.per_j
        assert (row.j, row.required, row.actual) == (1, 5, 10)
        assert report.all_satisfied

    def test_bounds_implied_by_specialization_when_d_large(self):
        rng = random.Random(3)
        kinds = [("ordinary", 2, 4, 2), ("symmetric", 3, 3, 2), ("alternating", 5, 5, 2), ("ordinary", 3, 4, 3)]
        for kind, m, n, t in kinds:
            M = generic_matrix(m, n, kind, field=F32003)
            spec = hypothesis_check(M, t, capped=False)
            cap = hypothesis_check(M, t, capped=True)
            if all(row.required <= M.ring.nvars for row in spec.per_j) and spec.all_satisfied:
                assert cap.all_satisfied

    def test_capped_is_keyword_only(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        with pytest.raises(TypeError):
            hypothesis_check(M, 2, "specialization")

    def test_generic_height_precondition(self):
        ring_mat = generic_matrix(2, 2, "ordinary", field=F32003)
        x = ring_mat.entry(0, 0)
        M = PolyMatrix("ordinary", [[x, x, x], [x, x, x]])
        with pytest.raises(GenericHeightError):
            hypothesis_check(M, 2, capped=False)


class TestSpecializationCheck:
    def test_maximal_minors_cm(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        result = specialization_check(M, 2)
        assert result.report.all_satisfied
        assert result.cohen_macaulay == "yes"
        assert result.report.source == "Prop 4.7i"

    def test_symmetric_cm_unknown(self):
        M = generic_matrix(3, 3, "symmetric", field=F32003)
        result = specialization_check(M, 2)
        assert result.report.all_satisfied
        assert result.cohen_macaulay == "unknown"
        assert result.report.source == "Prop 4.7iii"

    def test_ordinary_lower_minor_char_condition(self):
        # t < m over characteristic 2 with min(t, m-t) = 2: CM stays unknown.
        M2 = generic_matrix(4, 4, "ordinary", field=FieldSpec.prime(2))
        result = specialization_check(M2, 2)
        assert result.report.all_satisfied
        assert result.cohen_macaulay == "unknown"
        M0 = generic_matrix(4, 4, "ordinary")
        assert specialization_check(M0, 2).cohen_macaulay == "yes"

    def test_alternating_char_condition(self):
        M = generic_matrix(8, 8, "alternating", field=FieldSpec.prime(3))
        result = specialization_check(M, 2)  # Pf_4, min(4, 4) = 4 >= 3
        assert result.report.all_satisfied
        assert result.cohen_macaulay == "unknown"
        big = generic_matrix(8, 8, "alternating", field=FieldSpec.prime(5))
        assert specialization_check(big, 2).cohen_macaulay == "yes"


class TestBoundValue:
    def test_render(self):
        assert BoundValue.neg_inf().render() == "-inf"
        assert BoundValue.finite(4).render() == "4"
        assert BoundValue.pos_inf().render() == "+inf"
        assert BoundValue.conditional("2*b0(A_3(J))", 7).render() == "max{2*b0(A_3(J)), 7}"
        assert BoundValue.conditional("b0(F^2_3) - 3").render() == "b0(F^2_3) - 3"


class TestDegreeBounds:
    def test_attestation_required(self):
        with pytest.raises(NotAttestedError):
            degree_bounds(inst("ordinary", 3, 3, 3, d=4), 2)

    def test_time_limit_bounds_the_evaluation(self):
        # A tabulation over many k is pure formula work; each call reads the
        # deadline, so --timeout stops it as it stops Groebner work.
        with pytest.raises(ComputationTimeout, match="during degree-bound evaluation$"):
            with time_limit(0.0):
                degree_bounds(inst("ordinary", 2, 3, 2, d=6), 1, hypotheses_attested=True)

    def test_square_maximal_minors_vanish(self):
        result = degree_bounds(inst("ordinary", 3, 3, 3, d=4, delta=2), 5, hypotheses_attested=True)
        assert result.source == "Thm 5.2.2a"
        assert result.b0.tag == "neg_infinity" and result.td.tag == "neg_infinity"

    def test_almost_square_small_d(self):
        result = degree_bounds(inst("ordinary", 2, 3, 2, d=2, delta=3), 5, hypotheses_attested=True)
        assert result.source == "Thm 5.2.2b"
        assert result.b0 == BoundValue.finite(2)
        assert result.td == BoundValue.finite(4)

    def test_almost_square_large_d(self):
        result = degree_bounds(inst("ordinary", 2, 3, 2, d=6, delta=3), 5, hypotheses_attested=True)
        assert result.b0.tag == "neg_infinity" and result.td.tag == "neg_infinity"

    def test_wide_maximal_minors(self):
        early = degree_bounds(inst("ordinary", 2, 5, 2, d=9, delta=2), 1, hypotheses_attested=True)
        assert early.source == "Thm 5.2.2c"
        assert early.b0 == BoundValue.finite(0)  # d-1 = 8 > min(1,2)*3 = 3
        assert early.td.tag == "pos_infinity"
        late = degree_bounds(inst("ordinary", 2, 5, 2, d=4, delta=2), 5, hypotheses_attested=True)
        assert late.b0 == BoundValue.finite(3)

    def test_submaximal_square(self):
        result = degree_bounds(inst("ordinary", 4, 4, 3, d=5, delta=2), 3, hypotheses_attested=True)
        assert result.source == "Thm 5.2.6"
        assert result.b0 == BoundValue.finite(6)
        assert result.td == BoundValue.finite(7)

    def test_submaximal_square_below_range(self):
        result = degree_bounds(inst("ordinary", 4, 4, 3, d=5, delta=2), 2, hypotheses_attested=True)
        assert not result.applicable
        assert "k = 3" in result.note

    def test_size2_m3(self):
        result = degree_bounds(inst("ordinary", 3, 4, 2, d=3, delta=2), 1, hypotheses_attested=True)
        assert result.source == "Thm 5.2.4a"
        assert result.b0 == BoundValue.finite(2)
        assert result.td.tag == "conditional"
        assert result.td.finite_part == 3
        assert "td(A_1(J))" in result.td.symbol

    def test_size2_large_m(self):
        mid = degree_bounds(inst("ordinary", 6, 6, 2, d=3, delta=1), 3, hypotheses_attested=True)
        assert mid.source == "Thm 5.2.4b"
        # k = 3 <= m-2 = 4: extra term delta*(m-k-1) = 2
        assert mid.b0.finite_part == 2
        late = degree_bounds(inst("ordinary", 6, 6, 2, d=3, delta=1), 7, hypotheses_attested=True)
        assert late.b0.finite_part == 0
        below = degree_bounds(inst("ordinary", 6, 6, 2, d=3, delta=1), 1, hypotheses_attested=True)
        assert not below.applicable

    def test_general_minors(self):
        result = degree_bounds(inst("ordinary", 5, 6, 3, d=4, delta=2), 5, hypotheses_attested=True)
        assert result.source == "Thm 5.2.8"
        assert result.b0.tag == "conditional"
        assert result.b0.finite_part == (4 - 1) * (2 - 1) + 2 * 1
        assert result.td.tag == "pos_infinity"

    def test_symmetric_submaximal_symbolic(self):
        result = degree_bounds(inst("symmetric", 4, 4, 3, d=5, delta=2), 3, hypotheses_attested=True)
        assert result.source == "Prop 5.3.2"
        assert result.b0.tag == "conditional" and result.b0.finite_part is None
        assert result.b0.symbol == "2*b0(F^3_4) - 4"
        assert result.td.symbol == "2*b0(F^3_5) - 5"

    def test_submaximal_pfaffians_cases(self):
        base = dict(kind="alternating", m=5, n=5, t=2)
        # d odd, k = d-1
        result = degree_bounds(ProblemInstance(d=3, delta=2, char=0, **base), 2, hypotheses_attested=True)
        assert result.source == "Thm 5.4.3c"
        assert result.b0.tag == "neg_infinity" and result.td.tag == "neg_infinity"
        # k <= d-2 or d >= n
        assert degree_bounds(ProblemInstance(d=4, delta=2, char=0, **base), 2, hypotheses_attested=True).source == "Thm 5.4.3d"
        assert degree_bounds(ProblemInstance(d=7, delta=2, char=0, **base), 9, hypotheses_attested=True).source == "Thm 5.4.3d"
        # d even, k = d-1
        result = degree_bounds(ProblemInstance(d=4, delta=2, char=0, **base), 3, hypotheses_attested=True)
        assert result.source == "Thm 5.4.3b"
        assert result.b0 == BoundValue.finite(3)
        assert result.td == BoundValue.finite(3 + 2 * (5 - 4 + 1) // 2 - 1)
        # k >= d, d <= n-1
        result = degree_bounds(ProblemInstance(d=4, delta=2, char=0, **base), 4, hypotheses_attested=True)
        assert result.source == "Thm 5.4.3a"
        assert (result.b0, result.td) == (BoundValue.finite(3), BoundValue.finite(4))

    def test_n_minus_2_pfaffians(self):
        result = degree_bounds(inst("alternating", 8, 8, 3, d=4, delta=1), 7, hypotheses_attested=True)
        assert result.source == "Thm 5.4.5a"
        assert result.b0 == BoundValue.finite(2)
        assert result.td == BoundValue.finite(2)
        other = degree_bounds(inst("alternating", 10, 10, 4, d=3, delta=2), 9, hypotheses_attested=True)
        assert other.source == "Thm 5.4.5b"
        assert other.b0 == BoundValue.finite(2 + 2 * 4)
        below = degree_bounds(inst("alternating", 8, 8, 3, d=4, delta=1), 5, hypotheses_attested=True)
        assert not below.applicable

    def test_size4_pfaffians(self):
        result = degree_bounds(inst("alternating", 7, 7, 2, d=4, delta=2), 4, hypotheses_attested=True)
        assert result.source == "Thm 5.4.7"
        assert result.b0.tag == "conditional" and result.b0.finite_part == 3
        assert result.td.tag == "conditional" and result.td.finite_part == 4
        assert "finite" in result.td.note
        assert not degree_bounds(inst("alternating", 7, 7, 2, d=4, delta=2), 3, hypotheses_attested=True).applicable

    def test_general_pfaffians(self):
        result = degree_bounds(inst("alternating", 12, 12, 3, d=4, delta=1), 10, hypotheses_attested=True)
        assert result.source == "Thm 5.4.8"
        assert result.b0.finite_part == n_constant_pfaff_general_3()
        assert result.td.tag == "pos_infinity"

    def test_char_guard(self):
        with pytest.raises(CharacteristicError):
            degree_bounds(inst("ordinary", 4, 4, 3, d=5, char=7), 5, hypotheses_attested=True)
        # Maximal minors carry no characteristic restriction.
        ok = degree_bounds(inst("ordinary", 3, 3, 3, d=4, char=7), 5, hypotheses_attested=True)
        assert ok.source == "Thm 5.2.2a"

    def test_no_applicable_rule(self):
        with pytest.raises(NotApplicableError):
            degree_bounds(inst("ordinary", 3, 5, 1, d=4), 2, hypotheses_attested=True)
        with pytest.raises(NotApplicableError):
            degree_bounds(inst("symmetric", 4, 4, 2, d=4), 2, hypotheses_attested=True)
        with pytest.raises(NotApplicableError):
            degree_bounds(inst("alternating", 4, 4, 2, d=4), 2, hypotheses_attested=True)

    def test_vanishing_td_implies_vanishing_b0(self):
        instances = []
        for m in range(1, 5):
            for n in range(m, 6):
                for t in range(1, m + 1):
                    instances.append(inst("ordinary", m, n, t, d=3, delta=2))
        for n in range(3, 10, 2):
            instances.append(inst("alternating", n, n, (n - 1) // 2, d=3, delta=2))
        for case in instances:
            if next(matching(BOUND_RULES, case), None) is None:
                continue
            for k in range(1, 8):
                result = degree_bounds(case, k, hypotheses_attested=True)
                if result.applicable and result.td.tag == "neg_infinity":
                    assert result.b0.tag == "neg_infinity"


def n_constant_pfaff_general_3():
    from reeskit.resolutions import n_constants

    return 2  # (3-1)^2 / 2


def rule_name(case):
    """Name of the bound rule that covers the instance, None when none does."""
    rule = next(matching(BOUND_RULES, case), None)
    return None if rule is None else rule.name


class TestDispatch:
    def test_total_and_unambiguous_on_grid(self):
        seen = set()
        for n in range(1, 7):
            for m in range(1, n + 1):
                for t in range(1, m + 1):
                    rule = rule_name(inst("ordinary", m, n, t, d=3))
                    assert rule in (None, "5.2.2", "5.2.4", "5.2.6", "5.2.8")
                    seen.add(rule)
            for t in range(1, n + 1):
                rule = rule_name(inst("symmetric", n, n, t, d=3))
                assert rule in (None, "5.3.2")
            for t in range(1, n // 2 + 1):
                rule = rule_name(inst("alternating", n, n, t, d=3))
                assert rule in (None, "5.4.3", "5.4.5", "5.4.7", "5.4.8")
        assert {"5.2.2", "5.2.4", "5.2.6"} <= seen

    def test_specific_routings(self):
        assert rule_name(inst("ordinary", 2, 2, 2, d=3)) == "5.2.2"
        assert rule_name(inst("ordinary", 3, 3, 2, d=3)) == "5.2.6"
        assert rule_name(inst("ordinary", 4, 5, 2, d=3)) == "5.2.4"
        assert rule_name(inst("ordinary", 5, 6, 3, d=3)) == "5.2.8"
        assert rule_name(inst("ordinary", 2, 5, 1, d=3)) is None
        assert rule_name(inst("symmetric", 5, 5, 4, d=3)) == "5.3.2"
        assert rule_name(inst("alternating", 5, 5, 2, d=3)) == "5.4.3"
        assert rule_name(inst("alternating", 6, 6, 2, d=3)) == "5.4.5"
        assert rule_name(inst("alternating", 7, 7, 2, d=3)) == "5.4.7"
        assert rule_name(inst("alternating", 12, 12, 3, d=3)) == "5.4.8"
        assert rule_name(inst("alternating", 4, 4, 2, d=3)) is None
        assert rule_name(inst("alternating", 8, 8, 1, d=3)) is None


class TestDeltaOneCollapse:
    def test_bounds_collapse_to_n_constant(self):
        # (d-1)(delta-1) + delta*N collapses to N at delta = 1.
        from reeskit.resolutions import n_constants

        result = degree_bounds(inst("ordinary", 5, 5, 4, d=7, delta=1), 6, hypotheses_attested=True)
        assert result.b0 == BoundValue.finite(n_constants("square_submax", 5))
        result = degree_bounds(inst("alternating", 8, 8, 3, d=9, delta=1), 8, hypotheses_attested=True)
        assert result.b0 == BoundValue.finite(n_constants("pfaff_n_minus_2", 8))

    def test_maximal_minors_delta_one_b0_nonpositive(self):
        for n in range(3, 6):
            for k in range(1, 6):
                result = degree_bounds(inst("ordinary", 2, n, 2, d=5, delta=1), k, hypotheses_attested=True)
                if result.b0.tag == "finite":
                    assert result.b0.finite_part <= 0

    def test_submaximal_pfaffians_delta_one_b0_nonpositive(self):
        for d in range(2, 8):
            for k in range(1, 9):
                result = degree_bounds(inst("alternating", 9, 9, 4, d=d, delta=1), k, hypotheses_attested=True)
                if result.b0.tag == "finite":
                    assert result.b0.finite_part <= 0


class TestClassify:
    def test_generic_2x3_linear_type(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        report = classify(M, 2)
        sources = {(c.claim, c.source) for c in report.conclusions}
        assert (LINEAR_TYPE, "Cor 5.2.3b") in sources
        assert (LINEAR_TYPE, "Cor 4.8i") in sources
        assert (FIBER_TYPE, "Cor 5.2.3a") in sources
        assert all(c.hypotheses_verified for c in report.conclusions)

    def test_builds_no_ideal_past_the_first_failing_level(self):
        # Entries in x, y only: I_3 has the generic height 2, but I_1 has
        # height 2, below both the uncapped requirement 4 and the capped
        # min(4, d) = 4 at j = 1, so neither schedule reaches I_2.
        ring = PolyRing(("x", "y", "z", "w"), field=F32003)
        rows = [
            ["3*x + 2*y", "x + 5*y", "7*x + y", "2*x + 9*y"],
            ["x + y", "4*x + 3*y", "x + 8*y", "6*x + y"],
            ["5*x + 2*y", "2*x + 7*y", "9*x + 4*y", "x + 3*y"],
        ]
        M = PolyMatrix("ordinary", [[parse_poly(text, ring) for text in row] for row in rows])
        cache = LowerIdealCache(M)
        assert classify(M, 3, cache=cache).conclusions == ()
        assert set(cache.generator_counts) == {("minors", 3), ("minors", 1)}

    def test_generic_3x3_submaximal(self):
        M = generic_matrix(3, 3, "ordinary")
        report = classify(M, 2)
        sources = {(c.claim, c.source) for c in report.conclusions}
        assert (LINEAR_TYPE, "Cor 4.8ii") in sources
        assert (FIBER_TYPE, "Cor 5.2.7") in sources
        assert (MAXIMAL_IDEAL_ANNIHILATES, "Cor 5.2.7") in sources
        assert (FIBER_TYPE, "Cor 5.2.5") in sources

    def test_symmetric_submaximal_linear(self):
        M = generic_matrix(3, 3, "symmetric", field=F32003)
        report = classify(M, 2)
        assert (LINEAR_TYPE, "Cor 4.8iii") in {(c.claim, c.source) for c in report.conclusions}

    def test_alternating_3x3_submaximal_pfaffians(self):
        M = generic_matrix(3, 3, "alternating", field=F32003)
        report = classify(M, 1)
        got = {(c.claim, c.source) for c in report.conclusions}
        assert (LINEAR_TYPE, "Cor 4.8iv") in got
        assert (LINEAR_TYPE, "Cor 5.4.4a") in got  # d = 3 >= n = 3
        assert (FIBER_TYPE, "Cor 5.4.4b") in got
        assert (LOW_POWER_RELATIONS_VANISH, "Cor 5.4.4c") in got
        assert (LOW_POWER_RELATIONS_VANISH, "Cor 5.4.4d") in got
        assert (MAXIMAL_IDEAL_ANNIHILATES, "Cor 5.4.4e") in got

    def test_alternating_6x6_size4(self):
        M = generic_matrix(6, 6, "alternating")
        report = classify(M, 2)
        got = {(c.claim, c.source) for c in report.conclusions}
        assert (FIBER_TYPE, "Cor 5.4.6") in got
        assert (MAXIMAL_IDEAL_ANNIHILATES, "Cor 5.4.6") in got
        assert (LINEAR_TYPE, "Cor 4.8v") in got

    def test_alternating_7x7_submaximal(self):
        M = generic_matrix(7, 7, "alternating", field=F32003)
        report = classify(M, 3)
        got = {(c.claim, c.source) for c in report.conclusions}
        assert (LINEAR_TYPE, "Cor 4.8iv") in got
        assert (LINEAR_TYPE, "Cor 5.4.4a") in got  # d = 21 >= 7
        assert (MAXIMAL_IDEAL_ANNIHILATES, "Cor 5.4.4e") in got  # d = 21 odd, delta = 1

    def test_non_generic_height_gives_empty_report(self):
        helper = generic_matrix(2, 2, "ordinary", field=F32003)
        x = helper.entry(0, 0)
        M = PolyMatrix("ordinary", [[x, x, x], [x, x, x]])
        assert classify(M, 2).conclusions == ()

    def test_never_emits_unverified(self):
        for kind, m, n, t in [("ordinary", 2, 3, 2), ("symmetric", 3, 3, 2), ("alternating", 5, 5, 2)]:
            M = generic_matrix(m, n, kind, field=F32003)
            for c in classify(M, t).conclusions:
                assert c.hypotheses_verified

    def test_twisted_cubic_presentation_is_linear_type(self):
        # The 2x3 matrix [[x, y, z], [y, z, w]] of linear forms: its 2x2
        # minors cut out the twisted cubic, height 2 (generic), and the
        # entry ideal has height 4, so the linear-type criteria apply.
        ring = PolyRing(("x", "y", "z", "w"), field=F32003)
        x, y, z, w = ring.gens()
        M = PolyMatrix("ordinary", [[x, y, z], [y, z, w]])
        cache = LowerIdealCache(M)
        assert cache.generic_report(2).ok
        assert cache.minor_height(1) == 4
        report = classify(M, 2, cache=cache)
        got = {(c.claim, c.source) for c in report.conclusions}
        assert (LINEAR_TYPE, "Cor 4.8i") in got
        assert (LINEAR_TYPE, "Cor 5.2.3b") in got
        assert (FIBER_TYPE, "Cor 5.2.3a") in got
        spec = specialization_check(M, 2, cache=cache)
        assert spec.report.all_satisfied and spec.cohen_macaulay == "yes"

    def test_shared_cache_reuses_heights(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        cache = LowerIdealCache(M)
        classify(M, 2, cache=cache)
        before = dict(cache._heights)
        classify(M, 2, cache=cache)
        assert cache._heights == before

    def test_non_uniform_entry_degrees_rejected(self):
        helper = generic_matrix(2, 2, "ordinary", field=F32003)
        x = helper.entry(0, 0)
        y = helper.entry(0, 1)
        M = PolyMatrix("ordinary", [[x, y * y], [y, x]])
        # I_2 = (x^2 - y^3) has the generic height 1, so the entry degrees
        # are read; I_1 = (x, y) does not, and nothing is concluded first.
        with pytest.raises(DomainError):
            classify(M, 2)
        assert classify(M, 1).conclusions == ()

    def test_capped_hypotheses_can_hold_where_uncapped_fail(self):
        # Entries span only two variables: height of I_1 is 2, below the
        # uncapped requirement 3, but equal to the capped min(3, d) = 2.
        ring = PolyRing(("x", "y"), field=F32003)
        x, y = ring.gens()
        zero = ring.zero()
        M = PolyMatrix("ordinary", [[x, y, zero], [zero, x, y]])
        report = classify(M, 2)
        got = {(c.claim, c.source) for c in report.conclusions}
        assert (LINEAR_TYPE, "Cor 4.8i") not in got
        assert (FIBER_TYPE, "Cor 5.2.3a") in got
        assert (MAXIMAL_IDEAL_ANNIHILATES, "Cor 5.2.3c") in got  # n=m+1, d<=m, delta=1
        spec = hypothesis_check(M, 2, capped=False)
        cap = hypothesis_check(M, 2, capped=True)
        assert not spec.all_satisfied and cap.all_satisfied

    def test_constant_matrix_matches_nothing(self):
        helper = generic_matrix(1, 1, "ordinary", field=F32003)
        ring = helper.ring
        M = PolyMatrix("ordinary", [[ring.one()]])
        assert classify(M, 1).conclusions == ()
        with pytest.raises(GenericHeightError):
            hypothesis_check(M, 1, capped=False)
