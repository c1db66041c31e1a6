import math

import pytest

from reeskit.errors import DomainError, GenericHeightError
from reeskit.gs import ProblemInstance, check_Gs, gs_threshold, max_Gs_generic, min_gens_generic
from reeskit.matrixalg import PolyMatrix, enumerate_minors, enumerate_pfaffians, generic_matrix
from reeskit.poly import FieldSpec

F32003 = FieldSpec.prime(32003)


def inst(kind, m, n, t, d=1, delta=1, char=0):
    return ProblemInstance(kind=kind, m=m, n=n, t=t, d=d, delta=delta, char=char)


class TestProblemInstance:
    def test_alternating_stores_half_size(self):
        i = inst("alternating", 6, 6, 2)
        assert i.pfaffian_size == 4

    def test_range_validation(self):
        with pytest.raises(DomainError):
            inst("ordinary", 3, 2, 1)
        with pytest.raises(DomainError):
            inst("ordinary", 2, 3, 3)
        with pytest.raises(DomainError):
            inst("symmetric", 3, 4, 2)
        with pytest.raises(DomainError):
            inst("alternating", 4, 4, 3)

    def test_from_matrix(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        i = ProblemInstance.from_matrix(M, 2)
        assert (i.kind.value, i.m, i.n, i.t, i.d, i.delta, i.char) == ("ordinary", 2, 3, 2, 6, 1, 32003)


class TestThresholds:
    def test_ordinary_example(self):
        assert gs_threshold(inst("ordinary", 2, 3, 2), 1) == 3

    def test_symmetric_example(self):
        assert gs_threshold(inst("symmetric", 3, 3, 2), 1) == 6

    def test_alternating_example(self):
        assert gs_threshold(inst("alternating", 5, 5, 2), 1) == 5

    def test_j_out_of_range(self):
        with pytest.raises(DomainError):
            gs_threshold(inst("ordinary", 3, 3, 2), 2)
        with pytest.raises(DomainError):
            gs_threshold(inst("ordinary", 3, 3, 2), 0)

    def test_thresholds_are_positive_integers(self):
        for kind, nmax in (("ordinary", 6), ("symmetric", 6), ("alternating", 8)):
            for n in range(2, nmax + 1):
                for m in range(1, n + 1) if kind == "ordinary" else [n]:
                    tmax = n // 2 if kind == "alternating" else m
                    for t in range(2, tmax + 1):
                        for j in range(1, t):
                            theta = gs_threshold(inst(kind, m if kind == "ordinary" else n, n, t), j)
                            assert isinstance(theta, int) and theta >= 1


class TestMaxGsGeneric:
    def test_infinite_families_ordinary(self):
        assert max_Gs_generic(inst("ordinary", 2, 5, 2)) == math.inf
        assert max_Gs_generic(inst("ordinary", 3, 3, 3)) == math.inf
        assert max_Gs_generic(inst("ordinary", 4, 4, 3)) == math.inf
        assert max_Gs_generic(inst("ordinary", 3, 4, 3)) == math.inf
        assert max_Gs_generic(inst("ordinary", 3, 5, 3)) == math.inf
        assert max_Gs_generic(inst("ordinary", 5, 9, 1)) == math.inf

    def test_exceptional_18(self):
        assert max_Gs_generic(inst("ordinary", 3, 6, 3)) == 18
        assert max_Gs_generic(inst("ordinary", 4, 7, 4)) == 18
        assert max_Gs_generic(inst("ordinary", 5, 8, 5)) == 18

    def test_exceptional_case_requires_t_at_least_3(self):
        # 2x5 maximal minors fall under the general infinite family instead.
        assert max_Gs_generic(inst("ordinary", 2, 5, 2)) == math.inf

    def test_general_formula_ordinary(self):
        assert max_Gs_generic(inst("ordinary", 2, 6, 2)) == 12
        assert max_Gs_generic(inst("ordinary", 3, 4, 2)) == 12
        assert max_Gs_generic(inst("ordinary", 4, 4, 2)) == 16

    def test_symmetric(self):
        assert max_Gs_generic(inst("symmetric", 3, 3, 2)) == math.inf
        assert max_Gs_generic(inst("symmetric", 5, 5, 5)) == math.inf
        assert max_Gs_generic(inst("symmetric", 4, 4, 2)) == 10
        assert max_Gs_generic(inst("symmetric", 5, 5, 2)) == 15

    def test_alternating(self):
        assert max_Gs_generic(inst("alternating", 8, 8, 2)) == 28
        assert max_Gs_generic(inst("alternating", 8, 8, 3)) == math.inf
        assert max_Gs_generic(inst("alternating", 8, 8, 4)) == math.inf
        assert max_Gs_generic(inst("alternating", 9, 9, 4)) == math.inf
        assert max_Gs_generic(inst("alternating", 9, 9, 2)) == math.comb(9, 2)


class TestMinGens:
    def test_examples(self):
        assert min_gens_generic(inst("ordinary", 2, 3, 2)) == 3
        assert min_gens_generic(inst("symmetric", 3, 3, 2)) == 6
        assert min_gens_generic(inst("alternating", 6, 6, 2)) == 15

    def test_matches_enumeration_ordinary(self):
        M = generic_matrix(3, 4, "ordinary")
        assert min_gens_generic(inst("ordinary", 3, 4, 2)) == len(enumerate_minors(M, 2))

    def test_matches_enumeration_alternating(self):
        M = generic_matrix(6, 6, "alternating")
        assert min_gens_generic(inst("alternating", 6, 6, 2)) == len(enumerate_pfaffians(M, 4))

    def test_symmetric_counts_distinct_minors(self):
        M = generic_matrix(4, 4, "symmetric")
        distinct = len(set(enumerate_minors(M, 3)))
        assert min_gens_generic(inst("symmetric", 4, 4, 3)) == distinct == 10


class TestCheckGs:
    def test_2x3_maximal_is_g_infinity(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        report = check_Gs(M, 2, math.inf)
        assert report.max_s == math.inf
        assert report.satisfied
        (row,) = report.per_j
        assert (row.j, row.threshold, row.actual_height) == (1, 3, 6)

    def test_non_generic_height_raises_instead_of_reporting(self):
        # A repeated column leaves I_2 = (ad - bc), of height 1, not 2.
        G = generic_matrix(2, 2, "ordinary", field=F32003)
        (a, b), (c, d) = G.rows
        M = PolyMatrix("ordinary", [[a, b, a], [c, d, c]])
        with pytest.raises(GenericHeightError, match="height 1, expected 2"):
            check_Gs(M, 2, math.inf)

    def test_symmetric_4x4_submaximal(self):
        M = generic_matrix(4, 4, "symmetric", field=F32003)
        report = check_Gs(M, 3, math.inf)
        assert report.max_s == math.inf

    def test_2x6_max_s_12(self):
        M = generic_matrix(2, 6, "ordinary", field=F32003)
        report = check_Gs(M, 2, math.inf)
        assert report.max_s == 12
        assert not report.satisfied
        report13 = check_Gs(M, 2, 12)
        assert report13.satisfied

    def test_s_equal_one_always_succeeds(self):
        for kind, m, n, t in [("ordinary", 2, 6, 2), ("symmetric", 4, 4, 2), ("alternating", 8, 8, 2)]:
            M = generic_matrix(m, n, kind, field=F32003)
            assert check_Gs(M, t, 1).satisfied

    def test_rejects_invalid_s(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        with pytest.raises(DomainError):
            check_Gs(M, 2, 0)

    def test_generic_height_precondition(self):
        ring_mat = generic_matrix(2, 2, "ordinary", field=F32003)
        x = ring_mat.entry(0, 0)
        M = PolyMatrix("ordinary", [[x, x, x], [x, x, x]])
        with pytest.raises(GenericHeightError):
            check_Gs(M, 2, math.inf)

    def test_max_s_invariant(self):
        # max_s is the minimum failing height; requesting exactly max_s succeeds.
        M = generic_matrix(3, 4, "ordinary", field=F32003)
        report = check_Gs(M, 2, math.inf)
        assert report.max_s == 12
        assert check_Gs(M, 2, 12).satisfied
        assert not check_Gs(M, 2, 13).satisfied

    @pytest.mark.parametrize(
        "kind,m,n,t",
        [("symmetric", 5, 5, 2), ("alternating", 7, 7, 2), ("ordinary", 3, 4, 3), ("alternating", 8, 8, 3)],
    )
    def test_cross_oracle_beyond_core_grid(self, kind, m, n, t):
        M = generic_matrix(m, n, kind, field=F32003)
        via_heights = check_Gs(M, t, math.inf).max_s
        closed = max_Gs_generic(ProblemInstance.from_matrix(M, t))
        assert via_heights == closed

    def test_closed_form_matches_threshold_replay_everywhere(self):
        # Independent derivation: replay the height-vs-threshold rule with
        # the known generic heights (pure arithmetic, no Groebner) and
        # compare against the closed-form classifier on a large grid.
        from math import comb

        def generic_lower_height(kind, m, n, j):
            if kind == "ordinary":
                return (m - j + 1) * (n - j + 1)
            if kind == "symmetric":
                return comb(n - j + 2, 2)
            return comb(n - 2 * j + 2, 2)

        def replay(kind, m, n, t):
            instance = inst(kind, m, n, t)
            failing = []
            for j in range(1, t):
                theta = gs_threshold(instance, j)
                h = generic_lower_height(kind, m, n, j)
                if h < theta:
                    failing.append(h)
            return min(failing) if failing else math.inf

        cases = []
        for n in range(1, 13):
            for m in range(1, n + 1):
                cases += [("ordinary", m, n, t) for t in range(1, m + 1)]
        for n in range(1, 13):
            cases += [("symmetric", n, n, t) for t in range(1, n + 1)]
        for n in range(2, 17):
            cases += [("alternating", n, n, t) for t in range(1, n // 2 + 1)]
        for kind, m, n, t in cases:
            assert max_Gs_generic(inst(kind, m, n, t)) == replay(kind, m, n, t), (kind, m, n, t)
