import math
import random
import time
from itertools import combinations

import pytest

from reeskit.errors import ComputationTimeout, DomainError
from reeskit.groebner import (
    IdealHandle,
    LowerIdealCache,
    buchberger,
    expected_generic_height,
    height,
    ideal_of_minors,
    ideal_of_pfaffians,
    is_generic_height,
    monomial_ideal_dimension,
    normal_form,
    spoly,
    time_limit,
)
from reeskit.gs import ProblemInstance, min_gens_generic
from reeskit.matrixalg import generic_matrix
from reeskit.poly import FieldSpec, PolyRing, parse_poly

from conftest import brute_force_dimension, random_poly

F32003 = FieldSpec.prime(32003)


def assert_is_reduced_groebner_basis(basis, gens):
    """Spec invariant: S-polynomials and input generators reduce to zero,
    no leading term divides another, tails are reduced."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(spoly(basis[i], basis[j]), basis).is_zero
    for g in gens:
        assert normal_form(g, basis).is_zero
    lms = [g.leading_monomial() for g in basis]
    for i, lm in enumerate(lms):
        for j, other in enumerate(lms):
            if i != j:
                assert any(a < b for a, b in zip(lm, other)) or lm != other
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        assert normal_form(g, others) == g


class TestBuchberger:
    def test_monomial_generators(self, qq_xy):
        x, y = qq_xy.gens()
        assert set(buchberger([x, y])) == {x, y}

    def test_two_step_reduction(self, qq_xy):
        x, y = qq_xy.gens()
        basis = buchberger([x * x - y, x])
        assert set(basis) == {x, y}

    def test_unit_ideal(self, qq_xy):
        assert buchberger([qq_xy.one()]) == (qq_xy.one(),)
        x, _ = qq_xy.gens()
        assert buchberger([x, x + 1]) == (qq_xy.one(),)

    def test_empty_and_zero_generators(self, qq_xy):
        assert buchberger([]) == ()
        assert buchberger([qq_xy.zero()]) == ()

    def test_classic_cox_little_oshea_example(self):
        ring = PolyRing(("x", "y"))
        f1 = parse_poly("x^3 - 2*x*y", ring)
        f2 = parse_poly("x^2*y - 2*y^2 + x", ring)
        basis = buchberger([f1, f2])
        expected = {
            parse_poly("x^2", ring),
            parse_poly("x*y", ring),
            parse_poly("y^2 - 1/2*x", ring),
        }
        assert set(basis) == expected

    def test_random_ideals_pass_buchberger_criterion(self, any_field):
        rng = random.Random(4242)
        ring = PolyRing(("x", "y", "z"), field=any_field)
        for _ in range(25):
            gens = [random_poly(rng, ring, max_terms=3, max_exp=2, allow_zero=False) for _ in range(rng.randint(1, 3))]
            basis = buchberger(gens)
            if basis:
                assert_is_reduced_groebner_basis(list(basis), gens)

    def test_deterministic_output(self, fp_xyz):
        gens = [parse_poly("x*y - z^2", fp_xyz), parse_poly("x^2 - y*z", fp_xyz)]
        assert buchberger(gens) == buchberger(list(reversed(gens)))

    def test_idempotent_on_reduced_bases(self, fp_xyz, rng):
        for _ in range(10):
            gens = [random_poly(rng, fp_xyz, max_terms=3, max_exp=2, allow_zero=False) for _ in range(2)]
            basis = buchberger(gens)
            assert buchberger(list(basis)) == basis

    def test_explicit_order_argument(self, qq_xy):
        from reeskit.poly import MonomialOrder

        x, y = qq_xy.gens()
        lex_basis = buchberger([x * x - y, x * y - 1], MonomialOrder.LEX)
        strings = {str(g) for g in lex_basis}
        assert strings == {"x - y^2", "y^3 - 1"}
        handle = IdealHandle([x * x - y, x * y - 1], order=MonomialOrder.LEX)
        assert handle.reduce(x - y * y).is_zero


class TestNormalForm:
    def test_member_reduces_to_zero(self, qq_xy):
        x, y = qq_xy.gens()
        basis = buchberger([x * x - y, x])
        member = (x * x - y) * (x + y) + x * y
        assert normal_form(member, basis).is_zero

    def test_nonmember_untouched(self, qq_xy):
        x, y = qq_xy.gens()
        assert normal_form(y, [x]) == y

    def test_single_step_reduction(self, qq_xy):
        x, y = qq_xy.gens()
        assert normal_form(x * x * y, [x * x - y]) == y * y

    def test_nothing_divisible_remains(self, qq_xy, rng):
        x, y = qq_xy.gens()
        basis = buchberger([x * x - y])
        for _ in range(20):
            p = random_poly(rng, qq_xy, max_terms=5, max_exp=4)
            r = normal_form(p, basis)
            for mono in r.terms:
                for g in basis:
                    lm = g.leading_monomial()
                    assert any(a < b for a, b in zip(mono, lm)) or all(b == 0 for b in lm)

    def test_difference_lies_in_ideal(self, fp_xyz, rng):
        gens = [parse_poly("x*y - z^2", fp_xyz), parse_poly("x^2 - y*z", fp_xyz)]
        basis = buchberger(gens)
        for _ in range(20):
            p = random_poly(rng, fp_xyz, max_terms=4, max_exp=3)
            r = normal_form(p, basis)
            assert normal_form(p - r, basis).is_zero


class TestMonomialDimension:
    def test_zero_ideal(self):
        assert monomial_ideal_dimension([], 3) == 3

    def test_all_variables(self):
        mons = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert monomial_ideal_dimension(mons, 3) == 0

    def test_xy_in_two_vars(self):
        assert monomial_ideal_dimension([(1, 1)], 2) == 1

    def test_brute_force_agreement(self):
        rng = random.Random(31337)
        for _ in range(200):
            nvars = rng.randint(1, 8)
            mons = [
                tuple(rng.randint(0, 2) for _ in range(nvars))
                for _ in range(rng.randint(1, 6))
            ]
            mons = [m for m in mons if any(m)]
            if not mons:
                continue
            assert monomial_ideal_dimension(mons, nvars) == brute_force_dimension(mons, nvars)

    def test_constant_generator_gives_the_zero_ring(self):
        assert monomial_ideal_dimension([(0, 0, 0), (1, 0, 0)], 3) == -1

    # Edge ideals, beyond the reach of brute force: the quotient by the
    # ideal of a graph's edges has dimension the graph's independence
    # number.

    @staticmethod
    def edge_ideal(nvars, edges):
        mons = []
        for i, j in edges:
            e = [0] * nvars
            e[i] = e[j] = 1
            mons.append(tuple(e))
        return mons

    @pytest.mark.parametrize("n", range(2, 15))
    def test_complete_graph(self, n):
        assert monomial_ideal_dimension(self.edge_ideal(n, combinations(range(n), 2)), n) == 1

    @pytest.mark.parametrize("n", range(3, 15))
    def test_cycle(self, n):
        edges = [(i, (i + 1) % n) for i in range(n)]
        assert monomial_ideal_dimension(self.edge_ideal(n, edges), n) == n // 2

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 13), (2, 5), (3, 3), (4, 9), (6, 7), (7, 7)])
    def test_complete_bipartite_graph(self, a, b):
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        assert monomial_ideal_dimension(self.edge_ideal(a + b, edges), a + b) == max(a, b)


class TestHeight:
    def test_two_variables(self, qq_xy):
        x, y = qq_xy.gens()
        assert IdealHandle([x, y]).height() == 2

    def test_unit_ideal_is_infinite(self, qq_xy):
        assert IdealHandle([qq_xy.one()]).height() == math.inf

    def test_zero_ideal_is_zero(self, qq_xy):
        assert IdealHandle([], ring=qq_xy).height() == 0

    def test_zero_ideal_needs_ring(self):
        with pytest.raises(DomainError):
            IdealHandle([])

    def test_invariance_under_permutation_and_scaling(self, fp_xyz):
        gens = [parse_poly("x*y - z^2", fp_xyz), parse_poly("x^2 - y*z", fp_xyz), parse_poly("y^2 - x*z", fp_xyz)]
        h = IdealHandle(gens).height()
        assert IdealHandle(list(reversed(gens))).height() == h
        assert IdealHandle([g * 7 for g in gens]).height() == h

    def test_minors_2x3(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        assert height(ideal_of_minors(M, 2)) == 2

    def test_symmetric_3x3(self):
        M = generic_matrix(3, 3, "symmetric", field=F32003)
        assert height(ideal_of_minors(M, 2)) == 3

    def test_generic_5x6_minors_and_9x9_pfaffians(self):
        # The dimension search's largest cases in the benchmark: 30 and 36
        # variables, heights (5-1)(6-1) and C(9-4+2, 2).
        M = generic_matrix(5, 6, "ordinary", field=F32003)
        assert ideal_of_minors(M, 2).height() == 20
        A = generic_matrix(9, 9, "alternating", field=F32003)
        assert ideal_of_pfaffians(A, 4).height() == 21

    def test_height_is_order_independent(self):
        from reeskit.poly import MonomialOrder

        grev = generic_matrix(3, 3, "ordinary", field=F32003)
        lex = generic_matrix(3, 3, "ordinary", field=F32003, order=MonomialOrder.LEX)
        assert ideal_of_minors(grev, 2).height() == ideal_of_minors(lex, 2).height() == 4


class TestIdealConventions:
    def test_minors_t_nonpositive_is_unit(self):
        M = generic_matrix(2, 3, "ordinary")
        I = ideal_of_minors(M, 0)
        assert I.is_unit() and I.height() == math.inf
        assert ideal_of_minors(M, -4).is_unit()

    def test_minors_t_too_large_is_zero(self):
        M = generic_matrix(2, 3, "ordinary")
        I = ideal_of_minors(M, 3)
        assert I.is_zero() and I.height() == 0

    def test_minor_generator_count(self):
        M = generic_matrix(2, 3, "ordinary")
        assert len(ideal_of_minors(M, 2).generators) == 3

    def test_pfaffian_conventions(self):
        M = generic_matrix(6, 6, "alternating")
        assert ideal_of_pfaffians(M, 0).is_unit()
        assert ideal_of_pfaffians(M, 8).is_zero()
        with pytest.raises(DomainError):
            ideal_of_pfaffians(M, 3)

    def test_pfaffian_5x5_heights(self):
        M = generic_matrix(5, 5, "alternating", field=F32003)
        I = ideal_of_pfaffians(M, 4)
        assert len(I.generators) == 5
        assert I.height() == 3


GENERIC_HEIGHT_GRID = [
    ("ordinary", 2, 2, 1, 4),
    ("ordinary", 2, 3, 2, 2),
    ("ordinary", 3, 3, 2, 4),
    ("ordinary", 3, 3, 3, 1),
    ("ordinary", 2, 4, 2, 3),
    ("symmetric", 3, 3, 2, 3),
    ("symmetric", 3, 3, 3, 1),
    ("symmetric", 4, 4, 3, 3),
    ("alternating", 4, 4, 4, 1),
    ("alternating", 5, 5, 4, 3),
    ("alternating", 6, 6, 4, 6),
]


class TestGenericHeights:
    @pytest.mark.parametrize("kind,m,n,t,expected", GENERIC_HEIGHT_GRID)
    def test_grid(self, kind, m, n, t, expected):
        M = generic_matrix(m, n, kind, field=F32003)
        report = is_generic_height(M, t)
        assert report.expected == expected
        assert report.actual == expected
        assert report.ok

    def test_expected_formulas(self):
        assert expected_generic_height("ordinary", 3, 3, 3) == 1
        assert expected_generic_height("symmetric", 4, 4, 3) == 3
        assert expected_generic_height("alternating", 6, 6, 4) == 6

    def test_non_generic_matrix_detected(self, qq_xy):
        x, y = qq_xy.gens()
        from reeskit.matrixalg import PolyMatrix

        M = PolyMatrix("ordinary", [[x, y, x], [y, x, y]])
        report = is_generic_height(M, 2)
        assert report.expected == 2
        assert not report.ok


class TestTimeout:
    def test_time_limit_aborts(self):
        M = generic_matrix(4, 4, "symmetric", field=F32003)
        with pytest.raises(ComputationTimeout):
            with time_limit(0.0):
                ideal_of_minors(M, 2).height()

    def test_time_limit_restores(self, qq_xy):
        x, y = qq_xy.gens()
        try:
            with time_limit(0.0):
                buchberger([x * x - y, x * y - 1])
        except ComputationTimeout:
            pass
        assert set(buchberger([x, y])) == {x, y}

    def test_time_limit_bounds_the_dimension_search(self):
        # The edge ideal of the complete graph on 11 vertices: the search
        # expands several times the 256 nodes between two clock reads.
        n = 11
        edges = []
        for i, j in combinations(range(n), 2):
            e = [0] * n
            e[i] = e[j] = 1
            edges.append(tuple(e))
        assert monomial_ideal_dimension(edges, n) == 1
        with pytest.raises(ComputationTimeout):
            with time_limit(0.0):
                time.sleep(0.001)
                monomial_ideal_dimension(edges, n)


class TestLowerIdealCache:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_generator_counts_match_lemma_4_4b(self, n):
        # Distinct symmetric minors are linearly dependent for 2 <= t <= n-2;
        # only the independent ones are counted and kept.
        M = generic_matrix(n, n, "symmetric", field=F32003)
        for t in range(1, n + 1):
            cache = LowerIdealCache(M)
            cache.build(*cache.ideal_at("symmetric", t))
            inst = ProblemInstance("symmetric", n, n, t, M.ring.nvars, 1, 32003)
            assert cache.generator_counts == {("minors", t): min_gens_generic(inst)}

    def test_dependent_and_zero_generators_are_dropped(self, qq_xy):
        from reeskit.matrixalg import PolyMatrix

        x, y = qq_xy.gens()
        # Minors in selector order: x^2 - y^2, 0, y^2 - x^2.
        M = PolyMatrix("ordinary", [[x, y, x], [y, x, y]])
        assert ideal_of_minors(M, 2).generators == (x * x - y * y,)
        assert ideal_of_minors(PolyMatrix("ordinary", [[x, x], [x, x]]), 2).generators == ()

    def test_level_names_the_ideal(self):
        assert LowerIdealCache.ideal_at("ordinary", 3) == ("minors", 3)
        assert LowerIdealCache.ideal_at("symmetric", 2) == ("minors", 2)
        assert LowerIdealCache.ideal_at("alternating", 2) == ("pfaffians", 4)

    def test_generic_report_takes_a_level_and_records_the_count(self):
        M = generic_matrix(6, 6, "alternating", field=F32003)
        cache = LowerIdealCache(M)
        report = cache.generic_report(2)
        assert (report.ok, report.actual, report.expected, report.t) == (True, 6, 6, 4)
        assert cache.generator_counts == {("pfaffians", 4): 15}
        # The main ideal's height is shared with the lower-height lookups.
        assert cache.pfaffian_height(4) == 6
        assert cache.generator_counts == {("pfaffians", 4): 15}

    def test_require_generic(self):
        from reeskit.errors import GenericHeightError
        from reeskit.matrixalg import PolyMatrix

        x = generic_matrix(2, 2, "ordinary", field=F32003).entry(0, 0)
        cache = LowerIdealCache(PolyMatrix("ordinary", [[x, x, x], [x, x, x]]))
        with pytest.raises(GenericHeightError, match="height 0, expected 2"):
            cache.require_generic(2)
        LowerIdealCache(generic_matrix(2, 3, "ordinary", field=F32003)).require_generic(2)
