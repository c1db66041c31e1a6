import math
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import reeskit.cli as cli
import reeskit.deadline as deadline
import reeskit.groebner as groebner
from reeskit.deadline import ideal_named
from reeskit.errors import ComputationTimeout, DomainError, RingMismatchError
from reeskit.groebner import (
    IdealHandle,
    LowerIdealCache,
    MonomialPacking,
    buchberger,
    expected_generic_height,
    ideal_of_minors,
    ideal_of_pfaffians,
    is_generic_height,
    monomial_ideal_dimension,
    normal_form,
    spoly,
    time_limit,
)
from reeskit.gs import ProblemInstance, min_gens_generic
from reeskit.matrixalg import MatrixGenerators, MatrixKind, PolyMatrix, enumerate_minors, generic_matrix, minor_generators, pfaffian_generators
from reeskit.poly import FieldSpec, MonomialOrder, PolyRing, Polynomial, mon_div, parse_poly

from conftest import FIELDS, brute_force_dimension, random_coeff, random_poly

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

    def test_repeats_and_scalar_multiples_leave_the_basis_unchanged(self, any_field):
        # No generator filter runs before Buchberger: the S-pairs of a repeat
        # reduce to zero, and the reduced basis is unique.
        rng = random.Random(f"repeats:{any_field}")
        ring = PolyRing(("x", "y", "z"), field=any_field)
        for _ in range(25):
            gens = [random_poly(rng, ring, max_terms=3, max_exp=2, allow_zero=False) for _ in range(rng.randint(1, 3))]
            padded = gens + [g * random_coeff(rng, any_field) for g in rng.choices(gens, k=3)]
            rng.shuffle(padded)
            assert buchberger(padded) == buchberger(gens)

    def test_deterministic_output(self, fp_xyz):
        gens = [parse_poly("x*y - z^2", fp_xyz), parse_poly("x^2 - y*z", fp_xyz)]
        assert buchberger(gens) == buchberger(list(reversed(gens)))

    def test_idempotent_on_reduced_bases(self, fp_xyz, rng):
        for _ in range(10):
            gens = [random_poly(rng, fp_xyz, max_terms=3, max_exp=2, allow_zero=False) for _ in range(2)]
            basis = buchberger(gens)
            assert buchberger(list(basis)) == basis

    def test_inter_reduction_makes_one_sweep(self, monkeypatch, any_field):
        stages = []
        reduce = groebner._reduce

        def spy(work, reducers, packing, modulus, stage):
            stages.append(stage)
            return reduce(work, reducers, packing, modulus, stage)

        monkeypatch.setattr(groebner, "_reduce", spy)
        rng = random.Random(2718)
        ring = PolyRing(("x", "y", "z"), field=any_field)
        for _ in range(10):
            gens = [random_poly(rng, ring, max_terms=3, max_exp=2, allow_zero=False) for _ in range(3)]
            stages.clear()
            basis = buchberger(gens)
            if basis != (ring.one(),):
                assert_is_reduced_groebner_basis(list(basis), gens)
                # One full reduction per element of the reduced basis.
                assert stages.count("basis inter-reduction") == len(basis)

    def test_explicit_order_argument(self):
        # A basis is for the order of its ring: a lex basis needs a lex ring.
        lex = PolyRing(("x", "y"), field=FieldSpec.rationals(), order=MonomialOrder.LEX)
        x, y = lex.gens()
        lex_basis = buchberger([x * x - y, x * y - 1])
        strings = {str(g) for g in lex_basis}
        assert strings == {"x - y^2", "y^3 - 1"}
        assert normal_form(x - y * y, lex_basis).is_zero


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

    def test_basis_must_share_the_polynomials_ring(self, fp_xyz):
        x, y, z = fp_xyz.gens()
        lex = PolyRing(fp_xyz.variables, field=fp_xyz.field, order=MonomialOrder.LEX)
        with pytest.raises(RingMismatchError):
            normal_form(lex.gens()[0], [x * y - z])
        with pytest.raises(RingMismatchError):
            normal_form(x, [lex.gens()[0]])

    def test_difference_lies_in_ideal(self, fp_xyz, rng):
        gens = [parse_poly("x*y - z^2", fp_xyz), parse_poly("x^2 - y*z", fp_xyz)]
        basis = buchberger(gens)
        for _ in range(20):
            p = random_poly(rng, fp_xyz, max_terms=4, max_exp=3)
            r = normal_form(p, basis)
            assert normal_form(p - r, basis).is_zero


class TestPacking:
    ORDERS = [MonomialOrder.GREVLEX, MonomialOrder.LEX]

    @staticmethod
    def random_monomials(rng, nvars, count, cap):
        return [tuple(rng.randint(0, cap) for _ in range(nvars)) for _ in range(count)]

    @pytest.mark.parametrize("order", ORDERS)
    def test_int_order_is_the_monomial_order(self, order):
        rng = random.Random(11)
        for nvars in (1, 2, 5, 9):
            packing = MonomialPacking(nvars, order, 8)
            mons = self.random_monomials(rng, nvars, 60, 9) + [(0,) * nvars]
            for a in mons:
                assert packing.unpack(packing.pack(a)) == a
                for b in mons:
                    assert (packing.pack(a) < packing.pack(b)) == (order.key(a) < order.key(b))
                    assert (packing.pack(a) == packing.pack(b)) == (a == b)

    @pytest.mark.parametrize("order", ORDERS)
    def test_product_and_quotient_match_tuple_arithmetic(self, order):
        rng = random.Random(12)
        for nvars in (1, 3, 7):
            packing = MonomialPacking(nvars, order, 6)  # exponents up to 31
            mons = self.random_monomials(rng, nvars, 40, 15)
            for a in mons:
                for b in mons:
                    pa, pb = packing.pack(a), packing.pack(b)
                    assert packing.unpack(packing.mul(pa, pb)) == tuple(x + y for x, y in zip(a, b))
                    q = mon_div(a, b)
                    assert packing.div(pa, pb) == (None if q is None else packing.pack(q))
                    assert packing.degree(pa) == sum(a)

    @pytest.mark.parametrize("order", ORDERS)
    def test_support_mask_marks_the_nonzero_exponents(self, order):
        # The guard-bit mask of a packed monomial has one bit per variable
        # of positive exponent, the bit that variable alone packs to; also
        # at full exponents, where C + e_i reaches 2C.
        rng = random.Random(13)
        for nvars, width in ((1, 8), (4, 6), (9, 8), (6, 11)):
            packing = MonomialPacking(nvars, order, width)
            cap = packing.max_exponent
            bits = [packing.support(packing.pack(tuple(int(k == i) for k in range(nvars)))) for i in range(nvars)]
            assert all(b.bit_count() == 1 for b in bits) and len(set(bits)) == nvars
            mons = self.random_monomials(rng, nvars, 200, 3) + [(cap,) * nvars, (0,) * nvars]
            for m in mons:
                expected = sum(b for b, e in zip(bits, m) if e)
                assert packing.support(packing.pack(m)) == expected, m

    @pytest.mark.parametrize("order", ORDERS)
    def test_exponents_past_the_width_raise(self, order):
        nvars = 4
        packing = MonomialPacking(nvars, order, 4)  # exponents up to 7
        for i in range(nvars):
            big = tuple(8 if k == i else 0 for k in range(nvars))
            with pytest.raises(DomainError):
                packing.pack(big)
            a = tuple(4 if k == i else 7 for k in range(nvars))
            b = tuple(4 if k == i else 0 for k in range(nvars))
            with pytest.raises(DomainError):
                packing.mul(packing.pack(a), packing.pack(b))
            c = tuple(3 if k == i else 7 for k in range(nvars))
            assert packing.unpack(packing.mul(packing.pack(b), packing.pack(c))) == (7,) * nvars

    def test_the_width_grows_when_exponents_outgrow_it(self):
        # Lex reduction raises the exponent of y far past every input's.
        ring = PolyRing(("x", "y"), order=MonomialOrder.LEX)
        x, y = ring.gens()
        assert normal_form(x**10, [x - y**20]) == y**200
        assert set(buchberger([x**3, x - y**50])) == {x - y**50, y**150}


# Lex generators over GF(32003) in (x, y, z) whose first packing overflow
# comes from an S-pair product (`_spair`) or from a reduction product
# (`_reduce`), with the number of times the width doubles before the run
# completes.  Found by a seeded search over random trinomials.
OVERFLOW_CASES = [
    ("_spair", 1, [
        {(0, 1, 17): 2782, (0, 0, 2): 6954},
        {(2, 1, 0): 17832, (1, 1, 2): 28543, (58, 11, 0): 13881},
    ]),
    ("_spair", 1, [{(43, 1, 2): 9301, (2, 0, 0): 28134}, {(0, 0, 2): 12886, (38, 2, 0): 24518}]),
    ("_spair", 2, [
        {(2, 60, 1): 18460, (0, 16, 0): 17159},
        {(1, 63, 0): 24297, (37, 2, 0): 3427},
        {(0, 2, 37): 23620, (24, 1, 0): 13705},
    ]),
    ("_reduce", 1, [
        {(1, 0, 0): 20330, (0, 47, 63): 8116, (0, 0, 3): 19734},
        {(0, 1, 47): 27642, (0, 0, 1): 18180, (5, 2, 1): 19702},
    ]),
    ("_reduce", 1, [{(1, 0, 1): 18608, (0, 2, 1): 14707, (35, 45, 1): 25885}, {(2, 2, 1): 12145, (1, 14, 2): 25374}]),
    ("_reduce", 2, [
        {(0, 35, 53): 23482, (1, 0, 0): 10787},
        {(59, 1, 23): 10358, (1, 0, 2): 20765},
        {(0, 17, 0): 20642, (0, 0, 1): 23493},
    ]),
]


class TestOverflowSites:
    @staticmethod
    def spy(monkeypatch):
        """Records the sites that raise PackingOverflow, in order, and counts
        the widenings."""
        log = {"sites": [], "widened": 0}
        for name in ("_spair", "_reduce"):
            original = getattr(groebner, name)

            def wrapper(*args, _name=name, _original=original):
                try:
                    return _original(*args)
                except groebner.PackingOverflow:
                    log["sites"].append(_name)
                    raise

            monkeypatch.setattr(groebner, name, wrapper)
        widened = MonomialPacking.widened

        def counting(self):
            log["widened"] += 1
            return widened(self)

        monkeypatch.setattr(MonomialPacking, "widened", counting)
        return log

    @pytest.mark.parametrize("site,widenings,gens", OVERFLOW_CASES)
    def test_overflow_restarts_give_the_wide_packing_basis(self, site, widenings, gens, monkeypatch):
        ring = PolyRing(("x", "y", "z"), field=F32003, order=MonomialOrder.LEX)
        gens = [Polynomial(ring, terms) for terms in gens]
        with monkeypatch.context() as wide:
            wide_fitting = classmethod(lambda cls, ring, polys: cls(ring.nvars, ring.order, 64))
            wide.setattr(MonomialPacking, "fitting", wide_fitting)
            log = self.spy(wide)
            expected = buchberger(gens)
            assert log == {"sites": [], "widened": 0}
        log = self.spy(monkeypatch)
        assert buchberger(gens) == expected
        assert log["sites"][0] == site
        assert log["widened"] == widenings == len(log["sites"])
        assert_is_reduced_groebner_basis(expected, gens)


# Reduced bases of I_2 of one linear 2x3 matrix, recorded with the Groebner
# core that worked on exponent tuples.
PINNED_ENTRIES = (("x + 2*y", "3*y - z", "x + z"), ("2*x - z", "y + z", "x - y + 3*z"))
PINNED_BASES = [
    (F32003, MonomialOrder.GREVLEX, [
        "x^2 + 17453*x*z + y*z + 31999*z^2",
        "x*y + 11637*x*z + 32000*y*z + z^2",
        "y^2 + 29094*x*z + 31998*y*z + 2*z^2",
    ]),
    (F32003, MonomialOrder.LEX, [
        "x^2 + 24011*y^2 + 7958*y*z + 16015*z^2",
        "x*y + 8002*y^2 + 23993*y*z + 16005*z^2",
        "x*z + 24005*y^2 + 7987*y*z + 16007*z^2",
        "y^3 + 11632*y^2*z + 29099*y*z^2 + 26183*z^3",
    ]),
    (FieldSpec.rationals(), MonomialOrder.GREVLEX, [
        "x^2 - 35/11*x*z + y*z - 4*z^2",
        "x*y - 5/11*x*z - 3*y*z + z^2",
        "y^2 + 4/11*x*z - 5*y*z + 2*z^2",
    ]),
    (FieldSpec.rationals(), MonomialOrder.LEX, [
        "x^2 + 35/4*y^2 - 171/4*y*z + 27/2*z^2",
        "x*y + 5/4*y^2 - 37/4*y*z + 7/2*z^2",
        "x*z + 11/4*y^2 - 55/4*y*z + 11/2*z^2",
        "y^3 - 60/11*y^2*z + 59/11*y*z^2 - 14/11*z^3",
    ]),
]


@pytest.mark.parametrize("field,order,expected", PINNED_BASES)
def test_pinned_reduced_basis_of_a_linear_ideal(field, order, expected):
    ring = PolyRing(("x", "y", "z"), field=field, order=order)
    M = PolyMatrix("ordinary", [[parse_poly(e, ring) for e in row] for row in PINNED_ENTRIES])
    assert [str(g) for g in buchberger(ideal_of_minors(M, 2).generators)] == expected


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

    @staticmethod
    def random_monomials(rng):
        """Up to 12 variables and 20 nonconstant monomials, supports of every size."""
        nvars = rng.randint(1, 12)
        density = rng.uniform(0.1, 0.6)
        mons = [
            tuple(rng.randint(1, 2) if rng.random() < density else 0 for _ in range(nvars))
            for _ in range(rng.randint(1, 20))
        ]
        return nvars, [m for m in mons if any(m)]

    def test_brute_force_agreement_up_to_12_variables(self):
        rng = random.Random(61012)
        for _ in range(300):
            nvars, mons = self.random_monomials(rng)
            assert monomial_ideal_dimension(mons, nvars) == brute_force_dimension(mons, nvars), mons

    def test_reaches_agrees_with_brute_force(self):
        rng = random.Random(61013)
        for _ in range(300):
            nvars, mons = self.random_monomials(rng)
            if not mons:
                continue
            ht = nvars - brute_force_dimension(mons, nvars)
            for ceiling in (ht - 1, ht, ht + 1):
                assert groebner._reaches(map(groebner._support, mons), ceiling) == (ht >= ceiling), (mons, ceiling)

    def test_minimal_supports_match_the_quadratic_filter(self):
        # The filter tests a support only against the kept ones of smaller
        # size; every pair test must drop the same supersets.
        rng = random.Random(61014)
        dropped = 0
        for _ in range(300):
            nvars, mons = self.random_monomials(rng)
            masks = {sum(1 << i for i, e in enumerate(m) if e) for m in mons}
            quadratic = {s for s in masks if not any(t != s and t & s == t for t in masks)}
            minimal = groebner._minimal_supports(map(groebner._support, mons))
            assert len(minimal) == len(quadratic) and set(minimal) == quadratic, mons
            dropped += len(masks) - len(minimal)
        assert dropped >= 100

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

    def test_a_given_ring_must_be_the_generators_ring(self, qq_xy, fp_xyz):
        x = fp_xyz.gens()[0]
        with pytest.raises(RingMismatchError):
            IdealHandle([x], ring=qq_xy)
        lex = PolyRing(fp_xyz.variables, field=fp_xyz.field, order=MonomialOrder.LEX)
        with pytest.raises(RingMismatchError):
            IdealHandle([x], ring=lex)
        assert IdealHandle([x], ring=fp_xyz).ring == fp_xyz

    def test_invariance_under_permutation_and_scaling(self, fp_xyz):
        gens = [parse_poly("x*y - z^2", fp_xyz), parse_poly("x^2 - y*z", fp_xyz), parse_poly("y^2 - x*z", fp_xyz)]
        h = IdealHandle(gens).height()
        assert IdealHandle(list(reversed(gens))).height() == h
        assert IdealHandle([g * 7 for g in gens]).height() == h

    def test_minors_2x3(self):
        M = generic_matrix(2, 3, "ordinary", field=F32003)
        assert ideal_of_minors(M, 2).height() == 2

    def test_symmetric_3x3(self):
        M = generic_matrix(3, 3, "symmetric", field=F32003)
        assert ideal_of_minors(M, 2).height() == 3

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


def full_run_height(I: IdealHandle):
    """Height from the leading terms of the complete reduced basis."""
    basis = buchberger(I.generators)
    if not basis:
        return 0
    if basis[0].degree() == 0:
        return math.inf
    return I.ring.nvars - monomial_ideal_dimension([g.leading_monomial() for g in basis], I.ring.nvars)


def random_form(rng: random.Random, ring: PolyRing, degree: int):
    """A sparse form: up to two random terms of the degree, often zero."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = rng.randint(1, 9) if ring.field.p is None else rng.randrange(1, ring.field.p)
    return Polynomial(ring, terms)


def random_ideal(rng: random.Random, ring: PolyRing) -> IdealHandle:
    """The ideal of minors or Pfaffians of a random sparse matrix of forms."""
    kind = rng.choice(("ordinary", "symmetric", "alternating"))
    degree = rng.choice((1, 1, 2))
    n = rng.randint(2, 4) if kind != "alternating" else rng.randint(4, 6)
    m = rng.randint(2, 4) if kind == "ordinary" else n
    upper = {(i, j): random_form(rng, ring, degree) for i in range(m) for j in range(n)}
    if kind == "ordinary":
        rows = [[upper[i, j] for j in range(n)] for i in range(m)]
    elif kind == "symmetric":
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    else:
        zero = ring.zero()
        rows = [[upper[i, j] if i < j else (-upper[j, i] if i > j else zero) for j in range(n)] for i in range(n)]
    M = PolyMatrix(kind, rows)
    if kind == "alternating" and rng.random() < 0.7:
        return ideal_of_pfaffians(M, 2 * rng.randint(1, n // 2))
    # Minors of size 4 and up of these matrices can take seconds over QQ.
    return ideal_of_minors(M, rng.randint(1, min(m, n, 3)))


def spy_on_routes(monkeypatch) -> list:
    """Record the ceiling checks of each height: the caller appends a list
    per ideal, which receives (inside the linear section?, outcome) per check."""
    reaches, section_reaches = groebner._reaches, IdealHandle._section_reaches
    routes: list = []
    in_section = []

    def spy(supports, ceiling):
        routes[-1].append((bool(in_section), reaches(supports, ceiling)))
        return routes[-1][-1][1]

    def section_spy(self, rows):
        in_section.append(True)
        try:
            return section_reaches(self, rows)
        finally:
            in_section.pop()

    monkeypatch.setattr(groebner, "_reaches", spy)
    monkeypatch.setattr(IdealHandle, "_section_reaches", section_spy)
    return routes


def spy_on_full_expansions(monkeypatch) -> list:
    """Record each expansion of the minors or Pfaffians of an uncut matrix,
    as `ideal_of_minors` and `ideal_of_pfaffians` make them; the expansions
    of cut matrices are left out."""
    uncut: list = []
    expanded: list = []
    for name in ("minor_generators", "pfaffian_generators"):
        make = getattr(groebner, name)
        monkeypatch.setattr(groebner, name, lambda M, size, make=make: uncut.append(make(M, size)) or uncut[-1])
    expand = MatrixGenerators.expand

    def spy(self):
        if any(self is u for u in uncut):
            expanded.append(self)
        return expand(self)

    monkeypatch.setattr(MatrixGenerators, "expand", spy)
    return expanded


def route_taken(checks: list) -> str:
    """Which route decided a height, from its recorded ceiling checks."""
    if not checks:
        return "no check"
    if checks[:1] == [(False, True)]:
        return "generators"
    if (True, True) in checks:
        return "section"
    if checks and checks[-1] == (False, True):
        return "later"
    return "full run"


def spy_on_deferrals(monkeypatch) -> list:
    """Record the pairs each height defers: the caller appends a list per
    ideal, which receives the degree of each deferred pair."""
    complete = groebner._DegreeCount.complete
    deferrals: list = []

    def spy(self, degree, reducers):
        if complete(self, degree, reducers):
            deferrals[-1].append(degree)
            return True
        return False

    monkeypatch.setattr(groebner._DegreeCount, "complete", spy)
    return deferrals


def form_matrix(rng: random.Random, ring: PolyRing, kind: str, m: int, n: int, degree: int) -> PolyMatrix:
    """A matrix of the kind whose free entries are random forms of the
    degree: every monomial, with a coefficient drawn from all of GF(p), or
    a nonzero one over QQ."""
    monomials = list(_monomials_of_degree(ring.nvars, degree))
    p = ring.field.p

    def form():
        return Polynomial(ring, {e: random_coeff(rng, ring.field) if p is None else rng.randrange(p) for e in monomials})

    upper = {(i, j): form() for i in range(m) for j in range(n) if kind == "ordinary" or i < j or (kind == "symmetric" and i == j)}
    if kind == "ordinary":
        rows = [[upper[i, j] for j in range(n)] for i in range(m)]
    elif kind == "symmetric":
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    else:
        zero = ring.zero()
        rows = [[upper[i, j] if i < j else (-upper[j, i] if i > j else zero) for j in range(n)] for i in range(n)]
    return PolyMatrix(kind, rows)


# (kind, m, n, minor size or Pfaffian size 2t, entry degree, variables
# beyond the ceiling c): the runs of the first, third, fourth and fifth
# defer pairs.  More variables, or larger shapes, make the full run over QQ
# take many seconds.
DEFERRAL_CASES = [
    ("symmetric", 3, 3, 2, 3, 0),
    ("symmetric", 4, 4, 3, 2, 0),
    ("alternating", 5, 5, 4, 2, 0),
    ("alternating", 5, 5, 4, 2, 1),
    ("alternating", 6, 6, 4, 1, 1),
    ("ordinary", 2, 4, 2, 2, 0),
]


class TestHeightCeiling:
    """The early exit of `IdealHandle.height` at the height ceiling."""

    @pytest.mark.parametrize(
        "field,order",
        [
            (F32003, MonomialOrder.GREVLEX),
            (FieldSpec.prime(2), MonomialOrder.GREVLEX),
            (FieldSpec.rationals(), MonomialOrder.GREVLEX),
            (F32003, MonomialOrder.LEX),
        ],
        ids=["gf32003", "gf2", "qq", "lex"],
    )
    def test_early_height_equals_the_full_run(self, field, order, monkeypatch):
        routes = spy_on_routes(monkeypatch)
        rng = random.Random(f"ceiling:{field}:{order.value}")
        for trial in range(80):
            if trial % 4 == 3:  # a linear matrix, whose ideal the section often settles
                I = ideal_of(*random_linear_matrix(rng, field, order, trial // 4))
            else:
                ring = PolyRing(tuple(f"v{i}" for i in range(rng.randint(2, 5))), field=field, order=order)
                I = random_ideal(rng, ring)
            routes.append([])
            assert I.height() == full_run_height(I), I.generators
        # Runs stop on their generators, in the linear section, later in the
        # run, or not at all.
        assert {route_taken(checks) for checks in routes} >= {"generators", "section", "later", "full run"}
        # Dense symmetric, alternating and quadric matrices in c, c + 1 or
        # c + 2 variables, whose runs have a Hilbert target: in c variables
        # the run on the generators, in more the section's.
        deferrals = spy_on_deferrals(monkeypatch)
        for kind, m, n, size, degree, extra in DEFERRAL_CASES:
            c = expected_generic_height(kind, m, n, size)
            ring = PolyRing(tuple(f"v{i}" for i in range(c + extra)), field=field, order=order)
            I = ideal_of(form_matrix(rng, ring, kind, m, n, degree), size)
            assert I._target is not None
            deferrals.append([])
            assert I.height() == full_run_height(I), (kind, m, n, size, degree, I.generators)
        # Pairs are deferred in c variables and in the section alike.
        assert {case[-1] for case, run in zip(DEFERRAL_CASES, deferrals) if run} == {0, 1}

    @pytest.mark.parametrize("m,n,ceiling", [(5, 8, 18), (6, 7, 20)])
    def test_generators_reach_large_ceilings_quickly(self, m, n, ceiling):
        # Generic 5x8 and 6x7 I_3: the leading terms of the minors alone
        # reach the ceiling.  A branch-and-bound search for a smaller cover
        # takes from about 40 s to over a minute on these.
        I = ideal_of_minors(generic_matrix(m, n, "ordinary", field=F32003), 3)
        assert I.ceiling == ceiling
        with time_limit(10):
            assert groebner._reaches([groebner._support(g.leading_monomial()) for g in I.generators], ceiling)

    def test_inhomogeneous_unit_ideal_is_infinite(self, qq_xy):
        # The leading term x of 1 + x alone reaches the ceiling 1 = nvars,
        # but (1 + x, x) is the unit ideal.
        ring = PolyRing(("x",), field=F32003)
        x = ring.gens()[0]
        I = ideal_of_minors(PolyMatrix("ordinary", [[ring.one() + x, x]]), 1)
        assert I.ceiling == 1
        assert I.height() == math.inf
        u, v = qq_xy.gens()
        M = PolyMatrix("ordinary", [[qq_xy.one() + u, v], [u, v * v]])
        assert ideal_of_minors(M, 1).height() == math.inf

    def test_generic_5x6_minors_reach_the_ceiling_without_s_pairs(self, monkeypatch):
        import reeskit.groebner as groebner

        def no_pairs(*args):
            raise AssertionError("an S-pair was reduced")

        monkeypatch.setattr(groebner, "_spair", no_pairs)
        I = ideal_of_minors(generic_matrix(5, 6, "ordinary", field=F32003), 2)
        assert (I.ceiling, I.height()) == (20, 20)
        A = generic_matrix(9, 9, "alternating", field=F32003)
        assert ideal_of_pfaffians(A, 4).height() == 21

    def test_generic_5x6_minors_and_9x9_pfaffians_pack_only_the_entries(self, monkeypatch):
        # Building the ideals packs each entry term once and multiplies no
        # Polynomial; the height then packs nothing, reduces no S-pair, and
        # unpacks only the generators' leading monomials.  Under lex too no
        # term is unpacked to test homogeneity; there the Pfaffians' leading
        # terms stay below the ceiling, so a symmetric 6x6 I_3 stands in.
        calls = {}
        pack, unpack = MonomialPacking.pack, MonomialPacking.unpack

        def counting(name, original):
            def wrapper(self, x):
                calls[name] += 1
                return original(self, x)

            return wrapper

        def refuse(what):
            def raising(*args):
                raise AssertionError(what)

            return raising

        monkeypatch.setattr(MonomialPacking, "pack", counting("pack", pack))
        monkeypatch.setattr(MonomialPacking, "unpack", counting("unpack", unpack))
        monkeypatch.setattr(MonomialPacking, "fitting", classmethod(refuse("a Polynomial was packed")))
        monkeypatch.setattr(Polynomial, "__mul__", refuse("a Polynomial product was formed"))
        monkeypatch.setattr(groebner, "_spair", refuse("an S-pair was reduced"))
        # (order, second ideal, entry terms packed, heights, generator counts)
        cases = [
            (MonomialOrder.GREVLEX, lambda order: ideal_of_pfaffians(generic_matrix(9, 9, "alternating", field=F32003, order=order), 4), 30 + 72, (20, 21), (150, 126)),
            (MonomialOrder.LEX, lambda order: ideal_of_minors(generic_matrix(6, 6, "symmetric", field=F32003, order=order), 3), 30 + 36, (20, 10), (150, 175)),
        ]
        for order, second, entries, heights, counts in cases:
            calls.update(pack=0, unpack=0)
            I = ideal_of_minors(generic_matrix(5, 6, "ordinary", field=F32003, order=order), 2)
            P = second(order)
            assert calls == {"pack": entries, "unpack": 0}
            assert (I.height(), P.height()) == heights
            assert calls == {"pack": entries, "unpack": I.generator_count + P.generator_count}
            assert (I.generator_count, P.generator_count) == counts

    def test_a_common_entry_degree_promises_homogeneous_generators(self, any_field, monkeypatch):
        # minor_generators and pfaffian_generators promise homogeneity
        # exactly when the entries share one degree, and the promise holds
        # term by term.
        made = []
        for name in ("minor_generators", "pfaffian_generators"):
            make = getattr(groebner, name)
            monkeypatch.setattr(groebner, name, lambda M, size, make=make: made.append((M, make(M, size))) or made[-1][1])
        rng = random.Random(f"homogeneous:{any_field}")
        for trial in range(40):
            ring = PolyRing(("a", "b", "c"), field=any_field, order=rng.choice(list(MonomialOrder)))
            I = random_ideal(rng, ring)
            assert len(made) == trial + 1
            M, gens = made[-1]
            assert gens.homogeneous == (M.entry_degree is not None)
            assert gens.homogeneous or I.generator_count == 0  # a zero matrix has no entry degree
            packed = gens.expand()
            assert all(map(packed.packing.is_homogeneous, filter(None, packed.polys)))
        a, b, c = ring.gens()
        mixed = PolyMatrix("ordinary", [[a, b * b], [c, a]])
        assert not minor_generators(mixed, 2).homogeneous
        assert ideal_of_minors(mixed, 2).height() == 1

    def test_repeated_column_stays_below_the_ceiling(self):
        # I_2 of a generic 5x6 matrix whose last column repeats the fifth
        # is I_2 of a generic 5x5 matrix: height 16, never the ceiling 20.
        M = generic_matrix(5, 6, "ordinary", field=F32003)
        rows = [[M.entry(i, min(j, 4)) for j in range(6)] for i in range(5)]
        I = ideal_of_minors(PolyMatrix("ordinary", rows), 2)
        assert (I.ceiling, I.height()) == (20, 16)

    def test_groebner_basis_after_an_early_height_is_reduced(self):
        # I_2 is the square of the maximal ideal (a, b, c).  Its six minors
        # span every quadric, so the leading terms of their echelon rows
        # reach the ceiling and the height run stops on them, with no basis
        # computed.  A basis asked for afterwards is the reduced one.
        ring = PolyRing(("a", "b", "c"), field=F32003)
        a, b, c = ring.gens()
        I = ideal_of_minors(PolyMatrix("ordinary", [[a, b, c, a + b], [b, c, a + c, a]]), 2)
        assert I.height() == I.ceiling == 3
        basis = buchberger(I.generators)
        assert set(basis) == {a * a, a * b, b * b, a * c, b * c, c * c}
        assert_is_reduced_groebner_basis(basis, I.generators)
        assert I.height() == 3

    def test_stop_is_called_whenever_a_leading_monomial_adds_a_minimal_support(self, fp_xyz):
        x, y, z = fp_xyz.gens()
        gens = [x * y - z * z, x * x - y * z]
        calls = []

        def never(supports):
            calls.append(set(supports))
            return False

        basis = buchberger(gens, stop=never)
        packing = MonomialPacking.fitting(fp_xyz, gens)  # the run's packing

        def support(m):
            return packing.support(packing.pack(m))

        # The generators' supports {x, y} and {x} first; each later call
        # brings a support that holds none of those seen before.
        assert calls[0] == {support((1, 1, 0)), support((2, 0, 0))} and len(calls) >= 2
        for before, after in zip(calls, calls[1:]):
            assert before < after
            assert any(not any(t & s == t for t in before) for s in after - before)
        # No element found after the last call changed the minimal supports.
        found = [support(g.leading_monomial()) for g in basis]
        assert set(groebner._minimal_supports(found)) == set(groebner._minimal_supports(calls[-1]))
        assert {g.leading_monomial() for g in buchberger(gens)} <= {g.leading_monomial() for g in basis}
        # Stopped at once, the run returns the generators' leading terms, made monic.
        assert set(buchberger(gens, stop=lambda supports: True)) == {fp_xyz.term(1, g.leading_monomial()) for g in gens}

    def test_ceilings_set_by_ideal_of_minors_and_pfaffians(self):
        assert ideal_of_minors(generic_matrix(3, 4, "ordinary", field=F32003), 2).ceiling == 6
        assert ideal_of_minors(generic_matrix(4, 4, "symmetric", field=F32003), 3).ceiling == 3
        assert ideal_of_pfaffians(generic_matrix(6, 6, "alternating", field=F32003), 4).ceiling == 6
        # Minors of an alternating matrix take the bound of every matrix.
        assert ideal_of_minors(generic_matrix(4, 4, "alternating", field=F32003), 3).ceiling == 4
        # No ceiling exceeds nvars.
        ring = PolyRing(("a", "b"), field=F32003)
        a, b = ring.gens()
        assert ideal_of_minors(PolyMatrix("ordinary", [[a, b, a + b]] * 3), 1).ceiling == 2


def linear_matrix(rng: random.Random, ring: PolyRing, kind: str, m: int, n: int, density: float = 0.7) -> PolyMatrix:
    """A matrix of the kind whose free entries are random linear forms,
    each variable present with probability `density`."""

    def form():
        terms = {}
        for i in range(ring.nvars):
            if rng.random() < density:
                terms[tuple(int(j == i) for j in range(ring.nvars))] = random_coeff(rng, ring.field)
        return Polynomial(ring, terms)

    upper = {(i, j): form() for i in range(m) for j in range(n) if kind == "ordinary" or i <= j}
    if kind == "ordinary":
        rows = [[upper[i, j] for j in range(n)] for i in range(m)]
    elif kind == "symmetric":
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    else:
        zero = ring.zero()
        rows = [[upper[i, j] if i < j else (-upper[j, i] if i > j else zero) for j in range(n)] for i in range(n)]
    return PolyMatrix(kind, rows)


# (kind, m, n, minor size or Pfaffian size 2t), each with a ceiling c of 2 to 4.
SECTION_SHAPES = [
    ("ordinary", 2, 4, 2),
    ("ordinary", 3, 3, 2),
    ("ordinary", 3, 4, 3),
    ("symmetric", 3, 3, 2),
    ("symmetric", 4, 4, 3),
    ("alternating", 5, 5, 4),
]


def random_linear_matrix(rng: random.Random, field: FieldSpec, order: MonomialOrder, index: int) -> tuple:
    """A random linear matrix of shape SECTION_SHAPES[index % 6] in c + 1 or
    c + 2 variables, c its ceiling, and its minor or Pfaffian size."""
    kind, m, n, size = SECTION_SHAPES[index % len(SECTION_SHAPES)]
    nvars = expected_generic_height(kind, m, n, size) + rng.randint(1, 2)
    ring = PolyRing(tuple(f"v{i}" for i in range(nvars)), field=field, order=order)
    return linear_matrix(rng, ring, kind, m, n), size


def ideal_of(M: PolyMatrix, size: int) -> IdealHandle:
    """The ideal of size x size minors, or of size x size Pfaffians of an alternating M."""
    return (ideal_of_pfaffians if M.kind is MatrixKind.ALTERNATING else ideal_of_minors)(M, size)


class TestLinearSection:
    """The linear-section route of `IdealHandle.height` and the generator
    count it certifies, against the full run and the full filter."""

    @pytest.mark.parametrize(
        "field,order",
        [(field, MonomialOrder.GREVLEX) for field in FIELDS.values()] + [(F32003, MonomialOrder.LEX)],
        ids=[*FIELDS, "lex"],
    )
    def test_section_height_equals_the_full_run(self, field, order, monkeypatch):
        filters = []
        independent = groebner._independent
        monkeypatch.setattr(groebner, "_independent", lambda packed: filters.append(packed) or independent(packed))
        routes = spy_on_routes(monkeypatch)
        rng = random.Random(f"section:{field}:{order.value}")
        certified = 0
        for trial in range(24):
            M, size = random_linear_matrix(rng, field, order, trial)
            packed = (pfaffian_generators if M.kind is MatrixKind.ALTERNATING else minor_generators)(M, size).expand()
            polys = [p for p in packed.polys if p]
            filtered = len(filters)
            routes.append([])
            I = ideal_of(M, size)
            assert I.ceiling < M.ring.nvars
            # The count is the full filter's, whether or not the section certified it.
            assert I.generator_count == len(independent_by_tuples(packed.polynomials(), M.ring))
            if len(filters) == filtered and len(set(map(max, polys))) < len(polys):
                certified += 1
            assert I.height() == full_run_height(I), (M, size, I.generators)
        assert "section" in {route_taken(checks) for checks in routes}
        assert certified > 0

    def test_a_repeated_column_falls_back_to_the_full_run(self, monkeypatch):
        # I_2 of a linear 3x4 matrix whose last column repeats the third is
        # I_2 of a linear 3x3 matrix: height 4 in 7 variables, below the
        # ceiling 6, so neither the generators nor the section reach it.
        routes = spy_on_routes(monkeypatch)
        ring = PolyRing(tuple(f"v{i}" for i in range(7)), field=F32003)
        M = linear_matrix(random.Random("repeated column"), ring, "ordinary", 3, 3)
        rows = [[M.entry(i, min(j, 2)) for j in range(4)] for i in range(3)]
        I = ideal_of_minors(PolyMatrix("ordinary", rows), 2)
        routes.append([])
        assert (I.ceiling, I.height()) == (6, 4) == (6, full_run_height(I))
        checks = routes[-1]
        assert (True, False) in checks and True not in (outcome for _, outcome in checks)
        assert route_taken(checks) == "full run"

    def test_a_cut_that_zeroes_an_entry_cuts_the_basis(self, monkeypatch):
        # Pf_4 of the alternating 5x5 matrix of `xyzw-alternating-5x5.json`:
        # five Pfaffians in x, y, z, w with ceiling 3, so the cut sets w to
        # zero, which zeroes the entry w, and the generators go first.  Their
        # leading monomials collide, so the filter runs once, at
        # construction; they miss the ceiling, and the section cut from
        # their basis reaches it.
        filters = []
        independent = groebner._independent
        monkeypatch.setattr(groebner, "_independent", lambda packed: filters.append(packed) or independent(packed))
        routes = spy_on_routes(monkeypatch)
        pf = cli.load_problem(CALLS / "problems" / "xyzw-alternating-5x5.json")
        M = cli.build_matrix(pf, cli.DEFAULT_FIELD, MonomialOrder.GREVLEX)
        I = ideal_of_pfaffians(M, 4)
        assert (I.ceiling, M.ring.nvars, len(filters)) == (3, 4, 1)
        assert I.generator_count == 5 == len(independent_by_tuples(pfaffian_generators(M, 4).expand().polynomials(), M.ring))
        routes.append([])
        assert I.height() == 3
        assert len(filters) == 1
        assert route_taken(routes[-1]) == "section"
        monkeypatch.undo()
        assert full_run_height(I) == 3

    def test_a_certified_section_that_misses_falls_back_to_the_full_run(self, monkeypatch):
        # I_2 of [[x a, x b, x c], [y d, y e, y f]] is xy I_2(N), N = [[a, b,
        # c], [d, e, f]]: height 1 below the ceiling 2 in 3 variables.  Cut
        # at v2, x and y become v0 and v1, and the three minors of N stay
        # linearly independent quadrics in v0, v1.  So the section certifies
        # the count, and its run misses the ceiling; the full minors are
        # expanded only then, and the full run decides.
        expansions = spy_on_full_expansions(monkeypatch)
        filters = []
        independent = groebner._independent
        monkeypatch.setattr(groebner, "_independent", lambda packed: filters.append(packed) or independent(packed))
        routes = spy_on_routes(monkeypatch)
        ring = PolyRing(("v0", "v1", "v2"), field=F32003)
        v0, v1, v2 = ring.gens()
        x, y = v0 + v2, v1 + 3 * v2
        N = [[v0 + v2, v1, v0 + v1 - v2], [v1 + 2 * v2, v0 + v1, v0 + 5 * v2]]
        M = PolyMatrix("ordinary", [[x * e for e in N[0]], [y * e for e in N[1]]])
        I = ideal_of_minors(M, 2)
        assert (I.ceiling, I.generator_count, expansions, filters) == (2, 3, [], [])
        routes.append([])
        assert I.height() == 1
        assert len(expansions) == 1 and filters == []
        checks = routes[-1]
        assert checks[0] == (True, False) and True not in (outcome for _, outcome in checks)
        assert route_taken(checks) == "full run"
        monkeypatch.undo()
        assert full_run_height(I) == 1

    @pytest.mark.parametrize("kind,m,n,t", [("ordinary", 4, 5, 3), ("ordinary", 4, 5, 4), ("symmetric", 4, 4, 4)])
    def test_a_certified_section_that_reaches_the_ceiling_expands_no_full_minor(self, kind, m, n, t, monkeypatch):
        # Dense linear matrices in 10 variables, as the benchmark's probe
        # (4x5, minors(3) and minors(4)): the cut zeroes no entry, the
        # section's rows certify the count, and its run reaches the ceiling,
        # so the uncut matrix is never expanded.
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random(f"probe:{kind}"), ring, kind, m, n, density=1.0)
        expansions = spy_on_full_expansions(monkeypatch)
        routes = spy_on_routes(monkeypatch)
        I = ideal_of_minors(M, t)
        routes.append([])
        selectors = (comb(m, t) * comb(n, t) + comb(n, t)) // 2 if kind == "symmetric" else comb(m, t) * comb(n, t)
        assert (I.height(), I.generator_count) == (I.ceiling, selectors)
        assert route_taken(routes[-1]) == "section"
        assert expansions == []
        monkeypatch.undo()
        assert full_run_height(I) == I.ceiling

    def test_expanding_the_cut_matrix_names_the_section(self):
        # The section is expanded first, and its products read the clock
        # under the enumeration stage of the section.
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe:ordinary"), ring, "ordinary", 4, 5, density=1.0)
        with pytest.raises(ComputationTimeout, match=r"during minor enumeration of the linear section of minors\(3\)$"):
            with time_limit(0.0):
                ideal_of_minors(M, 3)
        A = linear_matrix(random.Random("probe:alternating"), ring, "alternating", 6, 6, density=1.0)
        with pytest.raises(ComputationTimeout, match=r"during Pfaffian enumeration of the linear section of pfaffians\(4\)$"):
            with time_limit(0.0):
                ideal_of_pfaffians(A, 4)

    def test_a_timeout_in_the_section_names_it(self, monkeypatch):
        # The probe of the benchmark: linear 4x5 in 10 variables, whose
        # minors(3) reach their ceiling 6 only in the section, which
        # certifies their count and runs first.
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe"), ring, "ordinary", 4, 5)
        I = ideal_of_minors(M, 3)
        section_reaches = IdealHandle._section_reaches

        def expiring(self, rows):
            with time_limit(0.0):
                return section_reaches(self, rows)

        monkeypatch.setattr(IdealHandle, "_section_reaches", expiring)
        with pytest.raises(ComputationTimeout, match=r"during height ceiling check of the linear section of minors\(3\)$"):
            I.height()
        monkeypatch.undo()
        # Without a limit, every stage of the height reads the clock under
        # the section's name: the full minors are never expanded or read.
        reads = []
        monkeypatch.setattr(groebner, "check_deadline", lambda stage: reads.append((stage, deadline._ideal_name.get())))
        assert I.height() == 6
        assert ("Buchberger reduction", "the linear section of minors(3)") in reads
        assert {name for _, name in reads} == {"the linear section of minors(3)"}


class TestDeferral:
    """Pairs of a degree the Hilbert target says is complete are deferred,
    never dropped, and the entry rule reads the generic count."""

    def test_a_wrong_target_still_gives_the_full_runs_height(self, monkeypatch):
        # Every degree looks complete at its first pair, so each pair is
        # deferred until the heap empties; then the run reduces them with
        # no target.  The probe's minors(3) and a linear alternating 6x6
        # matrix's pfaffians(4) reach their ceiling 6 that way, which the
        # stop proves, the repeated column's section misses it (height 4,
        # the full run's in `test_a_repeated_column_section_misses_with_a_target`),
        # and a quadric 2x3 matrix in c = 2 variables defers on the
        # generators' run.
        reduced = []
        spair = groebner._spair
        monkeypatch.setattr(groebner, "_spair", lambda *args: reduced.append(args[0]) or spair(*args))
        monkeypatch.setattr(groebner._DegreeCount, "complete", lambda self, degree, reducers: True)
        spied = spy_on_deferrals(monkeypatch)
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe"), ring, "ordinary", 4, 5)
        repeated = PolyMatrix("ordinary", [[M.entry(i, min(j, 3)) for j in range(5)] for i in range(4)])
        plane = PolyRing(("v0", "v1"), field=F32003)
        quadrics = form_matrix(random.Random("wrong target"), plane, "ordinary", 2, 3, 2)
        A = linear_matrix(random.Random("probe:alternating"), ring, "alternating", 6, 6)
        cases = ((M, 3, 6), (repeated, 3, 4), (quadrics, 2, 2), (A, 4, 6))
        for matrix, size, height in cases:
            I = ideal_of(matrix, size)
            assert I._target is not None
            spied.append([])
            reduced.clear()
            assert I.height() == height
            assert spied[-1] and reduced, (matrix, size)
        # The heights are those of the full run.
        monkeypatch.undo()
        assert full_run_height(ideal_of_minors(quadrics, 2)) == 2

    def test_a_repeated_column_section_misses_with_a_target(self, monkeypatch):
        # minors(3) of the probe's matrix with its last column repeating the
        # fourth is I_3 of a linear 4x4 matrix: height 4 below the ceiling 6.
        # Its section has far fewer leading monomials per degree than the
        # generic target, so no degree is complete and nothing is deferred;
        # the section misses and the full run decides.
        deferrals = spy_on_deferrals(monkeypatch)
        routes = spy_on_routes(monkeypatch)
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe"), ring, "ordinary", 4, 5)
        I = ideal_of_minors(PolyMatrix("ordinary", [[M.entry(i, min(j, 3)) for j in range(5)] for i in range(4)]), 3)
        assert I._target is not None and I.ceiling == 6
        routes.append([])
        deferrals.append([])
        assert I.height() == 4
        assert route_taken(routes[-1]) == "full run" and (True, False) in routes[-1]
        assert deferrals == [[]]
        monkeypatch.undo()
        assert full_run_height(I) == 4

    def test_targets_go_to_minors_and_pfaffians_of_their_own_family(self):
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        rng = random.Random("families")
        # At the generic bound: linear sections and c = nvars.
        assert ideal_of_minors(linear_matrix(rng, ring, "ordinary", 4, 5), 3)._target.nvars == 6
        assert ideal_of_minors(linear_matrix(rng, ring, "symmetric", 4, 4), 2)._target.nvars == 6
        assert ideal_of_pfaffians(linear_matrix(rng, ring, "alternating", 6, 6), 4)._target.nvars == 6
        assert ideal_of_minors(linear_matrix(rng, ring, "ordinary", 2, 5), 1)._target.nvars == 10
        # Minors of an alternating matrix take the ordinary bound; a ceiling
        # of nvars below the bound; entries of no common degree.
        assert ideal_of_minors(linear_matrix(rng, ring, "alternating", 4, 4), 3)._target is None
        assert ideal_of_minors(linear_matrix(rng, ring, "ordinary", 4, 5), 2)._target is None
        v0, v1 = ring.gens()[:2]
        assert ideal_of_minors(PolyMatrix("ordinary", [[v0, v1 * v1], [v1, v0]]), 2)._target is None
        assert IdealHandle([v0 * v1])._target is None

    def test_more_selectors_than_generic_generators_skip_the_section_first_attempt(self, monkeypatch):
        # minors(2) of a linear symmetric 4x4 matrix in 8 variables, as the
        # benchmark's lin-sym-4x4-d8-t3: 21 selectors with rows <= cols,
        # but the generic 2x2 minors span 20 dimensions, and a linear
        # relation among them holds in every specialization.  So the cut
        # matrix is not tested for independence, and the generators go first.
        independence_tests = []
        echelon = groebner._echelon

        def spy(*args, **kw):
            if kw.get("independent"):
                independence_tests.append(args)
            return echelon(*args, **kw)

        monkeypatch.setattr(groebner, "_echelon", spy)
        routes = spy_on_routes(monkeypatch)
        ring = PolyRing(tuple(f"v{i}" for i in range(8)), field=F32003)
        M = linear_matrix(random.Random("lin-sym-4x4-d8"), ring, "symmetric", 4, 4, density=1.0)
        gens = minor_generators(M, 2)
        assert (gens.selector_count, groebner._model(gens).count) == (21, 20)
        I = ideal_of_minors(M, 2)
        assert (I.ceiling, I.generator_count, I._section) == (6, 20, None)
        routes.append([])
        assert I.height() == 6
        assert routes[-1][0][0] is False  # the first check is on the generators
        assert independence_tests == []
        # With as many selectors as generic generators, the cut matrix is tested.
        ideal_of_minors(M, 3)
        assert len(independence_tests) == 1

    def test_the_hilbert_target_reads_the_clock(self, monkeypatch):
        # The numerator recursion and the count of leading monomials per
        # degree read the clock under `Hilbert target`, named after the
        # section their run is on.  A fresh memo makes the numerator anew.
        monkeypatch.setattr(groebner, "_MODELS", {})
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe"), ring, "ordinary", 4, 5)
        I = ideal_of_minors(M, 3)
        expected = r"during Hilbert target of the linear section of minors\(3\)$"
        for owner, name in ((groebner._Model, "numerator"), (groebner._DegreeCount, "_level")):
            original = getattr(owner, name)

            def expiring(*args, original=original):
                with time_limit(0.0):
                    return original(*args)

            monkeypatch.setattr(owner, name, expiring)
            with pytest.raises(ComputationTimeout, match=expected):
                I.height()
            monkeypatch.setattr(owner, name, original)
        assert I.height() == 6


def random_generators(rng: random.Random, ring: PolyRing) -> list:
    """Generators of a random ideal: forms, polynomials of mixed degree, or
    either with a constant (the unit ideal) or all zero (the zero ideal)."""
    shape = rng.choice(("forms", "mixed", "unit", "zero"))
    if shape == "zero":
        return [ring.zero()] * rng.randint(0, 2)
    count = rng.randint(1, 4)
    if shape == "mixed":
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(count)]
    else:
        gens = [random_form(rng, ring, rng.randint(1, 3)) for _ in range(count)]
    if shape == "unit":
        gens.insert(rng.randrange(count + 1), ring.constant(random_coeff(rng, ring.field)))
    return gens


class TestQueriesFromTheHeight:
    """The height, which may stop at the ceiling or, for inhomogeneous
    generators, complete without inter-reduction, against the complete
    reduced basis: nvars - dim R/in(I), inf for the unit ideal and 0 for the
    zero ideal."""

    def test_queries_agree_with_the_full_run(self, any_field):
        rng = random.Random(f"queries:{any_field}")
        shapes = set()
        for trial in range(80):
            order = rng.choice(list(MonomialOrder))
            ring = PolyRing(tuple(f"v{i}" for i in range(rng.randint(1, 4))), field=any_field, order=order)
            if trial % 2:
                I = random_ideal(rng, ring)
                gens, ceiling = I.generators, I.ceiling
            else:
                gens, ceiling = random_generators(rng, ring), None
            basis = buchberger(gens)
            shapes.add((basis == (ring.one(),), basis == ()))
            I = IdealHandle(gens, ring=ring, ceiling=ceiling)
            assert I.height() == full_run_height(I), gens
        # Proper nonzero ideals, unit ideals and zero ideals all occurred.
        assert shapes == {(False, False), (True, False), (False, True)}


class TestIdealConventions:
    def test_minors_t_nonpositive_is_unit(self):
        M = generic_matrix(2, 3, "ordinary")
        I = ideal_of_minors(M, 0)
        assert I.height() == math.inf
        assert ideal_of_minors(M, -4).height() == math.inf

    def test_minors_t_too_large_is_zero(self):
        M = generic_matrix(2, 3, "ordinary")
        I = ideal_of_minors(M, 3)
        assert I.height() == 0

    def test_minor_generator_count(self):
        M = generic_matrix(2, 3, "ordinary")
        assert len(ideal_of_minors(M, 2).generators) == 3

    def test_pfaffian_conventions(self):
        M = generic_matrix(6, 6, "alternating")
        assert ideal_of_pfaffians(M, 0).height() == math.inf
        assert ideal_of_pfaffians(M, 8).height() == 0
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

    @pytest.mark.parametrize("seconds", [math.nan, -1.0, -math.inf])
    def test_time_limit_rejects_nan_and_negative(self, seconds):
        with pytest.raises(DomainError):
            with time_limit(seconds):
                pass

    def test_infinite_time_limit_never_expires(self, fp_xyz):
        x, y, z = fp_xyz.gens()
        with time_limit(math.inf):
            assert len(buchberger([x * y - z * z, x * x - y * z])) == 3

    def test_time_limit_restores(self, qq_xy):
        x, y = qq_xy.gens()
        try:
            with time_limit(0.0):
                buchberger([x * x - y, x * y - 1])
        except ComputationTimeout:
            pass
        assert set(buchberger([x, y])) == {x, y}

    @staticmethod
    def random_edge_ideal():
        """A seeded random graph on 45 vertices with 197 edges, whose edge
        ideal the dimension search solves in more than 1024 branching nodes;
        the independence number 15 was confirmed by a branch-and-bound
        cover search."""
        n = 45
        rng = random.Random(0)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.2]
        return n, TestMonomialDimension.edge_ideal(n, edges)

    def test_time_limit_bounds_the_dimension_search(self, monkeypatch):
        n, edges = self.random_edge_ideal()
        reads = []
        monkeypatch.setattr(groebner, "check_deadline", reads.append)
        assert len(edges) == 197 and monomial_ideal_dimension(edges, n) == 15
        # The first branching node reads the clock, and so does every 256th.
        assert reads == ["dimension search"] * 5
        monkeypatch.undo()
        with pytest.raises(ComputationTimeout):
            with time_limit(0.0):
                time.sleep(0.001)
                monomial_ideal_dimension(edges, n)

    def test_timeout_names_its_stage(self, fp_xyz):
        # Products read the clock too, so every polynomial is built before the limit.
        x, y, z = fp_xyz.gens()
        gens = [x * y - z * z, x * x - y * z]
        with pytest.raises(ComputationTimeout, match="during polynomial arithmetic$"):
            with time_limit(0.0):
                x * y
        with pytest.raises(ComputationTimeout, match="during Buchberger reduction"):
            with time_limit(0.0):
                buchberger(gens)
        # One generator forms no pair, so only inter-reduction takes steps.
        many = sum((fp_xyz.term(1, (i, j, 0)) for i in range(23) for j in range(23 - i)), fp_xyz.zero())
        with pytest.raises(ComputationTimeout, match="during basis inter-reduction"):
            with time_limit(0.0):
                buchberger([many])
        with pytest.raises(ComputationTimeout, match="during normal form reduction"):
            with time_limit(0.0):
                normal_form(many, [z])
        n, edges = self.random_edge_ideal()
        with pytest.raises(ComputationTimeout, match="during dimension search"):
            with time_limit(0.0):
                time.sleep(0.001)
                monomial_ideal_dimension(edges, n)
        M = generic_matrix(3, 3, "ordinary", field=F32003)
        with pytest.raises(ComputationTimeout, match="during minor enumeration$"):
            with time_limit(0.0):
                enumerate_minors(M, 2)
        minors = minor_generators(M, 2).expand()
        with pytest.raises(ComputationTimeout, match="during independence filter$"):
            with time_limit(0.0):
                groebner._independent(minors)

    def test_time_limit_bounds_the_buchberger_set_up(self, fp_xyz):
        # 300 distinct monomials: `stop` would end the run on the generators,
        # but the set-up reads the clock at the 256th.
        exponents = [(i, j, k) for i in range(7) for j in range(7) for k in range(7)][1:301]
        gens = [fp_xyz.term(1, e) for e in exponents]
        with pytest.raises(ComputationTimeout, match="during Buchberger set-up$"):
            with time_limit(0.0):
                buchberger(gens, stop=lambda lms: True)

    def test_timeout_names_the_ideal(self):
        M = generic_matrix(3, 3, "ordinary", field=F32003)
        with pytest.raises(ComputationTimeout, match=r"during minor enumeration of minors\(2\)$"):
            with time_limit(0.0):
                ideal_of_minors(M, 2)
        # Enumeration reads the clock first, so the ideals are built outside the limit.
        minors = ideal_of_minors(M, 2)
        with pytest.raises(ComputationTimeout, match=r"during height ceiling check of minors\(2\)$"):
            with time_limit(0.0):
                minors.height()
        A = generic_matrix(6, 6, "alternating", field=F32003)
        with pytest.raises(ComputationTimeout, match=r"during Pfaffian enumeration of pfaffians\(4\)$"):
            with time_limit(0.0):
                ideal_of_pfaffians(A, 4)
        pfaffians = ideal_of_pfaffians(A, 4)
        with pytest.raises(ComputationTimeout, match=r"during height ceiling check of pfaffians\(4\)$"):
            with time_limit(0.0):
                pfaffians.height()
        # Inhomogeneous generators take no ceiling check, so their run first
        # reads the clock in its main loop.
        x, y, z = generic_matrix(1, 3, "ordinary", field=F32003).ring.gens()
        inhomogeneous = ideal_of_minors(PolyMatrix("ordinary", [[x + 1, y, z], [y, z, x]]), 2)
        with pytest.raises(ComputationTimeout, match=r"during Buchberger reduction of minors\(2\)$"):
            with time_limit(0.0):
                inhomogeneous.height()
        leading = [g.leading_monomial() for g in buchberger(ideal_of_minors(M, 2).generators)]
        with pytest.raises(ComputationTimeout, match=r"during dimension search of minors\(2\)$"):
            with time_limit(0.0):
                time.sleep(0.001)
                with ideal_named("minors(2)"):
                    monomial_ideal_dimension(leading, M.ring.nvars)
        # The name is dropped again when the handle's work ends.
        gens = [x * y - z * z, x * x - y * z]
        with pytest.raises(ComputationTimeout, match=r"during Buchberger reduction$"):
            with time_limit(0.0):
                buchberger(gens)

    def test_products_read_the_clock_every_4096_term_products(self, fp_xyz, monkeypatch):
        import reeskit.poly as poly

        z = fp_xyz.gens()[2]
        many = sum((fp_xyz.term(1, (i, j, 0)) for i in range(23) for j in range(23 - i)), fp_xyz.zero())
        assert len(many.terms) == 276
        reads = []
        monkeypatch.setattr(poly, "check_deadline", reads.append)
        many * z
        assert reads == ["polynomial arithmetic"]
        reads.clear()
        # 15 terms of the left operand make 4140 >= 4096 products: a read
        # before terms 0, 15, ..., 270.
        many * many
        assert reads == ["polynomial arithmetic"] * len(range(0, 276, 15))


def independent_by_tuples(polys, ring):
    """The independence filter on `Polynomial`s with pivots keyed by
    exponent tuples: the reference for the packed one."""
    inverse, mod = ring.field.inverse, ring.field.modulus
    pivots, kept = {}, []
    for p in polys:
        row = dict(p.terms)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                kept.append(p)
                break
            factor = row[lead] * inverse(pivot[lead]) % mod
            for m, c in pivot.items():
                s = (row.get(m, 0) - factor * c) % mod
                if s == 0:
                    row.pop(m, None)
                else:
                    row[m] = s
    return kept


CALLS = Path(__file__).resolve().parents[1] / "tools" / "calls"
# Problem files that exist to time out: their full expansions run for
# minutes, or the power 3^40000000 in an entry over QQ for seconds; and one
# whose entry is a parse error (300 nested parentheses).
TIMEOUT_PROBLEMS = {"alternating-16x16.json", "power-30.json", "constant-power-qq.json", "nested-300.json"}
# The inputs of `limits.txt`, whose minors take the tuple-keyed filter
# minutes and far more memory than the rest together.
LIMIT_PROBLEMS = {
    "linear-5x5-d12.json",
    "linear-4x6-d14.json",
    "linear-4x5-d10-qq.json",
    "linear-symmetric-5x5-d10.json",
    "linear-alternating-7x7-d12.json",
    "quadrics-3x4.json",
    "linear-4x5-d10-repeated-column.json",
}


def calls_ideals():
    """(label, generators) of every ideal of minors and Pfaffians of the
    `tools/calls` problem files, over their fields and in both orders, and
    of the ideals in `generic-heights.txt`, packed."""
    for path in sorted((CALLS / "problems").glob("*.json")):
        if path.name in TIMEOUT_PROBLEMS | LIMIT_PROBLEMS:
            continue
        pf = cli.load_problem(path)
        for order in MonomialOrder:
            M = cli.build_matrix(pf, pf.field or cli.DEFAULT_FIELD, order)
            for t in range(1, min(M.m, M.n) + 1):
                yield (path.name, order, t), minor_generators(M, t).expand()
            if M.kind is MatrixKind.ALTERNATING:
                for two_t in range(2, M.n + 1, 2):
                    yield (path.name, order, f"Pf {two_t}"), pfaffian_generators(M, two_t).expand()
    for kind, m, n, t in (("ordinary", 5, 8, 3), ("ordinary", 6, 8, 4), ("symmetric", 8, 8, 4)):
        yield (kind, m, n, t), minor_generators(generic_matrix(m, n, kind, field=F32003), t).expand()
    yield ("alternating", 10, 10, 3), pfaffian_generators(generic_matrix(10, 10, "alternating", field=F32003), 6).expand()


class TestIndependenceFilter:
    def test_packed_pivots_keep_what_tuple_pivots_kept(self):
        # The echelon rows number the generators the tuple-keyed filter
        # keeps, span what they span, and have distinct leading monomials.
        dropped = 0
        for label, packed in calls_ideals():
            polys = packed.polynomials()
            rows = groebner._independent(packed).polynomials()
            kept = independent_by_tuples(polys, packed.ring)
            assert len(rows) == len(kept), label
            assert len(independent_by_tuples(kept + rows, packed.ring)) == len(kept), label
            assert len({r.leading_monomial() for r in rows}) == len(rows), label
            dropped += len(polys) - len(kept)
        assert dropped >= 700


def random_rows(rng: random.Random, p: int, columns: list[int], count: int, fill: float, dependent: bool) -> list[dict]:
    """`count` rows over GF(p) on the monomials `columns`: each a random row
    holding each column with probability `fill`, or, when `dependent`, also
    an empty row or a combination of up to three rows before it."""
    rows = []
    for _ in range(count):
        draw = rng.random() if dependent else 1.0
        if draw < 0.1:
            rows.append({})
        elif draw < 0.35 and rows:
            combination = {}
            for row in rng.sample(rows, min(3, len(rows))):
                factor = rng.randrange(1, p)
                for m, c in row.items():
                    combination[m] = (combination.get(m, 0) + factor * c) % p
            rows.append({m: c for m, c in combination.items() if c})
        else:
            rows.append({m: rng.randrange(1, p) for m in columns if rng.random() < fill})
    return rows


def dict_path(rows: list[dict], field: FieldSpec) -> None:
    """The column rule of `_echelon` and `_cleared` that keeps dict rows."""
    return None


def packed_path(rows: list[dict], field: FieldSpec) -> list[int]:
    """The column rule that packs the rows whatever their fill."""
    return sorted(set().union(*rows))


class TestDenseRows:
    """`_echelon` and `_cleared` on rows packed into ints, against the dict
    rows they replace."""

    @pytest.mark.parametrize("p", [2, 3, 32003, 2**61 - 1], ids=["gf2", "gf3", "prime", "mersenne61"])
    def test_packed_rows_equal_dict_rows(self, p, monkeypatch):
        field = FieldSpec.prime(p)
        rng = random.Random(f"dense rows:{p}")
        entered = []
        for name in ("_dense_echelon", "_dense_cleared"):
            original = getattr(groebner, name)
            monkeypatch.setattr(groebner, name, lambda *args, original=original, name=name: entered.append(name) or original(*args))
        reads = []
        monkeypatch.setattr(groebner, "check_deadline", reads.append)
        # `_cleared` reads the clock at every 256th row; every 2nd here, so
        # that these small calls read it at all.
        monkeypatch.setattr(groebner, "_DEADLINE_EVERY_GENERATORS", 2)
        outcomes = set()
        for trial in range(80):
            columns = rng.sample(range(1 << 40), rng.choice((1, 4, 20, 70)))
            rows = random_rows(rng, p, columns, rng.randint(1, len(columns) + 6), rng.choice((0.05, 0.3, 0.9, 1.0)), rng.random() < 0.7)
            every, independent = rng.choice((1, 2, 5)), rng.random() < 0.4
            results, counts = [], []
            for rule in (dict_path, packed_path):
                monkeypatch.setattr(groebner, "_columns", rule)
                reads.clear()
                echelon = groebner._echelon(rows, field, "independence filter", every, independent)
                pivots = groebner._echelon(rows, field, "independence filter")
                # Rows that are not monic, in no order, the same on both paths.
                draw = random.Random(trial)
                scaled = [{m: c * factor % p for m, c in row.items()} for row, factor in zip(pivots, (draw.randrange(1, p) for _ in pivots))]
                draw.shuffle(scaled)
                cleared = groebner._cleared(scaled, field, "Buchberger set-up") if scaled else []
                results.append((echelon, pivots, cleared))
                counts.append(len(reads))
            assert results[0] == results[1], trial
            # The packed path reads the clock at least as often.
            assert counts[1] >= counts[0], trial
            outcomes.add((independent, results[0][0] is None))
        assert set(entered) == {"_dense_echelon", "_dense_cleared"}
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_dense_linear_minors_take_the_packed_path(self, monkeypatch):
        # The 2-minors of a dense linear 4x5 matrix in 10 variables: 60
        # quadrics of 55 monomials, 55 of them independent.
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe"), ring, "ordinary", 4, 5, density=1.0)
        decisions = []
        columns = groebner._columns
        monkeypatch.setattr(groebner, "_columns", lambda rows, field: decisions.append(columns(rows, field)) or decisions[-1])
        assert ideal_of_minors(M, 2).generator_count == 55
        assert [len(d) for d in decisions] == [55]

    def test_generic_symmetric_minors_take_the_dict_path(self, monkeypatch):
        # The 2,485 4-minors of a generic symmetric 8x8 matrix fill 0.07 %
        # of their 32,655 columns.
        decisions = []
        columns = groebner._columns
        monkeypatch.setattr(groebner, "_columns", lambda rows, field: decisions.append((len(rows), columns(rows, field))) or decisions[-1][1])
        M = generic_matrix(8, 8, "symmetric", field=F32003)
        assert ideal_of_minors(M, 4).generator_count == 1764
        assert decisions == [(2485, None)]

    def test_rationals_take_the_dict_path(self):
        rows = [{1: Fraction(1, 2), 0: Fraction(1)}, {1: Fraction(3), 0: Fraction(2)}]
        assert groebner._columns(rows, FieldSpec.rationals()) is None
        assert groebner._columns(rows, F32003) == [0, 1]

    def test_a_timeout_in_the_packed_path_names_its_stage(self, monkeypatch):
        ring = PolyRing(tuple(f"v{i}" for i in range(10)), field=F32003)
        M = linear_matrix(random.Random("probe"), ring, "ordinary", 4, 5, density=1.0)
        minors = minor_generators(M, 2).expand()
        dense_echelon = groebner._dense_echelon

        def expiring(*args):
            with time_limit(0.0):
                return dense_echelon(*args)

        monkeypatch.setattr(groebner, "_dense_echelon", expiring)
        with pytest.raises(ComputationTimeout, match=r"during independence filter of minors\(2\)$") as stopped:
            with ideal_named("minors(2)"):
                groebner._independent(minors)
        assert stopped.traceback[-1].name == "check_deadline"
        assert stopped.traceback[-2].name in ("tails", "_dense_echelon")


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
        assert (report.ok, report.actual, report.expected) == (True, 6, 6)
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


def model_of(kind: str, m: int, n: int, size: int, field: FieldSpec):
    """The generic model of t x t minors, or of size x size Pfaffians of an
    alternating matrix, of the shape."""
    M = generic_matrix(m, n, kind, field=field)
    return groebner._model(pfaffian_generators(M, size) if kind == "alternating" else minor_generators(M, size))


def h_vector(numerator: list[int], codim: int) -> list[int]:
    """numerator / (1 - T)^codim, which must divide it, trailing zeros cut."""
    h = list(numerator)
    for _ in range(codim):
        # Divide by 1 - T: the quotient's coefficients are the partial sums.
        assert sum(h) == 0, numerator
        h = [sum(h[: i + 1]) for i in range(len(h) - 1)]
    while h and h[-1] == 0:
        h.pop()
    return h


def conca_herzog_h(m: int, n: int, t: int) -> list[int]:
    """The h-vector of the generic determinantal ring of t x t minors of an
    m x n matrix: z^(-C(r,2)) det(sum_k C(m-i,k) C(n-j,k) z^k), r = t - 1,
    i, j = 1..r (Conca and Herzog), by exact elimination over QQ."""
    r = t - 1

    def entry(i, j):
        return [comb(m - i, k) * comb(n - j, k) for k in range(min(m - i, n - j) + 1)]

    def det(rows):  # a matrix of polynomials in z, by cofactor expansion
        if not rows:
            return [1]
        total = [0]
        for j, head in enumerate(rows[0]):
            minor = det([row[:j] + row[j + 1 :] for row in rows[1:]])
            term = groebner._poly_mul(head, minor)
            total = groebner._poly_add(total, [-c for c in term] if j % 2 else term)
        return total

    h = det([[entry(i, j) for j in range(1, r + 1)] for i in range(1, r + 1)])[comb(r, 2) :]
    while h and h[-1] == 0:
        h.pop()
    return h


class TestHilbertNumerator:
    """The Hilbert numerator of the generic models against closed forms."""

    def test_small_monomial_ideals(self):
        # (x y) in any ring: 1 - T^2.  (x^2, x y): N = 1 - 2T^2 + T^3.
        # (x, y) and (x^2, y^3): regular sequences.  The zero ideal: 1.
        numerator = lambda monomials: groebner._hilbert_numerator(monomials, "test")
        assert numerator([(1, 1, 0)]) == [1, 0, -1]
        assert numerator([(2, 0), (1, 1)]) == [1, 0, -2, 1]
        assert numerator([(1, 0), (0, 1)]) == [1, -2, 1]
        assert numerator([(2, 0), (0, 3)]) == [1, 0, -1, -1, 0, 1]
        assert numerator([]) == [1]
        # Repeats and non-minimal generators change nothing.
        assert numerator([(2, 0), (1, 1), (2, 1), (1, 1)]) == [1, 0, -2, 1]

    def test_numerator_matches_a_count_of_standard_monomials(self):
        rng = random.Random("hilbert numerator")
        for trial in range(40):
            nvars = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 5))]
            gens = [g for g in gens if any(g)] or [(1,) + (0,) * (nvars - 1)]
            N = groebner._hilbert_numerator(gens, "test")
            for D in range(9):
                standard = sum(
                    1
                    for e in _monomials_of_degree(nvars, D)
                    if not any(all(a >= b for a, b in zip(e, g)) for g in gens)
                )
                hf = sum(a * comb(D - k + nvars - 1, nvars - 1) for k, a in enumerate(N) if k <= D)
                assert hf == standard, (gens, D)

    @pytest.mark.parametrize("field", [F32003, FieldSpec.prime(2)], ids=["gf32003", "gf2"])
    @pytest.mark.parametrize("m,n,t", [(2, 3, 2), (2, 5, 2), (3, 3, 2), (3, 4, 2), (3, 4, 3), (3, 5, 3), (4, 4, 3), (4, 5, 3), (4, 5, 4)])
    def test_ordinary_h_vectors_match_conca_herzog(self, field, m, n, t):
        model = model_of("ordinary", m, n, t, field)
        assert h_vector(model.numerator(), (m - t + 1) * (n - t + 1)) == conca_herzog_h(m, n, t)

    def test_conca_herzog_reference(self):
        # The twisted cubic and the rank <= 2 locus of 5x5 matrices.
        assert conca_herzog_h(2, 3, 2) == [1, 2]
        assert conca_herzog_h(5, 5, 3) == [1, 9, 45, 65, 45, 9, 1]

    @pytest.mark.parametrize("field", [F32003, FieldSpec.prime(2)], ids=["gf32003", "gf2"])
    def test_degrees_match_known_varieties(self, field):
        # h(1) is the degree: G(2, n) for Pf_4 (the Catalan numbers), the
        # Veronese 2^(n-1) for symmetric rank <= 1, and 10 and 35 for
        # symmetric rank <= 2 at n = 4 and 5.
        for n, degree in zip(range(5, 9), (5, 14, 42, 132)):
            assert sum(h_vector(model_of("alternating", n, n, 4, field).numerator(), comb(n - 2, 2))) == degree
        for n, t, degree in ((4, 2, 8), (5, 2, 16), (4, 3, 10), (5, 3, 35)):
            assert sum(h_vector(model_of("symmetric", n, n, t, field).numerator(), comb(n - t + 2, 2))) == degree

    @pytest.mark.parametrize("field", [F32003, FieldSpec.prime(2)], ids=["gf32003", "gf2"])
    def test_generic_counts_match_lemma_4_4(self, field):
        # README, Lemma 4.4a/b/c: C(m,t) C(n,t); C(n+1,t+1) C(n+1,t)/(n+1); C(n,2t).
        for m, n, t in ((2, 3, 2), (3, 4, 2), (4, 5, 3), (3, 5, 3)):
            assert model_of("ordinary", m, n, t, field).count == comb(m, t) * comb(n, t)
        for n in range(2, 6):
            for t in range(1, n + 1):
                assert model_of("symmetric", n, n, t, field).count == comb(n + 1, t + 1) * comb(n + 1, t) // (n + 1)
        for n in range(4, 8):
            for two_t in range(2, n + 1, 2):
                assert model_of("alternating", n, n, two_t, field).count == comb(n, two_t)


def _monomials_of_degree(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest
