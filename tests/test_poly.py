import random
from fractions import Fraction

import pytest

from reeskit.errors import DomainError, PolyParseError, RingMismatchError
from reeskit.poly import (
    ALL_DEGREES,
    FieldSpec,
    MonomialOrder,
    PolyRing,
    Polynomial,
    format_poly,
    homogeneous_degree,
    parse_poly,
)

from conftest import random_coeff, random_monomial, random_poly


class TestFieldSpec:
    def test_rationals(self):
        f = FieldSpec.rationals()
        assert f.kind == "rationals"
        assert f.characteristic == 0
        assert f.coerce(3) == Fraction(3)

    def test_prime(self):
        f = FieldSpec.prime(32003)
        assert f.kind == "prime-field"
        assert f.characteristic == 32003
        assert f.coerce(-1) == 32002
        assert f.coerce(Fraction(1, 2)) == (32003 + 1) // 2

    def test_inverse_of_zero_raises(self, any_field):
        with pytest.raises(ZeroDivisionError):
            any_field.inverse(0)

    def test_rational_inverse_is_exact(self):
        f = FieldSpec.rationals()
        assert type(f.inverse(3)) is Fraction and f.inverse(3) == Fraction(1, 3)
        assert f.inverse(Fraction(-2, 3)) == Fraction(-3, 2)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            FieldSpec.prime(32004)
        with pytest.raises(DomainError):
            FieldSpec.prime(1)


class TestParse:
    def test_zero(self):
        ring = PolyRing(("x",))
        assert parse_poly("0", ring).is_zero

    def test_three_terms(self, qq_xy):
        p = parse_poly("x^2 - y*x + 3", qq_xy)
        assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(-1), (0, 0): Fraction(3)}

    def test_like_terms_combine(self, qq_xy):
        p = parse_poly("x*y + y*x", qq_xy)
        assert p.terms == {(1, 1): Fraction(2)}

    def test_rational_coefficient(self, qq_xy):
        p = parse_poly("3/4*x + 1/4*x", qq_xy)
        assert p == qq_xy.var("x")

    def test_parenthesized(self, qq_xy):
        p = parse_poly("(x + y)^2", qq_xy)
        q = parse_poly("x^2 + 2*x*y + y^2", qq_xy)
        assert p == q

    def test_unary_minus_at_head(self, qq_xy):
        assert parse_poly("-x + y", qq_xy) == parse_poly("y - x", qq_xy)
        assert parse_poly("(-x)*(-x)", qq_xy) == parse_poly("x^2", qq_xy)

    def test_juxtaposition_rejected(self, qq_xy):
        with pytest.raises(PolyParseError):
            parse_poly("x y", qq_xy)
        with pytest.raises(PolyParseError):
            parse_poly("2x", qq_xy)

    def test_syntax_error_position(self, qq_xy):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("x+*y", qq_xy)
        assert exc.value.position == 2
        assert "column 3" in str(exc.value)

    def test_unknown_identifier(self, qq_xy):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("x + zz", qq_xy)
        assert "zz" in str(exc.value)

    def test_modulus_reduction_note(self):
        ring = PolyRing(("x",), field=FieldSpec.prime(7))
        p = parse_poly("9*x", ring)
        assert p.terms == {(1,): 2}

    def test_denominator_divisible_by_modulus(self):
        ring = PolyRing(("x",), field=FieldSpec.prime(7))
        with pytest.raises(PolyParseError):
            parse_poly("1/7*x", ring)

    @pytest.mark.parametrize("text,column", [("x^²", 3), ("²*x", 1), ("x + ³/4", 5), ("1/²", 3)])
    def test_digits_int_rejects_are_not_numbers(self, qq_xy, text, column):
        # str.isdigit accepts superscripts, which int() rejects.
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, qq_xy)
        assert exc.value.position == column - 1

    def test_decimal_digits_of_any_script_are_numbers(self, qq_xy):
        assert parse_poly("٣*x^٢", qq_xy) == parse_poly("3*x^2", qq_xy)

    def test_trailing_garbage(self, qq_xy):
        with pytest.raises(PolyParseError):
            parse_poly("x + y)", qq_xy)

    def test_zero_exponent(self, qq_xy):
        assert parse_poly("x^0", qq_xy) == qq_xy.one()
        with pytest.raises(PolyParseError):
            parse_poly("x^2^3", qq_xy)

    def test_constant_ring_with_no_variables(self):
        ring = PolyRing((), field=FieldSpec.prime(7))
        p = parse_poly("3 + 5", ring)
        assert p == ring.constant(1)
        assert parse_poly("0", ring).is_zero


class TestArithmetic:
    def test_additive_identity(self, qq_xy, rng):
        for _ in range(20):
            a = random_poly(rng, qq_xy)
            assert a + qq_xy.zero() == a

    def test_difference_of_squares(self, qq_xy):
        x, y = qq_xy.gens()
        assert (x + y) * (x - y) == x * x - y * y

    def test_frobenius_mod_5(self):
        ring = PolyRing(("x",), field=FieldSpec.prime(5))
        x = ring.var("x")
        p = ring.one()
        for _ in range(5):
            p = p * (x + 1)
        assert p == x**5 + 1

    def test_ring_mismatch(self, qq_xy, fp_xyz):
        with pytest.raises(RingMismatchError):
            qq_xy.var("x") + fp_xyz.var("x")

    def test_no_zero_coefficients_stored(self, qq_xy):
        x, _ = qq_xy.gens()
        assert (x - x).terms == {}
        assert not (x - x)
        assert len(x + x) == 1

    def test_term_constructor(self, qq_xy):
        p = qq_xy.term(3, (2, 1))
        assert p == 3 * qq_xy.var("x") ** 2 * qq_xy.var("y")
        assert qq_xy.term(0, (1, 1)).is_zero
        with pytest.raises(DomainError):
            qq_xy.term(1, (1,))
        with pytest.raises(DomainError):
            qq_xy.term(1, (-1, 0))

    def test_scalar_ops(self, qq_xy):
        x, y = qq_xy.gens()
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
        assert (x + y) - 0 == x + y

    def test_pow(self, qq_xy):
        x, y = qq_xy.gens()
        assert (x + y) ** 0 == qq_xy.one()
        assert (x + y) ** 3 == (x + y) * (x + y) * (x + y)

    def test_terms_view_is_read_only(self, qq_xy):
        p = qq_xy.var("x")
        with pytest.raises(TypeError):
            p.terms[(5, 5)] = 1


class TestRingAxioms:
    def test_axioms_random(self, any_field):
        rng = random.Random(12345)
        ring = PolyRing(("x", "y", "z"), field=any_field)
        for _ in range(500):
            a = random_poly(rng, ring, max_terms=3, max_exp=2)
            b = random_poly(rng, ring, max_terms=3, max_exp=2)
            c = random_poly(rng, ring, max_terms=3, max_exp=2)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def evaluate(f: Polynomial, point: tuple):
    """f at the point by plain int or Fraction arithmetic, reduced mod p last."""
    total = 0
    for m, c in f.terms.items():
        for x, e in zip(point, m):
            c *= x**e
        total += c
    p = f.ring.field.p
    return total if p is None else total % p


class TestEvaluationHomomorphism:
    def test_operations_commute_with_evaluation(self, any_field):
        rng = random.Random(4242)
        ring = PolyRing(("x", "y", "z"), field=any_field)
        p = any_field.p

        def ref(value):
            return value if p is None else value % p

        for _ in range(200):
            f = random_poly(rng, ring, max_terms=4, max_exp=3)
            g = random_poly(rng, ring, max_terms=4, max_exp=3, allow_zero=False)
            c = random_coeff(rng, any_field)
            k = rng.randint(0, 3)
            point = tuple(random_coeff(rng, any_field) if rng.random() < 0.8 else 0 for _ in range(3))
            ef, eg = evaluate(f, point), evaluate(g, point)
            assert evaluate(f + g, point) == ref(ef + eg)
            assert evaluate(f - g, point) == ref(ef - eg)
            assert evaluate(-f, point) == ref(-ef)
            assert evaluate(c * f, point) == ref(c * ef)
            assert evaluate(f * g, point) == ref(ef * eg)
            assert evaluate(f**k, point) == ref(ef**k)
            lc = g.leading_term()[1]
            # Fermat's little theorem inverts lc mod p without pow(lc, -1, p).
            inv = Fraction(1, lc) if p is None else pow(lc, p - 2, p)
            assert evaluate(g.monic(), point) == ref(eg * inv)


class TestMonomialOrders:
    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    def test_order_axioms(self, order, rng):
        nvars = 4
        key = order.key
        one = (0,) * nvars
        for _ in range(1000):
            u = random_monomial(rng, nvars)
            v = random_monomial(rng, nvars)
            w = random_monomial(rng, nvars)
            # trichotomy
            assert (key(u) < key(v)) + (key(u) == key(v)) + (key(u) > key(v)) == 1
            # multiplicative
            if key(u) < key(v):
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert key(uw) < key(vw)
            # 1 is minimal
            assert key(one) <= key(u)

    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    def test_leading_term_is_the_greatest_under_the_order_key(self, order, any_field):
        # Mixed degrees, so grevlex compares the total degree and, among
        # the terms of the top degree, the exponents from the last variable.
        rng = random.Random(f"leading:{order.value}:{any_field}")
        ties = 0
        for _ in range(300):
            ring = PolyRing(tuple(f"v{i}" for i in range(rng.randint(1, 6))), field=any_field, order=order)
            p = random_poly(rng, ring, max_terms=8)
            if p.is_zero:
                assert p.leading_term() is None and p.leading_monomial() is None
                continue
            m = max(p.terms, key=ring.mkey)
            assert p.leading_monomial() == m
            assert p.leading_term() == (m, p.terms[m])
            ties += sum(sum(e) == sum(m) for e in p.terms) > 1
        # Several terms shared the top degree in many trials.
        assert ties >= 30

    def test_grevlex_vs_lex_disagree(self):
        # x^2*y vs x*y^3: grevlex compares degree first, lex the first slot.
        g = MonomialOrder.GREVLEX.key
        l = MonomialOrder.LEX.key
        assert g((2, 1)) < g((1, 3))
        assert l((2, 1)) > l((1, 3))


class TestFormatRoundTrip:
    def test_round_trip_random(self, any_field):
        rng = random.Random(777)
        ring = PolyRing(("x", "y", "zz"), field=any_field)
        for _ in range(500):
            p = random_poly(rng, ring, max_terms=5, max_exp=4)
            assert parse_poly(format_poly(p), ring) == p

    def test_zero_prints_as_zero(self, qq_xy):
        assert format_poly(qq_xy.zero()) == "0"

    def test_descending_term_order(self, qq_xy):
        p = parse_poly("3 + x^2 + y", qq_xy)
        assert format_poly(p) == "x^2 + y + 3"


class TestHomogeneity:
    def test_homogeneous(self, qq_xy):
        assert homogeneous_degree(parse_poly("x^2 + x*y", qq_xy)) == 2

    def test_inhomogeneous(self, qq_xy):
        assert homogeneous_degree(parse_poly("x^2 + y", qq_xy)) is None

    def test_zero_is_all_degrees(self, qq_xy):
        assert homogeneous_degree(qq_xy.zero()) is ALL_DEGREES
