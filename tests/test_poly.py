import random
from fractions import Fraction

import pytest

from reeskit.deadline import time_limit
from reeskit.errors import ComputationTimeout, DomainError, PolyParseError, RingMismatchError
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


# Malformed texts in x and y over QQ (or GF(7)), each with the message and
# column that the earlier token-list parser gave.
MALFORMED = [
    ("qq", "x y", "missing '*' before 'y' (column 3)"),
    ("qq", "2x", "missing '*' before 'x' (column 2)"),
    ("qq", "(x + y)(x - y)", "missing '*' before '(' (column 8)"),
    ("qq", "٣x", "missing '*' before 'x' (column 2)"),
    ("qq", "x + y)", "unexpected trailing ')' (column 6)"),
    ("qq", "x^2^3", "unexpected trailing '^' (column 4)"),
    ("qq", "x + 1/2/3", "unexpected trailing '/' (column 8)"),
    ("qq", "(x + y", "expected ')', found 'end of input' (column 7)"),
    ("qq", "((x*y)", "expected ')', found 'end of input' (column 7)"),
    ("qq", "x^y", "expected exponent, found 'y' (column 3)"),
    ("qq", "x^", "expected exponent, found 'end of input' (column 3)"),
    ("qq", "x^-1", "expected exponent, found '-' (column 3)"),
    ("qq", "3/0*x", "zero denominator (column 3)"),
    ("qq", "1/", "expected denominator, found 'end of input' (column 3)"),
    ("gf7", "1/14*x", "denominator 14 is divisible by the modulus 7 (column 3)"),
    ("gf7", "x + 2/7", "denominator 7 is divisible by the modulus 7 (column 7)"),
    ("qq", "x + zz", "unknown identifier 'zz' (column 5)"),
    ("qq", "x*é", "unknown identifier 'é' (column 3)"),
    ("qq", "x*y٣ + 1", "unknown identifier 'y٣' (column 3)"),
    ("qq", "x^²", "unexpected character '²' (column 3)"),
    ("qq", "²*x", "unexpected character '²' (column 1)"),
    ("qq", "x y ²", "unexpected character '²' (column 5)"),
    ("qq", "x $ y", "unexpected character '$' (column 3)"),
    ("qq", "", "expected a number, variable, or '(', found 'end of input' (column 1)"),
    ("qq", "   ", "expected a number, variable, or '(', found 'end of input' (column 4)"),
    ("qq", "x +", "expected a number, variable, or '(', found 'end of input' (column 4)"),
    ("qq", "*x", "expected a number, variable, or '(', found '*' (column 1)"),
    ("qq", "x + ()", "expected a number, variable, or '(', found ')' (column 6)"),
]


def _random_sum(rng, p, depth):
    """A sum node: (leading sign, [(op, term)]), op '+' or '-'; a term is a
    list of factors (base, exponent or None); a base is ('nat', n),
    ('frac', n, d), ('var', name) or ('group', sum)."""
    def base():
        r = rng.random()
        if r < 0.25:
            return ("nat", rng.choice([0, 1, 2, 3, 5, 7, 32003, 64009]))
        if r < 0.35:
            d = rng.randint(1, 9)
            return ("frac", rng.randint(0, 9), d if p is None or d % p else 1)
        if r < 0.8 or depth >= 2:
            return ("var", rng.choice("xyz"))
        return ("group", _random_sum(rng, p, depth + 1))

    def term():
        return [(base(), rng.choice([None, None, 0, 1, 2, 3])) for _ in range(rng.randint(1, 3))]

    return rng.choice(["", "", "-", "+"]), [(rng.choice("+-"), term()) for _ in range(rng.randint(1, 3))]


def _render(node, rng) -> str:
    def space():
        return rng.choice(["", "", " ", "  "])

    def factor(b, e):
        text = {"nat": lambda: str(b[1]), "frac": lambda: f"{b[1]}/{b[2]}", "var": lambda: b[1], "group": lambda: f"({_render(b[1], rng)})"}[b[0]]()
        return text if e is None else f"{text}{space()}^{space()}{e}"

    sign, terms = node
    parts = [f"{space()}{'*'.join(space() + factor(b, e) + space() for b, e in t)}" for _, t in terms]
    return sign + "".join((op + part) if i else part for i, ((op, _), part) in enumerate(zip(terms, parts)))


def _evaluate(node, ring) -> Polynomial:
    """The value of a sum node by `Polynomial` arithmetic, left to right."""
    def factor(b, e):
        kind = b[0]
        v = {"nat": lambda: ring.constant(b[1]), "frac": lambda: ring.constant(Fraction(b[1], b[2])), "var": lambda: ring.var(b[1]), "group": lambda: _evaluate(b[1], ring)}[kind]()
        return v if e is None else v**e

    sign, terms = node
    total = None
    for op, t in terms:
        value = factor(*t[0])
        for f in t[1:]:
            value = value * factor(*f)
        if total is None:
            total = -value if sign == "-" else value
        else:
            total = total - value if op == "-" else total + value
    return total


class TestParseCrossCheck:
    @pytest.mark.parametrize("field", [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(32003), FieldSpec.rationals()], ids=str)
    def test_random_trees_parse_to_their_polynomial_value(self, field):
        # The terms, their coefficient types and their order are those of
        # adding and multiplying the parsed pieces one by one.
        rng = random.Random(f"parse-trees:{field}")
        ring = PolyRing(("x", "y", "z"), field=field)
        for _ in range(300):
            tree = _random_sum(rng, field.p, 0)
            text = _render(tree, rng)
            got, expected = parse_poly(text, ring), _evaluate(tree, ring)
            assert list(got.terms.items()) == list(expected.terms.items()), text
            assert [type(c) for c in got.terms.values()] == [type(c) for c in expected.terms.values()], text

    @pytest.mark.parametrize("field,text,message", MALFORMED)
    def test_malformed_text_names_its_column(self, field, text, message):
        ring = PolyRing(("x", "y"), field=FieldSpec.prime(7) if field == "gf7" else FieldSpec.rationals())
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, ring)
        assert str(exc.value) == message

    def test_parentheses_nest_to_the_bound(self, qq_xy):
        assert parse_poly("(" * 256 + "x" + ")" * 256, qq_xy) == qq_xy.var("x")
        with pytest.raises(PolyParseError) as exc:
            parse_poly("(" * 5000 + "x" + ")" * 5000, qq_xy)
        assert str(exc.value) == "parentheses nested deeper than 256 (column 257)"

    def test_a_constant_power_reads_the_clock(self):
        # The power 3^40000000 alone takes seconds over QQ.
        ring = PolyRing(("x",))
        with pytest.raises(ComputationTimeout, match="during polynomial arithmetic$"):
            with time_limit(0.0):
                parse_poly("3^40000000*x", ring)

    def test_only_polynomial_arithmetic_reads_the_clock(self, qq_xy):
        with time_limit(0.0):
            assert parse_poly("3*x^2*y - 1/2*x + 7 - x*y*x", qq_xy) == parse_poly("7 - 1/2*x + 2*x^2*y", qq_xy)
        with pytest.raises(ComputationTimeout, match="during polynomial arithmetic$"):
            with time_limit(0.0):
                parse_poly("x + (x + y)*(x - y)", qq_xy)


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
