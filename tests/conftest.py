import random
from fractions import Fraction
from itertools import combinations

import pytest

from reeskit.poly import FieldSpec, PolyRing, Polynomial


def random_monomial(rng: random.Random, nvars: int, max_exp: int = 3) -> tuple:
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def random_coeff(rng: random.Random, field: FieldSpec):
    if field.p is None:
        num = rng.randint(-9, 9) or 1
        den = rng.randint(1, 9)
        return Fraction(num, den)
    return rng.randint(1, field.p - 1)


def random_poly(
    rng: random.Random,
    ring: PolyRing,
    max_terms: int = 4,
    max_exp: int = 3,
    allow_zero: bool = True,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        terms[random_monomial(rng, ring.nvars, max_exp)] = random_coeff(rng, ring.field)
    return Polynomial(ring, terms)


def brute_force_dimension(monomials, nvars: int) -> int:
    """Dimension of the quotient by a monomial ideal, by exhaustive search:
    the largest variable subset containing no generator's support; -1 when
    a generator is constant."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    if any(not s for s in supports):
        return -1
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size


@pytest.fixture
def rng():
    return random.Random(20240817)


# The rationals, the smallest prime, the default prime and the largest
# Mersenne prime below 2^63, where products of two coefficients pass 2^64.
FIELDS = {
    "rationals": FieldSpec.rationals(),
    "gf2": FieldSpec.prime(2),
    "prime": FieldSpec.prime(32003),
    "mersenne61": FieldSpec.prime(2**61 - 1),
}


@pytest.fixture(params=list(FIELDS))
def any_field(request):
    return FIELDS[request.param]


@pytest.fixture
def qq_xy():
    return PolyRing(("x", "y"))


@pytest.fixture
def fp_xyz():
    return PolyRing(("x", "y", "z"), field=FieldSpec.prime(32003))
