"""Acceptance suite: one test per criterion, exact checks, timed budgets.

Each test prints a single pass line (visible with `pytest -s`); a failure
surfaces through the assert itself.  The Groebner confirmation of the
exceptional G_s value 18 (an 18-variable computation) runs with the rest.
"""

import json
import math
import random
import time
from itertools import combinations
from pathlib import Path

from reeskit.bounds import (
    MAXIMAL_IDEAL_ANNIHILATES,
    BoundValue,
    classify,
    degree_bounds,
)
from reeskit.cli import run
from reeskit.groebner import (
    buchberger,
    ideal_of_minors,
    is_generic_height,
    monomial_ideal_dimension,
    normal_form,
    spoly,
)
from reeskit.gs import ProblemInstance, check_Gs, max_Gs_generic, min_gens_generic
from reeskit.matrixalg import (
    MatrixKind,
    PolyMatrix,
    classical_adjoint,
    determinant,
    enumerate_minors,
    enumerate_pfaffians,
    generic_matrix,
    pfaffian,
    pfaffian_adjoint,
)
from reeskit.poly import FieldSpec, MonomialOrder, PolyRing, format_poly, parse_poly
from reeskit.resolutions import NEG_INF, abw_generation_degree, ku_generation_degree

from conftest import random_monomial, random_poly

F32003 = FieldSpec.prime(32003)
FIXTURES = Path(__file__).parent / "fixtures"


def random_alternating(rng, ring, n):
    rows = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = ring.constant(rng.randint(0, 32002))
            rows[i][j] = c
            rows[j][i] = -c
    return PolyMatrix(MatrixKind.ALTERNATING, rows, ring=ring)


def random_square(rng, ring, n):
    return PolyMatrix(
        MatrixKind.ORDINARY,
        [[ring.constant(rng.randint(0, 32002)) for _ in range(n)] for _ in range(n)],
        ring=ring,
    )


def matmul_entry(A, B, i, j):
    s = A.ring.zero()
    for k in range(A.n):
        s = s + A.entry(i, k) * B.entry(k, j)
    return s


def test_criterion_1_pfaffian_identity():
    start = time.monotonic()
    rng = random.Random(1001)
    ring = PolyRing((), field=F32003)
    for n in (2, 4, 6, 8):
        for _ in range(100):
            M = random_alternating(rng, ring, n)
            pf = pfaffian(M)
            assert pf * pf == determinant(M)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\ncriterion 1 (Pf(M)^2 = det(M), 100 cases per n in 2,4,6,8): PASS ({elapsed:.2f}s)")


def test_criterion_2_adjoint_identities():
    start = time.monotonic()
    rng = random.Random(1002)
    ring = PolyRing((), field=F32003)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            M = random_square(rng, ring, n)
            adj = classical_adjoint(M)
            det = determinant(M)
            for i in range(n):
                for j in range(n):
                    expected = det if i == j else ring.zero()
                    assert matmul_entry(adj, M, i, j) == expected
    for n in (2, 4, 6):
        for _ in range(10):
            M = random_alternating(rng, ring, n)
            adj = pfaffian_adjoint(M)
            pf = pfaffian(M)
            for i in range(n):
                for j in range(n):
                    expected = pf if i == j else ring.zero()
                    assert matmul_entry(adj, M, i, j) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\ncriterion 2 (adj and pfadj defining identities): PASS ({elapsed:.2f}s)")


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


def test_criterion_3_generic_height_grid():
    start = time.monotonic()
    for kind, m, n, size, expected in GENERIC_HEIGHT_GRID:
        M = generic_matrix(m, n, kind, field=F32003)
        report = is_generic_height(M, size)
        assert report.expected == expected, (kind, m, n, size)
        assert report.actual == expected, (kind, m, n, size, report.actual)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\ncriterion 3 (generic-height grid via Groebner over GF(32003)): PASS ({elapsed:.2f}s)")


GS_GRID = [
    ("ordinary", 2, 3, 2),
    ("ordinary", 2, 5, 2),
    ("ordinary", 2, 6, 2),
    ("ordinary", 3, 3, 2),
    ("symmetric", 3, 3, 2),
    ("symmetric", 4, 4, 3),
    ("alternating", 5, 5, 2),
    ("alternating", 6, 6, 2),
]


def test_criterion_4_gs_cross_oracle():
    start = time.monotonic()
    for kind, m, n, t in GS_GRID:
        M = generic_matrix(m, n, kind, field=F32003)
        via_heights = check_Gs(M, t, math.inf).max_s
        closed = max_Gs_generic(ProblemInstance.from_matrix(M, t))
        assert via_heights == closed, (kind, m, n, t, via_heights, closed)
    # The exceptional closed-form value is pinned as a formula test here;
    # its Groebner confirmation is the next test.
    assert max_Gs_generic(ProblemInstance(kind="ordinary", m=3, n=6, t=3, d=18, delta=1, char=32003)) == 18
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\ncriterion 4 (G_s cross-oracle grid + pinned 18): PASS ({elapsed:.2f}s)")


def test_criterion_4_slow_groebner_confirmation_of_18():
    start = time.monotonic()
    M = generic_matrix(3, 6, "ordinary", field=F32003)
    report = check_Gs(M, 3, math.inf)
    assert report.max_s == 18
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\ncriterion 4 slow (18-variable Groebner confirmation): PASS ({elapsed:.2f}s)")


def test_criterion_5_minimal_generator_counts():
    for kind, m, n, size, _ in GENERIC_HEIGHT_GRID:
        M = generic_matrix(m, n, kind)
        if kind == "alternating":
            enumerated = enumerate_pfaffians(M, size)
            t = size // 2
        else:
            enumerated = enumerate_minors(M, size)
            t = size
        expected = min_gens_generic(ProblemInstance.from_matrix(M, t))
        distinct = len(set(enumerated))
        assert distinct == expected, (kind, m, n, size, distinct, expected)
        assert len(enumerated) == expected
    print("\ncriterion 5 (minimal generator counts match enumeration): PASS")


def test_criterion_6_bound_engine_pinning():
    start = time.monotonic()

    def inst(kind, m, n, t, d, delta, char=0):
        return ProblemInstance(kind=kind, m=m, n=n, t=t, d=d, delta=delta, char=char)

    # Square maximal minors vanish identically.
    r = degree_bounds(inst("ordinary", 3, 3, 3, 4, 2), 5, hypotheses_attested=True)
    assert r.source == "Thm 5.2.2a" and r.b0.tag == "neg_infinity" and r.td.tag == "neg_infinity"
    # Almost-square maximal minors with small d.
    r = degree_bounds(inst("ordinary", 2, 3, 2, 2, 3), 5, hypotheses_attested=True)
    assert r.source == "Thm 5.2.2b" and r.b0 == BoundValue.finite(2) and r.td == BoundValue.finite(4)
    # Submaximal minors of a square matrix.
    r = degree_bounds(inst("ordinary", 4, 4, 3, 5, 2), 3, hypotheses_attested=True)
    assert r.source == "Thm 5.2.6" and r.b0 == BoundValue.finite(6) and r.td == BoundValue.finite(7)
    # Submaximal Pfaffians, d odd, k = d-1.
    r = degree_bounds(inst("alternating", 5, 5, 2, 3, 1), 2, hypotheses_attested=True)
    assert r.source == "Thm 5.4.3c" and r.b0.tag == "neg_infinity" and r.td.tag == "neg_infinity"
    # Size n-2 Pfaffians with n divisible by 4.
    r = degree_bounds(inst("alternating", 8, 8, 3, 4, 1), 7, hypotheses_attested=True)
    assert r.source == "Thm 5.4.5a" and r.b0 == BoundValue.finite(2) and r.td == BoundValue.finite(2)

    # delta = 1 collapse, maximal minors with n = m+1 and d > m: vanishing
    # for every k, the same conclusion the classifier reaches.
    for k in range(1, 8):
        r = degree_bounds(inst("ordinary", 2, 3, 2, 6, 1), k, hypotheses_attested=True)
        assert r.b0.tag == "neg_infinity" and r.td.tag == "neg_infinity"

    # Submaximal Pfaffians with delta = 1 and odd d: the annihilation
    # conclusion is emitted by the classifier.
    M = generic_matrix(3, 3, "alternating", field=F32003)
    report = classify(M, 1)
    assert (MAXIMAL_IDEAL_ANNIHILATES, "Cor 5.4.4e") in {(c.claim, c.source) for c in report.conclusions}

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"\ncriterion 6 (bound-engine pinning + delta=1 collapse): PASS ({elapsed:.2f}s)")


def test_criterion_7_classifier_end_to_end(capsys):
    start = time.monotonic()
    code = run(
        ["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "classify", "--json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    section = next(s for s in report["analyses"] if s["analysis"] == "classify")
    hits = [c for c in section["conclusions"] if c["source"] == "Cor 5.2.3b"]
    assert hits and hits[0]["claim"] == "linear_type" and hits[0]["hypotheses_verified"] is True
    # The verification ran on a real Groebner height of the entry ideal.
    M = generic_matrix(2, 3, "ordinary", field=F32003)
    assert ideal_of_minors(M, 1).height() == 6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\ncriterion 7 (CLI classifier end-to-end, Cor 5.2.3b): PASS ({elapsed:.2f}s)")


def test_criterion_8_resolution_tables():
    records = json.loads((FIXTURES / "ku_generation_degrees.json").read_text())
    assert {r["n"] for r in records} == {3, 5, 7}
    assert {r["k"] for r in records} == set(range(1, 9))
    assert {r["i"] for r in records} == set(range(0, 9))
    for rec in records:
        expected = NEG_INF if rec["value"] == "-inf" else rec["value"]
        assert ku_generation_degree(rec["n"], rec["k"], rec["i"]) == expected, rec
    for m in range(1, 6):
        for n in range(m, 6):
            for k in range(1, 7):
                length = min(k, m) * (n - m)
                for i in range(0, length + 3):
                    value = abw_generation_degree(m, n, k, i)
                    if i == 0:
                        assert value == 0
                    elif i <= length:
                        assert value == i
                    else:
                        assert value == NEG_INF
    print("\ncriterion 8 (KU fixture grid + ABW linearity and cutoff): PASS")


def test_criterion_9_property_suites():
    start = time.monotonic()
    rng = random.Random(1009)

    # Ring axioms: 1000 random triples split across both fields.
    for field in (FieldSpec.rationals(), F32003):
        ring = PolyRing(("x", "y", "z"), field=field)
        for _ in range(500):
            a = random_poly(rng, ring, max_terms=3, max_exp=2)
            b = random_poly(rng, ring, max_terms=3, max_exp=2)
            c = random_poly(rng, ring, max_terms=3, max_exp=2)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    # Monomial order axioms.
    one = (0, 0, 0, 0)
    for order in (MonomialOrder.GREVLEX, MonomialOrder.LEX):
        key = order.key
        for _ in range(1000):
            u = random_monomial(rng, 4)
            v = random_monomial(rng, 4)
            w = random_monomial(rng, 4)
            assert (key(u) < key(v)) + (key(u) == key(v)) + (key(u) > key(v)) == 1
            if key(u) < key(v):
                assert key(tuple(a + b for a, b in zip(u, w))) < key(tuple(a + b for a, b in zip(v, w)))
            assert key(one) <= key(u)

    # Parser round trip on 1000 random canonical polynomials.
    for field in (FieldSpec.rationals(), F32003):
        ring = PolyRing(("x", "y", "z"), field=field)
        for _ in range(500):
            p = random_poly(rng, ring, max_terms=5, max_exp=4)
            assert parse_poly(format_poly(p), ring) == p

    # Monomial-ideal dimension agrees with exhaustive subset search.
    def brute_dimension(mons, nvars):
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in mons]
        for size in range(nvars, -1, -1):
            for subset in combinations(range(nvars), size):
                sset = set(subset)
                if all(not s <= sset for s in supports):
                    return size
        return -1

    for _ in range(150):
        nvars = rng.randint(1, 8)
        mons = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(rng.randint(1, 6))]
        mons = [m for m in mons if any(m)]
        if not mons:
            continue
        assert monomial_ideal_dimension(mons, nvars) == brute_dimension(mons, nvars)

    # Buchberger: S-polynomials of basis pairs and original generators
    # all reduce to zero.
    ring = PolyRing(("x", "y", "z"), field=F32003)
    for _ in range(40):
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2, allow_zero=False) for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(spoly(basis[i], basis[j]), basis).is_zero
        for g in gens:
            assert normal_form(g, basis).is_zero

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\ncriterion 9 (property suites): PASS ({elapsed:.2f}s)")
