import random
from itertools import combinations
from math import comb, inf

import pytest

from reeskit.deadline import time_limit
from reeskit.errors import ComputationTimeout, DomainError, KindShapeError
from reeskit.cli import Request, _run_analyses
from reeskit.groebner import ideal_of_minors
from reeskit.matrixalg import (
    MatrixKind,
    PolyMatrix,
    _packed_entries,
    classical_adjoint,
    det_cofactor,
    determinant,
    enumerate_minors,
    enumerate_pfaffians,
    generic_matrix,
    minor_generators,
    minor_selectors,
    pfaffian,
    pfaffian_adjoint,
    pfaffian_generators,
)
from reeskit.poly import FieldSpec, MonomialOrder, PolyRing, Polynomial, parse_poly

from conftest import random_coeff, random_poly

F32003 = FieldSpec.prime(32003)


def scalar_matrix(rng, ring, n, kind=MatrixKind.ORDINARY):
    p = ring.field.p
    def coeff():
        return ring.constant(rng.randint(0, p - 1) if p else rng.randint(-99, 99))
    if kind is MatrixKind.ORDINARY:
        return PolyMatrix(kind, [[coeff() for _ in range(n)] for _ in range(n)], ring=ring)
    rows = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = coeff()
            rows[i][j] = c
            rows[j][i] = -c
    return PolyMatrix(MatrixKind.ALTERNATING, rows, ring=ring)


@pytest.fixture
def scalar_ring():
    return PolyRing((), field=F32003)


def matmul(A, B):
    ring = A.ring
    out = []
    for i in range(A.m):
        row = []
        for j in range(B.n):
            s = ring.zero()
            for k in range(A.n):
                s = s + A.entry(i, k) * B.entry(k, j)
            row.append(s)
        out.append(row)
    return out


class TestGenericMatrix:
    def test_ordinary_counts(self):
        M = generic_matrix(2, 2, "ordinary")
        assert M.ring.nvars == 4
        assert M.entry_degree == 1

    def test_symmetric_counts(self):
        M = generic_matrix(3, 3, "symmetric")
        assert M.ring.nvars == 6
        for i in range(3):
            for j in range(3):
                assert M.entry(i, j) == M.entry(j, i)

    def test_alternating_counts(self):
        M = generic_matrix(4, 4, "alternating")
        assert M.ring.nvars == 6
        for i in range(4):
            assert M.entry(i, i).is_zero
            for j in range(4):
                assert M.entry(i, j) == -M.entry(j, i)

    def test_base_vars_prepended(self):
        M = generic_matrix(2, 2, "ordinary", base_vars=("a", "b"))
        assert M.ring.variables[:2] == ("a", "b")
        assert M.ring.nvars == 6

    def test_kind_shape_mismatch(self):
        with pytest.raises(KindShapeError):
            generic_matrix(2, 3, "symmetric")
        with pytest.raises(KindShapeError):
            generic_matrix(2, 3, "alternating")

    def test_name_collision(self):
        with pytest.raises(DomainError):
            generic_matrix(2, 2, "ordinary", base_vars=("x1_1",))


class TestKindValidation:
    def test_asymmetric_rejected(self, qq_xy):
        x, y = qq_xy.gens()
        with pytest.raises(KindShapeError):
            PolyMatrix("symmetric", [[x, x], [y, x]])

    def test_bad_alternating_rejected(self, qq_xy):
        x, y = qq_xy.gens()
        z = qq_xy.zero()
        with pytest.raises(KindShapeError):
            PolyMatrix("alternating", [[z, x], [x, z]])
        with pytest.raises(KindShapeError):
            PolyMatrix("alternating", [[x, y], [-y, z]])

    def test_ragged_rejected(self, qq_xy):
        x, _ = qq_xy.gens()
        with pytest.raises(KindShapeError):
            PolyMatrix("ordinary", [[x, x], [x]])

    def test_entry_degree_mixed(self, qq_xy):
        x, y = qq_xy.gens()
        M = PolyMatrix("ordinary", [[x, y * y], [x, y]])
        assert M.entry_degree is None
        N = PolyMatrix("ordinary", [[x, qq_xy.zero()], [x, y]])
        assert N.entry_degree == 1


class TestDeterminant:
    def test_identity(self, qq_xy):
        one, zero = qq_xy.one(), qq_xy.zero()
        M = PolyMatrix("ordinary", [[one, zero, zero], [zero, one, zero], [zero, zero, one]])
        assert determinant(M) == one

    def test_2x2_formula(self):
        ring = PolyRing(("a", "b", "c", "d"))
        a, b, c, d = ring.gens()
        M = PolyMatrix("ordinary", [[a, b], [c, d]])
        assert determinant(M) == a * d - b * c

    def test_non_square_rejected(self, qq_xy):
        x, y = qq_xy.gens()
        with pytest.raises(KindShapeError):
            determinant(PolyMatrix("ordinary", [[x, y]]))

    def test_empty_matrix_determinant_is_one(self, qq_xy):
        M = PolyMatrix("ordinary", (), ring=qq_xy)
        assert determinant(M) == qq_xy.one()

    def test_scalar_5x5_to_7x7_match_cofactor_expansion(self, any_field):
        ring = PolyRing((), field=any_field)
        rng = random.Random(99)
        for n in (5, 5, 5, 5, 6, 6, 7):
            M = scalar_matrix(rng, ring, n)
            assert determinant(M) == det_cofactor(M)

    def test_dual_algorithm_on_symbolic_3x3(self):
        M = generic_matrix(3, 3, "ordinary")
        assert determinant(M) == det_cofactor(M)

    def test_transpose_invariance(self, scalar_ring):
        rng = random.Random(7)
        for n in (2, 3, 4, 5):
            M = scalar_matrix(rng, scalar_ring, n)
            assert determinant(M.transpose()) == determinant(M)

    def test_repeated_row_vanishes(self, scalar_ring):
        rng = random.Random(8)
        for n in (2, 3, 4, 5):
            M = scalar_matrix(rng, scalar_ring, n)
            grid = M.grid()
            grid[n - 1] = list(grid[0])
            assert determinant(PolyMatrix("ordinary", grid, ring=scalar_ring)).is_zero

    def test_polynomial_entries_match_cofactor_expansion(self, any_field):
        M = generic_matrix(5, 5, "symmetric", field=any_field)
        assert determinant(M) == det_cofactor(M)
        rng = random.Random(4242)
        ring = PolyRing(("x", "y"), field=any_field)
        for n in (5, 5, 6):
            # Mostly constants, with some non-constant entry.
            grid = [
                [random_poly(rng, ring, max_terms=2, max_exp=int(rng.random() < 0.3)) for _ in range(n)]
                for _ in range(n)
            ]
            assert any(e.degree() for row in grid for e in row)
            M = PolyMatrix("ordinary", grid)
            assert determinant(M) == det_cofactor(M)

    def test_zero_leading_entry(self, qq_xy):
        x, y = qq_xy.gens()
        zero = qq_xy.zero()
        M = PolyMatrix("ordinary", [[zero, x], [y, zero]])
        assert determinant(M) == -(x * y)
        one = qq_xy.one()
        M = PolyMatrix("ordinary", [[zero, x, one], [y, zero, x], [one, y, zero]])
        assert determinant(M) == det_cofactor(M)


class TestClassicalAdjoint:
    def test_identity(self, qq_xy):
        one, zero = qq_xy.one(), qq_xy.zero()
        M = PolyMatrix("ordinary", [[one, zero], [zero, one]])
        assert classical_adjoint(M).rows == M.rows

    def test_2x2_cofactors(self):
        ring = PolyRing(("a", "b", "c", "d"))
        a, b, c, d = ring.gens()
        adj = classical_adjoint(PolyMatrix("ordinary", [[a, b], [c, d]]))
        assert adj.rows == ((d, -b), (-c, a))

    def test_1x1_adjoint(self, qq_xy):
        x, _ = qq_xy.gens()
        adj = classical_adjoint(PolyMatrix("ordinary", [[x]]))
        assert adj.rows == ((qq_xy.one(),),)

    def test_defining_identity_generic_4x4(self):
        M = generic_matrix(4, 4, "ordinary", field=F32003)
        adj = classical_adjoint(M)
        det = determinant(M)
        prod = matmul(adj, M)
        for i in range(4):
            for j in range(4):
                assert prod[i][j] == (det if i == j else M.ring.zero())

    def test_defining_identity_polynomial_6x6(self):
        # 5x5 cofactors of a polynomial matrix take the shared expansion memo.
        rng = random.Random(23)
        ring = PolyRing(("x", "y"), field=F32003)
        M = PolyMatrix("ordinary", [[random_poly(rng, ring, max_terms=2, max_exp=1) for _ in range(6)] for _ in range(6)])
        det = det_cofactor(M)
        prod = matmul(classical_adjoint(M), M)
        for i in range(6):
            for j in range(6):
                assert prod[i][j] == (det if i == j else ring.zero())

    def test_defining_identity_random_5x5(self, scalar_ring):
        rng = random.Random(17)
        M = scalar_matrix(rng, scalar_ring, 5)
        adj = classical_adjoint(M)
        det = determinant(M)
        prod = matmul(adj, M)
        for i in range(5):
            for j in range(5):
                assert prod[i][j] == (det if i == j else scalar_ring.zero())

    def test_defining_identity_random_6x6(self, scalar_ring):
        rng = random.Random(18)
        M = scalar_matrix(rng, scalar_ring, 6)
        det = det_cofactor(M)
        prod = matmul(classical_adjoint(M), M)
        for i in range(6):
            for j in range(6):
                assert prod[i][j] == (det if i == j else scalar_ring.zero())


class TestPfaffian:
    def test_2x2_base_case(self):
        ring = PolyRing(("a",))
        a = ring.var("a")
        M = PolyMatrix("alternating", [[ring.zero(), a], [-a, ring.zero()]])
        assert pfaffian(M) == a

    def test_empty_matrix(self, qq_xy):
        M = PolyMatrix("alternating", (), ring=qq_xy)
        assert pfaffian(M) == qq_xy.one()

    def test_generic_4x4_expansion(self):
        M = generic_matrix(4, 4, "alternating")
        ring = M.ring
        expected = parse_poly("x1_2*x3_4 - x1_3*x2_4 + x1_4*x2_3", ring)
        assert pfaffian(M) == expected

    def test_square_is_determinant(self):
        rng = random.Random(5)
        ring = PolyRing((), field=F32003)
        for n in (2, 4, 6, 8):
            for _ in range(5):
                M = scalar_matrix(rng, ring, n, MatrixKind.ALTERNATING)
                pf = pfaffian(M)
                assert pf * pf == determinant(M)

    def test_odd_size_rejected(self):
        M = generic_matrix(5, 5, "alternating")
        with pytest.raises(DomainError):
            pfaffian(M)

    def test_wrong_kind_rejected(self):
        M = generic_matrix(4, 4, "ordinary")
        with pytest.raises(KindShapeError):
            pfaffian(M)


class TestPfaffianAdjoint:
    def test_2x2_constant_entries(self):
        ring = PolyRing(("a",))
        a = ring.var("a")
        M = PolyMatrix("alternating", [[ring.zero(), a], [-a, ring.zero()]])
        adj = pfaffian_adjoint(M)
        # forced by pfadj(M)*M = Pf(M)*I
        prod = matmul(adj, M)
        assert prod[0][0] == a and prod[1][1] == a
        assert adj.entry(0, 1).degree() == 0 and adj.entry(1, 0).degree() == 0
        assert adj.entry(0, 0).is_zero

    def test_defining_identity_generic_4x4(self):
        M = generic_matrix(4, 4, "alternating")
        adj = pfaffian_adjoint(M)
        pf = pfaffian(M)
        prod = matmul(adj, M)
        for i in range(4):
            for j in range(4):
                assert prod[i][j] == (pf if i == j else M.ring.zero())

    def test_defining_identity_random_6x6(self):
        rng = random.Random(23)
        ring = PolyRing((), field=F32003)
        M = scalar_matrix(rng, ring, 6, MatrixKind.ALTERNATING)
        adj = pfaffian_adjoint(M)
        pf = pfaffian(M)
        prod = matmul(adj, M)
        for i in range(6):
            for j in range(6):
                assert prod[i][j] == (pf if i == j else ring.zero())

    def test_result_is_alternating(self):
        M = generic_matrix(6, 6, "alternating")
        assert pfaffian_adjoint(M).kind is MatrixKind.ALTERNATING


class TestEnumeration:
    def test_minor_counts(self):
        assert len(enumerate_minors(generic_matrix(2, 3, "ordinary"), 2)) == 3
        assert len(enumerate_minors(generic_matrix(3, 3, "ordinary"), 2)) == 9

    def test_t1_gives_entries(self):
        M = generic_matrix(2, 3, "ordinary")
        minors = enumerate_minors(M, 1)
        assert minors == [M.entry(i, j) for i in range(2) for j in range(3)]

    def test_selector_order_lexicographic(self):
        M = generic_matrix(3, 3, "ordinary")
        minors = enumerate_minors(M, 2)
        expected = []
        for rows in combinations(range(3), 2):
            for cols in combinations(range(3), 2):
                expected.append(determinant(M.submatrix(rows, cols)))
        assert minors == expected

    def test_symmetric_matrix_skips_transposed_selectors(self):
        M = generic_matrix(4, 4, "symmetric")
        minors = enumerate_minors(M, 3)
        expected = []
        for rows in combinations(range(4), 3):
            for cols in combinations(range(4), 3):
                if rows <= cols:
                    expected.append(determinant(M.submatrix(rows, cols)))
        assert minors == expected
        assert len(minors) == len(set(minors)) == 10
        skipped = {determinant(M.submatrix(c, r)) for r in combinations(range(4), 3) for c in combinations(range(4), 3)}
        assert skipped == set(minors)

    @pytest.mark.parametrize("kind", ["generic symmetric", "dense linear"])
    def test_5x5_and_6x6_minors_match_cofactor_expansion(self, kind):
        # Memoized Laplace expansion against the plain one: a generic
        # symmetric 6x6 matrix over GF(32003), and a 6x6 matrix of dense
        # linear forms in three variables over QQ.
        if kind == "generic symmetric":
            M = generic_matrix(6, 6, "symmetric", field=F32003)
        else:
            rng = random.Random(66)
            ring = PolyRing(("a", "b", "c"))
            rows = [[sum(((rng.randint(-9, 9) or 1) * v for v in ring.gens()), ring.zero()) for _ in range(6)] for _ in range(6)]
            M = PolyMatrix("ordinary", rows)
        symmetric = M.kind is MatrixKind.SYMMETRIC
        selectors = [(r, c) for r, c in minor_selectors(6, 6, 5) if r <= c or not symmetric]
        minors = enumerate_minors(M, 5)
        assert len(minors) == len(selectors)
        for (rows, cols), minor in zip(selectors, minors):
            assert minor == det_cofactor(M.submatrix(rows, cols))
        assert enumerate_minors(M, 6) == [det_cofactor(M)]

    def test_pfaffian_counts(self):
        assert len(enumerate_pfaffians(generic_matrix(6, 6, "alternating"), 4)) == comb(6, 4)
        assert len(enumerate_pfaffians(generic_matrix(4, 4, "alternating"), 4)) == 1
        assert len(enumerate_pfaffians(generic_matrix(5, 5, "alternating"), 4)) == 5

    def test_pfaffian_enumeration_errors(self):
        M = generic_matrix(6, 6, "alternating")
        with pytest.raises(DomainError):
            enumerate_pfaffians(M, 3)
        with pytest.raises(DomainError):
            enumerate_pfaffians(M, 8)
        with pytest.raises(KindShapeError):
            enumerate_pfaffians(generic_matrix(4, 4, "ordinary"), 4)

    def test_minor_range_errors(self):
        M = generic_matrix(2, 3, "ordinary")
        with pytest.raises(DomainError):
            enumerate_minors(M, 0)
        with pytest.raises(DomainError):
            enumerate_minors(M, 3)


def pf_laplace(M, idx):
    """The Pfaffian on the index tuple by the plain first-row Laplace
    expansion on `Polynomial`s, with no memo: the reference."""
    if not idx:
        return M.ring.one()
    total = M.ring.zero()
    for pos, other in enumerate(idx[1:]):
        term = M.entry(idx[0], other) * pf_laplace(M, idx[1:pos + 1] + idx[pos + 2 :])
        total = total - term if pos % 2 else total + term
    return total


def random_matrix(rng, ring, kind, n, m=None, max_exp=2, kept=0):
    """A kind-valid matrix of sparse random polynomials (some zero) of
    degree up to `max_exp` in each variable.  With `kept`, each free entry
    also gets a term in the first `kept` variables alone."""
    m = n if m is None else m

    def entry():
        p = random_poly(rng, ring, max_terms=2, max_exp=max_exp)
        if kept:
            p = p + ring.term(random_coeff(rng, ring.field), tuple(rng.randint(0, max_exp) if i < kept else 0 for i in range(ring.nvars)))
        return p

    upper = {(i, j): entry() for i in range(m) for j in range(n)}
    if kind == "ordinary":
        rows = [[upper[i, j] for j in range(n)] for i in range(m)]
    elif kind == "symmetric":
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    else:
        zero = ring.zero()
        rows = [[upper[i, j] if i < j else (-upper[j, i] if i > j else zero) for j in range(n)] for i in range(n)]
    return PolyMatrix(kind, rows, ring=ring)


class TestPackedExpansion:
    """The memoized expansion on packed monomials against the plain
    expansions on `Polynomial`s: `det_cofactor` and `pf_laplace`."""

    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    def test_minors_determinant_and_adjoint_match_the_cofactor_expansion(self, any_field, order):
        rng = random.Random(f"packed-minors:{any_field}:{order.value}")
        ring = PolyRing(("x", "y", "z"), field=any_field, order=order)
        for kind, m, n in (("ordinary", 3, 5), ("symmetric", 4, 4), ("ordinary", 4, 4)):
            M = random_matrix(rng, ring, kind, n, m)
            assert max(e.degree() or 0 for row in M.rows for e in row) >= 2
            symmetric = kind == "symmetric"
            for t in range(1, min(m, n) + 1):
                selectors = [(r, c) for r, c in minor_selectors(m, n, t) if r <= c or not symmetric]
                expected = [det_cofactor(M.submatrix(r, c)) for r, c in selectors]
                assert enumerate_minors(M, t) == expected, (kind, t)
            if m == n:
                assert determinant(M) == det_cofactor(M)
                adj = classical_adjoint(M)
                for i in range(n):
                    for j in range(n):
                        rest = [k for k in range(n) if k != j], [k for k in range(n) if k != i]
                        cof = det_cofactor(M.submatrix(*rest))
                        assert adj.entry(i, j) == (-cof if (i + j) % 2 else cof)

    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    def test_pfaffians_and_adjoint_match_the_laplace_expansion(self, any_field, order):
        rng = random.Random(f"packed-pfaffians:{any_field}:{order.value}")
        ring = PolyRing(("x", "y", "z"), field=any_field, order=order)
        M = random_matrix(rng, ring, "alternating", 6)
        assert max(e.degree() or 0 for row in M.rows for e in row) >= 2
        for two_t in (2, 4, 6):
            expected = [pf_laplace(M, idx) for idx in combinations(range(6), two_t)]
            assert enumerate_pfaffians(M, two_t) == expected
        assert pfaffian(M) == pf_laplace(M, tuple(range(6)))
        adj = pfaffian_adjoint(M)
        for i in range(6):
            for j in range(i + 1, 6):
                pf = pf_laplace(M, tuple(k for k in range(6) if k not in (i, j)))
                assert adj.entry(i, j) == (pf if (i + j) % 2 == 0 else -pf)
                assert adj.entry(j, i) == -adj.entry(i, j)

    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    def test_the_cut_matrix_expands_to_the_cut_minors_and_pfaffians(self, any_field, order):
        # Setting variables to zero is a ring homomorphism, so it commutes
        # with determinants and Pfaffians: the section, expanded from the cut
        # packed entries, is the full expansion cut term for term, and the
        # expansion of the cut matrix built anew.  A cut that zeroes a
        # nonzero entry gives no section.
        rng = random.Random(f"cut:{any_field}:{order.value}")
        ring = PolyRing(("x", "y", "z"), field=any_field, order=order)
        outcomes = []
        for trial in range(18):
            kind, m, n = (("ordinary", 3, 4), ("symmetric", 4, 4), ("alternating", 4, 4))[trial % 3]
            first = rng.randint(1, 2)
            M = random_matrix(rng, ring, kind, n, m, kept=first if trial % 2 else 0)

            def cut(p):
                return Polynomial(ring, {e: c for e, c in p.terms.items() if not any(e[first:])})

            cut_M = PolyMatrix(kind, [[cut(e) for e in row] for row in M.rows], ring=ring)
            zeroes = any(not e.is_zero and cut(e).is_zero for row in M.rows for e in row)
            families = [(minor_generators(M, t), enumerate_minors(cut_M, t)) for t in range(1, min(m, n) + 1)]
            if kind == "alternating":
                families += [(pfaffian_generators(M, two_t), enumerate_pfaffians(cut_M, two_t)) for two_t in (2, 4)]
            for family, expected in families:
                full, cut_family = family.expand(), family.cut(first)
                outcomes.append(cut_family is not None)
                if cut_family is None:
                    assert zeroes
                    continue
                assert not zeroes
                section = cut_family.expand()
                assert section.packing is full.packing
                assert section.polys == list(full.packing.cut(full.polys, first))
                assert section.polynomials() == [cut(p) for p in full.polynomials()] == expected
        assert outcomes.count(True) >= 20 and False in outcomes

    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    def test_exponent_bound_past_8_bits_widens_the_packing(self, order):
        # Exponents up to e = 100 in the entries: the bound t*e = 300 asks
        # for room for 600, and the determinant reaches 199, past the 127 of
        # an 8-bit field.
        ring = PolyRing(("x", "y", "z"), field=F32003, order=order)
        x, y, z = ring.gens()
        rows = [[x**100 + y, y**90 * z, z**3], [x * z**97, y**100, x**2 + z**5], [y**99, x**95 + z, z**100 + 1]]
        M = PolyMatrix("ordinary", rows)
        packed = minor_generators(M, 3).expand()
        assert packed.packing.width > 8 and packed.packing.max_exponent >= 2 * 300
        assert enumerate_minors(M, 3) == [determinant(M)] == [det_cofactor(M)]
        assert max(max(m) for m in determinant(M).terms) == 199
        A = PolyMatrix("alternating", [[ring.zero(), x**120, y], [-(x**120), ring.zero(), z**127], [-y, -(z**127), ring.zero()]])
        assert pfaffian_generators(A, 2).expand().packing.width > 8
        assert enumerate_pfaffians(A, 2) == [x**120, y, z**127]

    def test_time_limit_bounds_a_lone_determinant_and_pfaffian(self):
        with pytest.raises(ComputationTimeout, match="during polynomial arithmetic$"):
            with time_limit(0.0):
                determinant(generic_matrix(8, 8, "ordinary", field=F32003))
        with pytest.raises(ComputationTimeout, match="during polynomial arithmetic$"):
            with time_limit(0.0):
                pfaffian(generic_matrix(8, 8, "alternating", field=F32003))
        with pytest.raises(ComputationTimeout, match="during Pfaffian enumeration$"):
            with time_limit(0.0):
                enumerate_pfaffians(generic_matrix(6, 6, "alternating", field=F32003), 4)


class TestPackingOnce:
    """A matrix packs its entries once (`_packed_entries`), with room for
    min(m, n) times its largest entry exponent, for every expansion of it."""

    def test_lower_ideals_and_their_cut_share_one_packing_and_the_entry_dicts(self):
        rng = random.Random("packing-once")
        ring = PolyRing(("a", "b", "c", "d", "e"), field=F32003)

        def form():
            return sum((rng.randint(1, 9) * v for v in ring.gens()[: rng.randint(2, 5)]), ring.zero())

        M = PolyMatrix("ordinary", [[form() for _ in range(4)] for _ in range(3)])
        packed, entries = _packed_entries(M)
        families = [minor_generators(M, t) for t in (1, 2, 3)]
        for family in families:
            assert family.packed is packed and family._entries is entries
        section = families[2].cut(3)
        assert section is not None and section.packed.packing is packed.packing
        assert families[2].expand().packing is packed.packing
        before = [[dict(e) for e in row] for row in entries]
        terms = [[dict(e.terms) for e in row] for row in M.rows]
        requests = [Request("height"), Request("gs", s=inf), Request("specialize"), Request("classify")]
        report = _run_analyses(M, 3, requests)
        assert [s["analysis"] for s in report["analyses"]] == ["height", "gs", "specialize", "classify"]
        assert _packed_entries(M)[1] is entries and entries == before
        assert [[dict(e.terms) for e in row] for row in M.rows] == terms

    def test_a_square_matrix_packs_once_for_its_determinant_pfaffian_and_adjoints(self):
        M = generic_matrix(4, 4, "alternating", field=F32003)
        packed = _packed_entries(M)
        pfaffian(M), pfaffian_adjoint(M), determinant(M), classical_adjoint(M)
        assert pfaffian_generators(M, 2).packed is packed[0] and minor_generators(M, 3)._entries is packed[1]
        assert _packed_entries(M) is packed and packed[0].packing.width == 8

    def test_min_side_times_the_entry_exponent_past_63_packs_wider(self):
        # Entries x_ij^25 of a 3x3 matrix: min(m, n)*e = 75 asks for room for
        # 150, past the 127 of an 8-bit field.  Raising each variable to a
        # power is a finite flat ring map, so the heights are the generic
        # ones, 9, 4 and 1, as in the linear matrix.
        generic = generic_matrix(3, 3, "ordinary", field=F32003)
        powered = PolyMatrix("ordinary", [[e**25 for e in row] for row in generic.rows])
        assert _packed_entries(powered)[0].packing.width > 8 and _packed_entries(generic)[0].packing.width == 8
        heights = [ideal_of_minors(M, t).height() for M in (powered, generic) for t in (1, 2, 3)]
        assert heights == [9, 4, 1] * 2
        assert enumerate_minors(powered, 3) == [det_cofactor(powered)]
