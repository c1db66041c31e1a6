import random
from itertools import combinations
from math import comb

import pytest

from reeskit.errors import DomainError, KindShapeError
from reeskit.matrixalg import (
    MatrixKind,
    PolyMatrix,
    classical_adjoint,
    det_cofactor,
    determinant,
    enumerate_minors,
    enumerate_pfaffians,
    generic_matrix,
    minor_selectors,
    pfaffian,
    pfaffian_adjoint,
)
from reeskit.poly import FieldSpec, PolyRing, parse_poly

from conftest import random_poly

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
