"""Matrices over a polynomial ring: kinds, determinants, Pfaffians, minors.

A PolyMatrix carries one of three kinds.  Symmetric and alternating matrices
are validated entrywise at construction; the common homogeneous entry degree
(when it exists) is computed once and cached.

Determinants, adjoints and enumerations of minors all take one route: the
expansion along the first row, with a memo over (rows, cols) pairs shared by
the whole computation.  An n x n determinant costs about n*2^(n-1) entry
products that way, whatever the entries.  Pfaffians use the first-row
Laplace expansion with a shared memo over index subsets, and the Pfaffian
adjoint is the alternating matrix whose (i, j) entry, i < j, is
(-1)^(i+j) times the Pfaffian of the matrix with rows and columns i, j
deleted; it satisfies pfadj(M)*M = Pf(M)*I.

Packing happens once, at the matrix.  A PolyMatrix packs its entries into
the int monomials of module `packed` the first time it is expanded
(`_packed_entries`), and every minor and Pfaffian size, `determinant`,
`pfaffian`, the adjoints and the cut matrix read that one packing and
those entry dicts, which nothing writes.  `_Expansion` multiplies the
dicts, a term product being one int sum.  The width comes from a degree
bound, which is also the proof that nothing overflows: a t x t minor or a
2t x 2t Pfaffian is a sum of products of t entries, and t <= min(m, n)
(t = n for a determinant, n - 1 for an adjoint, n/2 for a Pfaffian), so
each exponent of every term formed is at most min(m, n)*e, e the largest
exponent among the entries, and the packing has room for 2*min(m, n)*e.
Cutting terms from the entries lowers no bound, so the minors of a cut
matrix (`MatrixGenerators.cut`) share the packing.  `MatrixGenerators`
hands the packed polynomials to `groebner` as they are, and
`minor_generators(M, t).expand()` expands them all at once; `Polynomial`s
are made only where a public function returns them
(`enumerate_minors`, `enumerate_pfaffians`, `determinant`, `pfaffian`
and the adjoints).  The plain, unmemoized cofactor expansion on
`Polynomial`s, `det_cofactor`, stays public as the independent reference
the tests compare against.

The products read the clock under `minor enumeration` or `Pfaffian
enumeration` when they enumerate, under `polynomial arithmetic` for a lone
determinant, Pfaffian or adjoint: before the first and then once per
`_DEADLINE_EVERY_PRODUCTS` term products, at a term of the left factor.
"""

from __future__ import annotations

from copy import copy
from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

from .deadline import check_deadline
from .errors import DomainError, KindShapeError
from .packed import MonomialPacking, Packed
from .poly import (
    _DEADLINE_EVERY_PRODUCTS,
    ALL_DEGREES,
    FieldSpec,
    MonomialOrder,
    PolyRing,
    Polynomial,
    homogeneous_degree,
)


class MatrixKind(str, Enum):
    ORDINARY = "ordinary"
    SYMMETRIC = "symmetric"
    ALTERNATING = "alternating"


def _as_kind(kind) -> MatrixKind:
    if isinstance(kind, MatrixKind):
        return kind
    try:
        return MatrixKind(kind)
    except ValueError:
        raise KindShapeError(f"unknown matrix kind {kind!r}") from None


class PolyMatrix:
    """Rectangular matrix of polynomials with a declared kind.

    Immutable.  `entry_degree` is the common homogeneous degree of the
    nonzero entries when they have one (zero entries are compatible with
    any degree), otherwise None; it is None for the zero matrix.
    """

    __slots__ = ("kind", "ring", "_rows", "m", "n", "entry_degree", "_packed")

    def __init__(self, kind, entries: Iterable[Iterable[Polynomial]], ring: PolyRing | None = None):
        kind = _as_kind(kind)
        rows = tuple(tuple(row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise KindShapeError("ragged entry grid")
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if not rows:
            if ring is None:
                raise KindShapeError("an empty matrix needs an explicit ring")
        else:
            ring = rows[0][0].ring
            for row in rows:
                for e in row:
                    if not isinstance(e, Polynomial):
                        raise KindShapeError(f"entry {e!r} is not a Polynomial")
                    if e.ring != ring:
                        raise KindShapeError("entries live in different rings")
        if kind in (MatrixKind.SYMMETRIC, MatrixKind.ALTERNATING) and m != n:
            raise KindShapeError(f"{kind.value} matrix must be square, got {m}x{n}")
        if kind is MatrixKind.SYMMETRIC:
            for i in range(m):
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise KindShapeError(f"symmetric violation at ({i + 1},{j + 1})")
        if kind is MatrixKind.ALTERNATING:
            for i in range(m):
                if not rows[i][i].is_zero:
                    raise KindShapeError(f"alternating matrix has nonzero diagonal at ({i + 1},{i + 1})")
                for j in range(i + 1, n):
                    if rows[i][j] != -rows[j][i]:
                        raise KindShapeError(f"alternating violation at ({i + 1},{j + 1})")
        self.kind = kind
        self.ring = ring
        self._rows = rows
        self.m = m
        self.n = n
        self.entry_degree = self._common_degree()
        self._packed = None  # `_packed_entries`, made on first use

    def _common_degree(self) -> int | None:
        finite: set[int] = set()
        for row in self._rows:
            for e in row:
                d = homogeneous_degree(e)
                if d is ALL_DEGREES:
                    continue
                if d is None:
                    return None
                finite.add(d)
        return finite.pop() if len(finite) == 1 else None

    def entry(self, i: int, j: int) -> Polynomial:
        return self._rows[i][j]

    @property
    def rows(self) -> tuple[tuple[Polynomial, ...], ...]:
        return self._rows

    def grid(self) -> list[list[Polynomial]]:
        return [list(row) for row in self._rows]

    def submatrix(self, row_set: Sequence[int], col_set: Sequence[int]) -> "PolyMatrix":
        """Submatrix as an ordinary matrix (indices 0-based, increasing)."""
        sub = [[self._rows[i][j] for j in col_set] for i in row_set]
        return PolyMatrix(MatrixKind.ORDINARY, sub, ring=self.ring)

    def transpose(self) -> "PolyMatrix":
        sub = [[self._rows[i][j] for i in range(self.m)] for j in range(self.n)]
        return PolyMatrix(MatrixKind.ORDINARY, sub, ring=self.ring)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.kind == other.kind and self._rows == other._rows and self.ring == other.ring

    def __hash__(self) -> int:
        return hash((self.kind, self._rows, self.ring))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self._rows)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.kind.value}, {self.m}x{self.n})"


def generic_matrix(
    m: int,
    n: int,
    kind,
    base_vars: Sequence[str] = (),
    *,
    field: FieldSpec = FieldSpec(),
    order: MonomialOrder = MonomialOrder.GREVLEX,
) -> PolyMatrix:
    """Matrix of fresh indeterminates appended to `base_vars`.

    Fresh variable counts: m*n (ordinary), n*(n+1)/2 (symmetric upper
    triangle), n*(n-1)/2 (alternating strict upper triangle).  Entry degree
    is 1.  Fresh names are x{i}_{j}, 1-based.
    """
    kind = _as_kind(kind)
    if m < 1 or n < 1:
        raise KindShapeError(f"matrix dimensions must be positive, got {m}x{n}")
    if kind in (MatrixKind.SYMMETRIC, MatrixKind.ALTERNATING) and m != n:
        raise KindShapeError(f"{kind.value} matrix must be square, got {m}x{n}")

    if kind is MatrixKind.ORDINARY:
        positions = [(i, j) for i in range(m) for j in range(n)]
    elif kind is MatrixKind.SYMMETRIC:
        positions = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]

    fresh = [f"x{i + 1}_{j + 1}" for i, j in positions]
    base = tuple(base_vars)
    clash = set(base) & set(fresh)
    if clash:
        raise DomainError(f"base variables collide with fresh names: {sorted(clash)}")
    ring = PolyRing(base + tuple(fresh), field=field, order=order)

    var = {pos: ring.var(name) for pos, name in zip(positions, fresh)}
    zero = ring.zero()
    if kind is MatrixKind.ORDINARY:
        rows = [[var[(i, j)] for j in range(n)] for i in range(m)]
    elif kind is MatrixKind.SYMMETRIC:
        rows = [[var[(i, j)] if i <= j else var[(j, i)] for j in range(n)] for i in range(n)]
    else:
        rows = [[var[(i, j)] if i < j else (-var[(j, i)] if i > j else zero) for j in range(n)] for i in range(n)]
    return PolyMatrix(kind, rows)


# -- the packed expansion ----------------------------------------------------


def _packed_entries(M: PolyMatrix) -> tuple[Packed, list[list[dict]]]:
    """The packing of every expansion of M, as a `Packed` with no
    polynomials, and M's entries packed into it: made at the first call and
    kept on M, so all its minors, Pfaffians, adjoints and cuts share one
    packing and the same entry dicts, which nothing writes.  It has room for
    twice min(m, n) times the largest entry exponent, so no product is
    guard-tested (the module docstring has the proof).  Packing reads no
    clock; the expansions that follow do.  Threads that race on the first
    call each pack M and the last result is kept; either is exact."""
    if M._packed is None:
        top = max((max(m, default=0) for row in M.rows for e in row for m in e.terms), default=0)
        packing = MonomialPacking.with_room(M.ring, min(M.m, M.n) * top)
        entries = [[{packing.pack(m): c for m, c in e.terms.items()} for e in row] for row in M.rows]
        M._packed = (Packed(M.ring, packing, []), entries)
    return M._packed


class _Expansion:
    """The memoized first-row expansion of one matrix, on packed polynomials.

    The entries are packed into `packed.packing` (`_packed_entries`).
    Minors are memoized by (rows, cols) and Pfaffians by their index tuple,
    across the whole computation.  The products read the clock under
    `stage`.
    """

    __slots__ = ("packed", "_entries", "_memo", "_modulus", "_stage", "_due")

    def __init__(self, packed: Packed, entries: list[list[dict]], stage: str):
        self.packed = packed
        self._entries = entries
        self._memo: dict = {}
        self._modulus = packed.ring.field.modulus
        self._stage = stage
        self._due = 0

    def _add_product(self, total: dict, a: dict, b: dict, negate: bool):
        """total += a*b, or -= when `negate`; in place."""
        mod, k, width = self._modulus, self.packed.packing.offset, len(b)
        for ma, ca in a.items():
            if self._due <= 0:
                check_deadline(self._stage)
                self._due = _DEADLINE_EVERY_PRODUCTS
            self._due -= width
            q = ma - k
            if negate:
                ca = -ca
            for mb, cb in b.items():
                m = q + mb
                s = (total.get(m, 0) + ca * cb) % mod
                if s:
                    total[m] = s
                else:  # a product of nonzero coefficients is nonzero: m was there
                    del total[m]

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        """Determinant on nonempty rows x cols (increasing indices)."""
        if len(rows) == 1:
            return self._entries[rows[0]][cols[0]]
        total = self._memo.get((rows, cols))
        if total is not None:
            return total
        first, rest = self._entries[rows[0]], rows[1:]
        total = {}
        for pos, col in enumerate(cols):
            if first[col]:
                self._add_product(total, first[col], self.minor(rest, cols[:pos] + cols[pos + 1 :]), pos % 2 == 1)
        self._memo[rows, cols] = total
        return total

    def pfaffian(self, idx: tuple[int, ...]) -> dict:
        """Pfaffian of the principal submatrix on idx (increasing, even length)."""
        if not idx:
            return {self.packed.packing.offset: self.packed.ring.field.coerce(1)}
        total = self._memo.get(idx)
        if total is not None:
            return total
        first, rest = self._entries[idx[0]], idx[1:]
        total = {}
        for pos, other in enumerate(rest):
            if first[other]:
                # Expansion along the first row: positions alternate +, -, +, ...
                self._add_product(total, first[other], self.pfaffian(rest[:pos] + rest[pos + 1 :]), pos % 2 == 1)
        self._memo[idx] = total
        return total


# -- determinants ----------------------------------------------------------


def _det_cofactor_grid(grid: list[list[Polynomial]], ring: PolyRing) -> Polynomial:
    n = len(grid)
    if n == 0:
        return ring.one()
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    total = ring.zero()
    rest = grid[1:]
    for j, head in enumerate(grid[0]):
        if head.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        term = head * _det_cofactor_grid(minor, ring)
        total = total - term if j % 2 else total + term
    return total


def det_cofactor(M: PolyMatrix) -> Polynomial:
    """The plain cofactor expansion on `Polynomial`s, with no memo: the
    reference the packed expansion is tested against."""
    if M.m != M.n:
        raise KindShapeError(f"determinant needs a square matrix, got {M.m}x{M.n}")
    return _det_cofactor_grid(M.grid(), M.ring)


_ARITHMETIC = "polynomial arithmetic"


def determinant(M: PolyMatrix) -> Polynomial:
    """Exact determinant by the memoized first-row expansion."""
    if M.m != M.n:
        raise KindShapeError(f"determinant needs a square matrix, got {M.m}x{M.n}")
    if M.n == 0:
        return M.ring.one()
    full = tuple(range(M.n))
    ex = _Expansion(*_packed_entries(M), _ARITHMETIC)
    return ex.packed.polynomial(ex.minor(full, full))


def classical_adjoint(M: PolyMatrix) -> PolyMatrix:
    """adj(M) with adj(M)*M = det(M)*I."""
    if M.m != M.n:
        raise KindShapeError(f"adjoint needs a square matrix, got {M.m}x{M.n}")
    n = M.n
    ring = M.ring
    if n == 0:
        return PolyMatrix(MatrixKind.ORDINARY, (), ring=ring)
    if n == 1:
        return PolyMatrix(MatrixKind.ORDINARY, [[ring.one()]], ring=ring)
    ex = _Expansion(*_packed_entries(M), _ARITHMETIC)
    out = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # adj entry (i, j) is the (j, i) cofactor.
            rows = tuple(r for r in range(n) if r != j)
            cof = ex.packed.polynomial(ex.minor(rows, tuple(c for c in range(n) if c != i)))
            out[i][j] = -cof if (i + j) % 2 else cof
    return PolyMatrix(MatrixKind.ORDINARY, out, ring=ring)


# -- Pfaffians --------------------------------------------------------------


def _require_alternating_even(M: PolyMatrix, op: str):
    if M.kind is not MatrixKind.ALTERNATING:
        raise KindShapeError(f"{op} needs an alternating matrix, got {M.kind.value}")
    if M.n % 2 != 0:
        raise DomainError(f"{op} needs even size, got {M.n}")


def pfaffian(M: PolyMatrix) -> Polynomial:
    """Pf(M) by recursive Laplace expansion; Pf of the empty matrix is 1."""
    _require_alternating_even(M, "pfaffian")
    ex = _Expansion(*_packed_entries(M), _ARITHMETIC)
    return ex.packed.polynomial(ex.pfaffian(tuple(range(M.n))))


def pfaffian_adjoint(M: PolyMatrix) -> PolyMatrix:
    """Alternating pfadj(M) with pfadj(M)*M = Pf(M)*I."""
    _require_alternating_even(M, "pfaffian adjoint")
    n = M.n
    ring = M.ring
    ex = _Expansion(*_packed_entries(M), _ARITHMETIC)
    out = [[ring.zero()] * n for _ in range(n)]
    all_idx = range(n)
    for i in range(n):
        for j in range(i + 1, n):
            sub = tuple(k for k in all_idx if k != i and k != j)
            pf = ex.packed.polynomial(ex.pfaffian(sub))
            # 1-based sign (-1)^(i+j) is (-1)^(i0+j0) with 0-based indices.
            entry = pf if (i + j) % 2 == 0 else -pf
            out[i][j] = entry
            out[j][i] = -entry
    return PolyMatrix(MatrixKind.ALTERNATING, out, ring=ring)


# -- enumeration ------------------------------------------------------------


def minor_selectors(m: int, n: int, t: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (row_set, col_set) pairs, lexicographic, rows outer."""
    return [(r, c) for r in combinations(range(m), t) for c in combinations(range(n), t)]


class MatrixGenerators:
    """The t x t minors, or the 2t x 2t Pfaffians, of one matrix, as packed
    polynomials in selector order, expanded on demand (`expand`) from the
    matrix's packed entries (`_packed_entries`), which every family of the
    matrix shares.

    They carry what the generic model of their ideal is read from: the
    matrix's `kind` and `shape` (m, n), the minor or Pfaffian `size` (t or
    2t), `pfaffians`, and `degree`, the common degree of the entries, or
    None when they have none (`PolyMatrix.entry_degree`).  `generic()`
    gives those of the generic matrix of the same kind and shape, over the
    same field, which `groebner` expands once per process for the count of
    linearly independent generic generators and the Hilbert numerator of
    their leading terms.

    `homogeneous` is True when the entries share one degree: each term of a
    t x t minor or a 2t x 2t Pfaffian is then a product of t entry terms, so
    every polynomial is homogeneous, of t times that degree.

    `cut(first)` gives those of the matrix whose entries have the variables
    from index `first` on set to zero, cut from the packed entries by
    `MonomialPacking.cut`, at the same packing.  Setting variables to zero
    is a ring homomorphism, so it commutes with determinants and Pfaffians:
    each polynomial of the cut matrix is the full one with its cut terms
    dropped.  Each `expand` expands anew, with a memo of its own, so the
    object never changes.
    """

    __slots__ = ("packed", "kind", "shape", "size", "pfaffians", "degree", "_entries", "_selectors")

    def __init__(self, M: PolyMatrix, size: int, selectors: list, pfaffians: bool):
        self.packed, self._entries = _packed_entries(M)
        self.kind = M.kind
        self.shape = (M.m, M.n)
        self.size = size
        self.pfaffians = pfaffians
        self.degree = M.entry_degree
        self._selectors = selectors

    @property
    def homogeneous(self) -> bool:
        return self.degree is not None

    @property
    def selector_count(self) -> int:
        return len(self._selectors)

    def expand(self) -> Packed:
        if self.pfaffians:
            ex = _Expansion(self.packed, self._entries, "Pfaffian enumeration")
            polys = [ex.pfaffian(idx) for idx in self._selectors]
        else:
            ex = _Expansion(self.packed, self._entries, "minor enumeration")
            polys = [ex.minor(r, c) for r, c in self._selectors]
        return self.packed._replace(polys=polys)

    def generic(self) -> "MatrixGenerators":
        """Those of the generic matrix of the same kind and shape, in a ring
        of fresh variables over the same field, under grevlex."""
        M = generic_matrix(*self.shape, self.kind, field=self.packed.ring.field)
        return (pfaffian_generators if self.pfaffians else minor_generators)(M, self.size)

    def cut(self, first: int) -> "MatrixGenerators | None":
        """Those of the matrix cut at `first`, or None when the cut zeroes a
        nonzero entry.  The entries are cut from the last one, which in a
        generic matrix is a cut variable, so there the first entry cut
        settles it."""
        rows = self._entries
        backward = [e for row in reversed(rows) for e in reversed(row)]
        cut = []
        for e, c in zip(backward, self.packed.packing.cut(backward, first)):
            if e and not c:
                return None
            cut.append(c)
        cut.reverse()
        n = len(rows[0])
        section = copy(self)
        section._entries = [cut[i : i + n] for i in range(0, len(cut), n)]
        return section


def minor_generators(M: PolyMatrix, t: int) -> MatrixGenerators:
    """All t x t minors, selector order lexicographic (rows outer).

    Symmetric matrices skip the selectors with rows > cols: that minor is
    the transpose's determinant, equal to the (cols, rows) one.
    """
    if not 1 <= t <= min(M.m, M.n):
        raise DomainError(f"minor size {t} out of range for a {M.m}x{M.n} matrix")
    symmetric = M.kind is MatrixKind.SYMMETRIC
    selectors = [(r, c) for r, c in minor_selectors(M.m, M.n, t) if r <= c or not symmetric]
    return MatrixGenerators(M, t, selectors, pfaffians=False)


def enumerate_minors(M: PolyMatrix, t: int) -> list[Polynomial]:
    """All t x t minors, in the order of `minor_generators`."""
    return minor_generators(M, t).expand().polynomials()


def pfaffian_generators(M: PolyMatrix, two_t: int) -> MatrixGenerators:
    """Pfaffians of all principal two_t x two_t submatrices, lexicographic."""
    if M.kind is not MatrixKind.ALTERNATING:
        raise KindShapeError(f"pfaffian enumeration needs an alternating matrix, got {M.kind.value}")
    if two_t % 2 != 0:
        raise DomainError(f"pfaffian size must be even, got {two_t}")
    if not 2 <= two_t <= M.n:
        raise DomainError(f"pfaffian size {two_t} out of range for a {M.n}x{M.n} matrix")
    return MatrixGenerators(M, two_t, list(combinations(range(M.n), two_t)), pfaffians=True)


def enumerate_pfaffians(M: PolyMatrix, two_t: int) -> list[Polynomial]:
    """Pfaffians of all principal two_t x two_t submatrices, lexicographic."""
    return pfaffian_generators(M, two_t).expand().polynomials()
