"""Buchberger's algorithm, normal forms, dimension, and ideal height.

The basis computation is plain Buchberger with the two standard pair
eliminations (coprime leading terms, chain criterion) and sugar-degree pair
selection, followed by inter-reduction, so every returned basis is the
unique reduced Groebner basis of its ideal: no leading term divides
another, every tail is fully reduced, and every element is monic.

Krull dimension of a quotient by a monomial ideal is the size of the
largest variable subset that contains no generator's support, that is
nvars minus the size of a smallest set of variables hitting every support
(Kredel and Weispfenning, 1988).  The search keeps each support as an int
bitmask, drops supports that contain another, and branches on the
variables of a smallest uncovered support.  It prunes a node when the
variables chosen so far plus a greedy count of pairwise-disjoint uncovered
supports reach the best cover found.  Pairwise-disjoint supports share no
variable, so each needs a cover variable of its own: the count is a lower
bound on what any cover below the node still adds, and the search never
prunes an optimum.  Height of an arbitrary ideal is nvars minus the
dimension of its leading-term ideal, which is valid because passing to the
leading-term ideal is a flat degeneration over a polynomial ring.

An ideal of minors or Pfaffians is generated by those that are linearly
independent, in selector order: the rest lie in their span and add nothing
to the ideal.

Heights are plain ints with `math.inf` reserved for the unit ideal. Long
runs can be bounded with `time_limit`; the deadline is checked in the
Buchberger main loop, in reductions and in the dimension search, and expiry
raises ComputationTimeout.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappop, heappush
from math import comb
from typing import Iterable, Sequence

from .errors import ComputationTimeout, DomainError, GenericHeightError, KindShapeError, RingMismatchError
from .matrixalg import MatrixKind, PolyMatrix, enumerate_minors, enumerate_pfaffians
from .poly import (
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    coefficient_ops,
    mon_div,
    mon_lcm,
    order_key_fn,
)

_deadline: ContextVar[float | None] = ContextVar("reeskit_deadline", default=None)


@contextmanager
def time_limit(seconds: float):
    """Bound Groebner work inside the block; expiry raises ComputationTimeout."""
    token = _deadline.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def _check_deadline():
    limit = _deadline.get()
    if limit is not None and time.monotonic() > limit:
        raise ComputationTimeout("Groebner computation exceeded the time limit")


def _reringed(gens: Sequence[Polynomial], order: MonomialOrder | None) -> tuple[list[Polynomial], PolyRing]:
    if not gens:
        raise DomainError("need at least one generator to infer the ring; use IdealHandle for the zero ideal")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
    if order is not None and order != ring.order:
        ring = PolyRing(ring.variables, field=ring.field, order=order)
        gens = [Polynomial(ring, dict(g.terms)) for g in gens]
    return list(gens), ring


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial; leading terms cancel by construction."""
    if f.ring != g.ring:
        raise RingMismatchError("S-polynomial operands in different rings")
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = mon_lcm(fm, gm)
    uf = mon_div(lcm, fm)
    ug = mon_div(lcm, gm)
    ops = coefficient_ops(f.ring.field)
    one = f.ring.field.coerce(1)
    sf = _shift_scale(f, uf, ops.div(one, fc), ops)
    sg = _shift_scale(g, ug, ops.div(one, gc), ops)
    return sf - sg


def _shift_scale(p: Polynomial, mon: Monomial, coeff, ops) -> Polynomial:
    out = {}
    for m, c in p.terms.items():
        out[tuple(a + b for a, b in zip(m, mon))] = ops.mul(c, coeff)
    return Polynomial(p.ring, out, _clean=True)


def _normal_form_terms(
    start: dict,
    reducers: list[tuple[Monomial, object, dict]],
    ops,
    kf,
) -> dict:
    """Full tail reduction of a term dict against (lm, lc, terms) reducers."""
    work = dict(start)
    remainder: dict = {}
    steps = 0
    while work:
        steps += 1
        if steps % 256 == 0:
            _check_deadline()
        wm = max(work, key=kf)
        wc = work.pop(wm)
        for lm, lc, terms in reducers:
            q = mon_div(wm, lm)
            if q is None:
                continue
            factor = ops.div(wc, lc)
            for m, c in terms.items():
                if m == lm:
                    continue
                mm = tuple(a + b for a, b in zip(q, m))
                s = ops.sub(work.get(mm, 0), ops.mul(factor, c)) if mm in work else ops.neg(ops.mul(factor, c))
                if s == 0:
                    work.pop(mm, None)
                else:
                    work[mm] = s
            break
        else:
            remainder[wm] = wc
    return remainder


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p on division by the basis; no term of the result is
    divisible by any basis leading term, and p minus the result lies in the
    ideal the basis generates."""
    reducers = []
    for g in basis:
        if g.ring != p.ring:
            raise RingMismatchError("basis element in a different ring")
        lt = g.leading_term()
        if lt is not None:
            reducers.append((lt[0], lt[1], dict(g.terms)))
    ops = coefficient_ops(p.ring.field)
    kf = order_key_fn(p.ring.order)
    return Polynomial(p.ring, _normal_form_terms(dict(p.terms), reducers, ops, kf), _clean=True)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic: sugar-degree selection with lcm/index tie-breaks, and the
    reduced basis is unique for (ideal, order) anyway.  Returns generators
    sorted by descending leading monomial.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    gens, ring = _reringed(gens, order)
    ops = coefficient_ops(ring.field)
    kf = order_key_fn(ring.order)

    basis: list[Polynomial] = []
    lms: list[Monomial] = []
    sugars: list[int] = []
    reducers: list[tuple[Monomial, object, dict]] = []

    def add_poly(p: Polynomial, sugar: int):
        p = p.monic()
        basis.append(p)
        lm = p.leading_monomial()
        lms.append(lm)
        sugars.append(sugar)
        reducers.append((lm, p.terms[lm], dict(p.terms)))

    seen: set = set()
    for g in sorted(gens, key=lambda q: kf(q.leading_monomial())):
        if g.degree() == 0:
            return (ring.one(),)
        gm = g.monic()
        key = frozenset(gm.terms.items())
        if key not in seen:
            seen.add(key)
            add_poly(gm, gm.degree())

    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pairs(j: int):
        for i in range(j):
            lcm = mon_lcm(lms[i], lms[j])
            sugar = max(
                sugars[i] + sum(lcm) - sum(lms[i]),
                sugars[j] + sum(lcm) - sum(lms[j]),
            )
            pending.add((i, j))
            heappush(heap, (sugar, kf(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _check_deadline()
        sugar, _, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = mon_lcm(lms[i], lms[j])
        # Coprime leading terms: the S-polynomial reduces to zero.
        if all(a + b == c for a, b, c in zip(lms[i], lms[j], lcm)):
            continue
        # Chain criterion: some k divides the lcm and both side pairs are done.
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mon_div(lcm, lms[k]) is None:
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s = spoly(basis[i], basis[j])
        h_terms = _normal_form_terms(dict(s.terms), reducers, ops, kf)
        if not h_terms:
            continue
        h = Polynomial(ring, h_terms, _clean=True)
        if h.degree() == 0:
            return (ring.one(),)
        add_poly(h, max(sugar, h.degree()))
        push_pairs(len(basis) - 1)

    return _reduce_basis(basis, ring, ops, kf)


def _reduce_basis(basis: list[Polynomial], ring: PolyRing, ops, kf) -> tuple[Polynomial, ...]:
    # Minimalize: scanning by ascending leading monomial keeps exactly the
    # elements whose leading term no kept element divides.
    ordered = sorted(basis, key=lambda g: kf(g.leading_monomial()))
    kept: list[Polynomial] = []
    kept_lms: list[Monomial] = []
    for g in ordered:
        lm = g.leading_monomial()
        if any(mon_div(lm, k) is not None for k in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    # Tail-reduce each element against the others until stable.
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = [(kept_lms[k], kept[k].terms[kept_lms[k]], dict(kept[k].terms)) for k in range(len(kept)) if k != idx]
            reduced = Polynomial(ring, _normal_form_terms(dict(kept[idx].terms), others, ops, kf), _clean=True).monic()
            if reduced != kept[idx]:
                kept[idx] = reduced
                kept_lms[idx] = reduced.leading_monomial()
                changed = True
    kept.sort(key=lambda g: kf(g.leading_monomial()), reverse=True)
    return tuple(kept)


# -- dimension and height ----------------------------------------------------


# The dimension search reads the clock on its first expanded node and once
# per this many expanded nodes after it.
_DEADLINE_EVERY_NODES = 256


def monomial_ideal_dimension(monomials: Iterable[Monomial], nvars: int) -> int:
    """Krull dimension of the quotient by the monomial ideal.

    Equals the size of the largest variable subset S such that no
    generator's support lies inside S; computed as nvars minus a minimum
    hitting set of the supports.  Returns nvars for the zero ideal and -1
    when a generator is constant (zero ring).

    Supports are int bitmasks, bit i for variable i.  Every cover contains
    a variable of each support, so branching on the variables of one
    uncovered support misses no cover; the pruning bound and why it is
    exact are in the module docstring.
    """
    masks: set[int] = set()
    for m in monomials:
        mask = 0
        for i, e in enumerate(m):
            if e > 0:
                mask |= 1 << i
        masks.add(mask)
    if not masks:
        return nvars
    if 0 in masks:
        return -1
    # Drop supersets: hitting a minimal support hits its supersets.  The
    # rest stay in ascending size, so the first uncovered one is smallest.
    minimal: list[int] = []
    for s in sorted(masks, key=lambda s: (s.bit_count(), s)):
        if not any(t & s == t for t in minimal):
            minimal.append(s)

    # All variables hit every support, so nvars bounds the cover size.
    best = nvars
    expanded = 0

    def search(uncovered: list[int], chosen: int):
        nonlocal best, expanded
        disjoint, used = 0, 0
        for s in uncovered:
            if not s & used:
                used |= s
                disjoint += 1
        if chosen + disjoint >= best:
            return
        if not uncovered:
            best = chosen
            return
        if expanded % _DEADLINE_EVERY_NODES == 0:
            _check_deadline()
        expanded += 1
        pivot = uncovered[0]
        while pivot:
            bit = pivot & -pivot
            pivot ^= bit
            search([s for s in uncovered if not s & bit], chosen + 1)

    search(minimal, 0)
    return nvars - best


class IdealHandle:
    """An ideal with lazily cached Groebner data.

    The cache is computed once per handle (idempotent under CPython's GIL);
    values themselves are immutable and safe to share.
    """

    def __init__(
        self,
        generators: Iterable[Polynomial],
        ring: PolyRing | None = None,
        order: MonomialOrder | None = None,
    ):
        gens = tuple(generators)
        if gens:
            ring = gens[0].ring
            for g in gens:
                if g.ring != ring:
                    raise RingMismatchError("generators live in different rings")
        elif ring is None:
            raise DomainError("the zero ideal needs an explicit ring")
        self.generators = gens
        self.ring = ring
        self.order = order if order is not None else ring.order
        self._basis: tuple[Polynomial, ...] | None = None
        self._height = None

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = buchberger(self.generators, self.order) if self.generators else ()
        return self._basis

    def lt_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.groebner_basis())

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].degree() == 0

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def quotient_dimension(self) -> int:
        """dim of R/I; nvars for the zero ideal, -1 for the unit ideal."""
        if self.is_zero():
            return self.ring.nvars
        if self.is_unit():
            return -1
        return monomial_ideal_dimension(self.lt_monomials(), self.ring.nvars)

    def height(self):
        """Extended height: +inf for the unit ideal, 0 for the zero ideal."""
        if self._height is None:
            if self.is_unit():
                self._height = math.inf
            elif self.is_zero():
                self._height = 0
            else:
                self._height = self.ring.nvars - self.quotient_dimension()
        return self._height

    def reduce(self, p: Polynomial) -> Polynomial:
        basis = self.groebner_basis()
        if basis and p.ring != basis[0].ring and p.ring.variables == basis[0].ring.variables:
            # The handle carries an explicit order; move p into that ring.
            p = Polynomial(basis[0].ring, dict(p.terms))
        return normal_form(p, basis)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.generators)} generators over {self.ring})"


def height(I: IdealHandle):
    return I.height()


# -- determinantal and Pfaffian ideals ---------------------------------------


def _independent(polys: Sequence[Polynomial], ring: PolyRing) -> list[Polynomial]:
    """The polynomials outside the span of those before them, in order.

    Exact elimination over the ring's field: each kept polynomial is stored
    as a row keyed by its largest monomial (tuple order; any fixed total
    order on monomials serves), and a later one is dropped when clearing
    those pivots from it leaves zero.  Each step cancels the row's largest
    monomial and adds only smaller ones, so the reduction terminates.
    """
    ops = coefficient_ops(ring.field)
    pivots: dict[Monomial, dict] = {}
    kept = []
    for p in polys:
        row = dict(p.terms)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                kept.append(p)
                break
            factor = ops.div(row[lead], pivot[lead])
            for m, c in pivot.items():
                s = ops.sub(row[m], ops.mul(factor, c)) if m in row else ops.neg(ops.mul(factor, c))
                if s == 0:
                    row.pop(m, None)
                else:
                    row[m] = s
    return kept


def ideal_of_minors(M: PolyMatrix, t: int) -> IdealHandle:
    """I_t(M); the unit ideal for t <= 0 and the zero ideal for t > min(m, n)."""
    if t <= 0:
        return IdealHandle((M.ring.one(),))
    if t > min(M.m, M.n):
        return IdealHandle((), ring=M.ring)
    return IdealHandle(_independent(enumerate_minors(M, t), M.ring), ring=M.ring)


def ideal_of_pfaffians(M: PolyMatrix, two_t: int) -> IdealHandle:
    """Pf_{two_t}(M); the unit ideal for two_t <= 0, zero for two_t > n."""
    if M.kind is not MatrixKind.ALTERNATING:
        raise KindShapeError(f"pfaffian ideal needs an alternating matrix, got {M.kind.value}")
    if two_t <= 0:
        return IdealHandle((M.ring.one(),))
    if two_t % 2 != 0:
        raise DomainError(f"pfaffian size must be even, got {two_t}")
    if two_t > M.n:
        return IdealHandle((), ring=M.ring)
    return IdealHandle(_independent(enumerate_pfaffians(M, two_t), M.ring), ring=M.ring)


def expected_generic_height(kind, m: int, n: int, t: int) -> int:
    """Maximal possible height of I_t (minors) or Pf_t (even t, Pfaffians)."""
    kind = MatrixKind(kind)
    if kind is MatrixKind.ORDINARY:
        if not 1 <= t <= min(m, n):
            raise DomainError(f"minor size {t} out of range for {m}x{n}")
        return (m - t + 1) * (n - t + 1)
    if kind is MatrixKind.SYMMETRIC:
        if not 1 <= t <= n:
            raise DomainError(f"minor size {t} out of range for symmetric {n}x{n}")
        return comb(n - t + 2, 2)
    if t % 2 != 0 or not 2 <= t <= n:
        raise DomainError(f"pfaffian size {t} out of range for alternating {n}x{n}")
    return comb(n - t + 2, 2)


class GenericHeightReport:
    """Outcome of the generic-height test: actual vs the maximal height."""

    __slots__ = ("ok", "actual", "expected", "kind", "t")

    def __init__(self, ok: bool, actual, expected: int, kind: MatrixKind, t: int):
        self.ok = ok
        self.actual = actual
        self.expected = expected
        self.kind = kind
        self.t = t

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"GenericHeightReport(ok={self.ok}, actual={self.actual}, expected={self.expected})"


def is_generic_height(M: PolyMatrix, t: int) -> GenericHeightReport:
    """Does I_t(M) (resp. Pf_t(M)) reach the maximal height?

    For alternating matrices `t` is the even Pfaffian size.
    """
    family = "pfaffians" if M.kind is MatrixKind.ALTERNATING else "minors"
    return LowerIdealCache(M)._generic_report(family, t)


class LowerIdealCache:
    """Per-matrix memo of ideal heights and generator counts.

    Lets one analysis run (G_s check, specialization, bounds, classify)
    share its Groebner work instead of recomputing each lower ideal.  It is
    the one place that maps a level to its ideal (`ideal_at`) and that
    checks the catalog's generic-height precondition (`require_generic`).
    """

    def __init__(self, M: PolyMatrix):
        self.M = M
        self._minor: dict[int, object] = {}
        self._pf: dict[int, object] = {}
        # (family, size) -> number of linearly independent minors or
        # Pfaffians of each ideal built.
        self.generator_counts: dict[tuple[str, int], int] = {}

    @staticmethod
    def ideal_at(kind, t: int) -> tuple[str, int]:
        """(family, size) of the level-t ideal: t x t minors, or 2t x 2t
        Pfaffians of an alternating matrix."""
        return ("pfaffians", 2 * t) if MatrixKind(kind) is MatrixKind.ALTERNATING else ("minors", t)

    def build(self, family: str, size: int) -> IdealHandle:
        """A new handle on the ideal of (family, size); records its count of
        linearly independent generators."""
        ideal = (ideal_of_pfaffians if family == "pfaffians" else ideal_of_minors)(self.M, size)
        self.generator_counts[family, size] = len(ideal.generators)
        return ideal

    def _height(self, family: str, size: int):
        heights = self._pf if family == "pfaffians" else self._minor
        if size not in heights:
            heights[size] = self.build(family, size).height()
        return heights[size]

    def minor_height(self, j: int):
        return self._height("minors", j)

    def pfaffian_height(self, two_j: int):
        return self._height("pfaffians", two_j)

    def lower_height(self, j: int):
        """Height of the level-j ideal."""
        family, size = self.ideal_at(self.M.kind, j)
        return self.pfaffian_height(size) if family == "pfaffians" else self.minor_height(size)

    def _generic_report(self, family: str, size: int) -> GenericHeightReport:
        M = self.M
        expected = expected_generic_height(M.kind, M.m, M.n, size)
        actual = self._height(family, size)
        return GenericHeightReport(actual == expected, actual, expected, M.kind, size)

    def generic_report(self, t: int) -> GenericHeightReport:
        """Generic-height report of the level-t ideal."""
        return self._generic_report(*self.ideal_at(self.M.kind, t))

    def require_generic(self, t: int) -> None:
        report = self.generic_report(t)
        if not report.ok:
            raise GenericHeightError(
                f"the ideal is not of generic height: height {report.actual}, expected {report.expected}"
            )
