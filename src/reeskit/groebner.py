"""Buchberger's algorithm, normal forms, dimension, and ideal height.

The basis computation is plain Buchberger with the two standard pair
eliminations (coprime leading terms, chain criterion) and sugar-degree pair
selection, followed by inter-reduction, so every returned basis is the
unique reduced Groebner basis of its ideal: no leading term divides
another, every tail is fully reduced, and every element is monic.

Inside this module a monomial is a Python int (`MonomialPacking`), and a
polynomial is a dict from those ints to coefficients.  `Polynomial` is the
interface: inputs are packed once on entry and results unpacked once on
exit.  Each variable gets a field of w bits, whose top bit is a guard bit
and whose other bits hold an exponent of at most C = 2^(w-1) - 1:

* lex: field i holds e_i, the first variable in the most significant field.
* grevlex: field i holds C - e_i, the last variable in the most significant
  field, and the total degree sits above all fields.

Integer order is the monomial order.  The fields never exceed C, so an int
is a mixed-radix number whose digits, most significant first, are
(e_0, ..., e_{n-1}) under lex and (deg, -e_{n-1} + C, ..., -e_0 + C) under
grevlex; ints compare digit by digit, which is `MonomialOrder.key`.

Arithmetic.  Let K be the int with C in every field under grevlex, 0 under
lex.  Then a product is P(ab) = P(a) + P(b) - K and a quotient is
P(a/b) = P(a) - P(b) + K.  In a quotient each field of P(a) + K - P(b) is
a_i - b_i (lex) or C + b_i - a_i (grevlex).  When b divides a, every field
lies in [0, C]: nothing borrows and every guard bit is clear.  When b_i > a_i
somewhere, take the least significant such field.  The fields below it are
in range and lend nothing, so it holds a value in [-C, -1] (lex) or
[C + 1, 2C] (grevlex) in w bits, and its guard bit is set; negative ints
behave alike, since `&` reads them in two's complement.  So one subtraction
and a guard mask decide divisibility exactly, and the subtraction is the
quotient.  A product is read the same way: a field sums to a_i + b_i
(lex) or C - a_i - b_i (grevlex), and the least significant one above C
sets its guard bit, so an exponent past the width raises PackingOverflow
instead of wrapping.  The entry points then retry with twice the width.

Reduction keeps the pending terms in a max-heap of negated ints with lazy
deletion: a term that cancels leaves its heap entry behind, and an entry
whose term is gone is skipped.  It takes the greatest term, as a scan for
the maximum would, and subtracts a multiple of the first basis element
whose leading term divides it.  Pairs are taken by (sugar, lcm, i, j), the
lcm compared as an int, which is its order.  The coprime test compares
degrees (deg lcm = deg a + deg b exactly when the supports are disjoint),
and the chain criterion uses the same exact divisibility test.  So the
S-pairs reduced, and every reduction step, are those of the same algorithm
on exponent tuples.

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
raises ComputationTimeout naming the stage it stopped in.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import ComputationTimeout, DomainError, GenericHeightError, KindShapeError, RingMismatchError
from .matrixalg import MatrixKind, PolyMatrix, enumerate_minors, enumerate_pfaffians
from .poly import (
    FieldSpec,
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mon_div,
    mon_lcm,
)

_deadline: ContextVar[float | None] = ContextVar("reeskit_deadline", default=None)

# Reductions read the clock once per this many terms taken.
_DEADLINE_EVERY_STEPS = 256


@contextmanager
def time_limit(seconds: float):
    """Bound Groebner work inside the block; expiry raises ComputationTimeout."""
    token = _deadline.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def _check_deadline(stage: str):
    limit = _deadline.get()
    if limit is not None and time.monotonic() > limit:
        raise ComputationTimeout(f"Groebner computation exceeded the time limit during {stage}")


def _reringed(gens: Sequence[Polynomial], order: MonomialOrder | None) -> tuple[list[Polynomial], PolyRing]:
    if not gens:
        raise DomainError("need at least one generator to infer the ring; use IdealHandle for the zero ideal")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
    if order is not None and order != ring.order:
        ring = PolyRing(ring.variables, field=ring.field, order=order)
        gens = [Polynomial(ring, g.terms) for g in gens]
    return list(gens), ring


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial; leading terms cancel by construction."""
    if f.ring != g.ring:
        raise RingMismatchError("S-polynomial operands in different rings")
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = mon_lcm(fm, gm)
    ring, div = f.ring, f.ring.field.ops.div
    return ring.term(div(1, fc), mon_div(lcm, fm)) * f - ring.term(div(1, gc), mon_div(lcm, gm)) * g


# -- packed monomials ---------------------------------------------------------


class PackingOverflow(DomainError):
    """An exponent does not fit the field width of a MonomialPacking."""


class MonomialPacking:
    """Exponent tuples of one ring packed into ints ordered like the monomials.

    The layout, and why the product, the quotient and the divisibility test
    are exact, are in the module docstring.
    """

    __slots__ = ("nvars", "order", "width", "max_exponent", "offset", "guard", "_shifts", "_top", "_field")

    def __init__(self, nvars: int, order: MonomialOrder, width: int):
        if width < 2:
            raise DomainError(f"a packed field needs a guard bit and an exponent bit, got width {width}")
        grevlex = order is MonomialOrder.GREVLEX
        self.nvars = nvars
        self.order = order
        self.width = width
        self.max_exponent = cap = (1 << (width - 1)) - 1
        self._field = (1 << width) - 1
        self._shifts = tuple(width * (i if grevlex else nvars - 1 - i) for i in range(nvars))
        self._top = width * nvars if grevlex else None
        self.offset = sum(cap << s for s in self._shifts) if grevlex else 0
        self.guard = sum(1 << (s + width - 1) for s in self._shifts)

    @classmethod
    def fitting(cls, ring: PolyRing, polys: Iterable[Polynomial]) -> "MonomialPacking":
        """A packing of the ring's order with room for twice the largest
        exponent in the polynomials, and at least 7 exponent bits."""
        top = max((max(m, default=0) for p in polys for m in p.terms), default=0)
        return cls(ring.nvars, ring.order, max(8, (2 * top).bit_length() + 1))

    def widened(self) -> "MonomialPacking":
        return MonomialPacking(self.nvars, self.order, 2 * self.width)

    def pack(self, m: Monomial) -> int:
        if max(m, default=0) > self.max_exponent:
            raise PackingOverflow(f"exponent {max(m)} exceeds the packed maximum {self.max_exponent}")
        x = sum(e << s for e, s in zip(m, self._shifts))
        if self._top is None:
            return x
        return (sum(m) << self._top) + self.offset - x

    def unpack(self, x: int) -> Monomial:
        field = self._field
        if self._top is None:
            return tuple((x >> s) & field for s in self._shifts)
        cap = self.max_exponent
        return tuple(cap - ((x >> s) & field) for s in self._shifts)

    def degree(self, x: int) -> int:
        return x >> self._top if self._top is not None else sum(self.unpack(x))

    def mul(self, a: int, b: int) -> int:
        """The packed product; raises PackingOverflow past the width."""
        r = a + b - self.offset
        if r & self.guard:
            raise PackingOverflow(f"a product exponent exceeds the packed maximum {self.max_exponent}")
        return r

    def div(self, a: int, b: int) -> int | None:
        """The packed quotient a / b, or None when b does not divide a."""
        r = a - b + self.offset
        return None if r & self.guard else r


class _Rationals:
    """Stands in for the modulus over QQ, where `x % _RATIONALS` is x."""

    def __rmod__(self, x):
        return x


_RATIONALS = _Rationals()


def _modulus(field: FieldSpec):
    return _RATIONALS if field.p is None else field.p


def _packed_run(ring: PolyRing, polys: Sequence[Polynomial], compute: Callable):
    """(packing, compute(packing)), doubling the width on each overflow."""
    packing = MonomialPacking.fitting(ring, polys)
    while True:
        try:
            return packing, compute(packing)
        except PackingOverflow:
            packing = packing.widened()


def _pack(packing: MonomialPacking, p: Polynomial) -> dict:
    return {packing.pack(m): c for m, c in p.terms.items()}


def _unpack(ring: PolyRing, packing: MonomialPacking, poly: dict) -> Polynomial:
    return Polynomial(ring, {packing.unpack(m): c for m, c in poly.items()}, _clean=True)


def _monic(poly: dict, field: FieldSpec) -> dict:
    lc = poly[max(poly)]
    if lc == 1:
        return poly
    inv = field.ops.div(1, lc)
    modulus = _modulus(field)
    return {m: c * inv % modulus for m, c in poly.items()}


def _reducer(poly: dict, packing: MonomialPacking) -> tuple:
    """A monic packed polynomial as `_reduce` reads it, the one form in
    which a basis is kept: (P(lm) - K, P(hull), [P(t) - K for the tail terms
    t], [their coefficients]), the tail in descending order.

    For a term m, q = m - (P(lm) - K) is the quotient m / lm, and
    q + (P(t) - K) is the product q*t.  The hull takes the largest exponent
    of each variable over the terms, so q times the hull bounds every such
    product."""
    terms = sorted(poly, reverse=True)
    exponents = [packing.unpack(m) for m in terms]
    hull = packing.pack(tuple(map(max, *exponents)) if len(exponents) > 1 else exponents[0])
    k = packing.offset
    return terms[0] - k, hull, [m - k for m in terms[1:]], [poly[m] for m in terms[1:]]


def _polynomial(reducer: tuple, packing: MonomialPacking, one) -> dict:
    """The packed polynomial a `_reducer` stands for; `one` is the field's 1."""
    lmk, _, monos, coeffs = reducer
    k = packing.offset
    poly = {lmk + k: one}
    poly.update(zip([m + k for m in monos], coeffs))
    return poly


def _reduce(work: dict, reducers: list[tuple], packing: MonomialPacking, modulus, stage: str) -> dict:
    """Full reduction of `work` (packed monomial -> coefficient; consumed)
    by monic `_reducer`s; the remainder comes out in descending order.

    The loop takes the greatest pending term and subtracts the multiple of
    the first reducer whose leading term divides it, or moves it to the
    remainder when none does.
    """
    guard = packing.guard
    heap = [-m for m in work]
    heapify(heap)
    remainder: dict = {}
    steps = 0
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:  # cancelled, or a second entry of a term already taken
            continue
        steps += 1
        if steps % _DEADLINE_EVERY_STEPS == 0:
            _check_deadline(stage)
        for lmk, hull, monos, coeffs in reducers:
            q = m - lmk
            if q & guard:
                continue
            packing.mul(q, hull)
            f = -c
            for tk, tc in zip(monos, coeffs):
                mm = q + tk
                v = work.get(mm)
                if v is None:
                    work[mm] = f * tc % modulus
                    heappush(heap, -mm)
                else:
                    v = (v + f * tc) % modulus
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
            break
        else:
            remainder[m] = c
    return remainder


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p on division by the basis; no term of the result is
    divisible by any basis leading term, and p minus the result lies in the
    ideal the basis generates."""
    for g in basis:
        if g.ring != p.ring:
            raise RingMismatchError("basis element in a different ring")
    basis = [g for g in basis if not g.is_zero]
    field = p.ring.field

    def compute(packing: MonomialPacking) -> dict:
        reducers = [_reducer(_monic(_pack(packing, g), field), packing) for g in basis]
        return _reduce(_pack(packing, p), reducers, packing, _modulus(field), "normal form reduction")

    packing, remainder = _packed_run(p.ring, [p, *basis], compute)
    return _unpack(p.ring, packing, remainder)


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
    if any(g.degree() == 0 for g in gens):
        return (ring.one(),)
    packing, basis = _packed_run(ring, gens, lambda packing: _buchberger(gens, ring.field, packing))
    if basis is None:
        return (ring.one(),)
    return tuple(_unpack(ring, packing, g) for g in basis)


def _buchberger(gens: list[Polynomial], field: FieldSpec, packing: MonomialPacking) -> list[dict] | None:
    """The packed reduced basis, descending by leading monomial; None for
    the unit ideal."""
    modulus = _modulus(field)
    guard = packing.guard
    stage = "Buchberger reduction"

    reducers: list[tuple] = []
    lms: list[Monomial] = []
    degs: list[int] = []
    sugars: list[int] = []
    # done[j][i]: the pair (i, j), i < j, has left the pair heap.
    done: list[bytearray] = []

    def add_poly(poly: dict, sugar: int):
        reducers.append(_reducer(poly, packing))
        lm = packing.unpack(max(poly))
        lms.append(lm)
        degs.append(sum(lm))
        sugars.append(sugar)

    def degree(poly: dict) -> int:
        return max(map(packing.degree, poly))

    seen: set = set()
    for poly in sorted((_pack(packing, g) for g in gens), key=max):
        poly = _monic(poly, field)
        key = frozenset(poly.items())
        if key not in seen:
            seen.add(key)
            add_poly(poly, degree(poly))

    heap: list = []

    def push_pairs(j: int):
        done.append(bytearray(j))
        for i in range(j):
            lcm = tuple(map(max, lms[i], lms[j]))
            deg = sum(lcm)
            sugar = max(sugars[i] + deg - degs[i], sugars[j] + deg - degs[j])
            heappush(heap, (sugar, packing.pack(lcm), i, j))

    for j in range(len(reducers)):
        push_pairs(j)

    while heap:
        _check_deadline(stage)
        sugar, lcm, i, j = heappop(heap)
        done[j][i] = 1
        # Coprime leading terms: the S-polynomial reduces to zero.
        if packing.degree(lcm) == degs[i] + degs[j]:
            continue
        # Chain criterion: some k divides the lcm and both side pairs are done.
        skip = False
        for k in range(len(reducers)):
            if k == i or k == j:
                continue
            if (lcm - reducers[k][0]) & guard:
                continue
            if done[max(i, k)][min(i, k)] and done[max(j, k)][min(j, k)]:
                skip = True
                break
        if skip:
            continue
        h = _reduce(_spair(lcm, reducers[i], reducers[j], packing, modulus), reducers, packing, modulus, stage)
        if not h:
            continue
        h_degree = degree(h)
        if h_degree == 0:
            return None
        add_poly(_monic(h, field), max(sugar, h_degree))
        push_pairs(len(reducers) - 1)

    return _inter_reduce(reducers, field, packing)


def _spair(lcm: int, a: tuple, b: tuple, packing: MonomialPacking, modulus) -> dict:
    """The S-polynomial of two monic reducers with the given packed lcm: the
    tails of lcm/lm_a * a minus lcm/lm_b * b (the leading terms cancel)."""
    qa, qb = lcm - a[0], lcm - b[0]
    packing.mul(qa, a[1])
    packing.mul(qb, b[1])
    work = {qa + tk: c for tk, c in zip(a[2], a[3])}
    for tk, c in zip(b[2], b[3]):
        m = qb + tk
        v = (work.get(m, 0) - c) % modulus
        if v:
            work[m] = v
        else:
            work.pop(m, None)
    return work


def _inter_reduce(reducers: list[tuple], field: FieldSpec, packing: MonomialPacking) -> list[dict]:
    # Minimalize: scanning by ascending leading monomial keeps exactly the
    # elements whose leading term no kept element divides.  P(lm) - K
    # orders like P(lm), and div(a - K, b - K) is div(a, b).
    kept: list[tuple] = []
    for r in sorted(reducers, key=itemgetter(0)):
        if any(packing.div(r[0], k[0]) is not None for k in kept):
            continue
        kept.append(r)
    # Tail-reduce each element against the others until stable.
    modulus = _modulus(field)
    one = field.coerce(1)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1 :]
            work = _polynomial(kept[idx], packing, one)
            reduced = _monic(_reduce(work, others, packing, modulus, "basis inter-reduction"), field)
            reduced = _reducer(reduced, packing)
            if reduced != kept[idx]:
                kept[idx] = reduced
                changed = True
    kept.sort(key=itemgetter(0), reverse=True)
    return [_polynomial(r, packing, one) for r in kept]


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
            _check_deadline("dimension search")
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
            p = Polynomial(basis[0].ring, p.terms)
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
    ops = ring.field.ops
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
