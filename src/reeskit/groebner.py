"""Buchberger's algorithm, normal forms, dimension, and ideal height.

The basis computation is plain Buchberger with the two standard pair
eliminations (coprime leading terms, chain criterion) and sugar-degree pair
selection, followed by inter-reduction, so every returned basis is the
unique reduced Groebner basis of its ideal: no leading term divides
another, every tail is fully reduced, and every element is monic.  Only
the height path, which passes a stop test, skips the inter-reduction.

Inside this module a monomial is a Python int and a polynomial a dict
from those ints to coefficients, in the layout of module `packed`, whose
docstring proves that the int order is the monomial order and that one
subtraction and a guard mask decide divisibility.  `_reduce` and `_spair`
test each product they form by the guard rule and raise PackingOverflow,
and the entry points restart with the inputs re-packed at twice the width.
`buchberger` and `normal_form` pack `Polynomial` inputs once on entry and
unpack results once on exit.  An ideal of minors or Pfaffians is packed
once, at the matrix (`matrixalg.MatrixGenerators`), and `IdealHandle`
hands those packed generators to `buchberger` as they are.

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
nvars minus the height: the size of a smallest set of variables hitting
every support.  `_support_height` computes it exactly on the minimal
supports as int bitmasks, by a memoized recursion that adds over sets of
supports with disjoint variables and pivots a connected set on its most
frequent variable (Bayer and Stillman, 1992); its docstring has the proof.
Height of an arbitrary ideal is nvars minus the dimension of its
leading-term ideal, which is valid because passing to the leading-term
ideal is a flat degeneration over a polynomial ring.

Heights stop early at a ceiling.  `IdealHandle.height` of an ideal I with
homogeneous generators of positive degree runs Buchberger with a stop
test: on the generators, and again whenever a new leading monomial adds
a minimal support, it asks whether the leading terms found so far reach
the handle's ceiling c, and ends the run if they do.  The answer is then
exactly c:

* Every element found lies in I, so its leading term lies in in(I), and
  the monomial ideal J of the leading terms so far has ht J <= ht in(I)
  = ht I.
* The generators are homogeneous of positive degree, so I lies in the
  ideal of the variables and is proper, and ht I <= c: every proper ideal
  has height at most nvars, a proper ideal of t x t minors of an m x n
  matrix at most (m-t+1)(n-t+1) (Eagon and Northcott, 1962), of t x t
  minors of a symmetric n x n matrix at most C(n-t+2, 2) (Kutz, 1974),
  and of 2t x 2t Pfaffians of an alternating n x n matrix at most
  C(n-2t+2, 2) (Józefiak and Pragacz, 1979).  These are
  Notation 2.1a-c, `expected_generic_height`, and `ideal_of_minors` and
  `ideal_of_pfaffians` set c = min(that bound, nvars).
* So c <= ht J <= ht I <= c.  When the run completes without reaching c,
  the height comes from the full leading-term ideal as above.

ht J depends only on the minimal supports of the leading monomials, and a
stopped run never drops an element, so the set of leading terms only
grows and ht J with it.  A check made whenever a new leading monomial's
support holds no support seen before is therefore made at every moment
the answer can change: the run stops as soon as its leading terms reach c.

The linear section.  When c < nvars, `height` also tries the linear
section, at the point the route order below gives: the generators with
the last nvars - c variables set to zero, whose echelon rows go through
the same stopped run, in the same ring, with the same ceiling c.  If that
run reaches c, then ht I = c.  Why, by Krull's height theorem: let L be
the ideal of the cut variables and I' the ideal of the section, so that
I + L = I' + L.  The generators of I' involve only the first c
variables, so ht(I' + L) = ht I' + (nvars - c).  Take a minimal prime P
of I with ht P = ht I.  P + L is proper, since it is homogeneous, and a
minimal prime Q of it has ht(Q/P) <= nvars - c, Q/P being minimal over
nvars - c elements of the domain S/P; a polynomial ring is catenary, so
ht Q <= ht I + (nvars - c).  Hence ht I' + (nvars - c) = ht(I + L) <=
ht Q <= ht I + (nvars - c), so ht I' <= ht I, and the run on the section
shows c <= ht I' as above: c <= ht I' <= ht I <= c.  Cutting the last
variables follows the hyperplane sections of Bayer and Stillman (1987):
under grevlex a form either vanishes when its last variable is set to
zero or keeps its leading monomial, since a term of the same degree with
fewer factors of the last variable is greater; cutting the variables one
at a time from the last, so does its section.  The proof needs no order,
so lex takes the same route.  A section that misses c proves nothing,
and the full run goes on.

The section at the matrix.  Evaluation at zero is a ring map, so it
commutes with determinants and Pfaffians: the section of an ideal of
minors or Pfaffians is the ideal of the minors or Pfaffians of the cut
matrix, whose entries are the matrix's with their cut terms dropped, and
each section row is the full minor or Pfaffian of the same selector with
its cut terms dropped (`MatrixGenerators.cut`).  The cut entries have
fewer terms, so the section costs less to expand than the full minors,
and a certified count (see Generators) needs no full minor.

The route order, read from the input alone by the entry rule:

* Section first, when the generators are a matrix's minors or Pfaffians
  whose entries share a degree, c < nvars, the cut zeroes no nonzero
  entry, and the selectors are no more than the generic matrix's linearly
  independent minors or Pfaffians (`_model`): a linear relation among those
  holds in every specialization, so with more selectors the cut matrix's
  rows cannot be one per selector.  The handle expands the cut matrix first.  If its rows are
  nonzero and linearly independent, they certify the count and no full
  minor is made at construction; `height` runs the section on those rows
  and returns c if it reaches c, and otherwise expands the full minors
  and goes on by the generators, later in the run and the full run,
  without trying the section again.  A section whose rows certify nothing
  is dropped, and the order below follows.
* Generators first, otherwise.  The full minors are expanded at
  construction, and `height` tries the generators' ceiling test, then,
  when they miss and c < nvars, the section, cut from the basis the run
  is on (`MonomialPacking.cut`) and put in echelon form, then later in the
  run, then the full run.  The basis is already expanded there, and
  cutting it costs less than expanding the cut matrix anew.  Each cut
  variable of a generic matrix is an entry, and its generators often
  reach c on their own; the rule scans the entries from the last, a cut
  variable there, so a generic matrix pays one mask test for it and
  nothing more.

Both orders are exact, since each route is.

Deferring by the Hilbert function (Traverso, "Hilbert functions and the
Buchberger algorithm", 1996).  Take the t x t minors of an ordinary or
symmetric matrix, or its 2t x 2t Pfaffians when it is alternating, whose
entries are forms of one degree delta >= 1, with ceiling c equal to the
generic bound, and a stopped run whose polynomials live in c variables:
every run on the linear section, and the run on the generators when
c = nvars.  If the ideal I of that run has height c, it is perfect like its
generic model (Hochster and Eagon, 1971; Józefiak and Pragacz, 1979), so
its Hilbert function is HF_D = [T^D] N(T^delta) / (1 - T)^c, N the Hilbert
numerator of the generic ideal (`_hilbert_numerator` on the leading
monomials of the generic generators' echelon rows, `_model`).  Then
in(I)_D has dim S_D - HF_D monomials.  Once the leading monomials found so
far divide that many monomials of degree D (`_DegreeCount`), every
S-polynomial of degree D reduces to zero: its remainder is homogeneous of
degree D, and a nonzero one would have a leading monomial in in(I)_D that
none of them divides.  So the run defers each pair of such a degree.  The
code does not rely on that argument:

* Defer, not drop.  A deferred pair goes to a side list and is not marked
  done, so the chain criterion never counts it.  If the heap empties before
  the stop fires, the side list goes back into the heap and the run goes
  on with no target; it ends only when both are empty.
* A run that stops proves ht = c as above, whatever it deferred: every
  element found lies in I.
* A run that does not stop has then reduced every pair it deferred, so it
  is Buchberger's algorithm with another selection order, and its
  elements are a Groebner basis of the same ideal: the same leading-term
  ideal and the same height as the plain run.

So a wrong target costs time, never a number.  The theorems say why the
target is sharp: when it is, no pair of a complete degree would have added
a leading monomial.  Minors of an alternating matrix get no target, since
their ceiling is the ordinary bound, not their family's.  The numerator is
computed at the first pair that a target is asked about, once per kind,
shape and field in a process, since it can take a large share of a short
run: about 6 ms for the 3x3 minors of a generic 5x5 matrix and 47 ms for
those of a 6x6 one (2-vCPU Xeon, Python 3.11).

The check computes ht J by the same recursion as the dimension search
and compares it with c.  It reads only the supports of the leading
monomials, and reads them from the packed ints: the leading monomial of a
packed polynomial is the `max` of its keys, and its support is the guard
bits of one sum (`MonomialPacking.support`).  So the check on the
generators, made before any pair is formed, builds no exponent tuple.
When it succeeds, the run returns the generators' leading terms, the one
exponent tuple it unpacks per generator.  The minors and Pfaffians of a
matrix whose entries share one degree are homogeneous, since each term is
a product of t entry terms, so `MatrixGenerators.homogeneous` says so and
the handle reads no term for it.  Such an ideal whose generators reach c
costs its enumeration, one `max` per generator to see that the leading
monomials are distinct, one mask per generator, and the recursion, in
either order.  Other generators are checked term by term: under grevlex
a polynomial's greatest and least keys hold its top and bottom degree,
but under lex each term's degree is the sum of its unpacked exponents.
Only a run that goes on forms S-pairs.
Inhomogeneous generators may span the unit ideal, so their run has no
ceiling test and completes.  Every height run skips the inter-reduction
and returns only leading terms, since the leading terms of any Groebner
basis generate in(I).

Generators.  An `IdealHandle` keeps a basis of the span of its
generators, which generates the same ideal.  Polynomials with distinct
leading monomials are one already.  Otherwise `_independent` turns them
into echelon rows, with distinct leading monomials; each leading monomial
of a row is that of an element of I, so the ceiling check may read them,
and they are at least as many as the generators' distinct ones.  The rank
argument saves that elimination, and every full minor, when the section
is expanded from the cut matrix: setting variables to zero is a linear
map, which does not raise rank, so if the section's echelon rows are one
per selector, the full minors are linearly independent and their count is
the number of selectors.  The full minors are then made only where they
are read, by a height the section does not decide and by
`IdealHandle.generators`.  A run that goes on starts from the reduced
echelon basis of its generators' span (`_echelon`, whose rows are monic,
then `_cleared`): each row free of the other rows' leading monomials.
Only that run pays for the clearing.

Heights are plain ints with `math.inf` reserved for the unit ideal. Long
runs can be bounded with `time_limit` (module `deadline`, which lists the
stages that read the clock); expiry raises ComputationTimeout naming the
stage it stopped in and, for an ideal of minors or Pfaffians, the ideal.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import comb
from operator import itemgetter, or_
from typing import Callable, Iterable, Sequence

from .deadline import check_deadline, ideal_named, time_limit  # noqa: F401  (time_limit re-exported)
from .errors import DomainError, GenericHeightError, KindShapeError, RingMismatchError
from .matrixalg import MatrixGenerators, MatrixKind, PolyMatrix, minor_generators, pfaffian_generators
from .matrixalg import enumerate_minors  # noqa: F401  (perfbench's tracer test wraps this binding)
from .packed import PRODUCT_OVERFLOW, MonomialPacking, Packed, PackingOverflow  # noqa: F401  (MonomialPacking re-exported)
from .poly import FieldSpec, Monomial, MonomialOrder, PolyRing, Polynomial, mon_div, mon_lcm

# Reductions read the clock once per this many terms taken.
_DEADLINE_EVERY_STEPS = 256
# The Buchberger set-up reads it once per this many generators, not on the
# first, so a small ideal meets its first clock read in the main loop.
_DEADLINE_EVERY_GENERATORS = 256


def _ring_of(gens: Sequence[Polynomial]) -> PolyRing:
    """The one ring that all of the (at least one) generators live in."""
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
    return ring


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial; leading terms cancel by construction."""
    if f.ring != g.ring:
        raise RingMismatchError("S-polynomial operands in different rings")
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = mon_lcm(fm, gm)
    ring, inverse = f.ring, f.ring.field.inverse
    return ring.term(inverse(fc), mon_div(lcm, fm)) * f - ring.term(inverse(gc), mon_div(lcm, gm)) * g


# -- the packed core -----------------------------------------------------------


def _packed_run(packed: Packed, compute: Callable):
    """(packed, compute(packed)), re-packing at twice the width on each
    overflow."""
    while True:
        try:
            return packed, compute(packed)
        except PackingOverflow:
            packed = packed.widened()


def _monic(poly: dict, field: FieldSpec) -> dict:
    lc = poly[max(poly)]
    if lc == 1:
        return poly
    inv, modulus = field.inverse(lc), field.modulus
    return {m: c * inv % modulus for m, c in poly.items()}


def _reducer(poly: dict, packing: MonomialPacking) -> tuple:
    """A monic packed polynomial as `_reduce` reads it, the one form in
    which a basis is kept: (P(lm) - K, [P(t) - K for the tail terms t],
    [their coefficients]), the tail in descending order.

    For a term m, q = m - (P(lm) - K) is the quotient m / lm, and
    q + (P(t) - K) is the product q*t, an overflow when a guard bit is set."""
    terms = sorted(poly, reverse=True)
    k = packing.offset
    return terms[0] - k, [m - k for m in terms[1:]], [poly[m] for m in terms[1:]]


def _polynomial(reducer: tuple, packing: MonomialPacking, one) -> dict:
    """The packed polynomial a `_reducer` stands for; `one` is the field's 1."""
    lmk, monos, coeffs = reducer
    k = packing.offset
    poly = {lmk + k: one}
    poly.update(zip([m + k for m in monos], coeffs))
    return poly


def _reduce(work: dict, reducers: list[tuple], packing: MonomialPacking, modulus, stage: str) -> dict:
    """Full reduction of `work` (packed monomial -> coefficient; consumed)
    by monic `_reducer`s; the remainder comes out in descending order.

    The loop takes the greatest pending term and subtracts the multiple of
    the first reducer whose leading term divides it, or moves it to the
    remainder when none does.  A product is guard-tested when it becomes a
    pending term; one that meets a pending term equals a guard-clear int.
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
            check_deadline(stage)
        for lmk, monos, coeffs in reducers:
            q = m - lmk
            if q & guard:
                continue
            f = -c
            for tk, tc in zip(monos, coeffs):
                mm = q + tk
                v = work.get(mm)
                if v is None:
                    if mm & guard:
                        raise PackingOverflow(PRODUCT_OVERFLOW)
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

    def compute(packed: Packed) -> dict:
        packing, (work, *gens) = packed.packing, packed.polys
        reducers = [_reducer(_monic(g, field), packing) for g in gens]
        return _reduce(dict(work), reducers, packing, field.modulus, "normal form reduction")

    packed, remainder = _packed_run(Packed.of(p.ring, [p, *basis]), compute)
    return packed.polynomial(remainder)


def buchberger(
    gens: Sequence[Polynomial] | Packed, *, stop: Callable[[list[int]], bool] | None = None
) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal the generators span, for the
    order of their ring.

    The generators are `Polynomial`s, or packed polynomials (`Packed`, as
    an `IdealHandle` holds them), which the run takes as they are.
    Deterministic: sugar-degree selection with lcm/index tie-breaks, and the
    reduced basis is unique for (ideal, order) anyway.  Returns generators
    sorted by descending leading monomial.  The run starts from the reduced
    echelon basis of the generators' span, so repeats and other linearly
    dependent generators drop out there.

    With `stop`, the run skips the inter-reduction and returns only the
    leading terms of the elements it found, made monic, sorted the same
    way: they generate a monomial ideal inside the leading-term ideal, all
    of it when the run completes.  `stop` is called with the supports of
    their leading monomials (bitmasks, one bit per variable, read from the
    packed ints): on the generators, and again whenever a new leading
    monomial, of an echelon row or of an element found, has a support that
    holds none of those seen before.  When it returns True the run ends.
    A stop test that carries a Hilbert target (`_CeilingTest`) has the run
    defer the S-pairs of each degree the target says is complete (module
    docstring).  The unit ideal still gives the basis (1,).
    """
    if not isinstance(gens, Packed):
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            return ()
        gens = Packed.of(_ring_of(gens), gens)
    ring, packing, polys = gens
    polys = [p for p in polys if p]
    if not polys:
        return ()
    leads = []
    for count, p in enumerate(polys, 1):
        if count % _DEADLINE_EVERY_GENERATORS == 0:
            check_deadline("Buchberger set-up")
        leads.append(max(p))
    if packing.offset in leads:  # a constant generator
        return (ring.one(),)
    one = ring.field.coerce(1)

    def leading_terms(lms: Iterable[Monomial]) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(ring, {lm: one}, _clean=True) for lm in lms)

    if stop is not None and stop(list(map(packing.support, leads))):
        return leading_terms(map(packing.unpack, sorted(leads, reverse=True)))
    packed, basis = _packed_run(gens._replace(polys=polys), lambda packed: _buchberger(packed, stop))
    if basis is None:
        return (ring.one(),)
    return tuple(map(packed.polynomial, basis)) if stop is None else leading_terms(basis)


def _buchberger(packed: Packed, stop: Callable | None) -> list | None:
    """The reduced packed basis, descending by leading monomial, or with a
    `stop` test (see `buchberger`, which has already called it on the
    generators) the leading monomials of the elements found, as exponent
    tuples in that order; None for the unit ideal.

    With a Hilbert target, a pair whose degree the target says is complete
    goes to `deferred` and is not marked done; when the heap empties before
    the stop fires, the deferred pairs go back into it and the run goes on
    with no target."""
    field, packing = packed.ring.field, packed.packing
    modulus = field.modulus
    guard = packing.guard
    target = stop.target if isinstance(stop, _CeilingTest) else None
    degrees = None if target is None else _DegreeCount(target, packing)
    deferred: list = []

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

    # The minimal supports of the leading monomials, as `stop` last saw them.
    minimal = [] if stop is None else _minimal_supports(packing.support(max(p)) for p in packed.polys)

    def adds_support(lead: int) -> bool:
        """Does the leading monomial add a minimal support?  Records it."""
        s = packing.support(lead)
        if any(t & s == t for t in minimal):
            return False
        minimal[:] = [t for t in minimal if t & s != s]
        minimal.append(s)
        return True

    def stopped() -> bool:
        return stop([packing.support(r[0] + packing.offset) for r in reducers])

    stage = "Buchberger set-up"
    polys = _cleared(_echelon(packed.polys, field, stage, _DEADLINE_EVERY_GENERATORS), field, stage)
    if max(polys[0]) == packing.offset:  # the span holds a constant
        return None
    for count, poly in enumerate(polys, 1):
        if count % _DEADLINE_EVERY_GENERATORS == 0:
            check_deadline(stage)
        add_poly(poly, degree(poly))
    if stop is not None:
        # Echelon rows can have leading monomials that no generator had.
        grown = [adds_support(max(p)) for p in polys]
        if any(grown) and stopped():
            return _leads(reducers, lms)

    stage = "Buchberger reduction"
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

    while heap or deferred:
        if not heap:
            heap, deferred, degrees = deferred, [], None
            heapify(heap)
        check_deadline(stage)
        sugar, lcm, i, j = heappop(heap)
        if degrees is not None and degrees.complete(sugar, reducers):
            deferred.append((sugar, lcm, i, j))
            continue
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
        h = _monic(h, field)
        add_poly(h, max(sugar, h_degree))
        if stop is not None and adds_support(max(h)) and stopped():
            break
        push_pairs(len(reducers) - 1)

    if stop is None:
        return _inter_reduce(reducers, field, packing)
    return _leads(reducers, lms)


def _leads(reducers: list[tuple], lms: list[Monomial]) -> list[Monomial]:
    """The leading monomials, descending."""
    return [lms[i] for i in sorted(range(len(reducers)), key=lambda i: reducers[i][0], reverse=True)]


def _spair(lcm: int, a: tuple, b: tuple, packing: MonomialPacking, modulus) -> dict:
    """The S-polynomial of two monic reducers with the given packed lcm: the
    tails of lcm/lm_a * a minus lcm/lm_b * b (the leading terms cancel)."""
    guard = packing.guard
    qa, qb = lcm - a[0], lcm - b[0]
    work = {qa + tk: c for tk, c in zip(a[1], a[2])}
    if any(m & guard for m in work):
        raise PackingOverflow(PRODUCT_OVERFLOW)
    for tk, c in zip(b[1], b[2]):
        m = qb + tk
        if m & guard:
            raise PackingOverflow(PRODUCT_OVERFLOW)
        v = (work.get(m, 0) - c) % modulus
        if v:
            work[m] = v
        else:
            work.pop(m, None)
    return work


def _inter_reduce(reducers: list[tuple], field: FieldSpec, packing: MonomialPacking) -> list[dict]:
    """The reduced basis: minimalize, then fully reduce each element against
    the others in one sweep.

    One sweep is enough.  After minimalization no leading monomial divides
    another, and a reduction subtracts multiples of the others only from
    terms their leading monomials divide, so it never changes a leading
    term: the set of leading monomials stays fixed.  A fully reduced element
    then has no term that any of them divides (its own divides none of its
    smaller tail terms), and reducing the others later changes neither it
    nor that set.  So a second sweep would change nothing, and each element
    stays monic.
    """
    # Minimalize: scanning by ascending leading monomial keeps exactly the
    # elements whose leading term no kept element divides.  P(lm) - K
    # orders like P(lm), and div(a - K, b - K) is div(a, b).
    kept: list[tuple] = []
    for r in sorted(reducers, key=itemgetter(0)):
        if any(packing.div(r[0], k[0]) is not None for k in kept):
            continue
        kept.append(r)
    modulus = field.modulus
    one = field.coerce(1)
    for idx in range(len(kept)):
        work = _polynomial(kept[idx], packing, one)
        others = kept[:idx] + kept[idx + 1 :]
        kept[idx] = _reducer(_reduce(work, others, packing, modulus, "basis inter-reduction"), packing)
    kept.sort(key=itemgetter(0), reverse=True)
    return [_polynomial(r, packing, one) for r in kept]


# -- dimension and height ----------------------------------------------------


# The dimension search reads the clock on its first expanded node and once
# per this many expanded nodes after it.
_DEADLINE_EVERY_NODES = 256


def monomial_ideal_dimension(monomials: Iterable[Monomial], nvars: int) -> int:
    """Krull dimension of the quotient by the monomial ideal.

    Equals the size of the largest variable subset containing no
    generator's support: nvars minus the size of a smallest set of
    variables hitting every support (`_support_height`).  Returns nvars for
    the zero ideal and -1 when a generator is constant (zero ring).
    """
    supports = _minimal_supports(map(_support, monomials))
    if supports is None:
        return -1
    return nvars - _support_height(supports, "dimension search")


def _support(m: Monomial) -> int:
    """The variables of m as a bitmask, bit i for variable i."""
    mask = 0
    for i, e in enumerate(m):
        if e > 0:
            mask |= 1 << i
    return mask


def _reaches(supports: Iterable[int], ceiling: int) -> bool:
    """Has the ideal of monomials with these supports (bitmasks, none
    empty) height >= `ceiling`?"""
    stage = "height ceiling check"
    check_deadline(stage)
    return _support_height(_minimal_supports(supports), stage) >= ceiling


def _minimal_supports(supports: Iterable[int]) -> list[int] | None:
    """The supports (bitmasks) that contain no other; None when one is
    empty, the support of a constant."""
    masks = set(supports)
    if 0 in masks:
        return None
    # Drop supersets: hitting a minimal support hits its supersets.  Two
    # distinct supports of one size cannot contain one another, so each is
    # tested only against the kept supports of smaller size, `below`.
    minimal: list[int] = []
    below: list[int] = []
    size = 0
    for s in sorted(masks, key=int.bit_count):
        if s.bit_count() > size:
            size, below = s.bit_count(), minimal[:]
        if not any(t & s == t for t in below):
            minimal.append(s)
    return minimal


def _support_height(supports: list[int], stage: str) -> int:
    """The size of a smallest set of variables hitting every one of the
    minimal, nonempty supports: the height of the squarefree monomial
    ideal they generate.

    Sets of supports sharing no variable add, and a single support has
    height 1.  A connected set of two or more supports pivots on its most
    frequent variable x (Bayer and Stillman's splitting, with min in place
    of the Hilbert numerator):

        ht J = min(1 + ht(supports avoiding x), ht(minimal {s minus x})).

    A smallest cover either contains x, and then the rest of it covers the
    supports that avoid x, or it does not, and then it hits every s minus
    x.  No s minus x is empty: no other minimal support holds the variable
    of a singleton, so a singleton forms a set of its own.  For s, s'
    holding x, s minus x inside s' minus x would put s inside s', so only
    a support avoiding x can stop being minimal.  Both sides drop x, so the
    recursion is at most nvars deep; heights are memoized for one call.
    """
    memo: dict[frozenset, int] = {}
    nodes = 0

    def height(supports: list[int]) -> int:
        nonlocal nodes
        if functools.reduce(or_, supports, 0).bit_count() == sum(map(int.bit_count, supports)):
            return len(supports)  # no two share a variable
        total = 0
        while supports:
            # Grow the connected component of the first support.
            joined, size = supports[0], 0
            while True:
                members = [s for s in supports if s & joined]
                if len(members) == size:
                    break
                size = len(members)
                for s in members:
                    joined |= s
            supports = [s for s in supports if not s & joined]
            if size <= 2:  # one support, or two sharing a variable
                total += 1
                continue
            key = frozenset(members)
            h = memo.get(key)
            if h is None:
                if nodes % _DEADLINE_EVERY_NODES == 0:
                    check_deadline(stage)
                nodes += 1
                counts: dict[int, int] = {}
                for s in members:
                    while s:
                        bit = s & -s
                        s ^= bit
                        counts[bit] = counts.get(bit, 0) + 1
                x = max(counts.items(), key=itemgetter(1))[0]
                avoiding = [s for s in members if not s & x]
                shrunk = [s ^ x for s in members if s & x]
                # The singletons among the s minus x are forced into the
                # cover; drop the supports avoiding x that hold some s minus x.
                wide = [s for s in shrunk if s & (s - 1)]
                single = functools.reduce(or_, [s for s in shrunk if not s & (s - 1)], 0)
                kept = [a for a in avoiding if not a & single and not any(s & a == s for s in wide)]
                # With no support avoiding x, {x} is a cover, and none is smaller.
                h = min(1 + height(avoiding), single.bit_count() + height(wide + kept)) if avoiding else 1
                memo[key] = h
            total += h
        return total

    return height(supports)


def _hilbert_numerator(monomials: Sequence[Monomial], stage: str) -> list[int]:
    """The Hilbert numerator N of the ideal J the monomials generate, as its
    coefficients from T^0: HS(S/J) = N(T)/(1-T)^nvars, and N does not depend
    on nvars.

    Exponents, not supports: a monomial that is not squarefree has an ideal
    of its own.  The monomials are packed under grevlex, where divisibility
    is one subtraction and a guard mask and the degree is the top field
    (module `packed`).  Sets of generators sharing no variable multiply,
    and a single generator of degree d gives 1 - T^d.  A connected set of
    two or more pivots on its most frequent variable x (Bayer and Stillman,
    1992; Bigatti, 1997): the exact sequence 0 -> S/(J : x)(-1) -> S/J ->
    S/(J + (x)) -> 0 gives

        N(J) = N(J + (x)) + T N(J : x) = (1 - T) N(generators avoiding x) + T N(J : x),

    since x is a nonzerodivisor on S over the ideal of the generators
    avoiding x, which with x generate J + (x).  J : x is generated by the
    generators with one factor x taken off those holding it.  Each side
    lowers the exponents of x in the set, so the recursion ends;
    numerators are memoized for one call.  It reads the clock at its first
    split and once per `_DEADLINE_EVERY_NODES` splits after it."""
    if not monomials:
        return [1]
    nvars = len(monomials[0])
    packing = MonomialPacking(nvars, MonomialOrder.GREVLEX, max(8, (2 * max(map(max, monomials))).bit_length() + 1))
    support, offset, guard, top = packing.support, packing.offset, packing.guard, packing.width * nvars
    # For the guard bit of variable i: x_i packed, less the offset, so that a
    # packed monomial minus it is the quotient by x_i.
    unit = {}
    for i in range(nvars):
        x = packing.pack(tuple(int(j == i) for j in range(nvars)))
        unit[support(x)] = x - offset
    memo: dict[frozenset, list[int]] = {}
    nodes = 0

    def minimal(gens: Iterable[int]) -> list[int]:
        kept: list[int] = []
        for g in sorted(set(gens)):  # ascending degree first, so a divisor comes before
            if all((g - k + offset) & guard for k in kept):
                kept.append(g)
        return kept

    def numerator(gens: list[int]) -> list[int]:
        nonlocal nodes
        total = [1]
        while gens:
            # Grow the connected component of the first generator.
            joined, size = support(gens[0]), 0
            while True:
                members = [g for g in gens if support(g) & joined]
                if len(members) == size:
                    break
                size = len(members)
                for g in members:
                    joined |= support(g)
            gens = [g for g in gens if not support(g) & joined]
            if size == 1:
                d = members[0] >> top
                factor = [1] + [0] * (d - 1) + [-1]
            else:
                key = frozenset(members)
                factor = memo.get(key)
                if factor is None:
                    if nodes % _DEADLINE_EVERY_NODES == 0:
                        check_deadline(stage)
                    nodes += 1
                    counts: dict[int, int] = {}
                    for g in members:
                        s = support(g)
                        while s:
                            bit = s & -s
                            s ^= bit
                            counts[bit] = counts.get(bit, 0) + 1
                    x = max(counts.items(), key=itemgetter(1))[0]
                    avoiding = numerator([g for g in members if not support(g) & x])
                    colon = numerator(minimal([g - unit[x] if support(g) & x else g for g in members]))
                    factor = _poly_add(_poly_mul([1, -1], avoiding), [0] + colon)
                    memo[key] = factor
            total = _poly_mul(total, factor)
        return total

    return numerator(minimal(map(packing.pack, monomials)))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials in T, as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    """The sum of two polynomials in T, as coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b + [0] * (len(a) - len(b)))]


# The stage of the Hilbert numerator and of the counts of leading monomials
# per degree that the target is compared with.
_HILBERT = "Hilbert target"


class _Model:
    """The generic matrix's minors or Pfaffians for one kind, shape and
    field (`MatrixGenerators.generic`): `count`, the number of linearly
    independent ones, and, made on first use, the Hilbert numerator of the
    leading monomials of their echelon rows under grevlex.

    Neither depends on the ring's order: the count is a rank, and S/I and
    S/in(I) have one Hilbert function for every order.  The numerator is
    that of I_gen when those leading monomials generate in(I_gen), and
    under grevlex they do for every shape the tests compare with closed
    forms; under lex the generic Pfaffians' do not."""

    __slots__ = ("count", "_leads", "_numerator")

    def __init__(self, leads: list[Monomial]):
        self.count = len(leads)
        self._leads = leads
        self._numerator: list[int] | None = None

    def numerator(self) -> list[int]:
        if self._numerator is None:
            self._numerator = _hilbert_numerator(self._leads, _HILBERT)
        return self._numerator


# Models by (kind, shape, size, pfaffians, field); the oldest is dropped
# past this many.
_MODELS: dict[tuple, _Model] = {}
_MODELS_KEPT = 32


def _model(gens: MatrixGenerators) -> _Model:
    """The generic model of the generators' ideal, made once per process."""
    field = gens.packed.ring.field
    key = (gens.kind, gens.shape, gens.size, gens.pfaffians, field)
    model = _MODELS.get(key)
    if model is None:
        generic = gens.generic().expand()
        rows = _echelon(generic.polys, field, "independence filter")
        model = _Model([generic.packing.unpack(max(row)) for row in rows])
        if len(_MODELS) >= _MODELS_KEPT:
            del _MODELS[next(iter(_MODELS))]
        _MODELS[key] = model
    return model


class _HilbertTarget:
    """The Hilbert function HF_D = [T^D] N(T^delta) / (1 - T)^nvars of a
    ring in `nvars` variables over an ideal of the generators, N the generic
    model's numerator and delta their entry degree: what the ideal has when
    its height is the generic bound nvars (module docstring).  `leading(D)`
    is dim S_D - HF_D, the number of degree-D monomials of its leading-term
    ideal.  The numerator is made at the first call."""

    __slots__ = ("nvars", "_gens", "_leading")

    def __init__(self, gens: MatrixGenerators, nvars: int):
        self.nvars = nvars
        self._gens = gens
        self._leading: dict[int, int] = {}

    def leading(self, degree: int) -> int:
        value = self._leading.get(degree)
        if value is None:
            c, delta = self.nvars - 1, self._gens.degree
            hf = sum(a * comb(degree - delta * k + c, c) for k, a in enumerate(_model(self._gens).numerator()) if delta * k <= degree)
            value = self._leading[degree] = comb(degree + c, c) - hf
        return value


def _hilbert_target(gens: MatrixGenerators, ceiling: int) -> _HilbertTarget | None:
    """The target of a run in `ceiling` variables on the generators, or None:
    their entries share a positive degree, the generic model is of their
    own family (minors of an alternating matrix have the ordinary bound),
    and the ceiling is its generic bound."""
    if not gens.degree or (gens.kind is MatrixKind.ALTERNATING) != gens.pfaffians:
        return None
    if expected_generic_height(gens.kind, *gens.shape, gens.size) != ceiling:
        return None
    return _HilbertTarget(gens, ceiling)


class _DegreeCount:
    """J_D per degree D, for one run: the degree-D monomials in the target's
    variables (the first `target.nvars`) that the leading monomials found
    so far divide, as packed ints.  J_D is the union of x J_{D-1} over those
    variables x and of the leading monomials of degree D; a leading
    monomial of degree d drops the J_D with D > d, remade when asked for.
    `complete(D, reducers)` tells whether |J_D| is the target's count, and
    once it is, it stays so.  Degrees past the packing's largest exponent
    are never complete, so no product overflows."""

    __slots__ = ("target", "_packing", "_steps", "_leads", "_levels", "_seen", "_complete")

    def __init__(self, target: _HilbertTarget, packing: MonomialPacking):
        self.target = target
        self._packing = packing
        n = packing.nvars
        self._steps = [packing.pack(tuple(int(j == i) for j in range(n))) - packing.offset for i in range(target.nvars)]
        self._leads: dict[int, list[int]] = {}
        self._levels: dict[int, set[int]] = {}
        self._seen = 0
        self._complete: set[int] = set()

    def complete(self, degree: int, reducers: list[tuple]) -> bool:
        if degree in self._complete:
            return True
        packing, levels = self._packing, self._levels
        if degree > packing.max_exponent:
            return False
        for r in reducers[self._seen :]:
            lead = r[0] + packing.offset
            d = packing.degree(lead)
            self._leads.setdefault(d, []).append(lead)
            for e in [e for e in levels if e >= d]:
                if e == d:
                    levels[e].add(lead)
                else:
                    del levels[e]
        self._seen = len(reducers)
        if len(self._level(degree)) != self.target.leading(degree):
            return False
        self._complete.add(degree)
        return True

    def _level(self, degree: int) -> set[int]:
        level = self._levels.get(degree)
        if level is None:
            check_deadline(_HILBERT)
            below = self._level(degree - 1) if degree > min(self._leads) else ()
            level = {m + s for m in below for s in self._steps}
            level.update(self._leads.get(degree, ()))
            self._levels[degree] = level
        return level


class _CeilingTest:
    """The stop test of a height run (`buchberger`'s `stop`): do the leading
    monomials, given by their supports, reach `ceiling`?  The last answer is
    kept in `reached`.  `section`, when given, is tried once, at the first
    miss, and its answer stands for the test's.  `target`, when given, is
    the run's Hilbert target, which `_buchberger` reads."""

    __slots__ = ("ceiling", "target", "reached", "_section")

    def __init__(self, ceiling: int, target: _HilbertTarget | None, section: Callable[[], bool] | None = None):
        self.ceiling = ceiling
        self.target = target
        self.reached = False
        self._section = section

    def __call__(self, supports: list[int]) -> bool:
        self.reached = _reaches(supports, self.ceiling)
        if not self.reached and self._section is not None:
            section, self._section = self._section, None
            self.reached = section()
        return self.reached


class IdealHandle:
    """An ideal of a polynomial ring, answering its height.

    The generators are `Polynomial`s, packed once here, or the minors or
    Pfaffians of a matrix (`MatrixGenerators`, as `ideal_of_minors` and
    `ideal_of_pfaffians` pass them).  The handle keeps a basis of their
    span (`_basis`): the nonzero generators themselves when their leading
    monomials are distinct, echelon rows (`_independent`) otherwise, or,
    when the section of the cut matrix certified the count, nothing, and
    `generators` and a height that the section does not decide expand the
    minors or Pfaffians where they are read.  The module docstring gives
    the order of the routes.  The ring is the generators' ring; the zero
    ideal names it with `ring`.  `ceiling`, when given, is an upper bound on
    the height of the ideal whenever it is proper, at which `height` may
    stop early when the generators are homogeneous; inhomogeneous
    generators take a full run with no ceiling test.  A matrix whose entries
    share one degree promises homogeneous generators
    (`MatrixGenerators.homogeneous`); otherwise `height` reads it from the
    terms.  `name` (for example `minors(3)`) appears in timeout messages.
    The minors or Pfaffians of a matrix give its stopped runs in c
    variables a Hilbert target when the module docstring says they have
    one (`_hilbert_target`).
    """

    def __init__(
        self,
        generators: Iterable[Polynomial] | MatrixGenerators,
        ring: PolyRing | None = None,
        *,
        ceiling: int | None = None,
        name: str | None = None,
    ):
        if isinstance(generators, MatrixGenerators):
            frame = generators.packed
        else:
            gens = tuple(generators)
            if not gens and ring is None:
                raise DomainError("the zero ideal needs an explicit ring")
            generators = frame = Packed.of(_ring_of(gens) if gens else ring, gens)
        if ring is not None and ring != frame.ring:
            raise RingMismatchError("the generators live in a different ring from the one given")
        self.ring = ring = frame.ring
        self.ceiling = ring.nvars if ceiling is None else min(ceiling, ring.nvars)
        self.name = name
        self._homogeneous = isinstance(generators, MatrixGenerators) and generators.homogeneous
        # The Hilbert target of a run in `ceiling` variables (module docstring).
        self._target = _hilbert_target(generators, self.ceiling) if isinstance(generators, MatrixGenerators) else None
        # The minors or Pfaffians made on demand, when the section certified their count.
        self._matrix: MatrixGenerators | None = None
        # The echelon rows of the cut matrix, when they certified the count.
        self._section: Packed | None = None
        with ideal_named(name):
            self._packed = self._basis(generators)

    def _basis(self, generators: Packed | MatrixGenerators) -> Packed | None:
        """A basis of the generators' span, or None when they are a matrix's
        minors or Pfaffians whose count the section of the cut matrix
        certified (they are then made on demand).

        The entry rule of the module docstring decides whether the cut
        matrix is expanded first.  Otherwise, and when its section certifies
        nothing, the full generators are expanded here, and they are a basis
        when their leading monomials are distinct; echelon rows otherwise."""
        if isinstance(generators, MatrixGenerators):
            section = generators.cut(self.ceiling) if self._homogeneous and self.ceiling < self.ring.nvars else None
            if section is not None:
                rows = None
                with ideal_named(_section_name(self.name)):
                    # No more selectors than the generic generators' count: a
                    # linear relation among those holds in every specialization.
                    if generators.selector_count <= _model(generators).count:
                        section = section.expand()
                        rows = _echelon(section.polys, self.ring.field, "independence filter", independent=True)
                if rows is not None:
                    self._matrix, self._section = generators, section._replace(polys=rows)
                    return None
            generators = generators.expand()
        polys = [p for p in generators.polys if p]
        packed = generators._replace(polys=polys)
        return packed if len(set(map(max, polys))) == len(polys) else _independent(packed)

    def _generators(self) -> Packed:
        """The basis of the generators' span, expanded if made on demand."""
        return self._packed if self._matrix is None else self._matrix.expand()

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        """An echelon basis of the span of the generators, as `Polynomial`s
        made on each access, from minors or Pfaffians expanded on each
        access when the section certified their count."""
        packed = self._generators()
        return tuple(map(packed.polynomial, _echelon(packed.polys, packed.ring.field, "independence filter")))

    @property
    def generator_count(self) -> int:
        """The dimension of the generators' span."""
        return len((self._packed if self._matrix is None else self._section).polys)

    def height(self):
        """Extended height: +inf for the unit ideal, 0 for the zero ideal.

        The routes run in the order of the module docstring, each exact: the
        certified section first, when there is one; then one Buchberger run
        on the basis, without inter-reduction, which with homogeneous
        generators stops once the leading terms reach the ceiling, on the
        basis itself, in the linear section cut from it (unless the section
        ran first), or later, and the height is the ceiling.  Otherwise the
        height comes from the leading terms of the run."""
        ceiling, nvars = self.ceiling, self.ring.nvars
        with ideal_named(self.name):
            # The linear section is tried once: first when it certified the
            # count, else when the basis misses the ceiling.
            section = ceiling < nvars
            if self._matrix is not None:
                if self._section_reaches(self._section):
                    return ceiling
                section = False
            packed = self._generators()
            homogeneous = self._homogeneous or all(map(packed.packing.is_homogeneous, packed.polys))

            def cut_section() -> bool:
                with ideal_named(_section_name(self.name)):
                    rows = _echelon([p for p in packed.packing.cut(packed.polys, ceiling) if p], self.ring.field, "independence filter")
                return self._section_reaches(packed._replace(polys=rows))

            test = None
            if homogeneous:
                # The target needs a run in c variables: with c < nvars, the section's.
                test = _CeilingTest(ceiling, self._target if ceiling == nvars else None, cut_section if section else None)
            basis = buchberger(packed, stop=_never if test is None else test)
            if not basis:
                return 0
            if basis[0].degree() == 0:
                return math.inf
            if test is not None and test.reached:
                return ceiling
            return nvars - monomial_ideal_dimension([g.leading_monomial() for g in basis], nvars)

    def _section_reaches(self, rows: Packed) -> bool:
        """Does the stopped Buchberger run on these echelon rows of the
        linear section reach the ceiling?  Then so does the height (module
        docstring)."""
        test = _CeilingTest(self.ceiling, self._target)
        with ideal_named(_section_name(self.name)):
            buchberger(rows, stop=test)
        return test.reached

    def __repr__(self) -> str:
        return f"IdealHandle({self.generator_count} generators over {self.ring})"


def _never(supports: list[int]) -> bool:
    """The stop test of inhomogeneous generators, which have no ceiling."""
    return False


def _section_name(name: str | None) -> str:
    """The name of an ideal's linear section in timeout messages."""
    return "the linear section" if name is None else f"the linear section of {name}"


# -- determinantal and Pfaffian ideals ---------------------------------------


def _independent(packed: Packed) -> Packed:
    """An echelon basis of the span of the polynomials: one monic row for
    each polynomial outside the span of those before it, in order, with
    distinct leading monomials.

    Exact elimination over the ring's field (`_echelon`): each row is keyed
    by its largest packed monomial, its leading monomial, and a later
    polynomial has the rows' multiples subtracted that clear its leading
    monomial, until that monomial is new (the polynomial's row) or nothing
    is left (it is dropped).  Each step cancels the row's largest monomial
    and adds only smaller ones, so the reduction terminates.  A polynomial
    is dropped exactly when it lies in the span of the rows, which span
    what the polynomials before it span, so there is one row per
    polynomial outside the span of those before it.
    Tails are not cleared of the other rows' leading monomials here; a run
    that goes on does that (`_cleared`).  Over GF(p), dense polynomials are
    eliminated as rows packed into ints, with no slot carrying into the
    next; `_echelon` gives the density rule and the slot width.
    """
    return packed._replace(polys=_echelon(packed.polys, packed.ring.field, "independence filter"))


def _echelon(polys: list[dict], field: FieldSpec, stage: str, every: int = 1, independent: bool = False) -> list[dict] | None:
    """Echelon rows of the span, in order, each made monic: each polynomial
    minus the multiples of the rows before it that clear its leading
    monomial, until that monomial is new; one that clears to zero is
    dropped, or with `independent` ends the elimination with None, since the
    polynomials are then not linearly independent.  A row is stored monic
    when it is added, so a step subtracts the row times the leading
    coefficient it clears, and no step inverts a coefficient.  Reads the
    clock at every `every`-th polynomial.

    Dense rows.  A polynomial whose leading monomial is new becomes a row
    as it is.  At the first one whose leading monomial is taken, the
    elimination goes on with rows packed into ints (`_dense_echelon`) when
    the field is GF(p) and the terms of the call's polynomials fill at
    least half of rows x columns, the columns being all their monomials
    (`_columns`); otherwise, and over QQ, it goes on with dict rows.  Both
    give the same rows, and a call that eliminates nothing pays nothing for
    the choice.  The minors and Pfaffians of a matrix of linear forms are
    dense: the 60 2-minors of a 4x5 matrix of dense linear forms in 10
    variables fill 99 % of the 55 quadrics, every call on them in the
    perfbench linear-gf workload that eliminates fills at least 98 %, and
    their echelon rows fill 54-67 % in `_cleared`.  Those of generic
    matrices are sparse, at most 10 %: the generic symmetric 4x4 2-minors
    that the entry rule reads fill 5 % of 39 columns, and the 2,485 4-minors
    of a generic symmetric 8x8 matrix 0.07 % of 32,655.  A prototype that
    packed every call over GF(p) took 442 s in
    `test_packed_pivots_keep_what_tuple_pivots_kept`, where the whole test
    suite takes 27 s.

    Slot width.  A packed row holds the coefficient of the monomial
    `columns[j]` in its slot j, the bits [j W, (j + 1) W), the columns in
    ascending order, so the leading monomial of a row is its top nonzero
    slot, found with `bit_length`.  A row enters with coefficients in
    [0, p), and the pivots are kept monic, as tails: their slots below the
    leading one, each in [0, p).  A step takes the top slot j of the row x,
    holding v, with c = v mod p, and sets x = (x - v 2^(jW)) + (p - c) tail,
    which adds less than p^2 to a slot; a top slot with c = 0 is dropped.
    Each step lowers the top slot, so a row takes at most ncols steps, and
    no slot exceeds p + ncols (p - 1)^2 < 2^(2 bits(p) + bits(ncols)).  So
    with W >= 2 bits(p) + bits(ncols) + 1 no slot carries into the next:
    the int is the row, its coefficients to be read mod p.  A top slot with
    no pivot makes the row's pivot, its slots below read mod p and times
    1/c.  `_Slots` rounds W up to whole bytes, so rows convert through
    bytes."""
    mod = field.modulus
    pivots: dict[int, dict] = {}
    collided = False
    for count, p in enumerate(polys, 1):
        if count % every == 0:
            check_deadline(stage)
        row = p
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _monic(row, field)
                break
            if row is p:
                if not collided:
                    collided = True
                    columns = _columns(polys, field)
                    if columns is not None:
                        return _dense_echelon(_Slots(columns, mod), list(pivots.values()), polys, count, stage, every, independent)
                row = dict(p)
            factor = row[lead]
            for m, c in pivot.items():
                s = (row.get(m, 0) - factor * c) % mod
                if s == 0:
                    row.pop(m, None)
                else:
                    row[m] = s
        else:
            if independent:
                return None
    return list(pivots.values())


def _cleared(rows: list[dict], field: FieldSpec, stage: str) -> list[dict]:
    """The reduced echelon basis of rows with distinct leading monomials:
    each made monic and cleared of the others' leading monomials, in
    ascending order of leading monomial.

    Rows are cleared in that order, so a row's tail holds only leading
    monomials of rows already cleared, and subtracting one of those brings
    in none: its own tail is below its leading monomial and already clear.
    From the first row that holds such a monomial on, dense rows over GF(p)
    are cleared packed into ints (`_dense_cleared`), by the rule of
    `_echelon`."""
    mod = field.modulus
    pivots: dict[int, dict] = {}
    rows = sorted(rows, key=max)
    collided = False
    for count, row in enumerate(rows, 1):
        if count % _DEADLINE_EVERY_GENERATORS == 0:
            check_deadline(stage)
        lead = max(row)
        row = _monic(row, field)
        hits = [m for m in row if m in pivots]
        if hits:
            if not collided:
                collided = True
                columns = _columns(rows, field)
                if columns is not None:
                    return _dense_cleared(_Slots(columns, mod), list(pivots.values()), rows, count, field, stage)
            row = dict(row)
            for m in hits:
                factor = row.pop(m)
                for t, c in pivots[m].items():
                    if t != m:
                        s = (row.get(t, 0) - factor * c) % mod
                        if s == 0:
                            row.pop(t, None)
                        else:
                            row[t] = s
        pivots[lead] = row
    return list(pivots.values())


def _columns(rows: list[dict], field: FieldSpec) -> list[int] | None:
    """The monomials of the rows in ascending order, when the field is
    GF(p) and the rows' terms fill at least half of rows x columns; else
    None.  The fill is at least 1/2 exactly when the columns number at most
    2 * terms / rows, so the union stops growing past that count."""
    if field.p is None:
        return None
    limit = 2 * sum(map(len, rows)) // len(rows)
    columns: set[int] = set()
    for row in rows:
        columns.update(row)
        if len(columns) > limit:
            return None
    return sorted(columns)


# Array type codes by item size in bytes, for converting rows of `_Slots`.
_ARRAY_CODES = {array(code).itemsize: code for code in "QIHB"}


class _Slots:
    """Rows over GF(p) packed into ints, one slot of `width` bits per column
    (the layout and the width bound are in `_echelon`).  The width is that
    bound rounded up to an array item (8, 16, 32 or 64 bits) when one is
    large enough, and to whole bytes otherwise, so that rows convert to
    and from ints through bytes: at 55 columns of GF(32003), about 1 us to
    split a row and 1 us to pack one, against 6-7 us by shifts (timeit
    minima, 2-vCPU Xeon, Python 3.11)."""

    __slots__ = ("columns", "index", "p", "width", "_size", "_code")

    def __init__(self, columns: list[int], p: int):
        self.columns = columns
        self.index = {m: j for j, m in enumerate(columns)}
        self.p = p
        bits = 2 * p.bit_length() + len(columns).bit_length() + 1
        self._size = size = min((s for s in _ARRAY_CODES if 8 * s >= bits), default=-(-bits // 8))
        self._code = _ARRAY_CODES.get(size)
        self.width = 8 * size

    def pack(self, row: dict) -> int:
        """The row, with coefficients in [0, p), as an int."""
        values = [0] * len(self.columns)
        index = self.index
        for m, c in row.items():
            values[index[m]] = c
        return self.join(values)

    def join(self, values: list[int]) -> int:
        """The int whose slot j holds values[j], each in [0, 2^W)."""
        if self._code is None:
            size = self._size
            return int.from_bytes(b"".join([v.to_bytes(size, sys.byteorder) for v in values]), sys.byteorder)
        return int.from_bytes(array(self._code, values).tobytes(), sys.byteorder)

    def split(self, x: int, n: int) -> list[int]:
        """The first n slots of x, which has none above them."""
        size = self._size
        data = x.to_bytes(n * size, sys.byteorder)
        if self._code is None:
            return [int.from_bytes(data[i : i + size], sys.byteorder) for i in range(0, len(data), size)]
        return array(self._code, data).tolist()

    def row(self, j: int, values: list[int]) -> dict:
        """The monic row with leading monomial `columns[j]` and the
        coefficients `values` below it, in descending order."""
        columns = self.columns
        row = {columns[j]: 1}
        for i in range(j - 1, -1, -1):
            if values[i]:
                row[columns[i]] = values[i]
        return row

    def tails(self, rows: list[dict], stage: str, every: int) -> dict[int, int]:
        """The packed tails of monic rows, keyed by the slot of their
        leading monomial; reads the clock at every `every`-th row."""
        tails = {}
        index, width = self.index, self.width
        for count, row in enumerate(rows, 1):
            if count % every == 0:
                check_deadline(stage)
            j = index[max(row)]
            tails[j] = self.pack(row) - (1 << j * width)
        return tails


def _dense_echelon(slots: _Slots, rows: list[dict], polys: list[dict], start: int, stage: str, every: int, independent: bool) -> list[dict] | None:
    """`_echelon` of the polynomials from the `start`-th on (counting from
    1), after the monic `rows` of those before it, on packed rows: the steps
    of its docstring.  Reads the clock at every `every`-th row it packs."""
    p, width = slots.p, slots.width
    tails = slots.tails(rows, stage, every)
    for count, poly in enumerate(polys[start - 1 :], start):
        if count % every == 0:
            check_deadline(stage)
        x = slots.pack(poly)
        while x:
            j = (x.bit_length() - 1) // width
            shift = j * width
            v = x >> shift
            x -= v << shift
            c = v % p
            if not c:
                continue
            tail = tails.get(j)
            if tail is None:
                inverse = pow(c, -1, p)
                values = [s * inverse % p for s in slots.split(x, j)]
                tails[j] = slots.join(values)
                rows.append(slots.row(j, values))
                break
            x += (p - c) * tail
        else:
            if independent:
                return None
    return rows


def _dense_cleared(slots: _Slots, cleared: list[dict], rows: list[dict], start: int, field: FieldSpec, stage: str) -> list[dict]:
    """`_cleared` of the sorted rows from the `start`-th on (counting from
    1), after the `cleared` rows of those before it, on packed rows.

    A row x, made monic, adds (p - c) tail for each leading monomial of a
    cleared row that it holds with coefficient c, and drops that c.  The
    tails are clear of every leading monomial below theirs, so no step
    changes another's c, and a slot gains less than p^2 per step, at most
    ncols times, as in `_echelon`.  The cleared row's slots are then read
    mod p."""
    p, width, index = slots.p, slots.width, slots.index
    tails = slots.tails(cleared, stage, _DEADLINE_EVERY_GENERATORS)
    for count, row in enumerate(rows[start - 1 :], start):
        if count % _DEADLINE_EVERY_GENERATORS == 0:
            check_deadline(stage)
        j = index[max(row)]
        row = _monic(row, field)
        x = slots.pack(row) - (1 << j * width)
        hits = [(index[m], c) for m, c in row.items() if index[m] in tails]
        if hits:
            for i, c in hits:
                x += (p - c) * tails[i] - (c << i * width)
            values = [s % p for s in slots.split(x, j)]
            x = slots.join(values)
            row = slots.row(j, values)
        tails[j] = x
        cleared.append(row)
    return cleared


def ideal_of_minors(M: PolyMatrix, t: int) -> IdealHandle:
    """I_t(M); the unit ideal for t <= 0 and the zero ideal for t > min(m, n)."""
    if t <= 0:
        return IdealHandle((M.ring.one(),))
    if t > min(M.m, M.n):
        return IdealHandle((), ring=M.ring)
    # Eagon and Northcott's bound holds for every matrix; symmetric ones
    # have the smaller bound of their kind.
    bound_kind = MatrixKind.SYMMETRIC if M.kind is MatrixKind.SYMMETRIC else MatrixKind.ORDINARY
    ceiling = expected_generic_height(bound_kind, M.m, M.n, t)
    return IdealHandle(minor_generators(M, t), ceiling=ceiling, name=f"minors({t})")


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
    ceiling = expected_generic_height(M.kind, M.m, M.n, two_t)
    return IdealHandle(pfaffian_generators(M, two_t), ceiling=ceiling, name=f"pfaffians({two_t})")


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


@dataclass(frozen=True)
class GenericHeightReport:
    """Outcome of the generic-height test: actual vs the maximal height."""

    ok: bool
    actual: object  # int or math.inf
    expected: int


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
        # (family, size) -> height, and number of linearly independent
        # minors or Pfaffians, of each ideal built.
        self._heights: dict[tuple[str, int], object] = {}
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
        self.generator_counts[family, size] = ideal.generator_count
        return ideal

    def _height(self, family: str, size: int):
        if (family, size) not in self._heights:
            self._heights[family, size] = self.build(family, size).height()
        return self._heights[family, size]

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
        return GenericHeightReport(actual == expected, actual, expected)

    def generic_report(self, t: int) -> GenericHeightReport:
        """Generic-height report of the level-t ideal."""
        return self._generic_report(*self.ideal_at(self.M.kind, t))

    def require_generic(self, t: int) -> None:
        report = self.generic_report(t)
        if not report.ok:
            raise GenericHeightError(
                f"the ideal is not of generic height: height {report.actual}, expected {report.expected}"
            )
