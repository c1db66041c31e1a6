"""Monomials packed into ints, and polynomials as dicts of them.

The expansion of minors and Pfaffians (`matrixalg`) and the Groebner core
(`groebner`) share one representation: a monomial is a Python int
(`MonomialPacking`), a polynomial is a dict from those ints to nonzero
coefficients, and `Packed` holds a list of such polynomials with their ring
and packing.  A `Polynomial` is made from it only where a library function
returns one.

Layout.  Each variable gets a field of w bits, whose top bit is a guard bit
and whose other bits hold an exponent of at most C = 2^(w-1) - 1:

* lex: field i holds e_i, the first variable in the most significant field.
* grevlex: field i holds C - e_i, the last variable in the most significant
  field, and the total degree sits above all fields.

Integer order is the monomial order.  The fields never exceed C, so an int
is a mixed-radix number whose digits, most significant first, are
(e_0, ..., e_{n-1}) under lex and (deg, -e_{n-1} + C, ..., -e_0 + C) under
grevlex; ints compare digit by digit, which is `MonomialOrder.key`.  So the
leading monomial of a packed polynomial is `max` of its keys, at any width.

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
(lex) or C - a_i - b_i (grevlex).  With no exponent sum above C every
field lies in [0, C] and no guard bit is set; otherwise the least
significant field whose sum passes C sets its guard bit.  So one rule
covers every product: a guard bit set is an overflow.

Width.  A packing is made with room for twice an exponent bound b, and at
least 7 exponent bits: w = max(8, (2b).bit_length() + 1), so C >= 2b.  The
expansion of a minor or Pfaffian takes b from a degree bound, which is also
its proof that no product overflows (see `matrixalg`).  The Groebner core
tests each product it forms by the guard rule and restarts with twice the
width on an overflow (`Packed.widened`).

Supports.  The support of a monomial, as a bitmask with one bit per
variable, is read from its int in one step: the guard bits of
(y + C*1) & guard, where C*1 has C in every field and y holds e_i in field
i, y = x under lex and y = K - (x & fields) under grevlex.  Field i of
y + C*1 holds C + e_i, at most 2C < 2^w so nothing carries, and its top bit
is set exactly when e_i > 0.
"""

from __future__ import annotations

from operator import lshift
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError
from .poly import Monomial, MonomialOrder, PolyRing, Polynomial


class PackingOverflow(DomainError):
    """An exponent does not fit the field width of a MonomialPacking."""


PRODUCT_OVERFLOW = "a product exponent exceeds the packed width"


class MonomialPacking:
    """Exponent tuples of one ring packed into ints ordered like the monomials.

    The layout, and why the product, the quotient, the divisibility test and
    the support mask are exact, are in the module docstring.
    """

    __slots__ = ("nvars", "order", "width", "max_exponent", "offset", "guard", "_shifts", "_top", "_fields", "_field", "_spread")

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
        self._fields = (1 << self._top) - 1 if grevlex else None
        # C in every field: K under grevlex, and the addend of the support mask.
        self._spread = sum(cap << s for s in self._shifts)
        self.offset = self._spread if grevlex else 0
        self.guard = sum(1 << (s + width - 1) for s in self._shifts)

    @classmethod
    def with_room(cls, ring: PolyRing, bound: int) -> "MonomialPacking":
        """A packing of the ring's order with room for twice the exponent
        `bound`, and at least 7 exponent bits."""
        return cls(ring.nvars, ring.order, max(8, (2 * bound).bit_length() + 1))

    @classmethod
    def fitting(cls, ring: PolyRing, polys: Iterable[Polynomial]) -> "MonomialPacking":
        """`with_room` for the largest exponent in the polynomials."""
        return cls.with_room(ring, max((max(m, default=0) for p in polys for m in p.terms), default=0))

    def widened(self) -> "MonomialPacking":
        return MonomialPacking(self.nvars, self.order, 2 * self.width)

    def pack(self, m: Monomial) -> int:
        if max(m, default=0) > self.max_exponent:
            raise PackingOverflow(f"exponent {max(m)} exceeds the packed maximum {self.max_exponent}")
        x = sum(map(lshift, m, self._shifts))
        if self._top is None:
            return x
        return (sum(m) << self._top) + self.offset - x

    def _exponents(self, x: int) -> int:
        """The int holding e_i in field i: x under lex, K - (x & fields)
        under grevlex, where no field borrows since C - e_i <= C."""
        return x if self._top is None else self.offset - (x & self._fields)

    def unpack(self, x: int) -> Monomial:
        y = self._exponents(x)
        field = self._field
        return tuple((y >> s) & field for s in self._shifts)

    def degree(self, x: int) -> int:
        return x >> self._top if self._top is not None else sum(self.unpack(x))

    def is_homogeneous(self, poly: dict) -> bool:
        """Do all terms of the nonzero packed polynomial share one degree?
        Grevlex sorts by degree first, so the greatest and least keys decide."""
        if self._top is not None:
            return max(poly) >> self._top == min(poly) >> self._top
        return len({self.degree(m) for m in poly}) == 1

    def support(self, x: int) -> int:
        """The variables of x as guard bits (see the module docstring)."""
        return (self._exponents(x) + self._spread) & self.guard

    def cut(self, polys: Iterable[dict], first: int) -> Iterator[dict]:
        """Each packed polynomial with the variables from index `first` on
        set to zero: the terms whose support holds none of them, made one at
        a time.  Those variables' guard bits are the ones above the fields
        of the first `first` variables under grevlex, and below the fields
        of the other variables under lex."""
        if self._top is not None:
            below = self.width * first
            mask = self.guard >> below << below
        else:
            mask = self.guard & ((1 << (self.width * (self.nvars - first))) - 1)
        support = self.support
        return ({m: c for m, c in p.items() if not support(m) & mask} for p in polys)

    def mul(self, a: int, b: int) -> int:
        """The packed product; raises PackingOverflow past the width."""
        r = a + b - self.offset
        if r & self.guard:
            raise PackingOverflow(PRODUCT_OVERFLOW)
        return r

    def div(self, a: int, b: int) -> int | None:
        """The packed quotient a / b, or None when b does not divide a."""
        r = a - b + self.offset
        return None if r & self.guard else r


class Packed(NamedTuple):
    """Polynomials of `ring`, each a dict from `packing` ints to nonzero
    coefficients.  The dicts are shared, never changed in place."""

    ring: PolyRing
    packing: MonomialPacking
    polys: list

    @classmethod
    def of(cls, ring: PolyRing, polys: Iterable[Polynomial]) -> "Packed":
        """The polynomials packed with room for twice their largest exponent."""
        polys = list(polys)
        packing = MonomialPacking.fitting(ring, polys)
        return cls(ring, packing, [{packing.pack(m): c for m, c in p.terms.items()} for p in polys])

    def widened(self) -> "Packed":
        """The same polynomials at twice the width."""
        old, new = self.packing, self.packing.widened()
        return self._replace(packing=new, polys=[{new.pack(old.unpack(m)): c for m, c in p.items()} for p in self.polys])

    def polynomial(self, poly: dict) -> Polynomial:
        unpack = self.packing.unpack
        return Polynomial(self.ring, {unpack(m): c for m, c in poly.items()}, _clean=True)

    def polynomials(self) -> list[Polynomial]:
        return [self.polynomial(p) for p in self.polys]
