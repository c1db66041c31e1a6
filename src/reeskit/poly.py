"""Exact multivariate polynomials over the rationals or a prime field.

A polynomial is a sparse map from exponent tuples to nonzero coefficients.
Coefficients are ``fractions.Fraction`` over the rationals, or canonical
representatives in ``[1, p)`` over the prime field F_p.  Nothing here ever
rounds: arithmetic, parsing, and printing are exact, and every value is
immutable after construction, so polynomials can be shared freely between
threads.

Coefficient arithmetic, here and in the engine, is one expression,
``(a op b) % field.modulus``, with quotients through ``field.inverse``.
Over F_p the modulus is p.  Over the rationals ``x % modulus`` is x, so the
expression is exact ``Fraction`` arithmetic; ``inverse`` returns a Fraction.

Monomial orders: graded reverse lexicographic (the default, used for all
dimension work) and lexicographic.  Canonical printing lists terms in
descending order with explicit ``*`` and ``^``; juxtaposition is not a
product, so multi-character variable names are unambiguous.

Text grammar (whitespace insignificant, one optional leading sign)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' NAT)?
    base   := NAT | NAT '/' NAT | IDENT | '(' expr ')'

Parentheses nest at most 256 deep: a '(' past that is a parse error at its
column.  Parsing reads the clock only in `Polynomial` arithmetic, under
`polynomial arithmetic`: the products and powers of parenthesized factors
and the powers of numbers.  A term of numbers, fractions, variables and
their powers is built as one monomial and reads none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, itemgetter
from types import MappingProxyType
from typing import Iterable

from .deadline import check_deadline
from .errors import DomainError, PolyParseError, RingMismatchError

# An exponent tuple, one slot per ring variable.
Monomial = tuple[int, ...]

# A product reads the clock before its first term product and then once per
# this many term products, at the start of a term of the left operand.
_DEADLINE_EVERY_PRODUCTS = 4096

# m[::-1]: the exponents from the last variable backwards.
_reversed = itemgetter(slice(None, None, -1))


def mon_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b as a monomial, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # Deterministic Miller-Rabin for anything below 3.3e24 (covers a word).
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Rationals:
    """Stands in for the modulus over QQ, where `x % _RATIONALS` is x."""

    def __rmod__(self, x):
        return x


_RATIONALS = _Rationals()


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (p is None) or F_p for a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not 2 <= self.p < 2**63:
                raise DomainError(f"prime modulus must be a machine-word integer >= 2, got {self.p!r}")
            if not _is_prime(self.p):
                raise DomainError(f"modulus {self.p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls()

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def kind(self) -> str:
        return "rationals" if self.p is None else "prime-field"

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def modulus(self):
        """p, or over QQ a stand-in: `(a op b) % modulus` is a op b in this field."""
        return _RATIONALS if self.p is None else self.p

    def inverse(self, c):
        """1 / c in this field, exactly; ZeroDivisionError when c is 0."""
        if self.p is None:
            return Fraction(1, c)
        try:
            return pow(c, -1, self.p)
        except ValueError:
            raise ZeroDivisionError(f"{c} is not invertible modulo {self.p}") from None

    def coerce(self, value) -> Fraction | int:
        """Bring an int/Fraction into canonical coefficient form."""
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            return value.numerator * self.inverse(value.denominator) % self.p
        return value % self.p

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


class MonomialOrder(Enum):
    GREVLEX = "grevlex"
    LEX = "lex"

    def key(self, m: Monomial):
        """Sort key: key(a) > key(b) iff a > b in this order."""
        if self is MonomialOrder.GREVLEX:
            return (sum(m), tuple(-e for e in reversed(m)))
        return m


GREVLEX = MonomialOrder.GREVLEX
LEX = MonomialOrder.LEX


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring: ordered variable names, a field, a monomial order."""

    variables: tuple[str, ...]
    field: FieldSpec = FieldSpec()
    order: MonomialOrder = MonomialOrder.GREVLEX

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        index: dict[str, int] = {}
        for v in self.variables:
            if not v or not (v[0].isalpha() or v[0] == "_") or not all(c.isalnum() or c == "_" for c in v):
                raise DomainError(f"invalid variable name {v!r}")
            if v in index:
                raise DomainError(f"duplicate variable name {v!r}")
            index[v] = len(index)
        # Each variable's position, read by `var` and `parse_poly`.
        object.__setattr__(self, "_index", index)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def mkey(self, m: Monomial):
        return self.order.key(m)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {}, _clean=True)

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        terms = {} if c == 0 else {(0,) * self.nvars: c}
        return Polynomial(self, terms, _clean=True)

    def var(self, name: str) -> "Polynomial":
        if name not in self._index:
            raise DomainError(f"unknown variable {name!r} in ring {self.variables}")
        exps = [0] * self.nvars
        exps[self._index[name]] = 1
        return Polynomial(self, {tuple(exps): self.field.coerce(1)}, _clean=True)

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(v) for v in self.variables)

    def term(self, coeff, exponents: Iterable[int]) -> "Polynomial":
        m = tuple(exponents)
        if len(m) != self.nvars or any(e < 0 for e in m):
            raise DomainError(f"bad exponent tuple {m} for {self.nvars} variables")
        c = self.field.coerce(coeff)
        return Polynomial(self, {m: c} if c != 0 else {}, _clean=True)

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.variables)}] ({self.order.value})"


class Polynomial:
    """Immutable sparse polynomial; no zero coefficients are ever stored."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, *, _clean: bool = False):
        if not _clean:
            clean: dict[Monomial, object] = {}
            n = ring.nvars
            for m, c in terms.items():
                m = tuple(m)
                if len(m) != n or any(e < 0 for e in m):
                    raise DomainError(f"bad monomial {m} for {n} variables")
                c = ring.field.coerce(c)
                if c != 0:
                    clean[m] = c
            terms = clean
        self.ring = ring
        self._terms = terms
        self._hash: int | None = None

    # -- inspection ------------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in descending order under the ring's monomial order."""
        return sorted(self._terms.items(), key=lambda kv: self.ring.mkey(kv[0]), reverse=True)

    def leading_term(self) -> tuple[Monomial, object] | None:
        m = self.leading_monomial()
        return None if m is None else (m, self._terms[m])

    def leading_monomial(self) -> Monomial | None:
        """The greatest monomial in the ring's order, found without building
        a `MonomialOrder.key` for each term.

        Lex compares exponent tuples from the first variable on, as tuples
        compare, so the leader is `max(terms)`.  Grevlex compares
        key(m) = (deg m, (-e_{n-1}, ..., -e_0)): first the total degree, so
        the leader has the highest one; then, among those terms, the negated
        exponents from the last variable backwards, whose greatest tuple is
        the smallest m[::-1].  Distinct monomials have distinct keys, so
        each maximum is one monomial, the one `max(terms, key=mkey)` gives.
        """
        terms = self._terms
        if not terms:
            return None
        if self.ring.order is MonomialOrder.LEX:
            return max(terms)
        degrees = list(map(sum, terms))
        top = max(degrees)
        return min((m for m, d in zip(terms, degrees) if d == top), key=_reversed)

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(m) for m in self._terms)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        # Operands nearly always share one ring object; identity is cheaper
        # than the dataclass comparison.
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"operands in different rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = self.ring.constant(other)
            else:
                return NotImplemented
        self._check_ring(other)
        mod = self.ring.field.modulus
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = (out[m] + c) % mod if m in out else c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        mod = self.ring.field.modulus
        return Polynomial(self.ring, {m: -c % mod for m, c in self._terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = self.ring.constant(other)
            else:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                c = self.ring.field.coerce(other)
                if c == 0:
                    return self.ring.zero()
                mod = self.ring.field.modulus
                return Polynomial(self.ring, {m: v * c % mod for m, v in self._terms.items()}, _clean=True)
            return NotImplemented
        self._check_ring(other)
        if not self._terms or not other._terms:
            return self.ring.zero()
        mod = self.ring.field.modulus
        out: dict[Monomial, object] = {}
        width, due = len(other._terms), 0
        for ma, ca in self._terms.items():
            if due <= 0:
                check_deadline("polynomial arithmetic")
                due = _DEADLINE_EVERY_PRODUCTS
            due -= width
            for mb, cb in other._terms.items():
                m = tuple(map(add, ma, mb))
                s = (out.get(m, 0) + ca * cb) % mod
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"polynomial exponent must be a non-negative integer, got {n!r}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self) -> "Polynomial":
        """Divide by the leading coefficient (zero stays zero)."""
        lt = self.leading_term()
        if lt is None:
            return self
        field = self.ring.field
        inv, mod = field.inverse(lt[1]), field.modulus
        return Polynomial(self.ring, {m: c * inv % mod for m, c in self._terms.items()}, _clean=True)

    # -- equality --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


class _AllDegreesType:
    """Sentinel: the zero polynomial is homogeneous of every degree."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL_DEGREES"


ALL_DEGREES = _AllDegreesType()


def homogeneous_degree(p: Polynomial):
    """Common total degree of all terms; None if mixed; ALL_DEGREES for 0."""
    if p.is_zero:
        return ALL_DEGREES
    degs = {sum(m) for m in p.terms}
    return degs.pop() if len(degs) == 1 else None


# -- printing ------------------------------------------------------------


def _format_monomial(m: Monomial, variables: tuple[str, ...]) -> str:
    parts = []
    for name, e in zip(variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    """Canonical text: terms descending, explicit '*' and '^'."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    rational = p.ring.field.p is None
    for m, c in p.sorted_terms():
        negative = rational and c < 0
        mag = -c if negative else c
        mono = _format_monomial(m, p.ring.variables)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


# -- parsing -------------------------------------------------------------

# A token: a run of decimal digits, a run of word characters, or any other
# character but whitespace, which `findall` skips.  `\d`, `\w` and `\s` are
# `str.isdecimal`, `isalnum` or "_", and `isspace`.  A word token must start
# with a letter or "_" (checked in `parse_poly`), so `²x` is an unexpected
# character, not an identifier.
_TOKEN = re.compile(r"\d+|\w+|\S")
_OPERATORS = frozenset("+-*^()/")
# The nesting bound of the grammar docstring.
_MAX_NESTING = 256


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse the grammar above into a canonical polynomial of `ring`.

    Each sum, the whole text or one in parentheses, is added into one dict
    in place, dropping zeros as `Polynomial.__add__` does, so the terms come
    out in the order that adding the terms one by one gives.  A term whose
    factors are numbers, fractions, variables and their powers is one
    monomial with one coefficient.  Only parenthesized factors, their
    powers and the powers of numbers use `Polynomial` arithmetic, the one
    place that reads the clock (the module docstring).
    """
    tokens = _TOKEN.findall(text)
    for k, tok in enumerate(tokens):
        ch = tok[0]
        if ch not in _OPERATORS and not (ch.isdecimal() or ch.isalpha() or ch == "_"):
            _fail(text, f"unexpected character {ch!r}", k)
    tokens.append("")
    field, index = ring.field, ring._index
    p, mod, nvars = field.p, field.modulus, ring.nvars

    def expect(k: int, what: str) -> int:
        """The NAT at token k, or a parse error naming `what`."""
        if not tokens[k][:1].isdecimal():
            _fail(text, f"expected {what}, found {tokens[k] or 'end of input'!r}", k)
        return int(tokens[k])

    def expression(k: int, depth: int) -> tuple[dict, int]:
        """The terms of the sum from token k, and the index after it."""
        terms: dict[Monomial, object] = {}
        negate = tokens[k] == "-"
        if negate or tokens[k] == "+":
            k += 1
        while True:
            c, exps, group = 1, [0] * nvars, None
            while True:
                tok = tokens[k]
                start, k = k, k + 1
                if tok[:1].isdecimal():
                    v = int(tok)
                    if tokens[k] == "/":
                        d = expect(k + 1, "denominator")
                        if d == 0:
                            _fail(text, "zero denominator", k + 1)
                        if p is not None and d % p == 0:
                            _fail(text, f"denominator {d} is divisible by the modulus {p}", k + 1)
                        v = Fraction(v, d) if p is None else v * pow(d, -1, p)
                        k += 2
                    if tokens[k] == "^":
                        v = next(iter((ring.constant(v) ** expect(k + 1, "exponent")).terms.values()), 0)
                        k += 2
                    c *= v
                elif tok in index:
                    if tokens[k] == "^":
                        exps[index[tok]] += expect(k + 1, "exponent")
                        k += 2
                    else:
                        exps[index[tok]] += 1
                elif tok == "(":
                    if depth == _MAX_NESTING:
                        _fail(text, f"parentheses nested deeper than {_MAX_NESTING}", start)
                    sub, k = expression(k, depth + 1)
                    if tokens[k] != ")":
                        _fail(text, f"expected ')', found {tokens[k] or 'end of input'!r}", k)
                    g = Polynomial(ring, sub, _clean=True)
                    if tokens[k + 1] == "^":
                        g = g ** expect(k + 2, "exponent")
                        k += 2
                    k += 1
                    group = g if group is None else group * g
                elif tok and tok not in _OPERATORS:
                    _fail(text, f"unknown identifier {tok!r}", start)
                else:
                    _fail(text, f"expected a number, variable, or '(', found {tok or 'end of input'!r}", start)
                tok = tokens[k]
                if tok == "*":
                    k += 1
                elif tok and (tok not in _OPERATORS or tok == "("):
                    # Juxtaposition is not multiplication here.
                    _fail(text, f"missing '*' before {tok!r}", k)
                else:
                    break
            c = Fraction(c) if p is None else c % p
            if c:
                if group is None:
                    added = ((tuple(exps), c),)
                else:
                    if c != 1 or any(exps):
                        group = group * Polynomial(ring, {tuple(exps): c}, _clean=True)
                    added = group._terms.items()
                for m, v in added:
                    if negate:
                        v = -v % mod
                    if m in terms:
                        s = (terms[m] + v) % mod
                        if s:
                            terms[m] = s
                        else:
                            del terms[m]
                    else:
                        terms[m] = v
            tok = tokens[k]
            if tok != "+" and tok != "-":
                return terms, k
            negate = tok == "-"
            k += 1

    terms, k = expression(0, 0)
    if tokens[k]:
        _fail(text, f"unexpected trailing {tokens[k]!r}", k)
    return Polynomial(ring, terms, _clean=True)


def _fail(text: str, message: str, k: int):
    """Raise the parse error at the start of token k of `text` (its end for
    the token past the last)."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    raise PolyParseError(message, starts[k])
