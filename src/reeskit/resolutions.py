"""Closed-form tables the bound engine reads.

Generation degrees of the two known families of resolutions of powers
(maximal minors of an ordinary matrix; submaximal Pfaffians of an odd-size
alternating matrix), maximal projective dimensions of powers, containment
thresholds sigma(j), regularity of powers where cited values exist, and the
piecewise N(.) constants entering the explicit bounds.

Values are transcriptions, never computations, and each lookup that has a
catalog source carries its label so reports stay auditable.  Outside a
cited range the answer is the distinguished NOT_KNOWN value, never a guess.
-inf encodes a vanishing module (absent homological position).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CharacteristicError, DomainError, NotApplicableError
from .gs import ProblemInstance, specialization_case
from .matrixalg import MatrixKind

NEG_INF = -math.inf


class _NotKnownType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_KNOWN"


NOT_KNOWN = _NotKnownType()


class LabeledValue(NamedTuple):
    """A table value plus the catalog label it was transcribed from."""

    value: object
    source: str


def abw_generation_degree(m: int, n: int, k: int, i: int):
    """Generation degree of position i in the length-min{k,m}(n-m) linear
    resolution of the k-th power of the maximal-minor ideal (after the k*t
    twist): i on the support, 0 at i = 0, -inf beyond the length."""
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if i < 0:
        raise DomainError(f"need i >= 0, got {i}")
    if i == 0:
        return 0
    return i if i <= min(k, m) * (n - m) else NEG_INF


def ku_generation_degree(n: int, k: int, i: int):
    """Generation degree of position i in the resolution of the k-th power
    of the submaximal-Pfaffian ideal of an odd n x n alternating matrix."""
    if n < 3 or n % 2 == 0:
        raise DomainError(f"need odd n >= 3, got {n}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if i < 0:
        raise DomainError(f"need i >= 0, got {i}")
    if i <= min(k, n - 1):
        return i
    if i == k + 1 and i <= n - 1:
        if k % 2 == 1:
            # n odd and i even make the half-integer part integral.
            return (i - 1) + (n - i + 1) // 2
        return NEG_INF
    return NEG_INF


# Lemma 4.3, by the Prop 4.7 case of the instance.
_MAX_PDIM = {
    "i": lambda i: i.m * (i.n - i.m),
    "ii": lambda i: i.m * i.n - 1,
    "iii": lambda i: math.comb(i.n + 1, 2) - 1,
    "iv": lambda i: i.n - 1,
    "v": lambda i: math.comb(i.n, 2) - 1,
}


def max_pdim_powers(inst: ProblemInstance) -> LabeledValue:
    """Maximum over k of the projective dimension of the k-th power of the
    generic ideal.  The two determinant-like cases (symmetric t = n,
    alternating 2t = n) are not covered and raise NotApplicableError."""
    if inst.kind is MatrixKind.SYMMETRIC and inst.t == inst.n:
        raise NotApplicableError("symmetric t = n (a single determinant) is not covered")
    case = specialization_case(inst)
    return LabeledValue(_MAX_PDIM[case.tag](inst), f"Lemma 4.3{case.tag}")


def sigma_threshold(inst: ProblemInstance, j: int) -> LabeledValue:
    """Homological position from which the level-j lower ideal is contained
    in the radicals of the Fitting ideals of every power's resolution.

    In each case it is the Prop 4.7 threshold of that case at level j+1.
    """
    case = specialization_case(inst)
    if not 1 <= j <= inst.t - 1:
        raise DomainError(f"need 1 <= j <= t-1 = {inst.t - 1}, got {j}")
    return LabeledValue(case.threshold(inst, j + 1), f"Lemma 4.6{case.tag}")


def regularity_power(inst: ProblemInstance, k: int) -> LabeledValue:
    """Castelnuovo-Mumford regularity of the k-th power of the generic
    ideal, where a characteristic-zero value is on record; NOT_KNOWN
    elsewhere."""
    if inst.char != 0:
        raise CharacteristicError("cited regularity values require characteristic zero")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    m, n, t = inst.m, inst.n, inst.t
    if inst.kind is MatrixKind.ORDINARY:
        if t == 2 and m >= 2:
            if 2 <= k <= m - 2:
                return LabeledValue(k + m - 1, "Thm 5.2.4 (regularity input)")
            if k >= m - 1:
                return LabeledValue(2 * k, "Thm 5.2.4 (regularity input)")
            return LabeledValue(NOT_KNOWN, None)
        if t == n - 1 and m == n and k >= n - 1:
            return LabeledValue(k * (n - 1) + n_constants("square_submax", n), "Thm 5.2.6 (regularity input)")
        if 2 < t < m and k >= m - 1:
            return LabeledValue(t * k + n_constants("ordinary_minors", t), "Thm 5.2.8 (regularity input)")
    return LabeledValue(NOT_KNOWN, None)


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise AssertionError(f"{what} is not integral: {num}/{den}")
    return num // den


def n_constants(selector: str, arg: int) -> int:
    """The piecewise regularity constants N(.) of the explicit bounds."""
    if selector == "square_submax":
        if arg < 2:
            raise DomainError(f"square_submax needs n >= 2, got {arg}")
        if arg % 2 == 0:
            return ((arg - 2) // 2) ** 2
        return _exact_div((arg - 3) * (arg - 1), 4, "square_submax")
    if selector == "ordinary_minors":
        if arg < 3:
            raise DomainError(f"ordinary_minors needs t >= 3, got {arg}")
        if arg % 2 == 1:
            return ((arg - 1) // 2) ** 2
        return _exact_div((arg - 2) * arg, 4, "ordinary_minors")
    if selector == "pfaff_n_minus_2":
        if arg < 4 or arg % 2 != 0:
            raise DomainError(f"pfaff_n_minus_2 needs even n >= 4, got {arg}")
        if arg % 4 == 0:
            return _exact_div((arg - 4) ** 2, 8, "pfaff_n_minus_2")
        return _exact_div((arg - 2) * (arg - 6), 8, "pfaff_n_minus_2")
    if selector == "pfaff_general":
        if arg < 3:
            raise DomainError(f"pfaff_general needs t >= 3, got {arg}")
        if arg % 2 == 0:
            return arg * (arg // 2 - 1)
        return _exact_div((arg - 1) ** 2, 2, "pfaff_general")
    raise DomainError(f"unknown constant selector {selector!r}")
