"""Cited closed forms: two resolution families and the N(.) constants.

Generation degrees of the two known families of resolutions of powers
(maximal minors of an ordinary matrix; submaximal Pfaffians of an odd-size
alternating matrix), which the acceptance suite pins against a fixture,
and the piecewise N(.) constants that the explicit bounds in `bounds` read.

Values are transcriptions, never computations.  -inf encodes a vanishing
module (absent homological position).
"""

from __future__ import annotations

import math

from .errors import DomainError

NEG_INF = -math.inf


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
